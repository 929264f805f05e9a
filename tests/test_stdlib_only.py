"""The runtime stays stdlib-only: importing nilorbit and every submodule in
a fresh isolated interpreter loads no third-party module."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules loaded before the first nilorbit import come from start-up (the
# .pth files of site-packages may import some) and are left out.  __main__
# is not imported: importing it runs the command line.
CHECK = """
import importlib, pkgutil, sys
start = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import nilorbit
for info in pkgutil.walk_packages(nilorbit.__path__, "nilorbit."):
    if info.name != "nilorbit.__main__":
        importlib.import_module(info.name)
loaded = set(sys.modules) - start
allowed = set(sys.stdlib_module_names) | {"nilorbit"}
print(len([m for m in loaded if m.startswith("nilorbit.")]))
print(" ".join(sorted({m.split(".")[0] for m in loaded} - allowed)))
"""


def test_runtime_imports_only_the_standard_library():
    out = subprocess.run([sys.executable, "-I", "-c", CHECK, str(SRC)],
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert int(out[0]) >= 10  # the submodules were imported
    assert out[1] == "", f"third-party modules imported at runtime: {out[1]}"
