"""Record the sha256 of every report the workloads can render.

    python3 benchmarks/record_digests.py

The benchmark certifies each rendered report against these digests, so
reports must stay byte-identical to the commit that recorded them.  Re-run
this only on purpose, when a report format change is intended.
"""

from __future__ import annotations

import hashlib
import json

import workloads as w


def main() -> None:
    grid = w.grid_setup()
    nil = w.nil_setup()
    jobs = [("scan", grid[name], b, None)
            for name in w.GRID_FIXTURES for b in sorted({*w.SCAN_BOUNDS, *w.CLI_BOUNDS})]
    jobs += [("density", grid[name], b, None) for name in w.GRID_FIXTURES for b in w.DENSITY_BOUNDS]
    jobs += [(kind, nil[name], b, endo) for kind, name, endo, b in w.NIL_REPORTS]
    digests = {}
    for kind, fixture, bound, endo in jobs:
        build = w.scan.scan_report if kind == "scan" else w.scan.density_report
        report = build(fixture, bound, endo_name=endo)
        text = w.scan.render_report(report)
        digests[w.report_key(kind, report["fixture"], bound)] = hashlib.sha256(
            text.encode()).hexdigest()
    w.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {w.DIGESTS_PATH}")


if __name__ == "__main__":
    main()
