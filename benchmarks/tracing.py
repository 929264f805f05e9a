"""Span recorder for the traced run.

Wrappers are installed from here, around the public functions and methods
of each nilorbit module, in every module namespace that binds them, so that
``nilorbit.scan.sweep_denominator`` is recorded as well as
``nilorbit.torus.sweep_denominator``.  The library itself is not changed.

Each span records its name, start, end, parent span, op id and a work count
read from the call's arguments or result (states stored, grid states swept,
rows, bytes).  Spans stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("orbits", "torus", "nilclass2", "infraflat", "exactmath", "scan", "fixtures", "cli")

# span name -> work count of one call, from (args, result)
WORK = {
    "orbits.iterate_orbit": lambda args, out: len(out[2]),
    "orbits.sweep_orbits": lambda args, out: len(out),
    "torus.sweep_denominator": lambda args, out: args[1] ** args[0].dim,
    "nilclass2.sweep_lattice_points": lambda args, out: len(args[2]),
    "scan.scan_report": lambda args, out: out["summary"]["points"],
    "scan.render_report": lambda args, out: len(out.encode()),
}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.work = array("q")
        self._stack = [-1]
        self.op_id = -1  # -1 while setting up, then the deck index
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        work = WORK.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.op_id)
            rec.work.append(0)
            rec.end.append(0.0)
            rec._stack.append(idx)
            rec.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec._stack.pop()
            if work is not None:
                rec.work[idx] = work(args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        import nilorbit.cli  # noqa: F401  (imports every layer)

        modules = {k: m for k, m in sys.modules.items() if k.startswith("nilorbit.") and m}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            prefix = f"nilorbit.{layer}"
            for modname, mod in modules.items():
                if modname != prefix and not modname.startswith(prefix + "."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                        continue
                    if inspect.isfunction(obj):
                        wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                    elif inspect.isclass(obj):
                        self._wrap_methods(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self.wrap(f"{prefix}.{attr}", obj.__func__)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and work.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because they are recorded on one stack.
        """
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0} for name in self.names}
        for i in range(n):
            t = out[self.names[self.name[i]]]
            t["calls"] += 1
            t["s"] += dur[i]
            t["self_s"] += dur[i] - child[i]
            t["work"] += self.work[i]
        return out

    def inside(self, ancestor: str) -> list[bool]:
        """For every span, whether a span named `ancestor` encloses it."""
        aid = self._ids.get(ancestor, -1)
        flags = [False] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                flags[i] = flags[p] or self.name[p] == aid
        return flags

    def count_inside(self, name: str, ancestor: str, field: str = "calls") -> float:
        nid = self._ids.get(name, -1)
        flags = self.inside(ancestor)
        if field == "calls":
            return sum(1 for i, f in enumerate(flags) if f and self.name[i] == nid)
        return sum(self.work[i] for i, f in enumerate(flags) if f and self.name[i] == nid)

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans: a JSON header line, then one JSON array per span
        [name id, start, end, parent, op, work]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({**meta, "names": self.names, "fields":
                                 ["name", "start", "end", "parent", "op", "work"]}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.op, self.work):
                fh.write(json.dumps(row) + "\n")
