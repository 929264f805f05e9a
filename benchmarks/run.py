"""nilorbit benchmark: seeded closed-loop workloads with checked verdicts.

    python3 benchmarks/run.py --workload torus-walk --seed 1 --seconds 10 --trace 0

One client calls the library in a closed loop, in one process and thread,
for --seconds of op time; every output is certified outside the timed
region.  With --trace 0 the last stdout line carries the end-to-end metrics.
With --trace 1 the run instead makes one untraced and one traced pass over
the whole deck and reports the per-layer metrics; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# Set-up child: import the library, build the workload's fixtures, print the
# monotonic clock (system-wide on Linux, so it compares with ours), then the
# reference kernel's time measured in the child right after set-up.
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.WORKLOADS[sys.argv[2]].setup(); t = time.monotonic(); "
    "import reference; print(t, reference.measure())"
)


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int, workload: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def git_commit():
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(workload: str) -> tuple[float, float]:
    """Medians of the normalised and of the wall time from interpreter start
    to the end of set-up; each child's time is normalised by the kernel
    time it measured itself."""
    norm, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        end, ref = map(float, done.stdout.split()[-2:])
        wall.append(end - t0)
        norm.append(reference.normalise(end - t0, ref))
    return statistics.median(norm), statistics.median(wall)


class FingerprintMismatch(Exception):
    """A timed run of a deck entry returned something else than its certified run."""


class Loop:
    """Closed-loop runner: time each call, then check its output untimed.

    ``certify_all`` runs the deck once and certifies every output in full;
    timed runs of a deck entry must then reproduce the certified fingerprint.
    """

    def __init__(self, deck):
        self.deck = deck
        self.reference = [None] * len(deck)  # (fingerprint, verdicts) per entry
        self.latencies: list[float] = []
        self.ref_times: list[float] = []  # reference kernel, timed before each op
        self.verdicts = 0
        self.failed = 0
        self.busy = 0.0
        self.failures: list[str] = []

    def step(self, index: int) -> None:
        slot = index % len(self.deck)
        op = self.deck[slot]
        self.ref_times.append(reference.sample())
        t0 = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # a failed op is counted, and the run goes on
            error = exc
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt)
        if error is None:
            try:
                self.verdicts += self._check(slot, op, out)
                return
            except Exception as exc:
                error = exc
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(
                f"{op.kind}: {''.join(traceback.format_exception_only(error)).strip()}")

    def _check(self, slot, op, out) -> int:
        fp = op.fingerprint(out)
        ref = self.reference[slot]
        if ref is None:
            ref = self.reference[slot] = (fp, op.certify(out))
        elif fp != ref[0]:
            raise FingerprintMismatch(f"{op.kind}: output differs from the certified run")
        return ref[1]

    def certify_all(self) -> "Loop":
        for i in range(len(self.deck)):
            self.step(i)
        return self

    def timed(self, seconds=None) -> "Loop":
        """A fresh loop over the same certified deck: for `seconds` of op
        time, or one pass when seconds is None."""
        loop = Loop(self.deck)
        loop.reference = self.reference
        i = 0
        while (loop.busy < seconds) if seconds is not None else (i < len(self.deck)):
            loop.step(i)
            i += 1
        return loop

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. the (TAIL_BEYOND + 1)-th slowest sample."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return 100.0 * k / len(ordered), ordered[k]


def build(name: str, seed: int, rounds=None):
    import workloads

    w = workloads.WORKLOADS[name]
    ctx = w.setup()
    deck = w.deck(ctx, random.Random(seed), rounds or w.rounds)
    return ctx, deck


def end_to_end(name: str, seed: int, seconds: float, rounds=None):
    """Timings are normalised to the reference speed (see reference.py);
    the wall-clock figures are kept in ``extra`` as ``wall.*``."""
    _, deck = build(name, seed, rounds)
    warm = Loop(deck).certify_all()
    loop = warm.timed(seconds)
    norm = reference.normalise_each(loop.latencies, loop.ref_times)
    pct, tail_s = tail(norm)
    setup_norm, setup_wall = measure_setup(name)
    metrics = {
        "verdicts_per_s": (loop.verdicts / sum(norm), "1/s"),
        "op_ms_p50": (1000 * statistics.median(norm), "ms"),
        "op_ms_tail": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_norm, "s"),
    }
    extra = {
        "error_rate": (loop.failed / loop.attempted, "ratio"),
        "op_ms_tail.percentile": (pct, "%"),
        "op_ms_tail.samples_beyond": (TAIL_BEYOND, "count"),
        "ops": (loop.attempted, "count"),
        "timed_s": (loop.busy, "s"),
        "reference_ms_p50": (1000 * statistics.median(loop.ref_times), "ms"),
        "wall.verdicts_per_s": (loop.verdicts / loop.busy, "1/s"),
        "wall.op_ms_p50": (1000 * statistics.median(loop.latencies), "ms"),
        "wall.op_ms_tail": (1000 * tail(loop.latencies)[1], "ms"),
        "wall.setup_s": (setup_wall, "s"),
    }
    return loop, metrics, extra


def per_layer(name: str, seed: int, rounds=None):
    """One untraced pass, then a traced pass over the same deck; the traced
    pass must reproduce every fingerprint of the certified untraced pass."""
    import tracing

    _, deck = build(name, seed, rounds)
    warm = Loop(deck).certify_all()
    plain = warm.timed()

    rec = tracing.SpanRecorder()
    rec.install()
    try:
        _, traced_deck = build(name, seed, rounds)
        traced = Loop(traced_deck)
        traced.reference = warm.reference
        for i in range(len(traced_deck)):
            rec.op_id = i
            traced.step(i)
    finally:
        rec.uninstall()

    t = rec.totals()

    def get(span, field):
        return t.get(span, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for metric, span, field in LAYER_METRICS:
        metrics[metric] = (get(span, field), UNITS[field])
    rel_calls = get("nilclass2.relative_order", "calls")
    infra_calls = get("infraflat.classify_infra", "calls")
    grid_in_scan = (rec.count_inside("torus.sweep_denominator", "scan.scan_report", "work")
                    + rec.count_inside("nilclass2.sweep_lattice_points", "scan.scan_report", "work"))
    metrics.update({
        "orbits.states": (get("orbits.iterate_orbit", "work") + get("orbits.sweep_orbits", "work"),
                          "count"),
        "nilclass2.contains_per_order": (ratio(rec.count_inside(
            "nilclass2.LatticeSubgroup.contains", "nilclass2.relative_order"), rel_calls), "ratio"),
        "infraflat.fiber_classify_per_call": (ratio(rec.count_inside(
            "torus.classify", "infraflat.classify_infra"), infra_calls), "ratio"),
        "scan.rows_per_grid_state": (ratio(get("scan.scan_report", "work"), grid_in_scan), "ratio"),
        "trace.verdicts_per_s": (traced.verdicts / traced.busy, "1/s"),
        "untraced.verdicts_per_s": (plain.verdicts / plain.busy, "1/s"),
        "trace.spans": (len(rec), "count"),
    })
    return plain, traced, rec, metrics


UNITS = {"calls": "count", "s": "s", "self_s": "s", "work": "count"}
LAYER_METRICS = (
    # (metric, span, field); field "work" sums the per-call work counts
    ("orbits.iterate_orbit.self_s", "orbits.iterate_orbit", "self_s"),
    ("orbits.sweep_orbits.self_s", "orbits.sweep_orbits", "self_s"),
    ("torus.classify.self_s", "torus.classify", "self_s"),
    ("torus.sweep_denominator.self_s", "torus.sweep_denominator", "self_s"),
    ("torus.grid_states", "torus.sweep_denominator", "work"),
    ("torus.periodic_point_of_period.self_s", "torus.periodic_point_of_period", "self_s"),
    ("torus.equalizer_membership.self_s", "torus.equalizer_membership", "self_s"),
    ("torus.EventuallyPeriodicSet.contains.self_s", "torus.EventuallyPeriodicSet.contains",
     "self_s"),
    ("torus.cover_transfer.self_s", "torus.cover_transfer", "self_s"),
    ("nilclass2.canonical_rep.calls", "nilclass2.LatticeSubgroup.canonical_rep", "calls"),
    ("nilclass2.canonical_rep.self_s", "nilclass2.LatticeSubgroup.canonical_rep", "self_s"),
    ("nilclass2.normal_form.calls", "nilclass2.LatticeSubgroup.normal_form", "calls"),
    ("nilclass2.normal_form.self_s", "nilclass2.LatticeSubgroup.normal_form", "self_s"),
    ("nilclass2.relative_order.calls", "nilclass2.relative_order", "calls"),
    ("nilclass2.relative_order.self_s", "nilclass2.relative_order", "self_s"),
    ("nilclass2.classify_nil.self_s", "nilclass2.classify_nil", "self_s"),
    ("nilclass2.sweep_lattice_points.self_s", "nilclass2.sweep_lattice_points", "self_s"),
    ("nilclass2.make_endo.s", "nilclass2.make_endo", "s"),
    ("exactmath.is_square_free.calls", "exactmath.is_square_free", "calls"),
    ("exactmath.is_square_free.self_s", "exactmath.is_square_free", "self_s"),
    ("exactmath.split_quad_vector.self_s", "exactmath.split_quad_vector", "self_s"),
    ("exactmath.SubspaceQ.reduce.self_s", "exactmath.SubspaceQ.reduce", "self_s"),
    ("exactmath.snf.calls", "exactmath.snf", "calls"),
    ("exactmath.snf.self_s", "exactmath.snf", "self_s"),
    ("exactmath.solve_mod_lattice.self_s", "exactmath.solve_mod_lattice", "self_s"),
    ("infraflat.classify_infra.calls", "infraflat.classify_infra", "calls"),
    ("infraflat.classify_infra.self_s", "infraflat.classify_infra", "self_s"),
    ("infraflat.holonomy_power_cover.calls", "infraflat.holonomy_power_cover", "calls"),
    ("scan.scan_report.self_s", "scan.scan_report", "self_s"),
    ("scan.density_report.self_s", "scan.density_report", "self_s"),
    ("scan.render_report.s", "scan.render_report", "s"),
    ("scan.report_bytes", "scan.render_report", "work"),
    ("fixtures.load_fixture.s", "fixtures.load_fixture", "s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


def show(metrics: dict) -> None:
    for key, (value, unit) in metrics.items():
        print(f"  {key:44} {value:14.6g} {unit}")


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilorbit" / "__init__.py").is_file():
        fail(f"no nilorbit sources under {ROOT / 'src'}")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    env = environment(args.seed, args.workload)
    print(json.dumps({"environment": env}))
    if args.trace:
        plain, traced, rec, metrics = per_layer(args.workload, args.seed)
        loops = (plain, traced)
        rec.dump(workloads.OUT_DIR / f"spans-{args.workload}.jsonl",
                 {"environment": env, "ops": [op.kind for op in traced.deck]})
    else:
        loop, metrics, extra = end_to_end(args.workload, args.seed, args.seconds)
        loops = (loop,)
        show(extra)
    show(metrics)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for line in lp.failures:
            print(f"failed op: {line}", file=sys.stderr)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
