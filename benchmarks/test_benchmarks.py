"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import reference
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end_metrics(name):
    loop, metrics, extra = run.end_to_end(name, seed=1, seconds=0.2, rounds=1)
    assert {k: u for k, (_, u) in metrics.items()} == units(SPEC["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())
    assert loop.failed == 0 and extra["error_rate"][0] == 0
    assert loop.verdicts > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    runs = [run.per_layer(name, seed=3, rounds=1) for _ in range(2)]
    for plain, traced, _, _ in runs:
        assert plain.failed == traced.failed == 0
    first, second = (r[3] for r in runs)
    assert {k: u for k, (_, u) in first.items()} == units(SPEC["per_layer"])
    counts = {k for k, (_, u) in first.items() if u in ("count", "ratio")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def corrupt_cycle(out):
    cls, orbit = out
    cycle = list(orbit.cycle)
    cycle[1], cycle[2] = cycle[2], cycle[1]
    return cls, dataclasses.replace(orbit, cycle=tuple(cycle))


def test_corrupted_orbit_counts_as_failure():
    _, deck = run.build("torus-walk", seed=5, rounds=1)
    good = deck[0].call
    deck[0] = dataclasses.replace(deck[0], call=lambda: corrupt_cycle(good()))
    loop = run.Loop(deck).certify_all()
    assert (loop.attempted, loop.failed) == (len(deck), 1)
    assert "not A x + b" in loop.failures[0]


def test_changed_output_after_certification_counts_as_failure():
    _, deck = run.build("torus-walk", seed=5, rounds=1)
    warm = run.Loop(deck).certify_all()
    good = deck[1].call
    deck[1] = dataclasses.replace(deck[1], call=lambda: corrupt_cycle(good()))
    loop = warm.timed()
    assert (loop.failed, loop.attempted) == (1, len(deck))
    assert "differs from the certified run" in loop.failures[0]


def test_tail_has_ten_samples_beyond():
    pct, value = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 89.0


def test_normalise_uses_the_reference_around_each_op():
    refs = [0.001, 0.001, 0.003, 0.002]
    out = reference.normalise_each([0.010] * 4, refs)
    assert out == pytest.approx([0.010, 0.005, 0.004, 0.005])


def test_reference_kernel_checks_its_result():
    assert reference.kernel() == reference.EXPECTED
    assert reference.measure(3) > 0
