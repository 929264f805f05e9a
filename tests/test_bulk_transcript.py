"""A torus transcript builds its Fraction table in bulk: bare instances whose
numerator and denominator slots are set to the reduced form of a/m.  Those
entries must be indistinguishable from Fraction(a, m).  orbits.classify_orbit
pauses cyclic GC while a transcript is built and must leave it as it found
it, and the objects a classification returns must hold no reference cycle.

The checks need no pytest, so they also run as a plain script on an
interpreter without it:

    PYTHONPATH=src python tests/test_bulk_transcript.py
"""

import copy
import gc
import pickle
import random
from fractions import Fraction
from math import gcd

from nilorbit.fixtures import shipped
from nilorbit.nilclass2 import MalcevElement, classify_nil
from nilorbit.orbits import classify_orbit
from nilorbit.torus import TorusEndo, TorusGrid, classify

MODULI = (1, 2, 12, 97, 4507)
LARGE = 1009 * 1013


def _table(m, numerators):
    """The coordinates a/m that a transcript builds for the given numerators,
    read from the points of a 1-dimensional grid's transcript."""
    grid = TorusGrid(TorusEndo([[1]]), m)
    _, points = grid.transcript([numerators])
    return [p.coords[0] for p in points]


def _check_entries(m, numerators):
    for a, x in zip(numerators, _table(m, numerators), strict=True):
        ref = Fraction(a, m)
        assert type(x) is Fraction and x == ref, (a, m, x)
        assert (x.numerator, x.denominator) == (ref.numerator, ref.denominator)
        assert hash(x) == hash(ref) and str(x) == str(ref) and repr(x) == repr(ref)
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is Fraction and y == ref and hash(y) == hash(ref)
        whole = x * m
        assert type(whole) is Fraction and whole.denominator == 1 and whole == a
        assert x + ref == 2 * ref and x - ref == 0 and 0 <= x < 1


def test_every_numerator_matches_fraction():
    for m in MODULI:
        _check_entries(m, list(range(m)))


def test_large_modulus_sample_matches_fraction():
    rng = random.Random(20261019)
    sample = [0, 1, 1009, 1013, 2 * 1013, LARGE - 1] + rng.sample(range(LARGE), 3000)
    _check_entries(LARGE, sample)


def test_transcript_calls_no_fraction_new():
    grid = TorusGrid(TorusEndo([[2, 1], [1, 1]], [Fraction(1, 2), Fraction(1, 3)]), 1703)
    _, _, columns = grid.walk((1, 2))
    expected = grid.transcript(columns)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction.__new__ was called")

    real = vars(Fraction)["__new__"]
    Fraction.__new__ = refuse
    try:
        built = grid.transcript(columns)
    finally:
        Fraction.__new__ = real
    assert built == expected


def _leaves_gc_state(call):
    """call() must leave gc.isenabled() as it was, enabled and disabled."""
    was = gc.isenabled()
    try:
        for switch, state in ((gc.enable, True), (gc.disable, False)):
            switch()
            call()
            assert gc.isenabled() is state
    finally:
        if was:
            gc.enable()


def _heisenberg_point():
    fx = shipped("heisenberg")
    g = MalcevElement(fx.group, [Fraction(1, 97), Fraction(2, 97), Fraction(3, 97)])
    return fx.endos["automorphism"], fx.lattice, g


def test_classify_leaves_gc_state():
    f = TorusEndo([[2, 1], [1, 1]])
    _leaves_gc_state(lambda: classify(f, (Fraction(1, 3607), Fraction(2, 3607))))
    endo, lattice, g = _heisenberg_point()
    _leaves_gc_state(lambda: classify_nil(endo, lattice, g))


class _FailingTranscript:
    def walk(self, start):
        return 0, 1, [start]

    def transcript(self, path):
        raise RuntimeError("transcript failed")


def test_failing_transcript_restores_gc():
    def call():
        try:
            classify_orbit(_FailingTranscript(), (0,))
        except RuntimeError:
            pass
        else:
            raise AssertionError("the transcript's error was swallowed")

    _leaves_gc_state(call)


def test_classifications_hold_no_cycles():
    # the invariant behind the pause: freeing a result needs no cyclic GC
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        f = TorusEndo([[2, 1], [1, 1]])
        torus_result = classify(f, (Fraction(1, 3607), Fraction(2, 3607)))
        nil_result = classify_nil(*_heisenberg_point())
        assert torus_result[0].period == 3608 and nil_result[0].period == 1552
        del torus_result, nil_result
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
