"""TorusPoint is a frozen slotted dataclass.  Points built by a grid's
transcript (which skips the constructor's reduction mod 1) must behave like
points from the public constructor under equality, hashing, pickle and
copy.

The checks need no pytest, so they also run as a plain script on an
interpreter without it:

    PYTHONPATH=src python tests/test_torus_point.py
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

from nilorbit.orbits import iterate_orbit
from nilorbit.torus import TorusEndo, TorusGrid, TorusPoint


def _transcript_points():
    """The points of the cat-map orbit of (1/7, 3/7) with translation
    (1/2, 0), built by TorusGrid.transcript."""
    grid = TorusGrid(TorusEndo([[2, 1], [1, 1]], [Fraction(1, 2), 0]), 14)
    _, _, path = iterate_orbit(grid.step, (2, 6))
    return grid.transcript(list(zip(*path)))[1]


def test_pickle_and_deepcopy_round_trip():
    for p in _transcript_points():
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert type(q) is TorusPoint
            assert q == p and q.coords == p.coords and hash(q) == hash(p)


def test_equality_and_hash_match_public_constructor():
    points = _transcript_points()
    assert len(set(points)) == len(points)
    for p in points:
        assert all(type(x) is Fraction and 0 <= x < 1 for x in p.coords)
        public = TorusPoint(p.coords)
        assert p == public and hash(p) == hash(public)
    # the public constructor still reduces mod 1
    assert TorusPoint((Fraction(-1, 2), 3)) == TorusPoint((Fraction(1, 2), 0))


def test_point_is_frozen_and_has_no_dict():
    p = _transcript_points()[0]
    try:
        p.coords = (Fraction(0), Fraction(0))
    except FrozenInstanceError:
        pass
    else:
        raise AssertionError("assigning to coords should raise FrozenInstanceError")
    assert not hasattr(p, "__dict__")
    assert TorusPoint.__slots__ == ("coords",)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
