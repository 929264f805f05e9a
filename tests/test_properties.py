"""Property tests: the torus classifier against the direct Fraction oracle."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nilorbit.torus import TorusEndo, TorusPoint, classify  # noqa: E402
from oracles import brute_orbit  # noqa: E402


def rationals(max_den):
    # numerators outside [0, den) check the reduction mod 1
    return st.integers(1, max_den).flatmap(
        lambda den: st.builds(Fraction, st.integers(-2 * den, 2 * den), st.just(den))
    )


@st.composite
def affine_maps_and_points(draw):
    """An integer map of dimension 1-3 with entries in [-4, 4], singular
    ones included, with a rational translation and a rational point.

    Denominators stay small (point <= 9, translation <= 4) so that every
    orbit is short enough for the oracle."""
    n = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    b = draw(st.lists(rationals(4), min_size=n, max_size=n))
    q = draw(st.lists(rationals(9), min_size=n, max_size=n))
    return A, b, q


@settings(derandomize=True, deadline=None, max_examples=150)
@given(affine_maps_and_points())
def test_classify_matches_oracle(case):
    A, b, q = case
    cls, orbit = classify(TorusEndo(A, b), q)
    mu, lam, path = brute_orbit(A, b, q)
    assert (cls.preperiod, cls.period) == (mu, lam)
    assert (orbit.preperiod, orbit.period) == (mu, lam)
    assert [p.coords for p in orbit.points] == path
    for p in orbit.points:
        # decoded points are canonical: the public constructor changes nothing
        assert p == TorusPoint(p.coords)
        assert hash(p) == hash(TorusPoint(p.coords))
        assert all(type(x) is Fraction and 0 <= x < 1 for x in p.coords)
