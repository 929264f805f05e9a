"""The paper's sufficient condition as a randomized check on random maps, not
only on the shipped fixtures: a point whose relative order is coprime to the
determinant of the map is periodic.

- On the torus: linear maps of dimension 2 and 3 with det != 0, classified
  by torus.classify.
- On the Heisenberg nilmanifold (standard lattice): maps
  [[a, b, 0], [c, d, 0], [e, f, ad - bc]] with e and f in (1/2)Z, which
  preserve the bracket; make_endo admits those that map the lattice into
  itself, and classify_nil decides each point.

Density (every admissible 1/m-cell holds a periodic point) is left out on
purpose.  The nil density report of ``grading_2`` is known to be wrong
(README "Known limitations"), so a density check here would fail on the
current code, and its fix changes the pinned density reports and the
benchmark digests together.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from nilorbit import nilclass2, torus  # noqa: E402
from nilorbit.exactmath import det  # noqa: E402
from nilorbit.nilclass2 import Class2Group, MalcevElement, make_endo  # noqa: E402

HEISENBERG = Class2Group.heisenberg()
STANDARD = nilclass2.subgroup_generated(
    [MalcevElement(HEISENBERG, row) for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
)


@st.composite
def torus_cases(draw):
    """A linear map with det != 0 and points on a grid 1/m with m coprime to
    det, so every point's relative order (a divisor of m) is coprime too."""
    n = draw(st.sampled_from([2, 3]))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    D = det(A)
    assume(D != 0)
    m = draw(st.sampled_from([m for m in range(1, 41) if gcd(m, D) == 1]))
    points = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                           min_size=1, max_size=4))
    return A, [[Fraction(x, m) for x in nums] for nums in points]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(torus_cases())
def test_coprime_order_is_periodic_on_torus(case):
    A, points = case
    f = torus.TorusEndo(A)
    for q in points:
        assert torus.order_coprime_to_det(f, q)
        cls, _ = torus.classify(f, q)
        assert cls.periodic, (A, q, cls)


halves = st.integers(-4, 4).map(lambda k: Fraction(k, 2))


@st.composite
def heisenberg_cases(draw):
    """An admissible map with det != 0 and points with small denominators."""
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    assume(a * d - b * c != 0)
    M = [[a, b, 0], [c, d, 0], [draw(halves), draw(halves), a * d - b * c]]
    try:
        endo = make_endo(HEISENBERG, M, STANDARD)
    except ValueError:  # the lattice is not mapped into itself
        assume(False)
    coords = st.builds(Fraction, st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9]))
    points = draw(st.lists(st.lists(coords, min_size=3, max_size=3), min_size=1, max_size=6))
    return endo, [MalcevElement(HEISENBERG, p) for p in points]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(heisenberg_cases())
def test_coprime_order_is_periodic_on_heisenberg(case):
    endo, points = case
    coprime = [g for g in points if nilclass2.order_coprime_to_det(endo, STANDARD, g)]
    assume(coprime)
    for g in coprime:
        cls, _ = nilclass2.classify_nil(endo, STANDARD, g)
        assert cls.periodic, (endo.matrix, g.coords, cls)
