"""The paper's sufficient condition as a randomized check on random maps, not
only on the shipped fixtures: a point whose relative order is coprime to the
determinant of the map is periodic.

- On the torus: linear maps of dimension 2 and 3 with det != 0, classified
  by torus.classify.
- On the Heisenberg nilmanifold (standard lattice): maps
  [[a, b, 0], [c, d, 0], [e, f, ad - bc]] with e and f in (1/2)Z, which
  preserve the bracket; make_endo admits those that map the lattice into
  itself, and classify_nil decides each point.
- On the central rank 2 group and the pinned `twisted` lattice: every
  map there with det != 0, classified by classify_nil and walked by the
  Fraction reference nil_reference_path, which must agree.
- On the flat manifolds of test_properties (Klein bottle, a 3-dimensional
  order-2 group, the 2-torus, Hantzsche-Wendt): every map there with
  det != 0, at points x with gcd(lcm(ord x, ord b), det) = 1.  The lift
  x -> A x + b is then a bijection of the torus grid of x, so the lift
  orbit of x is a cycle and its projection is periodic.  classify_infra
  decides each point, and the Fraction reference flat_reference_walk must
  agree.

Density (every admissible 1/m-cell holds a periodic point) is checked on the
torus only: scan.density_report, which decides a cell of a map with det != 0
by the sufficient condition alone, against a sweep of the whole grid by the
reference step.  The nil density report of ``grading_2`` is known to be wrong
(README "Known limitations"); a test here pins that its cells are still
swept, so the torus shortcut cannot hide the defect.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from nilorbit import nilclass2, torus  # noqa: E402
from nilorbit.exactmath import det  # noqa: E402
from nilorbit.fixtures import TorusFixture, shipped  # noqa: E402
from nilorbit.infraflat import classify_infra  # noqa: E402
from nilorbit.nilclass2 import Class2Group, MalcevElement, make_endo  # noqa: E402
from nilorbit.orbits import sweep_orbits  # noqa: E402
from nilorbit.scan import density_report  # noqa: E402
from oracles import flat_reference_walk, nil_reference_path, reference_torus_step  # noqa: E402
from test_properties import FLAT_SYSTEMS, NIL_SYSTEMS  # noqa: E402  (flat; heisenberg, rank 2, twisted)

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


# maps with det != 0 on the central rank 2 group and on `twisted`
RANK2_AND_TWISTED = [(N, endo) for N, maps in NIL_SYSTEMS[1:]
                     for endo in maps.values() if endo.determinant != 0]


@st.composite
def rank2_and_twisted_cases(draw):
    """One of those maps and random points with small denominators."""
    N, endo = draw(st.sampled_from(RANK2_AND_TWISTED))
    coords = st.builds(Fraction, st.integers(0, 11), st.integers(1, 6))
    points = draw(st.lists(st.lists(coords, min_size=N.group.dim, max_size=N.group.dim),
                           min_size=1, max_size=3))
    return N, endo, [MalcevElement(N.group, p) for p in points]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rank2_and_twisted_cases())
def test_coprime_order_is_periodic_on_rank2_and_twisted(case):
    N, endo, points = case
    coprime = [g for g in points if nilclass2.order_coprime_to_det(endo, N, g)]
    assume(coprime)
    for g in coprime:
        cls, _ = nilclass2.classify_nil(endo, N, g)
        assert cls.periodic, (endo.matrix, g.coords, cls)
        mu, lam, _ = nil_reference_path(endo, N, g)
        assert (cls.preperiod, cls.period) == (mu, lam), (endo.matrix, g.coords)


# maps with det != 0 on the flat groups, kept when some point qualifies:
# gcd(ord b, det) = 1
FLAT_INVERTIBLE = [(group, endo) for group, invertible, _ in FLAT_SYSTEMS for endo in invertible
                   if gcd(torus.relative_order(endo.translation), endo.determinant) == 1]


@st.composite
def flat_cases(draw):
    """One of those maps and random points whose denominators are coprime
    to det."""
    group, endo = draw(st.sampled_from(FLAT_INVERTIBLE))
    dens = [d for d in range(1, 16) if gcd(d, endo.determinant) == 1]
    coords = st.builds(Fraction, st.integers(-15, 15), st.sampled_from(dens))
    points = draw(st.lists(st.lists(coords, min_size=group.dim, max_size=group.dim),
                           min_size=1, max_size=3))
    return group, endo, points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(flat_cases())
def test_coprime_order_is_periodic_on_flat_manifolds(case):
    group, endo, points = case
    b_order = torus.relative_order(endo.translation)
    for x in points:
        assert gcd(lcm(torus.relative_order(x), b_order), endo.determinant) == 1
        cls = classify_infra(group, endo, x)
        assert cls.periodic, (endo.linear, endo.translation, x, cls)
        mu, lam, _ = flat_reference_walk(group, endo, x)
        assert (cls.preperiod, cls.period) == (mu, lam), (endo.linear, x)


@st.composite
def torus_density_cases(draw):
    """A linear map of dimension 1 to 3, singular or not, and a bound m_max
    up to 10.  A singular map gets a last row that is a multiple of the
    first (zero in dimension 1)."""
    n = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        A[-1] = [k * a for a in A[0]] if n > 1 else [0]
    else:
        assume(det(A) != 0)
    return A, draw(st.integers(1, 10))


def reference_density_cell(A, m):
    """The density cell of the linear map A on the grid (1/m)Z^n, from a sweep
    of every grid state by the reference step."""
    D = abs(det(A))
    if D != 0 and gcd(D, m) != 1:
        return {"admissible": False}
    states = list(itertools.product(range(m), repeat=len(A)))
    memo, _ = sweep_orbits(reference_torus_step(A, [0] * len(A), m), states)
    missing = [",".join(str(Fraction(a, m)) for a in state)
               for state in states if memo[state][0] != 0]
    return {"admissible": True, "cells": len(states), "all_cells_hit": not missing,
            "missing": missing}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(torus_density_cases())
def test_torus_density_cells_match_reference_sweep(case):
    A, m_max = case
    fixture = TorusFixture("random", "", torus.TorusEndo(A), ())
    cells = density_report(fixture, m_max)["cells"]
    assert cells == {str(m): reference_density_cell(A, m) for m in range(1, m_max + 1)}, A


def test_nil_density_cells_are_swept():
    """A grading_2 cell point a/m can have relative order 2m, so gcd(det, m) =
    1 does not decide the cell; the report must find the missing points."""
    cell = density_report(shipped("heisenberg"), 4, endo_name="grading_2")["cells"]["3"]
    assert cell["admissible"] and cell["cells"] == 27
    assert cell["all_cells_hit"] is False
    assert "1/3,1/3,0" in cell["missing"]
