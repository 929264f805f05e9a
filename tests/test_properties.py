"""Property tests: the torus, nil and flat-manifold classifiers against
direct Fraction oracles, cover fibers against their point-by-point
classification, the grid step, the cycle detection and the orbit
transcripts against row-by-row, list-search and one-state-at-a-time
oracles, the integer elimination against Fraction Gauss-Jordan, the
report renderer against the standard library's encoder, and fixture
loading on shipped fixtures with values replaced."""

import copy
import enum
import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from math import gcd
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nilorbit.errors import (  # noqa: E402
    ConsistencyError,
    InvalidFixtureError,
    MixedFieldError,
    UnsupportedInputError,
)
from nilorbit.exactmath import (  # noqa: E402
    SubspaceQ,
    denominator_lcm,
    det,
    invert_rational,
    mat_identity,
    mat_mul,
    rational_kernel,
    rref,
)
from nilorbit.fixtures import (  # noqa: E402
    TorusFixture,
    build_fixture,
    list_fixtures,
    load_fixture,
    shipped,
)
from nilorbit.infraflat import classify_infra, validate_bieberbach, validate_endo  # noqa: E402
from nilorbit.nilclass2 import (  # noqa: E402
    Class2Group,
    MalcevElement,
    NilCosets,
    classify_nil,
    grid_order,
    make_endo,
    relative_order,
    subgroup_generated,
)
from nilorbit.orbits import iterate_orbit, sweep_orbits  # noqa: E402
from nilorbit.scan import _render_table, density_report, render_report, scan_report  # noqa: E402
from nilorbit.torus import (  # noqa: E402
    TorusEndo,
    TorusGrid,
    TorusPoint,
    _grid_factory,
    classify,
    classify_fiber,
    cover_lattice,
    cover_transfer,
)
from oracles import (  # noqa: E402
    brute_orbit,
    flat_reference_walk,
    free_column_kernel,
    gaussian_det,
    json_report_text,
    naive_orbit,
    nil_reference_transcript,
    nil_reference_walk,
    nil_relative_order_search,
    reference_ab_coords,
    reference_central_coeffs,
    reference_classify_fiber,
    reference_normal_form,
    reference_rref,
    reference_torus_step,
    reference_transcript,
)
from test_infraflat import power_cover_periodic  # noqa: E402


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


@settings(max_examples=150)
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


@st.composite
def fiber_cases(draw):
    """(rows, f, points): a full-rank HNF lattice L in dimension 1-3, an
    integer map f whose linear part preserves L, singular maps included,
    with a rational translation, and one to three base points distinct
    modulo Z^n.

    L is drawn as HNF rows H with any entries above the diagonal, so it is
    mostly not diagonal.  With B = H^T, the linear part is B C B^-1 for an
    integer C when that is integral, and c I + B C adj(B) otherwise; both
    map L into itself."""
    n = draw(st.integers(1, 3))
    diag = [draw(st.integers(1, 3 if n < 3 else 2)) for _ in range(n)]
    H = [[diag[i] if j == i else draw(st.integers(0, diag[j] - 1)) if j > i else 0
          for j in range(n)] for i in range(n)]
    C = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    B = [list(col) for col in zip(*H)]
    Binv = invert_rational(B)
    A = mat_mul(mat_mul(B, C), Binv)
    if any(x.denominator != 1 for row in A for x in row):
        c = draw(st.integers(-2, 2))
        adj = [[x * det(B) for x in row] for row in Binv]
        A = [[x + c * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(mat_mul(mat_mul(B, C), adj))]
    A = [[int(x) for x in row] for row in A]
    rows = cover_lattice(H, A)
    b = draw(st.lists(rationals(4), min_size=n, max_size=n))
    points = draw(st.lists(st.lists(rationals(4), min_size=n, max_size=n), min_size=1,
                           max_size=3, unique_by=lambda p: tuple(x % 1 for x in p)))
    return rows, TorusEndo(A, b), points


@settings(max_examples=300, derandomize=True)
@given(fiber_cases())
def test_classify_fiber_matches_reference(case):
    rows, f, points = case
    fiber, classes = classify_fiber(rows, f, points)
    # equal Classifications: preperiods, periods and relative order traces
    assert (fiber, classes) == reference_classify_fiber(rows, f, points)
    assert all(type(x) is Fraction for p in fiber for x in p)
    report = cover_transfer(rows, f, f, points[0])
    base = [[x % 1 for x in points[0]]]
    assert (list(report.fiber), list(report.fiber_classifications)) == \
        reference_classify_fiber(rows, f, base)
    # the same base point twice, once shifted by Z^n, repeats its fiber
    again = [points[0][0] + 1, *points[0][1:]]
    with pytest.raises(ConsistencyError, match="duplicate"):
        classify_fiber(rows, f, [points[0], again])


@settings(max_examples=100, derandomize=True)
@given(fiber_cases())
def test_cover_transfer_repeats_on_one_cover(case):
    # the second call on a cover reads the cached lattice and injectivity
    rows, f, points = case
    for q in (points[0], *points, points[0]):
        report = cover_transfer(rows, f, f, q)
        base = [[x % 1 for x in q]]
        assert (list(report.fiber), list(report.fiber_classifications)) == \
            reference_classify_fiber(rows, f, base)
        assert report.base_classification == \
            reference_classify_fiber(mat_identity(len(rows)), f, base)[1][0]


@st.composite
def grid_maps_and_states(draw):
    """An integer map of dimension 1-6 with entries in [-9, 9], zero rows
    included, a translation with denominator dividing m for m in 1-97, and
    a few states of the grid."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    A = draw(st.lists(st.just([0] * n) | row, min_size=n, max_size=n))
    m = draw(st.integers(1, 97))
    den = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    b = draw(st.lists(st.integers(-2 * den, 2 * den).map(lambda a: Fraction(a, den)),
                      min_size=n, max_size=n))
    states = draw(st.lists(st.tuples(*[st.integers(0, m - 1)] * n), min_size=1, max_size=8))
    return A, b, m, states


@settings(max_examples=300)
@given(grid_maps_and_states())
def test_torus_grid_step_matches_reference(case):
    A, b, m, states = case
    step = TorusGrid(TorusEndo(A, b), m).step
    reference = reference_torus_step(A, b, m)
    for state in states:
        assert step(state) == reference(state)
        # the compiled step unpacks the state, so a wrong length is an error
        with pytest.raises(ValueError):
            step(state + (0,))
        with pytest.raises(ValueError):
            step(state[:-1])


@st.composite
def walk_cases(draw):
    """(A, b, m, start): an integer map of dimension 1-4 with determinant 0,
    +-1 or another value, a translation with denominator dividing m, a
    modulus m coprime to the determinant or sharing a factor with it, and a
    start in the grid.  m is small for large n, so that the quadratic
    oracle stays fast on orbits of up to m^n states."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    kind = draw(st.sampled_from(["singular", "unimodular", "any"]))
    if kind == "unimodular":
        # upper unitriangular times lower triangular with +-1 on the diagonal
        sign = st.sampled_from([-1, 1])
        U = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
        L = [[draw(sign) if i == j else draw(entry) if j < i else 0 for j in range(n)]
             for i in range(n)]
        A = mat_mul(U, L)
    else:
        A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if kind == "singular":
            A[draw(st.integers(0, n - 1))] = [0] * n
    D = det(A)
    moduli = range(1, (60, 24, 8, 5)[n - 1] + 1)
    coprime = draw(st.booleans())
    m = draw(st.sampled_from([m for m in moduli if (gcd(D, m) == 1) == coprime] or moduli))
    den = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    b = draw(st.lists(st.integers(-2 * den, 2 * den).map(lambda a: Fraction(a, den)),
                      min_size=n, max_size=n))
    start = draw(st.tuples(*[st.integers(0, m - 1)] * n))
    return A, b, m, start


@settings(max_examples=300, derandomize=True)
@given(walk_cases())
def test_torus_walk_matches_naive_orbit(case):
    A, b, m, start = case
    grid = TorusGrid(TorusEndo(A, b), m)
    mu, lam, path = naive_orbit(reference_torus_step(A, b, m), start)
    # a tail below the preperiod would leave the walk on a state that never
    # returns, so check the bound before walking
    assert mu <= grid.tail
    assert grid.walk(start) == (mu, lam, [list(column) for column in zip(*path)])
    # the tail is 0 exactly on the bijective grids, whose orbits are cycles
    bijective = gcd(det(A), m) == 1
    assert (grid.tail == 0) == bijective
    assert mu == 0 or not bijective
    # a start of the wrong length or off the grid is an error, not a hang
    for bad in (start + (0,), start[:-1], (start[0] + m, *start[1:])):
        with pytest.raises(ValueError):
            grid.walk(bad)


def test_torus_walk_pinned_cases():
    cat = TorusEndo([[2, 1], [1, 1]])
    m = 1009 * 1013
    assert TorusGrid(cat, m).tail == 0
    assert classify(cat, [Fraction(1, 1009), Fraction(2, 1013)])[0].verdict == \
        "Periodic(period=21294)"
    det2 = TorusEndo([[3, 1], [1, 1]])
    assert TorusGrid(det2, 166).tail == 3 * 7
    assert classify(det2, [Fraction(1, 166), Fraction(3, 166)])[0].preperiod >= 1
    singular = [[1, 2], [2, 4]]
    grid = TorusGrid(TorusEndo(singular, [Fraction(1, 3), 0]), 12)
    assert grid.tail == 3 * 3
    mu, lam, path = naive_orbit(reference_torus_step(singular, [Fraction(1, 3), 0], 12), (1, 5))
    assert 1 <= mu <= grid.tail
    assert grid.walk((1, 5)) == (mu, lam, [list(column) for column in zip(*path)])
    # det 2 on m = 128: the preperiod reaches 14 of the tail's 21 steps
    rotation = [[1, 1], [-1, 1]]
    b = [Fraction(127, 128), Fraction(19, 32)]
    grid = TorusGrid(TorusEndo(rotation, b), 128)
    assert grid.tail == 21
    mu, lam, path = naive_orbit(reference_torus_step(rotation, b, 128), (0, 0))
    assert (mu, lam) == (14, 1)
    assert grid.walk((0, 0)) == (mu, lam, [list(column) for column in zip(*path)])
    assert classify(TorusEndo(rotation, b), [0, 0])[0].verdict == \
        "EventuallyPeriodic(preperiod=14, period=1)"


def _packed(state, m):
    return reduce(lambda key, x: key * m + x, state, 0)


@settings(max_examples=300, derandomize=True)
@given(walk_cases(), st.data())
def test_torus_sweep_matches_sweep_orbits(case, data):
    """The compiled sweep against sweep_orbits on the same grid, on every
    state: the same (preperiod, period) for each state either one reaches,
    and the same successor, which is the packed key of the reference step.
    The starts are the whole grid, its points of exact order m, or a few
    keys."""
    A, b, m, _ = case
    grid = TorusGrid(TorusEndo(A, b), m)
    step = reference_torus_step(A, b, m)
    states = list(itertools.product(range(m), repeat=len(A)))
    kind = data.draw(st.sampled_from(["all", "exact order", "some"]))
    if kind == "all":
        keys = range(len(states))
    elif kind == "exact order":
        keys = [k for k, state in enumerate(states) if gcd(m, *state) == 1]
    else:
        keys = data.draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=12))
    memo, succ = grid.sweep(keys)
    reference, reference_succ = sweep_orbits(grid.step, [states[k] for k in keys])
    assert len(memo) == len(succ) == len(states)
    assert reference_succ.keys() == reference.keys()
    for key, state in enumerate(states):
        assert _packed(state, m) == key
        if state in reference:
            assert memo[key] == reference[state], (state, memo[key], reference[state])
            assert succ[key] == _packed(step(state), m) == _packed(reference_succ[state], m)
        else:
            assert memo[key] is None and succ[key] is None
    # on a bijective grid every walk closes at its start: no state has a tail
    if gcd(det(A), m) == 1:
        assert all(pre == 0 for pre, _ in filter(None, memo))
    for bad in (-1, len(states)):
        with pytest.raises(ValueError):
            grid.sweep([bad])


def test_torus_sweep_pinned_cases():
    """A cat-map grid, where every orbit is a cycle, and a singular grid with
    tails."""
    results = {}
    cases = {
        "cat": (TorusEndo([[2, 1], [1, 1]]), 10),
        "singular": (TorusEndo([[1, 2], [2, 4]], [Fraction(1, 3), 0]), 12),
    }
    for name, (f, m) in cases.items():
        grid = TorusGrid(f, m)
        states = list(itertools.product(range(m), repeat=2))
        reference, _ = sweep_orbits(grid.step, states)
        memo, succ = results[name] = grid.sweep(range(m * m))
        assert memo == [reference[state] for state in states]
        assert succ == [_packed(grid.step(state), m) for state in states]
    assert {pre for pre, _ in results["cat"][0]} == {0}
    assert max(pre for pre, _ in results["singular"][0]) >= 1


class _LongOrbit(Exception):
    pass


def _orbit_path(step, start, budget=4000):
    """The path iterate_orbit walks from start, or None past `budget` steps."""
    count = itertools.count()

    def bounded(state):
        if next(count) == budget:
            raise _LongOrbit
        return step(state)

    try:
        return iterate_orbit(bounded, start)[2]
    except _LongOrbit:
        return None


@settings(max_examples=300)
@given(grid_maps_and_states())
def test_torus_transcript_matches_reference(case):
    A, b, m, states = case
    grid = TorusGrid(TorusEndo(A, b), m)
    paths = [states]
    orbit = _orbit_path(grid.step, states[0])
    if orbit is not None:
        paths.append(orbit)
    for path in paths:
        trace, points = grid.transcript(list(zip(*path)))
        ref_trace, ref_points = reference_transcript(m, path)
        assert trace == ref_trace
        assert points == ref_points
        assert list(map(hash, points)) == list(map(hash, ref_points))
        assert all(type(x) is Fraction for p in points for x in p.coords)


@settings(max_examples=60)
@given(st.data())
def test_nil_transcript_matches_reference(data):
    # heisenberg and the central rank 2 group
    N, maps = data.draw(st.sampled_from(NIL_SYSTEMS[:2]))
    delta = maps[data.draw(st.sampled_from(sorted(maps)))]
    coords = data.draw(st.lists(rationals(6), min_size=N.group.dim, max_size=N.group.dim))
    s = denominator_lcm(coords)
    system = NilCosets(delta, N, s)
    dh, dc = system.dh, system.dc
    k = len(N.horizontal_rows)
    state = st.tuples(*[st.integers(0, dh - 1)] * k, *[st.integers(0, dc - 1)] * (N.group.dim - k))
    arbitrary = data.draw(st.lists(state, min_size=1, max_size=4))
    start = system.encode([int(x * s) for x in coords])
    for path in (iterate_orbit(system.step, start)[2], arbitrary):
        assert system.transcript(path) == nil_reference_transcript(system, path)


@settings(max_examples=150)
@given(st.data())
def test_nil_grid_encoder_matches_reference(data):
    # every nil system: the integer encoder and grid order of a point
    # exp(nums/s) against canonical_rep and the certified order search
    N, maps = data.draw(st.sampled_from(NIL_SYSTEMS))
    delta = maps[data.draw(st.sampled_from(sorted(maps)))]
    s = data.draw(st.integers(1, 12))
    dim = N.group.dim
    nums = data.draw(st.lists(st.integers(-2 * s, 2 * s), min_size=dim, max_size=dim))
    g = MalcevElement(N.group, [Fraction(v, s) for v in nums])
    system = NilCosets(delta, N, s)
    assert system.decode(system.encode(nums)) == N.canonical_rep(g)
    assert grid_order(N, s, nums) == nil_relative_order_search(N, g)


def test_grid_factory_builds_once_per_dimension():
    _grid_factory.cache_clear()
    for n in range(1, 7):
        for m in (1, 12, 97):
            for c in range(3):
                A = [[(i + c * j) % 5 - 2 for j in range(n)] for i in range(n)]
                TorusGrid(TorusEndo(A, [Fraction(c, 3)] * n), 3 * m).step(tuple(range(n)))
    info = _grid_factory.cache_info()
    assert (info.misses, info.currsize) == (6, 6)


@st.composite
def rational_matrices(draw):
    """A 1-5 x 1-6 matrix, square half of the time, of ints or of
    Fractions; some rows are forced to be rational combinations of the
    others or zero, and some matrices are zero throughout."""
    m = draw(st.integers(1, 5))
    n = m if draw(st.booleans()) else draw(st.integers(1, 6))
    if draw(st.booleans()):
        entry = st.integers(-4, 4)
    else:
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    kind = draw(st.sampled_from(["free", "dependent", "zero row", "zero"]))
    i = draw(st.integers(0, m - 1))
    if kind == "dependent" and m > 1:
        coeffs = [draw(entry) for _ in range(m)]
        rows[i] = [
            sum(c * row[j] for k, (c, row) in enumerate(zip(coeffs, rows)) if k != i)
            for j in range(n)
        ]
    elif kind == "zero row":
        rows[i] = [0] * n
    elif kind == "zero":
        rows = [[0] * n for _ in range(m)]
    return rows


@settings(max_examples=400)
@given(rational_matrices())
def test_gauss_jordan_matches_oracle(A):
    # det, rref and invert_rational share one fraction-free elimination
    assert rref(A) == reference_rref(A)
    if len(A) != len(A[0]):
        return
    D = det(A)
    assert D == gaussian_det(A)
    is_int = all(isinstance(x, int) for row in A for x in row)
    assert isinstance(D, int) == is_int
    inverse = invert_rational(A)
    assert (inverse is None) == (D == 0)
    if inverse is not None:
        assert mat_mul(A, inverse) == mat_identity(len(A))


@settings(max_examples=200)
@given(rational_matrices())
def test_rational_kernel_is_canonical_free_column_kernel(M):
    # the kernel vectors come from the integer elimination, scaled by its
    # last pivot; from_vectors brings them to the canonical RREF basis
    n = len(M[0])
    assert rational_kernel(M) == SubspaceQ.from_vectors(n, free_column_kernel(M))


@st.composite
def functional_graphs(draw):
    """A map on range(k) as a dict.  Walking a random order of the states,
    most point to the next one (long tails and cycles), the rest to
    themselves or anywhere (fixed points, branches, several components)."""
    k = draw(st.integers(1, 40))
    order = draw(st.permutations(range(k)))
    graph = {}
    for i, v in enumerate(order):
        kind = draw(st.sampled_from(["next", "next", "next", "fixed", "any"]))
        if kind == "next" and i + 1 < k:
            graph[v] = order[i + 1]
        elif kind == "fixed":
            graph[v] = v
        else:
            graph[v] = draw(st.integers(0, k - 1))
    return graph


@settings(max_examples=300)
@given(functional_graphs(), st.data())
def test_sweep_and_iterate_orbit_match_naive_walk(graph, data):
    step = graph.__getitem__
    starts = data.draw(st.lists(st.sampled_from(sorted(graph)), min_size=1))
    memo, succ = sweep_orbits(step, starts)
    visited = set()
    for start in starts:
        mu, lam, path = naive_orbit(step, start)
        assert iterate_orbit(step, start) == (mu, lam, path)
        visited.update(path)
    # every state the sweep walked through is classified too, with its successor
    assert set(memo) == set(succ) == visited
    for state, (pre, per) in memo.items():
        mu, lam, _ = naive_orbit(step, state)
        assert (pre, per) == (mu, lam)
        assert succ[state] == step(state)


def _nil_systems():
    """(lattice, maps) for three groups: heisenberg with both shipped maps
    and a singular one; a central rank 2 group ([e0,e1] = e3, [e0,e2] = e4)
    with a graded, a unimodular and a singular map; and the pinned `twisted`
    fixture: the Heisenberg group with the non-unit lattice generated by
    (2,0,0), (1/2,1,1/3) and (0,0,1), whose horizontal rows carry a
    fractional central twist, with a unimodular, a graded and a singular
    map."""
    heis = shipped("heisenberg")
    heis_maps = dict(heis.endos)
    heis_maps["singular"] = make_endo(heis.group, [[1, 0, 0], [0, 0, 0], [0, 0, 0]], heis.lattice)

    unit = [[int(i == j) for j in range(5)] for i in range(5)]
    bracket = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for (i, j), k in {(0, 1): 3, (0, 2): 4}.items():
        bracket[i][j] = unit[k]
        bracket[j][i] = [-x for x in unit[k]]
    rank2 = Class2Group(bracket)
    N5 = subgroup_generated([MalcevElement(rank2, row) for row in unit])
    rank2_maps = {
        name: make_endo(rank2, M, N5)
        for name, M in {
            "grading_2": [[(2 if i < 3 else 4) * (i == j) for j in range(5)] for i in range(5)],
            "shear": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                      [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]],
            "singular": [[int(i == j == 0) for j in range(5)] for i in range(5)],
        }.items()
    }

    pins = json.loads((Path(__file__).parent / "nil_report_pins.json").read_text())
    twisted = build_fixture(pins["fixtures"]["twisted"])
    return [(heis.lattice, heis_maps), (N5, rank2_maps), (twisted.lattice, twisted.endos)]


NIL_SYSTEMS = _nil_systems()


@st.composite
def nil_maps_and_points(draw, max_den):
    N, maps = draw(st.sampled_from(NIL_SYSTEMS))
    name = draw(st.sampled_from(sorted(maps)))
    coords = draw(st.lists(rationals(max_den), min_size=N.group.dim, max_size=N.group.dim))
    return N, maps[name], MalcevElement(N.group, coords)


@settings(max_examples=150)
@given(nil_maps_and_points(12))
def test_nil_relative_order_matches_search(case):
    N, _, g = case
    assert relative_order(N, g) == nil_relative_order_search(N, g)


@settings(max_examples=150)
@given(nil_maps_and_points(12), st.data())
def test_lattice_coordinates_match_stagewise_reference(case, data):
    """ab_coords, central_coeffs and normal_form, all read from the one
    integer inverse, against the quotient-then-derived reference."""
    N, _, g = case
    assert N.ab_coords(g.coords) == reference_ab_coords(N, g.coords)
    assert N.normal_form(g) == reference_normal_form(N, g)
    expected = reference_central_coeffs(N, g.coords)  # None off the derived directions
    if expected is None:
        with pytest.raises(ValueError):
            N.central_coeffs(g.coords)
    else:
        assert N.central_coeffs(g.coords) == expected
    coeffs = data.draw(st.lists(rationals(12), min_size=N.central_rank, max_size=N.central_rank))
    v = [sum((c * x for c, x in zip(coeffs, col)), Fraction(0)) for col in zip(*N.central_rows)]
    assert N.central_coeffs(v) == reference_central_coeffs(N, v) == coeffs


@settings(max_examples=60)
@given(nil_maps_and_points(6))
def test_classify_nil_matches_reference_walk(case):
    N, delta, g = case
    cls, orbit = classify_nil(delta, N, g)
    mu, lam, coords, orders = nil_reference_walk(delta, N, g)
    assert (cls.preperiod, cls.period) == (mu, lam)
    assert (orbit.preperiod, orbit.period) == (mu, lam)
    assert [p.coords for p in orbit.points] == coords
    assert all(type(x) is Fraction for p in orbit.points for x in p.coords)
    assert list(cls.relative_order_trace) == orders


def _diag(*entries):
    return [[x if i == j else 0 for j, _ in enumerate(entries)] for i, x in enumerate(entries)]


def _flat_systems():
    """(group, invertible maps, singular maps) for four flat manifolds: the
    Klein bottle, the 3-dimensional order-2 group of
    test_three_dimensional_flat_manifold, the 2-torus (trivial holonomy) and
    the Hantzsche-Wendt manifold (holonomy Z/2 x Z/2).

    The admissible maps are drawn once, from a seeded generator: diagonal
    and sparse integer matrices (constant maps, A = 0, are admissible for
    every group) with translations of denominator at most 4, kept when
    validate_endo admits them."""
    half = Fraction(1, 2)
    groups = [
        validate_bieberbach(2, [(_diag(1, 1), [0, 0]), (_diag(1, -1), [half, 0])]),
        validate_bieberbach(3, [(_diag(1, 1, 1), [0, 0, 0]), (_diag(1, -1, -1), [half, 0, 0])]),
        validate_bieberbach(2, [(_diag(1, 1), [0, 0])]),
        validate_bieberbach(3, [
            (_diag(1, 1, 1), [0, 0, 0]),
            (_diag(1, -1, -1), [half, 0, 0]),
            (_diag(-1, 1, -1), [0, half, half]),
            (_diag(-1, -1, 1), [half, half, half]),
        ]),
    ]
    rng = random.Random(7)
    systems = []
    for group in groups:
        n = group.dim
        maps = ([], [])
        while min(map(len, maps)) < 8:
            if rng.random() < 0.5:
                A = _diag(*(rng.randint(-4, 4) for _ in range(n)))
            else:
                A = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
            b = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n)]
            try:
                endo = validate_endo(group, A, b)
            except InvalidFixtureError:
                continue
            kind = maps[endo.determinant == 0]
            if len(kind) < 8:
                kind.append(endo)
        systems.append((group, *maps))
    return systems


FLAT_SYSTEMS = _flat_systems()


@st.composite
def flat_maps_and_points(draw):
    group, invertible, singular = draw(st.sampled_from(FLAT_SYSTEMS))
    endo = draw(st.sampled_from(invertible if draw(st.booleans()) else singular))
    x = draw(st.lists(rationals(8), min_size=group.dim, max_size=group.dim))
    return group, endo, x


@settings(max_examples=150)
@given(flat_maps_and_points())
def test_classify_infra_matches_reference_walk(case):
    group, endo, x = case
    cls = classify_infra(group, endo, x)
    mu, lam, orders = flat_reference_walk(group, endo, x)
    assert (cls.preperiod, cls.period) == (mu, lam)
    assert list(cls.relative_order_trace) == orders
    assert power_cover_periodic(group, endo, x) == cls.periodic


# values a hand-edited fixture may hold where it should not: huge, negative,
# fractional and boolean numbers, strings that are no numbers, empty and
# misshapen containers, and quadratic scalars whose d is not square-free,
# negative or not an integer
_FUZZ_VALUES = [
    10**50, 1e300, -1, 0, 2.5, True, "x", "1/0", "nan", None, [], {}, [[1]],
    *({"a": "1", "b": "1", "d": d} for d in (4, -3, 2.5)),
]


@pytest.mark.parametrize("path", [path for _, path, _, _ in list_fixtures()],
                         ids=lambda path: path.stem)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_mutated_fixture_raises_only_typed_errors(path, data):
    # 1-3 values of a shipped fixture replaced: each walk down from the top
    # stops at a value, or goes on into it while it is a non-empty container
    doc = json.loads(path.read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        target = doc
        while True:
            keys = list(target) if isinstance(target, dict) else range(len(target))
            key = data.draw(st.sampled_from(keys))
            value = target[key]
            if not (isinstance(value, (dict, list)) and value and data.draw(st.booleans())):
                break
            target = value
        target[key] = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_VALUES)))
    try:
        build_fixture(doc)
    except (InvalidFixtureError, UnsupportedInputError, MixedFieldError):
        pass


# pieces the renderer must escape, or must not read as a %-format in a key
_tricky = st.sampled_from(
    ["%", "%s", "%%", '"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "\u2028", "\U0001f600"]
)
json_strings = st.lists(_tricky | st.characters(), max_size=4).map("".join)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(max_value=-(2**70))
    | st.floats()
    | json_strings
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300)
@given(json_trees)
def test_render_report_matches_json_dumps(tree):
    assert render_report(tree) == json_report_text(tree)


class _Label(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HUGE = -(2**70)


# values that must send a row list off the column path: not an exact int or str
_ODD_CELLS = [True, False, None, 0.5, -1e300, _Level.LOW, _Level.HUGE, _Label("a%s"),
              [1, "b"], {"k": [None]}, {}]


@st.composite
def row_lists(draw):
    """(rows, perturbed): 1-30 dicts over one drawn key set, each key an int
    or a str column, and with perturbed some rows changed: an odd value in
    one cell, a key missing or an extra key."""
    keys = draw(st.lists(json_strings, max_size=5, unique=True))
    column = {int: st.integers() | st.integers(max_value=-(2**70)), str: json_strings}
    kinds = [draw(st.sampled_from([int, str])) for _ in keys]
    rows = [{key: draw(column[kind]) for key, kind in zip(keys, kinds)}
            for _ in range(draw(st.integers(1, 30)))]
    changes = draw(st.integers(0, 2))
    for _ in range(changes):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        how = draw(st.sampled_from(["odd", "missing", "extra"]))
        if how == "odd" and keys:
            row[draw(st.sampled_from(keys))] = draw(st.sampled_from(_ODD_CELLS))
        elif how == "missing" and keys:
            del row[draw(st.sampled_from(keys))]
        else:
            row[draw(json_strings.filter(lambda k: k not in keys))] = draw(json_scalars)
    return rows, changes > 0


@settings(max_examples=300, derandomize=True)
@given(row_lists())
def test_render_report_matches_json_dumps_on_row_lists(case):
    rows, perturbed = case
    for tree in (rows, {"rows": rows, "n": len(rows)}, [rows]):
        assert render_report(tree) == json_report_text(tree)
    # an unperturbed table of two columns or more takes the column path
    if not perturbed and len(rows[0]) >= 2:
        assert _render_table(rows, "  ") is not None


def test_render_report_matches_json_dumps_on_shipped_reports():
    reports = []
    for _, path, _, _ in list_fixtures():
        fixture = load_fixture(path)
        if isinstance(fixture, TorusFixture) and fixture.endo.is_linear:
            reports += [scan_report(fixture, m) for m in range(1, 11)]
            reports += [density_report(fixture, m) for m in range(1, 13)]
    heisenberg = shipped("heisenberg")
    for endo in sorted(heisenberg.endos):
        reports += [scan_report(heisenberg, m, endo_name=endo) for m in range(1, 5)]
        reports += [density_report(heisenberg, m, endo_name=endo) for m in range(1, 6)]
    assert len(reports) == 5 * 22 + 2 * 9
    for report in reports:
        assert render_report(report) == json_report_text(report)
    for unsupported in ({"a": object()}, [{1, 2}], {("a",): 1}):
        with pytest.raises(TypeError):
            json_report_text(unsupported)
        with pytest.raises(TypeError):
            render_report(unsupported)
    with pytest.raises(TypeError):
        render_report({1: "int keys are not report keys"})
