"""Property tests: the torus, nil and flat-manifold classifiers against
direct Fraction oracles, and the report renderer against the standard
library's encoder."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nilorbit.errors import InvalidFixtureError  # noqa: E402
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
    classify_nil,
    make_endo,
    relative_order,
    subgroup_generated,
)
from nilorbit.scan import density_report, render_report, scan_report  # noqa: E402
from nilorbit.torus import TorusEndo, TorusPoint, classify  # noqa: E402
from oracles import (  # noqa: E402
    brute_orbit,
    flat_reference_walk,
    json_report_text,
    nil_reference_walk,
    nil_relative_order_search,
)


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
    if draw(st.booleans()):
        endo, covers = draw(st.sampled_from(invertible)), ("auto", "fitting", "gamma_power")
    else:
        endo, covers = draw(st.sampled_from(singular)), ("auto", "gamma_power")
    x = draw(st.lists(rationals(8), min_size=group.dim, max_size=group.dim))
    return group, endo, x, draw(st.sampled_from(covers))


@settings(max_examples=150)
@given(flat_maps_and_points())
def test_classify_infra_matches_reference_walk(case):
    group, endo, x, cover = case
    cls = classify_infra(group, endo, x, cover=cover)
    mu, lam, orders = flat_reference_walk(group, endo, x)
    assert (cls.preperiod, cls.period) == (mu, lam)
    assert list(cls.relative_order_trace) == orders


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
