import random
from fractions import Fraction as F
from math import gcd

import pytest

from nilorbit.errors import InvalidFixtureError
from nilorbit.exactmath import integral_rows
from nilorbit.infraflat import (
    FlatPoints,
    classify_infra,
    holonomy_power_cover,
    validate_bieberbach,
    validate_endo,
)
from nilorbit.torus import (
    TorusEndo,
    TorusGrid,
    TorusPoint,
    classify,
    classify_fiber,
    fiber_verdicts,
)

I2 = [[1, 0], [0, 1]]
FLIP = [[1, 0], [0, -1]]


def klein():
    return validate_bieberbach(2, [(I2, [0, 0]), (FLIP, [F(1, 2), 0])])


def klein_endo(group):
    return validate_endo(group, [[3, 0], [0, 2]], [0, 0])


def power_cover_periodic(group, endo, x) -> bool:
    """Whether the fiber over the group orbit of x in the holonomy power
    cover holds a periodic point: classify_infra's cross-check for a
    singular map, run here for any map."""
    images, q = integral_rows([rep.apply(x) for rep in group.reps])
    _, classes = fiber_verdicts(group.power_cover.lattice_rows, endo.lift, images, q)
    return any(c.periodic for c in classes)


# --- validation -----------------------------------------------------------------

def test_klein_bottle_validates():
    group = klein()
    assert group.holonomy_order == 2


def test_point_group_rep_has_torsion():
    with pytest.raises(InvalidFixtureError, match="torsion"):
        validate_bieberbach(2, [(I2, [0, 0]), (FLIP, [0, 0])])


def test_trivial_holonomy_is_torus():
    group = validate_bieberbach(2, [(I2, [0, 0])])
    assert group.holonomy_order == 1


def test_identity_rep_required():
    with pytest.raises(InvalidFixtureError):
        validate_bieberbach(2, [(FLIP, [F(1, 2), 0])])


def test_closure_required():
    # a lone order-3 rotation without its square breaks closure
    rot = [[0, -1], [1, -1]]
    with pytest.raises(InvalidFixtureError, match="closed"):
        validate_bieberbach(2, [(I2, [0, 0]), (rot, [F(1, 3), 0])])


@pytest.mark.parametrize("reps, message", [
    # a translated identity is not (I, 0), and that check comes first
    ([(I2, [F(1, 2), 0]), (FLIP, [F(1, 2), 0]), (FLIP, [F(1, 2), 0])],
     "identity representative (I, 0) is required"),
    ([(I2, [0, 0]), (FLIP, [F(1, 2), 0]), (FLIP, [0, 0])],
     "holonomy matrices must be distinct per representative"),
    ([(I2, [0, 0]), ([[0, -1], [1, -1]], [0, 0])],
     "holonomy not closed: product of representatives 1 and 1"),
    ([(I2, [0, 0]), (FLIP, [F(1, 3), 0])],
     "translation cocycle broken between representatives 1 and 1"),
    ([(I2, [0, 0]), (FLIP, [0, F(1, 2)])],
     "torsion detected: representative 1 has a finite-order element"),
])
def test_bieberbach_checks_in_order(reps, message):
    with pytest.raises(InvalidFixtureError) as err:
        validate_bieberbach(2, reps)
    assert str(err.value) == message


def test_non_unimodular_rejected():
    with pytest.raises(InvalidFixtureError, match="unimodular"):
        validate_bieberbach(2, [(I2, [0, 0]), ([[2, 0], [0, 1]], [F(1, 2), 0])])


# --- affine map admissibility ------------------------------------------------------

def test_endo_examples():
    group = klein()
    endo = klein_endo(group)
    assert endo.rep_images == (0, 1)
    with pytest.raises(InvalidFixtureError, match="normalize"):
        validate_endo(group, [[2, 0], [0, 2]], [0, 0])
    torus_group = validate_bieberbach(2, [(I2, [0, 0])])
    validate_endo(torus_group, [[7, -3], [2, 5]], [F(1, 6), F(2, 3)])


def test_more_admissible_and_inadmissible_maps():
    group = klein()
    # odd multiplier on the flipped axis keeps the translation condition
    validate_endo(group, [[5, 0], [0, 3]], [0, 0])
    with pytest.raises(InvalidFixtureError):
        validate_endo(group, [[4, 0], [0, 3]], [0, 0])
    # translations along the flipped axis need compatible parity as well
    validate_endo(group, [[3, 0], [0, 2]], [F(1, 2), F(0)])


# --- canonical representatives -----------------------------------------------------

def test_canonical_point_idempotent_and_orbit_constant():
    group = klein()
    endo = klein_endo(group)
    m = 12
    flat = FlatPoints(group, endo.lift, m)
    rng = random.Random(19)
    for _ in range(1000):
        state = tuple(rng.randrange(m) for _ in range(2))
        rep = flat.canonical(state)
        assert all(type(a) is int and 0 <= a < m for a in rep)
        assert flat.canonical(rep) == rep
        for hol in group.reps:
            # the image a/m -> F a/m + t, back on numerators
            moved = tuple(int(v % 1 * m) for v in hol.apply([F(a, m) for a in state]))
            assert flat.canonical(moved) == rep


# --- covers ---------------------------------------------------------------------------

def test_holonomy_power_cover_klein():
    cover = holonomy_power_cover(klein())
    assert cover.lattice_rows == ((1, 0), (0, 2))
    assert cover.index == 2


def test_holonomy_power_cover_torus():
    group = validate_bieberbach(2, [(I2, [0, 0])])
    cover = holonomy_power_cover(group)
    assert cover.lattice_rows == ((1, 0), (0, 1))
    assert cover.index == 1


def test_power_cover_built_once_per_group(monkeypatch):
    from nilorbit import infraflat

    calls = []

    def counting(group):
        calls.append(group)
        return holonomy_power_cover(group)

    monkeypatch.setattr(infraflat, "holonomy_power_cover", counting)
    group = klein()
    singular = validate_endo(group, [[3, 0], [0, 0]], [0, 0])
    for x in ([F(1, 5), F(1, 7)], [F(1, 3), F(1, 2)], [F(0), F(1, 4)]):
        classify_infra(group, singular, x)
    assert calls == [group]
    assert group.power_cover == holonomy_power_cover(group)
    # a new group builds (and checks) its own cover
    classify_infra(klein(), singular, [F(1, 5), F(1, 7)])
    assert len(calls) == 2


def test_rep_maps_built_once_per_group():
    group = klein()
    maps = group.rep_maps
    assert [(f.linear, f.translation) for f in maps] == [(rep.F, rep.t) for rep in group.reps]
    classify_infra(group, klein_endo(group), [F(1, 5), F(1, 7)])
    assert group.rep_maps is maps


def test_fiber_starts_are_the_holonomy_images(monkeypatch):
    from nilorbit import infraflat

    starts = []

    def spy(rows, f, numerators, q):
        starts.append({tuple(F(v, q) % 1 for v in w) for w in numerators})
        return fiber_verdicts(rows, f, numerators, q)

    monkeypatch.setattr(infraflat, "fiber_verdicts", spy)
    group = klein()
    singular = validate_endo(group, [[3, 0], [0, 0]], [0, 0])
    for x in ([F(1, 5), F(1, 7)], [F(1, 3), F(0)], [F(7, 6), F(-1, 4)]):
        for f in (klein_endo(group), singular):
            classify_infra(group, f, x)
            assert starts.pop() == {tuple(F(v) % 1 for v in rep.apply(x)) for rep in group.reps}


def test_fiber_and_flat_walks_build_no_transcript(monkeypatch):
    # verdicts only: no TorusPoint and no Fraction for any orbit state
    def refuse(*args):
        raise AssertionError("an orbit transcript was built")

    monkeypatch.setattr(TorusGrid, "transcript", refuse)
    monkeypatch.setattr(TorusPoint, "_canonical_points", classmethod(refuse))
    group = klein()
    endo = klein_endo(group)
    singular = validate_endo(group, [[3, 0], [0, 0]], [0, 0])
    for x in ([F(1, 5), F(1, 7)], [F(1, 3), F(0)], [F(7, 6), F(-1, 4)]):
        for f in (endo, singular):
            assert power_cover_periodic(group, f, x) == classify_infra(group, f, x).periodic
        classify_fiber([[1, 1], [0, 2]], TorusEndo([[0, 1], [1, 0]], [F(1, 2), F(1, 2)]), [x])


def test_determinant_computed_once_per_endo(monkeypatch):
    from nilorbit import infraflat

    calls = []
    real_det = infraflat.det

    def counting(M):
        calls.append(M)
        return real_det(M)

    group = klein()
    endo = klein_endo(group)
    monkeypatch.setattr(infraflat, "det", counting)
    # the cover pick reads the determinant on every call; the cached property
    # computes it once
    for x in ([F(1, 5), F(1, 7)], [F(1, 3), F(1, 2)], [F(0), F(1, 4)]):
        classify_infra(group, endo, x)
    assert calls == [endo.linear]
    assert endo.determinant == 6


def test_fitting_lift():
    group = klein()
    endo = klein_endo(group)
    lift = endo.lift
    assert (lift.linear, lift.translation) == (((3, 0), (0, 2)), (0, 0))
    classify_infra(group, endo, [F(1, 5), F(1, 7)])
    assert endo.lift is lift


def test_fiber_is_holonomy_orbit():
    group = klein()
    x = [F(1, 5), F(1, 7)]
    fiber = {tuple(F(v) % 1 for v in rep.apply(x)) for rep in group.reps}
    assert len(fiber) == 2


# --- classification ----------------------------------------------------------------------

def test_classify_examples():
    group = klein()
    endo = klein_endo(group)
    assert classify_infra(group, endo, [F(1, 5), F(1, 7)]).periodic
    cls = classify_infra(group, endo, [F(1, 3), F(0)])
    assert not cls.periodic and (cls.preperiod, cls.period) == (1, 1)
    cls = classify_infra(group, endo, [F(0), F(0)])
    assert cls.periodic and cls.period == 1


def _same_orbit(group, x, y):
    """Independent coset-equality test: some representative moves x onto y
    modulo Z^n (no canonicalization involved)."""
    y = tuple(F(v) % 1 for v in y)
    for rep in group.reps:
        if tuple(F(v) % 1 for v in rep.apply(x)) == y:
            return True
    return False


def test_classify_matches_membership_oracle():
    group = klein()
    endo = klein_endo(group)
    rng = random.Random(25)
    A = [list(r) for r in endo.linear]
    for _ in range(60):
        x = [F(rng.randint(0, 9), rng.randint(1, 10)) for _ in range(2)]
        cls = classify_infra(group, endo, x)
        history = [list(x)]
        found = None
        for _ in range(500):
            moved = [
                sum(a * v for a, v in zip(row, history[-1])) + b
                for row, b in zip(A, endo.translation)
            ]
            for k1, old in enumerate(history):
                if _same_orbit(group, moved, old):
                    found = (k1, len(history) - k1)
                    break
            if found:
                break
            history.append([F(v) % 1 for v in moved])
        assert found == (cls.preperiod, cls.period), x


def test_classify_covers_agree_small_sweep():
    group = klein()
    endo = klein_endo(group)
    for m in range(1, 7):
        for a in range(m):
            for b in range(m):
                x = [F(a, m), F(b, m)]
                cls = classify_infra(group, endo, x)
                assert power_cover_periodic(group, endo, x) == cls.periodic


def test_invertible_lift_fiber_all_or_none():
    # with an invertible linear part, the fiber of a periodic point is
    # entirely periodic and the fiber of a non-periodic point has no periodic
    # points at all
    group = klein()
    endo = klein_endo(group)
    lift = endo.lift
    for m in range(1, 9):
        for a in range(m):
            for b in range(m):
                x = [F(a, m), F(b, m)]
                base = classify_infra(group, endo, x)
                fiber = {tuple(F(v) % 1 for v in rep.apply(x)) for rep in group.reps}
                ups = [classify(lift, p)[0].periodic for p in fiber]
                assert all(ups) == base.periodic
                assert any(ups) == base.periodic


def test_three_dimensional_flat_manifold():
    # order-2 holonomy flipping two axes with a half-translation on the first
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    F3 = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    group = validate_bieberbach(3, [(I3, [0, 0, 0]), (F3, [F(1, 2), 0, 0])])
    assert group.holonomy_order == 2
    cover = holonomy_power_cover(group)
    assert cover.lattice_rows == ((1, 0, 0), (0, 2, 0), (0, 0, 2))
    assert cover.index == 4

    endo = validate_endo(group, [[3, 0, 0], [0, 2, 0], [0, 0, 2]], [0, 0, 0])
    assert classify_infra(group, endo, [F(1, 5), F(1, 7), F(2, 7)]).periodic
    cls = classify_infra(group, endo, [F(1, 2), F(0), F(0)])
    assert cls.periodic  # (1/2,0,0) is fixed by x -> 3x on the half-grid
    cls = classify_infra(group, endo, [F(0), F(1, 2), F(0)])
    assert not cls.periodic  # halving axis is doubled, falls onto the origin
    for x in ([F(1, 5), F(1, 7), F(2, 7)], [F(1, 2), F(0), F(0)], [F(0), F(1, 2), F(0)]):
        assert power_cover_periodic(group, endo, x) == classify_infra(group, endo, x).periodic

    with pytest.raises(InvalidFixtureError, match="torsion"):
        # a half-translation along a flipped axis cancels in the square: the
        # representative has order 2
        validate_bieberbach(3, [(I3, [0, 0, 0]), (F3, [0, F(1, 2), 0])])


def test_density_on_flat_manifold():
    # one periodic point forces periodic samples in every cell of admissible
    # grids (m coprime to the determinant)
    group = klein()
    endo = klein_endo(group)
    D = 6
    for m in range(1, 7):
        if gcd(m, D) != 1:
            continue
        for a in range(m):
            for b in range(m):
                assert classify_infra(group, endo, [F(a, m), F(b, m)]).periodic
