import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest

from nilorbit.errors import (
    ConsistencyError,
    LatticeError,
    MixedFieldError,
    UnsupportedInputError,
)
from nilorbit.exactmath import (
    QuadExt,
    SubspaceQ,
    coset_representatives,
    mat_pow,
    mat_vec,
)
from nilorbit.orbits import sweep_orbits
from nilorbit.torus import (
    EventuallyPeriodicSet,
    TorusEndo,
    TorusGrid,
    TorusPoint,
    TranslationVerdict,
    classify,
    classify_fiber,
    conjugate_to_linear,
    constant_order_on_cycle,
    cover_lattice,
    cover_transfer,
    equalizer_membership,
    eventually_periodic_set,
    fixed_point,
    has_periodic_point,
    lattice_coordinates,
    order_coprime_to_det,
    periodic_point_of_period,
    relative_order,
    step,
    strictly_preperiodic_witness,
    translation_periodicity,
    unity_subspace,
)
from oracles import brute_orbit, random_invertible_matrix, reduce_mod_lattice

A1 = [[3, 1], [1, 1]]
R2 = QuadExt.sqrt(2)


# --- endomorphism construction -------------------------------------------------

def test_rational_linear_part_rejected():
    with pytest.raises(ValueError):
        TorusEndo([[F(1, 2), 0], [0, 1]])


def test_singular_linear_part_allowed():
    f = TorusEndo([[2, 4], [1, 2]])
    assert f.determinant == 0


def test_translation_normalization():
    f = TorusEndo([[1, 0], [0, 1]], [QuadExt.rational(F(1, 2), 2), R2])
    assert isinstance(f.translation[0], F)
    assert isinstance(f.translation[1], QuadExt)
    assert f.has_irrational_translation


# --- relative order -------------------------------------------------------------

def test_relative_order_examples():
    assert relative_order([F(1, 3), F(1, 6)]) == 6
    assert relative_order([F(0), F(0)]) == 1
    assert relative_order([F(2, 5), F(3, 7)]) == 35


def test_relative_order_divisibility():
    q = [F(1, 4), F(5, 6)]
    s = relative_order(q)
    for k in range(1, 3 * s + 1):
        integral = all((k * x).denominator == 1 for x in q)
        assert integral == (k % s == 0)


# --- step -----------------------------------------------------------------------

def test_step_examples():
    f = TorusEndo([[1, 1], [0, 1]])
    assert step(f, TorusPoint((F(1, 2), F(1, 2)))).coords == (F(0), F(1, 2))
    ident = TorusEndo([[1, 0], [0, 1]])
    p = TorusPoint((F(2, 7), F(3, 4)))
    assert step(ident, p) == p
    fa = TorusEndo(A1)
    assert step(fa, TorusPoint((F(1, 5), F(2, 5)))).coords == (F(0), F(3, 5))


def test_step_rejects_irrational_translation():
    f = TorusEndo([[1, 0], [0, 1]], [R2, F(0)])
    with pytest.raises(UnsupportedInputError):
        step(f, TorusPoint((F(0), F(0))))


# --- classification --------------------------------------------------------------

def test_classify_examples():
    cls, orbit = classify(TorusEndo([[1, 1], [0, 1]]), [F(1, 2), F(1, 2)])
    assert cls.periodic and cls.period == 2
    assert [p.coords for p in orbit.cycle] == [(F(1, 2), F(1, 2)), (F(0), F(1, 2))]

    cls, orbit = classify(TorusEndo([[2]]), [F(1, 2)])
    assert (cls.preperiod, cls.period) == (1, 1)
    assert orbit.tail[0].coords == (F(1, 2),)
    assert orbit.cycle[0].coords == (F(0),)

    cls, _ = classify(TorusEndo([[5, 2], [-1, 1]]), [F(1, 7), F(1, 7)])
    assert (cls.preperiod, cls.period) == (1, 1)


def test_classify_matches_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        b = [F(rng.randint(0, 5), rng.randint(1, 5)) for _ in range(n)]
        q = [F(rng.randint(0, 7), rng.randint(1, 7)) for _ in range(n)]
        f = TorusEndo(A, b)
        cls, orbit = classify(f, q)
        mu, lam, path = brute_orbit(A, b, q)
        assert (cls.preperiod, cls.period) == (mu, lam)
        assert [p.coords for p in orbit.points] == path


def test_classify_termination_bound():
    # orbit stays inside the grid of denominator ord(q), so the path length is
    # bounded by ord(q)^n
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        q = [F(rng.randint(0, 11), 12) for _ in range(n)]
        cls, orbit = classify(TorusEndo(A), q)
        m = relative_order(q)
        assert cls.preperiod + cls.period <= m**n


def test_classify_rejects_irrational_translation():
    f = TorusEndo([[2, 0], [0, 1]], [R2, F(0)])
    with pytest.raises(UnsupportedInputError):
        classify(f, [F(0), F(0)])


def test_translation_set_up_built_once_per_map(monkeypatch):
    from nilorbit import torus

    calls = []

    def counting(q):
        calls.append(tuple(q))
        return relative_order(q)

    monkeypatch.setattr(torus, "relative_order", counting)
    b = (F(1, 2), F(0))
    f = TorusEndo([[2, 1], [1, 1]], b)
    for q in ([F(1, 5), F(1, 7)], [F(1, 3), F(2, 3)], [F(0), F(1, 4)]):
        classify(f, q)
    assert calls.count(b) == 1
    assert f.translation_fractions() is f.translation_fractions()
    # a new map builds its own
    classify(TorusEndo([[2, 1], [1, 1]], b), [F(1, 5), F(1, 7)])
    assert calls.count(b) == 2
    # an irrational translation is never cached: every call raises
    g = TorusEndo([[2, 0], [0, 1]], [R2, F(0)])
    for _ in range(2):
        with pytest.raises(UnsupportedInputError):
            g.translation_fractions()
        with pytest.raises(UnsupportedInputError):
            g.translation_order


def test_orbit_trace_shows_order_drop_on_tail():
    cls, orbit = classify(TorusEndo([[2]]), [F(1, 2)])
    assert cls.relative_order_trace == (2, 1)
    assert constant_order_on_cycle(orbit)


# --- fixed points and periodic points --------------------------------------------

def test_fixed_point_examples():
    p = fixed_point(TorusEndo([[2, 1], [1, 1]], [F(1, 2), F(0)]))
    assert p.coords == (F(0), F(1, 2))
    assert fixed_point(TorusEndo([[1, 0], [0, 1]])).coords == (F(0), F(0))
    assert fixed_point(TorusEndo([[1]], [F(1, 2)])) is None


def test_periodic_point_of_period_examples():
    ident = [[1, 0], [0, 1]]
    p = periodic_point_of_period(TorusEndo(ident, [F(1, 3), F(0)]), 3)
    assert p is not None
    f = TorusEndo(A1)
    p = periodic_point_of_period(f, 1)
    assert p is not None and step(f, p) == p
    assert periodic_point_of_period(TorusEndo(ident, [F(1, 2), F(0)]), 1) is None


def test_has_periodic_point_examples():
    out = has_periodic_point(TorusEndo(A1, [F(2, 9), F(1, 4)]))
    assert (out.status, out.k) == ("yes", 1)
    out = has_periodic_point(TorusEndo([[1, 0], [0, 1]], [R2, F(0)]))
    assert out.status == "empty"
    out = has_periodic_point(TorusEndo([[1, 0], [0, 1]], [F(1, 3), F(0)]))
    assert (out.status, out.k) == ("yes", 3)


def test_has_periodic_point_honest_unknown():
    # eigenvalue 1 with irrational drift along it: bounded search cannot
    # decide, must not overclaim
    f = TorusEndo([[2, 0], [0, 1]], [F(0), R2])
    out = has_periodic_point(f, k_max=6)
    assert out.status == "unknown" and out.bound == 6


def test_has_periodic_point_irrational_but_solvable():
    # no unity eigenvalue: a (possibly irrational) fixed point always exists
    f = TorusEndo([[2]], [R2])
    assert has_periodic_point(f).status == "yes"


def test_translation_periodicity():
    assert translation_periodicity([F(1, 3), F(2, 5)]) is TranslationVerdict.ALL_POINTS_PERIODIC
    assert translation_periodicity([R2, F(0)]) is TranslationVerdict.EMPTY
    assert translation_periodicity([F(0), F(0)]) is TranslationVerdict.ALL_POINTS_PERIODIC


# --- conjugation -----------------------------------------------------------------

def test_conjugate_to_linear_examples():
    f = TorusEndo([[2, 1], [1, 1]], [F(1, 2), F(0)])
    linear, g0 = conjugate_to_linear(f)
    assert linear.is_linear and g0.coords == (F(0), F(1, 2))
    lin = TorusEndo(A1)
    linear, g0 = conjugate_to_linear(lin)
    assert linear == lin and g0.coords == (F(0), F(0))
    assert conjugate_to_linear(TorusEndo([[1, 0], [0, 1]], [F(1, 2), F(0)])) is None


def test_conjugation_preserves_classification():
    rng = random.Random(37)
    f = TorusEndo([[2, 1], [1, 1]], [F(1, 2), F(0)])
    linear, g0 = conjugate_to_linear(f)
    for _ in range(25):
        q = [F(rng.randint(0, 9), rng.randint(1, 10)) for _ in range(2)]
        cls_f, _ = classify(f, q)
        shifted = [x - g for x, g in zip(q, g0.coords)]
        cls_l, _ = classify(linear, shifted)
        assert (cls_f.preperiod, cls_f.period) == (cls_l.preperiod, cls_l.period)


# --- unity subspace and eventually periodic set ------------------------------------

def test_unity_subspace_examples():
    assert unity_subspace([[0, -1], [1, 0]]).dim == 2
    s = unity_subspace([[2, 0], [0, 1]])
    assert s.dim == 1 and s.contains([F(0), F(1)])
    assert unity_subspace(A1).dim == 0


def test_unity_subspace_with_kernel():
    s = unity_subspace([[0, 0], [0, 1]], include_kernel=True)
    assert s.dim == 2
    assert unity_subspace([[0, 0], [0, 1]]).dim == 1


def test_eventually_periodic_set_descriptions():
    eps = eventually_periodic_set(TorusEndo(A1))
    assert eps.base_point.coords == (F(0), F(0))
    assert eps.subspace.dim == 0
    assert eps.contains([F(1, 3), F(2, 7)])
    assert not eps.contains([R2, F(0)])

    eps = eventually_periodic_set(TorusEndo([[2, 0], [0, 1]]))
    assert eps.subspace.dim == 1
    assert eps.contains([F(1, 3), R2])
    assert not eps.contains([R2, F(1, 3)])

    eps = eventually_periodic_set(TorusEndo([[0, -1], [1, 0]]))
    assert eps.subspace.dim == 2
    assert eps.contains([R2, R2])


def test_eventually_periodic_set_agrees_with_equalizer():
    # membership in Q^n + H must match the equalizer criterion for the map
    # iterated to the combined unity order (where H becomes a fixed space)
    from nilorbit.exactmath import lcm, root_of_unity_orders

    k = lcm(*root_of_unity_orders(2))
    ident = [[1, 0], [0, 1]]
    vectors = [
        [F(1, 3), F(1, 5)],
        [R2, F(0)],
        [F(0), R2],
        [R2, R2],
        [F(1, 2) + R2, F(3)],
    ]
    for A in ([[2, 0], [0, 1]], [[0, -1], [1, 0]], A1):
        eps = eventually_periodic_set(TorusEndo(A))
        for v in vectors:
            assert eps.contains(v) == equalizer_membership(mat_pow(A, k), ident, v)


# --- sufficiency and necessity -----------------------------------------------------

def test_order_coprime_to_det_examples():
    f = TorusEndo(A1)
    assert order_coprime_to_det(f, [F(1, 5), F(2, 5)])
    assert not order_coprime_to_det(f, [F(1, 2), F(0)])
    g = TorusEndo([[2, 1], [1, 1]])
    assert order_coprime_to_det(g, [F(1, 2), F(1, 2)])


def test_order_coprime_to_det_errors():
    with pytest.raises(UnsupportedInputError):
        order_coprime_to_det(TorusEndo([[2, 4], [1, 2]]), [F(1, 3), F(0)])
    with pytest.raises(UnsupportedInputError):
        order_coprime_to_det(TorusEndo(A1, [F(1, 2), F(0)]), [F(1, 3), F(0)])


def test_coprime_order_implies_periodic_small_sweep():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 3)
        A = random_invertible_matrix(rng, n)
        f = TorusEndo(A)
        D = f.determinant
        for m in range(1, 13):
            if gcd(m, abs(D)) != 1:
                continue
            grid = TorusGrid(f, m)
            memo, _ = sweep_orbits(grid.step, itertools.product(range(m), repeat=n))
            for state, (pre, per) in memo.items():
                assert pre == 0, (A, state, m)


# --- equalizer membership -----------------------------------------------------------

def test_equalizer_membership_examples():
    ident = [[1, 0], [0, 1]]
    assert equalizer_membership(A1, A1, [R2, R2])
    assert not equalizer_membership(A1, ident, [R2, F(0)])
    assert equalizer_membership(A1, ident, [F(1, 3), F(1, 7)])


def test_equalizer_membership_matches_rationality():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 4)
        phi = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        psi = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        for _ in range(10):
            v = [
                QuadExt(F(rng.randint(-4, 4), rng.randint(1, 3)),
                        F(rng.randint(-2, 2), rng.randint(1, 2)), 2)
                for _ in range(n)
            ]
            # the function cross-checks both decision paths internally
            equalizer_membership(phi, psi, v)


def test_mixed_quadratic_fields_raise():
    # sqrt(2) and sqrt(3) are independent over Q, so no rational subspace
    # decides a vector that carries both
    v = [QuadExt.sqrt(2), QuadExt.sqrt(3)]
    eps = EventuallyPeriodicSet(TorusPoint((F(0), F(0))), SubspaceQ.from_vectors(2, [[1, 1]]))
    with pytest.raises(MixedFieldError):
        eps.contains(v)
    with pytest.raises(MixedFieldError):
        equalizer_membership([[1, 0], [0, 1]], [[0, 1], [1, 0]], v)
    # a rational entry's field tag does not count
    w = [QuadExt.sqrt(2), QuadExt.rational(F(1, 2), 3)]
    assert not eps.contains(w)
    assert not equalizer_membership([[1, 0], [0, 1]], [[0, 1], [1, 0]], w)


# --- covering transfer ---------------------------------------------------------------

def test_cover_transfer_doubling_line():
    f = TorusEndo([[2]])
    report = cover_transfer([[2]], f, f, [F(0)])
    assert report.index == 2
    assert not report.induced_map_injective
    verdicts = sorted((c.preperiod, c.period) for c in report.fiber_classifications)
    # only the origin upstairs is periodic; the other integer point falls onto it
    assert verdicts == [(0, 1), (1, 1)]
    assert report.per_projection_matches


def test_cover_transfer_trivial_cover():
    f = TorusEndo(A1)
    report = cover_transfer([[1, 0], [0, 1]], f, f, [F(1, 5), F(2, 5)])
    assert report.index == 1
    assert report.induced_map_injective
    assert report.fiber_classifications[0].periodic == report.base_classification.periodic


def test_cover_transfer_fiber_size_is_index():
    f = TorusEndo([[2, 0], [0, 3]])
    report = cover_transfer([[2, 0], [0, 3]], f, f, [F(1, 5), F(1, 5)])
    assert report.index == 6
    assert len(report.fiber) == 6


def test_cover_transfer_lift_mismatch():
    with pytest.raises(LatticeError):
        cover_transfer([[2]], TorusEndo([[2]]), TorusEndo([[3]]), [F(0)])
    with pytest.raises(LatticeError):
        # rank-deficient rows span an infinite-index sublattice
        cover_transfer([[0]], TorusEndo([[2]]), TorusEndo([[2]]), [F(0)])


def test_cover_transfer_raises_on_every_call():
    # the per-cover cache keeps no exception
    f = TorusEndo([[1, 1], [0, 1]])
    for L in ([[2, 0], [0, 0]], [[2, 0], [0, 1]]):
        for _ in range(2):
            with pytest.raises(LatticeError):
                cover_transfer(L, f, f, [F(0), F(0)])


def test_cover_transfer_injective_case():
    f = TorusEndo([[2, 1], [1, 1]])  # determinant 1
    report = cover_transfer([[2, 0], [0, 2]], f, f, [F(1, 3), F(1, 3)])
    # this map is invertible modulo 2, so the induced map on Z^2/2Z^2 is a
    # bijection and the whole fiber of a periodic point must be periodic
    assert report.induced_map_injective
    assert report.injective_fiber_periodic
    assert report.base_classification.periodic


def test_cover_transfer_injectivity_matches_enumeration():
    # the induced map on Z^n/L is injective iff no nonzero coset
    # representative z has A z in L
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        L = [[rng.randint(1, 4) if i == j else rng.randint(0, 3) * (j > i) for j in range(n)]
             for i in range(n)]
        try:
            H = cover_lattice(L, A)
        except LatticeError:
            continue
        expected = all(
            any(reduce_mod_lattice(H, mat_vec(A, list(z))))
            for z in coset_representatives(H)
            if any(z)
        )
        f = TorusEndo(A)
        assert cover_transfer(L, f, f, [F(0)] * n).induced_map_injective == expected, (A, L)
        checked += 1


def test_fiber_over_a_point_of_the_wrong_length_raises():
    f = TorusEndo([[0, 1], [1, 0]], [F(1, 2), F(0)])
    for q in ([F(1, 3)], [F(1, 3), F(0), F(1, 2)]):
        with pytest.raises(ValueError, match="wrong length"):
            classify_fiber([[1, 1], [0, 2]], f, [[F(1, 5), F(2, 5)], q])
        with pytest.raises(ValueError, match="wrong length"):
            cover_transfer([[1, 1], [0, 2]], f, f, q)


def test_lattice_coordinates_cached_and_immutable():
    f = TorusEndo([[2, 1], [1, 1]], [F(1, 2), F(1, 3)])
    rows = [[2, 0], [0, 2]]
    f_up, Binv = lattice_coordinates(rows, f.linear, f.translation_fractions())
    assert Binv == ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert f_up.linear == f.linear and f_up.translation == (F(1, 4), F(1, 6))
    # equal arguments in another container type hit the same cache entry
    again = lattice_coordinates(tuple(map(tuple, rows)), [list(r) for r in f.linear],
                                list(f.translation_fractions()))
    assert again[0] is f_up and again[1] is Binv
    # the swap preserves the lattice of (x, y) with x = y mod 2
    swap_up, Binv = lattice_coordinates([[1, 1], [0, 2]], [[0, 1], [1, 0]], [F(1, 2), F(0)])
    assert Binv == ((F(1), F(0)), (F(-1, 2), F(1, 2)))
    assert swap_up.linear == ((1, 2), (0, -1)) and swap_up.translation == (F(1, 2), F(-1, 4))


def test_lattice_coordinates_raises_on_every_call():
    # the swap does not preserve 2Z x Z, so its conjugate is not integral;
    # a cached failure would let the second call through
    for _ in range(3):
        with pytest.raises(ConsistencyError, match="not integral"):
            lattice_coordinates([[2, 0], [0, 1]], [[0, 1], [1, 0]], [F(0), F(0)])


# --- strictly preperiodic witnesses ----------------------------------------------------

def test_witness_examples():
    assert strictly_preperiodic_witness(TorusEndo([[2]])).coords == (F(1, 2),)
    w = strictly_preperiodic_witness(TorusEndo(A1))
    cls, _ = classify(TorusEndo(A1), w.coords)
    assert not cls.periodic
    assert strictly_preperiodic_witness(TorusEndo([[2, 1], [1, 1]])) is None


def test_witness_singular():
    w = strictly_preperiodic_witness(TorusEndo([[2, 4], [1, 2]]))
    assert w is not None
    cls, _ = classify(TorusEndo([[2, 4], [1, 2]]), w.coords)
    assert not cls.periodic


# --- structural edge cases ---------------------------------------------------------

def test_orbit_result_cycle_closes():
    f = TorusEndo(A1)
    _, orbit = classify(f, [F(1, 5), F(2, 5)])
    k = orbit.period
    for i in range(k):
        assert step(f, orbit.cycle[i]) == orbit.cycle[(i + 1) % k]
    assert len({p.coords for p in orbit.points}) == orbit.preperiod + orbit.period


def test_classify_rejects_mixed_irrational_point():
    with pytest.raises(UnsupportedInputError):
        classify(TorusEndo(A1), [R2, F(0)])


def test_eventually_periodic_set_bound_error():
    from nilorbit.errors import SearchBoundExceededError

    # a forced-tiny bound makes the search fail honestly for a map whose
    # minimal period is 2
    f = TorusEndo([[0, 1], [1, 0]], [F(1, 2), F(0)])
    with pytest.raises(SearchBoundExceededError):
        eventually_periodic_set(f, k_bound=1)
    eps = eventually_periodic_set(f, k_bound=4)
    assert eps.subspace.dim == 2  # finite-order linear part
