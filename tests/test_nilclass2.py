import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from nilorbit.errors import ConsistencyError, LatticeError, UnsupportedInputError
from nilorbit.fixtures import build_fixture, shipped
from nilorbit.exactmath import prime_support
from nilorbit.nilclass2 import (
    Class2Group,
    MalcevElement,
    NilCosets,
    NilEndo,
    apply_endo,
    basis_root_subgroup,
    bch_inv,
    bch_mul,
    bch_pow,
    classify_nil,
    commutator,
    constant_prime_support_on_cycle,
    equalizer_subalgebra,
    identity,
    make_endo,
    order_coprime_to_det,
    relative_order,
    root_closure_counterexample,
    subgroup_generated,
    subgroup_index,
    unity_subalgebra,
)
from nilorbit.scan import _denominator_table, density_report, render_report, scan_report

G = Class2Group.heisenberg()
X = MalcevElement(G, [1, 0, 0])
Y = MalcevElement(G, [0, 1, 0])
Z = MalcevElement(G, [0, 0, 1])
N = subgroup_generated([X, Y, Z])
AUTO = make_endo(G, [[2, 1, 0], [3, 2, 0], [0, 0, 1]], N)
PHI2 = make_endo(G, [[2, 0, 0], [0, 2, 0], [0, 0, 4]], N)


def elem(*coords):
    return MalcevElement(G, [F(c) if not isinstance(c, F) else c for c in coords])


# --- group construction -------------------------------------------------------

def test_group_validation():
    with pytest.raises(ValueError):
        # [e0, e1] = e0 is not central in dimension 2
        Class2Group([[[0, 0], [1, 0]], [[-1, 0], [0, 0]]])
    abelian = Class2Group.abelian(3)
    assert abelian.derived.dim == 0
    assert G.derived.dim == 1


# --- BCH arithmetic -------------------------------------------------------------

def test_bch_examples():
    assert bch_mul(X, Y).coords == (F(1), F(1), F(1, 2))
    assert bch_pow(elem(F(1, 2), F(1, 2), 0), 4).coords == (F(2), F(2), F(0))
    assert bch_mul(X, bch_inv(X)).is_identity
    assert commutator(X, Y).coords == (F(0), F(0), F(1))


def test_bch_associativity_randomized():
    rng = random.Random(2)

    def rand():
        return MalcevElement(
            G, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        )

    for _ in range(500):
        a, b, c = rand(), rand(), rand()
        left = bch_mul(bch_mul(a, b), c)
        right = bch_mul(a, bch_mul(b, c))
        assert left.coords == right.coords


def test_power_is_scaling():
    rng = random.Random(4)
    for _ in range(50):
        g = MalcevElement(G, [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)])
        s = rng.randint(-20, 20)
        direct = identity(G)
        for _ in range(abs(s)):
            direct = bch_mul(direct, g if s >= 0 else bch_inv(g))
        assert bch_pow(g, s).coords == direct.coords


# --- lattice membership -----------------------------------------------------------

def test_membership_examples():
    assert N.contains(elem(1, 1, F(1, 2)))  # equals exp(X) exp(Y)
    assert N.contains(identity(G))
    assert not N.contains(elem(F(1, 2), 0, 0))
    assert not N.contains(elem(1, 1, 0))  # central residual -1/2


def test_canonical_rep_is_coset_invariant():
    rng = random.Random(6)
    for _ in range(100):
        g = MalcevElement(G, [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)])
        rep = N.canonical_rep(g)
        # multiplying by lattice elements on the left never changes the rep
        n = bch_mul(bch_pow(X, rng.randint(-2, 2)),
                    bch_mul(bch_pow(Y, rng.randint(-2, 2)), bch_pow(Z, rng.randint(-2, 2))))
        assert N.canonical_rep(bch_mul(n, g)).coords == rep.coords
        assert N.canonical_rep(rep).coords == rep.coords
        assert N.contains(g) == rep.is_identity


# --- relative order -----------------------------------------------------------------

def test_relative_order_examples():
    assert relative_order(N, elem(F(1, 2), F(1, 2), 0)) == 4
    assert relative_order(N, elem(0, 0, F(1, 3))) == 3
    assert relative_order(N, elem(1, 1, F(1, 2))) == 1


def test_relative_order_multiples_structure():
    for g, bound in [
        (elem(F(1, 2), F(1, 2), 0), 24),
        (elem(F(1, 3), F(1, 3), 0), 24),
        (elem(0, F(1, 4), F(1, 6)), 30),
    ]:
        s = relative_order(N, g)
        for k in range(1, bound):
            assert N.contains(bch_pow(g, k)) == (k % s == 0)


def test_relative_order_bound_and_support():
    rng = random.Random(8)
    for _ in range(100):
        g = MalcevElement(G, [F(rng.randint(0, 11), rng.choice([1, 2, 3, 4, 6])) for _ in range(3)])
        s0 = 1
        from nilorbit.exactmath import denominator_lcm

        s0 = denominator_lcm(N.coords_in_basis(g.coords))
        s = relative_order(N, g)
        assert s <= (2 * s0) ** 3
        assert prime_support(s) <= prime_support(2 * s0)


# --- generated subgroups --------------------------------------------------------------

def test_subgroup_generated_examples():
    halves = subgroup_generated(
        [elem(F(1, 2), 0, 0), elem(0, F(1, 2), 0), elem(0, 0, F(1, 2))]
    )
    assert subgroup_index(N, halves) == 16
    again = subgroup_generated([X, Y, Z])
    assert subgroup_index(again, N) == 1 and subgroup_index(N, again) == 1
    third_center = subgroup_generated([X, Y, Z, elem(0, 0, F(1, 3))])
    assert subgroup_index(N, third_center) == 3


def test_subgroup_generated_rank_errors():
    with pytest.raises(LatticeError):
        subgroup_generated([X])
    with pytest.raises(LatticeError):
        subgroup_generated([X, bch_mul(X, X)])


def test_non_adapted_basis_readapted():
    # generators whose raw coordinate rows are not adapted still produce a
    # valid lattice through the two-stage construction
    g1 = bch_mul(X, Z)          # (1, 0, 1)
    g2 = bch_mul(Y, bch_inv(Z))  # (0, 1, -1)
    L = subgroup_generated([g1, g2, Z])
    assert subgroup_index(L, N) == 1 and subgroup_index(N, L) == 1


def test_basis_root_subgroup_indices():
    assert subgroup_index(N, basis_root_subgroup(N, 1)) == 1
    for s in (2, 3, 4, 6):
        idx = subgroup_index(N, basis_root_subgroup(N, s))
        assert idx == s**4
        assert prime_support(idx) <= prime_support(s)


def test_basis_root_subgroup_abelian():
    A = Class2Group.abelian(2)
    NA = subgroup_generated([MalcevElement(A, [1, 0]), MalcevElement(A, [0, 1])])
    assert subgroup_index(NA, basis_root_subgroup(NA, 3)) == 9


def test_root_closure_gap_is_genuine():
    # the recipe subgroup generated by basis roots can be a strict subgroup of
    # the full group of elements with s-th power in the lattice; the probe
    # must find an honest counterexample on the Heisenberg lattice at s = 2
    cx = root_closure_counterexample(N, 2, samples=200, seed=3)
    assert cx is not None
    assert N.contains(bch_pow(cx, 2))
    assert not basis_root_subgroup(N, 2).contains(cx)
    # and the counterexample is invisible at s = 1
    assert root_closure_counterexample(N, 1, samples=50, seed=3) is None


def test_index_multiplicative_on_towers():
    s2 = basis_root_subgroup(N, 2)
    s4 = basis_root_subgroup(N, 4)
    assert subgroup_index(N, s4) == subgroup_index(N, s2) * subgroup_index(s2, s4)


def test_index_violation_reported():
    halves = subgroup_generated(
        [elem(F(1, 2), 0, 0), elem(0, F(1, 2), 0), elem(0, 0, F(1, 2))]
    )
    with pytest.raises(LatticeError):
        subgroup_index(halves, N)  # halves is not inside N


def test_prime_order_elements_exist_for_index_primes():
    # every prime dividing the index of N in a root overgroup is witnessed by
    # an element of exactly that relative order
    for s in (2, 3, 6):
        H = basis_root_subgroup(N, s)
        for p in prime_support(subgroup_index(N, H)):
            found = None
            for row in H.basis:
                g = MalcevElement(G, row)
                o = relative_order(N, g)
                while o % p == 0 and o != p:
                    g = bch_pow(g, o // p)
                    o = relative_order(N, g)
                if o == p:
                    found = g
                    break
            assert found is not None, (s, p)


# --- endomorphisms ---------------------------------------------------------------------

def test_make_endo_examples():
    assert AUTO.determinant == 1
    assert PHI2.determinant == 16
    with pytest.raises(ValueError):
        make_endo(G, [[2, 0, 0], [0, 1, 0], [0, 0, 1]], N)  # bracket broken


def test_make_endo_rejects_lattice_escape():
    # block determinant 1 preserves the bracket, but exp(image of e1) has
    # central residual -1/2, so the standard lattice is not preserved
    with pytest.raises(ValueError):
        make_endo(G, [[2, 1, 0], [1, 1, 0], [0, 0, 1]], N)


def test_image_index_equals_determinant():
    images = [MalcevElement(G, apply_endo(PHI2, MalcevElement(G, row)).coords) for row in N.basis]
    image_lattice = subgroup_generated(images)
    assert subgroup_index(image_lattice, N) == 16


def _classify_by_membership(endo, lattice, g, max_steps=2000):
    """Independent oracle: walk the element orbit and detect the first coset
    repeat using only products, inverses and membership tests."""
    history = [g]
    for _ in range(max_steps):
        g = apply_endo(endo, g)
        for k1, old in enumerate(history):
            if lattice.contains(bch_mul(g, bch_inv(old))):
                return k1, len(history) - k1
        history.append(g)
    raise AssertionError("oracle did not terminate")


def test_classify_nil_matches_membership_oracle():
    rng = random.Random(18)
    for endo in (AUTO, PHI2):
        for _ in range(30):
            g = MalcevElement(G, [F(rng.randint(0, 7), rng.choice([1, 2, 3, 4, 6])) for _ in range(3)])
            cls, _ = classify_nil(endo, N, g)
            mu, lam = _classify_by_membership(endo, N, g)
            assert (cls.preperiod, cls.period) == (mu, lam), g.coords


def test_classify_nil_examples():
    cls, orbit = classify_nil(PHI2, N, elem(F(1, 2), 0, 0))
    assert (cls.preperiod, cls.period) == (1, 1)
    cls, _ = classify_nil(AUTO, N, elem(F(1, 3), F(1, 3), 0))
    assert cls.periodic
    cls, _ = classify_nil(AUTO, N, X)
    assert cls.periodic and cls.period == 1


def test_element_orbit_order_never_increases():
    # along the element orbit g, d(g), d^2(g), ... the relative order always
    # divides the previous one (the map sends the lattice into itself); note
    # this is about elements, not canonical coset representatives
    rng = random.Random(12)
    for endo in (AUTO, PHI2):
        for _ in range(20):
            g = MalcevElement(G, [F(rng.randint(0, 5), rng.choice([1, 2, 3, 6])) for _ in range(3)])
            prev = relative_order(N, g)
            for _ in range(6):
                g = apply_endo(endo, g)
                cur = relative_order(N, g)
                assert prev % cur == 0
                prev = cur


def test_order_coprime_to_det_examples():
    assert order_coprime_to_det(PHI2, N, elem(F(1, 3), 0, 0))
    assert not order_coprime_to_det(PHI2, N, elem(F(1, 2), 0, 0))
    assert order_coprime_to_det(AUTO, N, elem(F(1, 2), F(1, 2), 0))
    singular = NilEndo(G, ((F(0),) * 3,) * 3, F(0))
    with pytest.raises(UnsupportedInputError):
        order_coprime_to_det(singular, N, X)


def test_coprime_order_implies_periodic_nil():
    rng = random.Random(14)
    for endo in (AUTO, PHI2):
        D = int(abs(endo.determinant))
        for _ in range(30):
            g = MalcevElement(G, [F(rng.randint(0, 5), rng.choice([1, 2, 3, 5, 6])) for _ in range(3)])
            if order_coprime_to_det(endo, N, g):
                cls, _ = classify_nil(endo, N, g)
                assert cls.periodic, (endo.matrix, g.coords, D)


def test_constant_prime_support_on_cycles():
    rng = random.Random(16)
    for endo in (AUTO, PHI2):
        for _ in range(25):
            g = MalcevElement(G, [F(rng.randint(0, 5), rng.choice([1, 2, 3, 6])) for _ in range(3)])
            cls, orbit = classify_nil(endo, N, g)
            assert constant_prime_support_on_cycle(N, orbit)


def test_tail_can_drop_primes():
    cls, orbit = classify_nil(PHI2, N, elem(F(1, 2), 0, 0))
    trace = cls.relative_order_trace
    assert trace[0] == 2 and trace[-1] == 1  # the drop happens on the tail
    assert constant_prime_support_on_cycle(N, orbit)


# --- invariant subspaces -----------------------------------------------------------------

# --- beyond the 3-dimensional fixture ----------------------------------------------

def _bracket_tensor(dim, pairs):
    t = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in pairs.items():
        t[i][j] = [F(v) for v in vec]
        t[j][i] = [-F(v) for v in vec]
    return t


def _standard_lattice(group):
    gens = [MalcevElement(group, row) for row in
            ([1 if i == j else 0 for j in range(group.dim)] for i in range(group.dim))]
    return subgroup_generated(gens)


def test_two_dimensional_central_stage():
    # dim 5, derived rank 2: [e0,e1] = e3, [e0,e2] = e4
    G5 = Class2Group(_bracket_tensor(5, {(0, 1): [0, 0, 0, 1, 0], (0, 2): [0, 0, 0, 0, 1]}))
    assert G5.derived.dim == 2
    N5 = _standard_lattice(G5)

    # graded doubling with weights (1,1,1,2,2)
    graded = make_endo(G5, [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                            [0, 0, 0, 4, 0], [0, 0, 0, 0, 4]], N5)
    assert graded.determinant == 128

    # half-basis roots: abelianization index 8, both central directions 1/4
    idx = subgroup_index(N5, basis_root_subgroup(N5, 2))
    assert idx == 2**7
    assert prime_support(idx) == {2}

    # watch the product correction: exp((1/3,1/3,2/3,0,0)) has order 6, not 3,
    # since the e3 residual -s^2/18 needs an even multiple; this point's
    # residual -s^2/9 stays integral at s = 3
    g = MalcevElement(G5, [F(1, 3), F(2, 3), 0, 0, 0])
    assert relative_order(N5, g) == 3
    assert order_coprime_to_det(graded, N5, g)
    cls, _ = classify_nil(graded, N5, g)
    assert cls.periodic
    assert relative_order(N5, MalcevElement(G5, [F(1, 3), F(1, 3), F(2, 3), 0, 0])) == 6

    # unimodular shear e2 -> e1 + e2 forces e4 -> e3 + e4 on the centre
    shear = make_endo(G5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                           [0, 0, 0, 1, 0], [0, 0, 0, 1, 1]], N5)
    assert abs(shear.determinant) == 1
    for coords in ([F(1, 2), 0, F(1, 2), 0, 0], [0, F(1, 3), F(1, 5), F(1, 2), 0]):
        cls, _ = classify_nil(shear, N5, MalcevElement(G5, coords))
        assert cls.periodic


def test_center_larger_than_derived():
    # dim 4: Heisenberg plus a bracket-trivial direction; the extra central
    # direction is handled as a horizontal basis vector
    G4 = Class2Group(_bracket_tensor(4, {(0, 1): [0, 0, 1, 0]}))
    assert G4.derived.dim == 1
    N4 = _standard_lattice(G4)
    assert len(N4.horizontal_rows) == 3 and len(N4.central_rows) == 1

    endo = make_endo(G4, [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 6, 0], [0, 0, 0, 5]], N4)
    assert endo.determinant == 180
    g = MalcevElement(G4, [F(1, 7), 0, 0, F(1, 7)])
    assert order_coprime_to_det(endo, N4, g)
    cls, _ = classify_nil(endo, N4, g)
    assert cls.periodic
    cls, _ = classify_nil(endo, N4, MalcevElement(G4, [0, 0, 0, F(1, 5)]))
    assert not cls.periodic  # order 5 shares a factor with the e3 multiplier


def test_free_two_step_on_three_generators():
    G6 = Class2Group(
        _bracket_tensor(
            6,
            {
                (0, 1): [0, 0, 0, 1, 0, 0],
                (0, 2): [0, 0, 0, 0, 1, 0],
                (1, 2): [0, 0, 0, 0, 0, 1],
            },
        )
    )
    assert G6.derived.dim == 3
    N6 = _standard_lattice(G6)
    idx = subgroup_index(N6, basis_root_subgroup(N6, 2))
    assert idx == 2**9
    graded = make_endo(
        G6,
        [[2, 0, 0, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0],
         [0, 0, 0, 4, 0, 0], [0, 0, 0, 0, 4, 0], [0, 0, 0, 0, 0, 4]],
        N6,
    )
    assert graded.determinant == 2**9
    cls, orbit = classify_nil(graded, N6, MalcevElement(G6, [F(1, 2), F(1, 2), 0, 0, 0, F(1, 2)]))
    assert not cls.periodic
    assert constant_prime_support_on_cycle(N6, orbit)


def test_group_level_coset_equivalence():
    # coordinates of phi(n) psi(n)^{-1} are rational exactly when n splits as
    # (rational) * (equalizer-directed), checked at the coordinate level over
    # Q(sqrt(2)) with the class-2 product v1 - v2 - [v1, v2]/2
    from nilorbit.exactmath import QuadExt, mat_vec, scalar_is_rational

    r2 = QuadExt.sqrt(2)
    Mphi = [list(r) for r in AUTO.matrix]
    Mpsi = [[F(1) if i == j else F(0) for j in range(3)] for i in range(3)]
    H = equalizer_subalgebra(AUTO, make_endo(G, Mpsi, N))
    assert H.dim == 1 and H.contains([F(0), F(0), F(1)])

    def difference_coords(log_n):
        v1 = mat_vec(Mphi, log_n)
        v2 = mat_vec(Mpsi, log_n)
        corr = G.bracket_vec(v1, v2)
        return [a - b - c / 2 for a, b, c in zip(v1, v2, corr)]

    inside = [F(1, 3) + 0 * r2, F(1, 5) + 0 * r2, F(2, 7) + 3 * r2]  # drift along H
    assert all(scalar_is_rational(x) for x in difference_coords(inside))
    outside = [r2, F(1, 5) + 0 * r2, F(0) + 0 * r2]  # drift off H
    assert not all(scalar_is_rational(x) for x in difference_coords(outside))


def test_unity_subalgebra_examples():
    s = unity_subalgebra(AUTO)
    assert s.dim == 1 and s.contains([F(0), F(0), F(1)])
    assert unity_subalgebra(PHI2).dim == 0


def test_equalizer_subalgebra_examples():
    assert equalizer_subalgebra(AUTO, AUTO).dim == 3
    eq = equalizer_subalgebra(AUTO, PHI2)
    assert eq.contains([F(0), F(0), F(0)])
    # equalizers and unity spaces are closed under the bracket by construction
    s = unity_subalgebra(AUTO, include_nilpotent=True)
    assert s.dim == 1


# --- the integer coset kernel --------------------------------------------------------

@pytest.mark.parametrize(
    "matrix, block",
    [
        ([[F(1, 2), 0, 0], [0, 1, 0], [0, 0, F(1, 2)]], "horizontal block"),
        ([[1, 0, 1], [0, 1, 0], [0, 0, 1]], "central directions into horizontal"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]], "central block"),
        ([[1, 0, 0], [0, 1, 0], [F(1, 3), 0, 1]], "horizontal->central"),
    ],
)
def test_nil_cosets_checks_map_blocks(matrix, block):
    # maps that do not send N into itself fail one of the block identities
    rows = tuple(tuple(F(x) for x in row) for row in matrix)
    with pytest.raises(ConsistencyError, match=block):
        NilCosets(NilEndo(G, rows, F(1)), N, 1)


def test_nil_reports_pinned():
    # sha256 of scan and density reports recorded before the integer kernel,
    # including a lattice whose basis is not the unit basis
    pins = json.loads((Path(__file__).parent / "nil_report_pins.json").read_text())
    fixtures = {"heisenberg": shipped("heisenberg")}
    fixtures.update({name: build_fixture(doc) for name, doc in pins["fixtures"].items()})
    for pin in pins["reports"]:
        fx = fixtures[pin["fixture"]]
        if pin["kind"] == "scan":
            report = scan_report(fx, pin["bound"], endo_name=pin["endo"])
        else:
            report = density_report(fx, pin["bound"], endo_name=pin["endo"])
        digest = hashlib.sha256(render_report(report).encode()).hexdigest()
        assert digest == pin["sha256"], pin


def test_nil_scan_steps_each_state_once(monkeypatch):
    # the cycle check reads each periodic row's successor from the sweep
    stepped = []
    init = NilCosets.__init__

    def recording_init(self, *args):
        init(self, *args)
        step = self.step

        def recorded(state):
            stepped.append(state)
            return step(state)

        self.step = recorded

    monkeypatch.setattr(NilCosets, "__init__", recording_init)
    fx = shipped("heisenberg")
    periodic = 0
    for endo_name in ("automorphism", "grading_2"):
        for m in range(1, 5):
            stepped.clear()
            _, rows, _, _ = _denominator_table((fx, endo_name, m))
            periodic += sum(row["verdict"] == "periodic" for row in rows)
            assert stepped and len(stepped) == len(set(stepped)), (endo_name, m)
    assert periodic
