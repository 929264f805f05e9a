"""Integer structure decisions against their Fraction oracles: eventually
fixed directions, Smith-form solves, subspace membership, equalizers and
the periodic-point searches over k, plus property tests of the Smith and
Hermite forms they rest on (the Smith form also against sympy's invariant
factors, when sympy is installed), and the length checks of the membership
tests."""

import random
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import nilorbit.exactmath.linalg  # noqa: E402
import nilorbit.torus  # noqa: E402
from nilorbit.errors import SearchBoundExceededError  # noqa: E402
from nilorbit.exactmath import (  # noqa: E402
    QuadExt,
    SubspaceQ,
    eventually_fixed_subspace,
    hnf,
    invert_rational,
    mat_mul,
    mat_vec,
    root_of_unity_orders,
    row_span_contains,
    snf,
    solve_integer,
    solve_mod_lattice,
)
from nilorbit.torus import (  # noqa: E402
    TorusEndo,
    TorusPoint,
    equalizer_membership,
    eventually_periodic_set,
    has_periodic_point,
    has_unity_eigenvalue,
    relative_order,
)
from oracles import (  # noqa: E402
    free_column_kernel,
    gaussian_det,
    random_unimodular_matrix,
    reference_back_substitute,
    reference_eventually_fixed_subspace,
    reference_period_search,
    reference_rref,
    reference_solve_integer,
    reference_solve_mod_lattice,
)

# --- wrong-length vectors raise instead of being cut short by zip -----------

LINE = SubspaceQ.from_vectors(2, [[1, 0]])


def test_contains_rejects_short_vector():
    with pytest.raises(ValueError):
        LINE.contains([0])


def test_contains_rejects_long_vector():
    with pytest.raises(ValueError):
        LINE.contains([1, 0, 0])


def test_reduce_rejects_long_vector():
    with pytest.raises(ValueError):
        LINE.reduce([1, 0, 0])


def test_coefficients_of_rejects_long_vector():
    with pytest.raises(ValueError):
        LINE.coefficients_of([2, 0, 0])


def test_zero_subspace_contains_rejects_short_vector():
    with pytest.raises(ValueError):
        SubspaceQ(3, ()).contains([0])


def test_row_span_contains_rejects_long_vector():
    with pytest.raises(ValueError):
        row_span_contains([[1, 0], [0, 1]], [1, 2, 0])


# --- the decisions run on integers -------------------------------------------

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
              "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__")


def test_decisions_do_no_fraction_or_quadext_arithmetic(monkeypatch):
    r2 = QuadExt(Fraction(1, 3), Fraction(1, 2), 2)
    M = [[2, 0, 0], [0, 0, 0], [0, 0, 3]]
    plane = SubspaceQ.from_vectors(3, [[1, 2, 0], [0, Fraction(1, 3), 1]])
    member = [Fraction(1, 2), Fraction(4, 3), 1]  # (1/2) (1, 2, 0) + (0, 1/3, 1)
    phi = [[1, Fraction(1, 2)], [0, 1]]
    psi = [[1, 0], [0, 1]]

    def forbidden(*args):
        raise AssertionError("Fraction or QuadExt arithmetic in an integer decision")

    for cls in (Fraction, QuadExt):
        for name in ARITHMETIC:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, forbidden)
    x = solve_mod_lattice(M, [r2, Fraction(3), Fraction(1, 5)])
    assert solve_mod_lattice(M, [r2, r2, Fraction(0)]) is None
    assert solve_integer(M, [Fraction(4), Fraction(0), Fraction(3, 2)]) is None
    assert plane.contains(member) and not plane.contains([0, 0, 1])
    assert plane.coefficients_of(member) is not None
    assert plane.reduce([0, 0, Fraction(1, 7)]) is not None
    assert equalizer_membership(phi, psi, [r2, Fraction(1, 3)])
    assert not equalizer_membership(phi, psi, [Fraction(0), r2])
    monkeypatch.undo()
    assert x[0] == r2 / 2 and x[2] == Fraction(1, 15)


# --- strategies --------------------------------------------------------------

QUAD_FIELDS = (2, 3, 5)

# companion matrices of the cyclotomic polynomials of degree 4
PHI_5 = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
PHI_8 = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
PHI_10 = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, -1], [0, 0, 1, 1]]
PHI_12 = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
BLOCKS = (
    [[1, 1], [0, 1]], [[-1, -1], [0, -1]],  # Jordan blocks, eigenvalue +-1
    PHI_5, PHI_8, PHI_10, PHI_12,
    [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[0, -1], [1, 1]],  # orders 4, 3, 6
    [[1]], [[-1]], [[0]], [[2]], [[-3]], [[0, 1], [0, 0]],
    [[2, 1], [1, 1]], [[1, 2], [2, 4]],  # hyperbolic, singular
)


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


@st.composite
def unimodular_pairs(draw, n):
    """U and U^-1 as products of elementary row additions."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-1, 1)))
        E = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)] for r in range(n)]
        Einv = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(n)]
                for r in range(n)]
        U, Uinv = mat_mul(U, E), mat_mul(Einv, Uinv)
    return U, Uinv


@st.composite
def structured_matrices(draw):
    """Dimension 1-6: a block diagonal of roots of unity, Jordan blocks,
    cyclotomic companions, singular and hyperbolic blocks, conjugated by a
    unimodular matrix; or a random matrix with entries in [-2, 2]."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(n)]
    blocks, n = [], 0
    while n == 0 or (n < 6 and draw(st.booleans())):
        block = draw(st.sampled_from([b for b in BLOCKS if n + len(b) <= 6]))
        blocks.append(block)
        n += len(block)
    U, Uinv = draw(unimodular_pairs(n))
    return mat_mul(mat_mul(U, block_diag(blocks)), Uinv)


@st.composite
def singular_square_matrices(draw, max_n=4):
    """Square integer matrices, mostly singular: a row that combines the
    others, a zero row, or zero throughout."""
    n = draw(st.integers(1, max_n))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["free", "dependent", "zero row", "zero"]))
    i = draw(st.integers(0, n - 1))
    if kind == "dependent" and n > 1:
        coeffs = [draw(st.integers(-2, 2)) for _ in range(n)]
        rows[i] = [sum(c * row[j] for k, (c, row) in enumerate(zip(coeffs, rows)) if k != i)
                   for j in range(n)]
    elif kind == "zero row":
        rows[i] = [0] * n
    elif kind == "zero":
        rows = [[0] * n for _ in range(n)]
    return rows


def rationals(max_den=4, bound=4):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, max_den))


@st.composite
def right_hand_sides(draw, M):
    """A rational or Q(sqrt d) vector of length len(M): random, or M x0 plus
    an integer vector for a random x0, so that M x == c (mod Z^n) is solvable."""
    n = len(M[0])
    d = draw(st.sampled_from(QUAD_FIELDS)) if draw(st.booleans()) else None

    def entry():
        a = draw(rationals())
        b = draw(rationals()) if d is not None and draw(st.booleans()) else 0
        return QuadExt(a, b, d) if b else a

    if draw(st.booleans()):
        return [entry() for _ in range(len(M))]
    x0 = [entry() for _ in range(n)]
    return [sum((a * x for a, x in zip(row, x0)), Fraction(0)) + draw(st.integers(-2, 2))
            for row in M]


def parts(x):
    return (x.a, x.b) if isinstance(x, QuadExt) else (Fraction(x), Fraction(0))


# --- eventually fixed directions ----------------------------------------------

@settings(max_examples=120, deadline=None)
@given(structured_matrices(), st.booleans())
def test_eventually_fixed_subspace_matches_all_orders(M, include_nilpotent):
    # the maximal orders span what every order spans
    expected = reference_eventually_fixed_subspace(M, include_nilpotent)
    H = eventually_fixed_subspace(M, include_nilpotent)
    assert [list(row) for row in H.basis] == expected
    if not include_nilpotent:
        assert has_unity_eigenvalue(M) == bool(expected)


# --- Smith-form solves ----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(singular_square_matrices().flatmap(lambda M: st.tuples(st.just(M), right_hand_sides(M))))
def test_solve_mod_lattice_matches_fraction_solve(case):
    M, c = case
    x = solve_mod_lattice(M, c)
    assert x == reference_solve_mod_lattice(M, c)
    if x is not None:
        for v, cv in zip(mat_vec(M, x), c):
            a, b = parts(v - cv)
            assert a.denominator == 1 and b == 0


@st.composite
def integer_systems(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    M = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):  # solvable by construction
        z = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        c = [Fraction(v) for v in mat_vec(M, z)]
    else:
        c = draw(st.lists(rationals(max_den=2, bound=8), min_size=m, max_size=m))
    return M, c


@settings(max_examples=300, deadline=None)
@given(integer_systems(), st.sampled_from(QUAD_FIELDS), st.data())
def test_solve_integer_matches_fraction_solve(case, d, data):
    M, c = case
    z = solve_integer(M, c)
    assert z == reference_solve_integer(M, c)
    if z is not None:
        assert mat_vec(M, z) == c
    # over Q(sqrt d): a zero sqrt-part solves like its rational part, a
    # nonzero one never has an integer solution
    sqrt_part = data.draw(st.lists(rationals(), min_size=len(c), max_size=len(c)))
    assert solve_integer(M, [QuadExt(a, 0, d) for a in c]) == z
    quad = [QuadExt(a, b, d) for a, b in zip(c, sqrt_part)]
    assert solve_integer(M, quad) == (z if not any(sqrt_part) else None)


# --- subspace membership ----------------------------------------------------------

@st.composite
def subspaces_and_vectors(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    vectors = [draw(st.lists(rationals(), min_size=n, max_size=n)) for _ in range(k)]
    S = SubspaceQ.from_vectors(n, vectors)
    if S.dim and draw(st.booleans()):  # a member by construction
        coeffs = [draw(rationals()) for _ in range(S.dim)]
        v = [sum(c * row[j] for c, row in zip(coeffs, S.basis)) for j in range(n)]
    else:
        v = draw(st.lists(rationals(), min_size=n, max_size=n))
    if draw(st.booleans()):
        v = [int(x) if x.denominator == 1 else x for x in v]
    return S, v


@settings(max_examples=300, deadline=None)
@given(subspaces_and_vectors())
def test_subspace_membership_matches_back_substitution(case):
    S, v = case
    coeffs, residual = reference_back_substitute(S.basis, v)
    member = not any(residual)
    assert S.reduce(v) == residual
    assert S.contains(v) == member
    assert S.coefficients_of(v) == (coeffs if member else None)


# --- equalizers ----------------------------------------------------------------

@st.composite
def equalizer_cases(draw):
    """phi and psi = phi - D with D mostly singular, and v over Q(sqrt d)
    whose sqrt-part lies in ker(D) half of the time."""
    D = draw(singular_square_matrices())
    n = len(D)
    if draw(st.booleans()):
        den = draw(st.integers(1, 3))
        D = [[Fraction(x, den) for x in row] for row in D]
    phi = [draw(st.lists(rationals(max_den=2, bound=3), min_size=n, max_size=n))
           for _ in range(n)]
    psi = [[p - q for p, q in zip(rp, rd)] for rp, rd in zip(phi, D)]
    kernel = free_column_kernel(D)
    if kernel and draw(st.booleans()):
        coeffs = [draw(rationals()) for _ in kernel]
        irr = [sum(c * w[j] for c, w in zip(coeffs, kernel)) for j in range(n)]
    else:
        irr = draw(st.lists(rationals(), min_size=n, max_size=n))
    d = draw(st.sampled_from(QUAD_FIELDS))
    v = [QuadExt(draw(rationals()), b, d) for b in irr]
    return phi, psi, v, D, irr


@settings(max_examples=300, deadline=None)
@given(equalizer_cases())
def test_equalizer_membership_matches_fraction_kernel(case):
    phi, psi, v, D, irr = case
    H = reference_rref(free_column_kernel(D))
    _, residual = reference_back_substitute(H, irr)
    assert equalizer_membership(phi, psi, v) == (not any(residual))


# --- Smith and Hermite forms ----------------------------------------------------

integer_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                           min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(integer_matrices)
def test_snf_properties(M):
    S, U, V = snf(M)
    m, n = len(M), len(M[0])
    assert mat_mul(mat_mul(U, M), V) == S
    assert abs(gaussian_det(U)) == 1 and abs(gaussian_det(V)) == 1
    assert all(S[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [S[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)


@settings(max_examples=300, deadline=None)
@given(integer_matrices)
def test_hnf_properties(M):
    H, U = hnf(M)
    assert mat_mul(U, M) == H
    assert abs(gaussian_det(U)) == 1
    assert hnf(H)[0] == H


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices)
def test_snf_matches_sympy_invariant_factors(M):
    """An independent Smith form: sympy is a test-only dependency."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    S, _, _ = snf(M)
    diag = [S[i][i] for i in range(min(len(M), len(M[0])))]
    expected = invariant_factors(sympy.Matrix(M), domain=sympy.ZZ)
    assert [x for x in diag if x] == [int(x) for x in expected if x]


# --- periodic-point searches over k ---------------------------------------------

UNITY_BLOCKS = ([[1]], [[-1]], [[1, 1], [0, 1]], [[0, -1], [1, 0]], [[0, -1], [1, -1]])
OTHER_BLOCKS = ([[0]], [[1]], [[2]], [[-2]], [[3]])


@st.composite
def search_maps(draw):
    """An integer map of dimension 1-3: mostly a root-of-unity block next to
    another block, conjugated by a seeded unimodular matrix, so that the
    search over k runs; otherwise a random matrix."""
    if draw(st.booleans()):
        R = draw(st.sampled_from(UNITY_BLOCKS))
        blocks = [R] + ([draw(st.sampled_from(OTHER_BLOCKS))] if len(R) < 3 else [])
        n = sum(map(len, blocks))
        A = [[0] * n for _ in range(n)]
        off = 0
        for block in blocks:
            for i, row in enumerate(block):
                A[off + i][off:off + len(row)] = row
            off += len(block)
        U = random_unimodular_matrix(random.Random(draw(st.integers(0, 999))), n)
        Uinv = [[int(x) for x in row] for row in invert_rational(U)]
        return mat_mul(mat_mul(U, A), Uinv)
    n = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                         min_size=n, max_size=n))


def small_fractions(max_den):
    return st.builds(Fraction, st.integers(-max_den, max_den), st.integers(1, max_den))


@settings(max_examples=200, deadline=None)
@given(search_maps(), st.data())
def test_has_periodic_point_matches_per_k_oracle(A, data):
    n = len(A)
    b = data.draw(st.lists(small_fractions(6), min_size=n, max_size=n))
    if data.draw(st.booleans()):  # a sqrt-part in Q(sqrt 2)
        b = [QuadExt(x, data.draw(small_fractions(3)), 2) for x in b]
    k_max = data.draw(st.integers(1, 12))
    f = TorusEndo(A, b)
    out = has_periodic_point(f, k_max)
    if f.is_pure_translation or not has_unity_eigenvalue(A):
        return  # answered exactly, without a search over k
    expected = reference_period_search(A, f.translation, k_max)
    if expected is None:
        assert (out.status, out.bound) == ("unknown", k_max)
    else:
        assert (out.status, out.k) == ("yes", expected[0])


@settings(max_examples=200, deadline=None)
@given(search_maps(), st.data())
def test_eventually_periodic_set_matches_per_k_oracle(A, data):
    n = len(A)
    b = data.draw(st.lists(small_fractions(4), min_size=n, max_size=n))
    k_bound = data.draw(st.none() | st.integers(1, 12))
    f = TorusEndo(A, b)
    bound = max(1, lcm(*root_of_unity_orders(n)) * relative_order(b)) if k_bound is None \
        else k_bound
    expected = reference_period_search(A, f.translation, bound)
    if expected is None:
        with pytest.raises(SearchBoundExceededError):
            eventually_periodic_set(f, k_bound)
    else:
        assert eventually_periodic_set(f, k_bound).base_point == TorusPoint(tuple(expected[1]))


def test_period_search_makes_one_product_per_k(monkeypatch):
    # A has the eigenvalue 1 twice in a Jordan block, and no sqrt(2)-part
    # is ever absorbed: the search runs to its bound
    A = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    f = TorusEndo(A, [Fraction(0), QuadExt.sqrt(2), Fraction(1, 3)])
    products = []

    def counted(module):
        original = module.mat_mul

        def mat_mul(X, Y):
            products.append(1)
            return original(X, Y)
        monkeypatch.setattr(module, "mat_mul", mat_mul)

    counted(nilorbit.torus)
    counted(nilorbit.exactmath.linalg)
    assert str(has_periodic_point(f)) == "UnknownUpTo(64)"
    # 64 for the search, the rest for the root-of-unity eigenvalue test
    assert 64 <= len(products) <= 80
