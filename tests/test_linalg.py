import random
from fractions import Fraction as F

import pytest

from nilorbit.exactmath import (
    euler_totient,
    hnf,
    mat_mul,
    mat_vec,
    rational_kernel,
    root_of_unity_orders,
    rref,
    snf,
    solve_integer,
    solve_mod_lattice,
    SubspaceQ,
)
from oracles import gaussian_det, prime_set, totient_count, triangular_member


# --- Hermite form -----------------------------------------------------------

def test_hnf_identity():
    H, U = hnf([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]]


def test_hnf_row_span_preserved():
    M = [[2, 0], [1, 1]]
    H, U = hnf(M)
    assert abs(gaussian_det(U)) == 1
    assert mat_mul(U, M) == H
    # mutual membership: rows of M reduce to zero against H, and H = U M keeps
    # every H row an integer combination of M rows
    for row in M:
        assert triangular_member(H, row)


def test_hnf_rank_deficient():
    H, U = hnf([[2, 4], [1, 2]])
    nonzero = [r for r in H if any(r)]
    assert len(nonzero) == 1


def test_hnf_randomized_span_and_canonicity():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        H, U = hnf(M)
        assert mat_mul(U, M) == H
        assert abs(gaussian_det(U)) == 1
        for row in M:
            assert triangular_member(H, row)
        # canonical: a second pass is a fixed point
        H2, _ = hnf(H)
        assert H2 == H


# --- Smith form --------------------------------------------------------------

def test_snf_examples():
    S, U, V = snf([[2, 0], [0, 3]])
    assert S == [[1, 0], [0, 6]]
    S, U, V = snf([[2, 1], [1, 1]])
    assert S == [[1, 0], [0, 1]]
    S, U, V = snf([[0, 0], [0, 0]])
    assert S == [[0, 0], [0, 0]]


def test_snf_randomized():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        S, U, V = snf(M)
        assert mat_mul(mat_mul(U, M), V) == S
        assert abs(gaussian_det(U)) == 1
        assert abs(gaussian_det(V)) == 1
        diag = [S[i][i] for i in range(min(m, n))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert diag[i] >= 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        if m == n and gaussian_det(M) != 0:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(gaussian_det(M))


# --- lattice solvers ----------------------------------------------------------

def test_solve_mod_lattice_examples():
    x = solve_mod_lattice([[1, 1], [1, 0]], [F(-1, 2), F(0)])
    assert x is not None
    image = mat_vec([[1, 1], [1, 0]], x)
    assert all((v - c).denominator == 1 for v, c in zip(image, [F(-1, 2), F(0)]))
    assert solve_mod_lattice([[1, 0], [0, 1]], [F(5, 7), F(1, 3)]) == [F(5, 7), F(1, 3)]
    assert solve_mod_lattice([[0, 0], [0, 0]], [F(1, 2), F(0)]) is None
    assert solve_mod_lattice([[0, 0], [0, 0]], [F(3), F(-2)]) is not None


def test_solve_mod_lattice_randomized():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 3)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        c = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        x = solve_mod_lattice(M, c)
        if x is not None:
            image = mat_vec(M, x)
            assert all((v - cv).denominator == 1 for v, cv in zip(image, c))
        elif gaussian_det(M) != 0:
            pytest.fail("invertible system reported unsolvable")


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 2]], [F(4), F(-2)]) == [2, -1]
    assert solve_integer([[2, 0], [0, 2]], [F(1), F(0)]) is None
    assert solve_integer([[2, 0], [0, 0]], [F(2), F(1)]) is None
    z = solve_integer([[1, 1]], [F(3)])
    assert z is not None and z[0] + z[1] == 3


# --- kernels ------------------------------------------------------------------

def test_kernel_examples():
    assert rational_kernel([[2, 0], [0, 1]]).dim == 0
    k = rational_kernel([[1, 1], [1, 1]])
    assert k.dim == 1
    assert k.contains([F(1), F(-1)])
    # the free-column kernel vector of [[1, 1]] is (-1, 1); the canonical
    # basis is its RREF (1, -1), so rational_kernel reduces once more
    assert rational_kernel([[1, 1]]).basis == ((1, -1),)


def test_kernel_vectors_annihilate():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        ker = rational_kernel(M)
        assert ker.dim + len(rref(M)) == n
        for _ in range(5):
            v = [F(0)] * n
            for row in ker.basis:
                c = F(rng.randint(-4, 4), rng.randint(1, 3))
                v = [a + c * b for a, b in zip(v, row)]
            assert all(x == 0 for x in mat_vec(M, v))


# --- roots of unity -----------------------------------------------------------

def test_root_of_unity_orders_examples():
    assert root_of_unity_orders(1) == (1, 2)
    assert root_of_unity_orders(2) == (1, 2, 3, 4, 6)
    assert root_of_unity_orders(4) == (1, 2, 3, 4, 5, 6, 8, 10, 12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_root_of_unity_orders_against_totient_count(n):
    expected = {d for d in range(1, 3 * n * n + 1) if totient_count(d) <= n}
    assert set(root_of_unity_orders(n)) == expected


def test_euler_totient_matches_count():
    for d in range(1, 200):
        assert euler_totient(d) == totient_count(d)


# --- subspaces -----------------------------------------------------------------

def test_subspace_canonical_equality():
    a = SubspaceQ.from_vectors(3, [[F(2), F(0), F(2)], [F(0), F(1), F(1)]])
    b = SubspaceQ.from_vectors(3, [[F(1), F(1), F(2)], [F(0), F(3), F(3)]])
    assert a == b
    assert a.contains([F(3), F(-1), F(2)])
    assert not a.contains([F(0), F(0), F(1)])


def test_rref_idempotent():
    rng = random.Random(17)
    for _ in range(30):
        rows = [[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        r1 = rref(rows)
        assert rref(r1) == r1


def test_prime_support_helper():
    from nilorbit.exactmath import prime_support

    for n in [1, 2, 6, 12, 35, 0, -18]:
        assert prime_support(n) == frozenset(prime_set(n))
