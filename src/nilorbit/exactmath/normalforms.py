"""Integer normal forms (Hermite, Smith) and lattice solvers.

Pivot policy everywhere: smallest absolute value first, ties broken by lowest
row index (then lowest column index for Smith), so the computed forms and all
downstream classification transcripts are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import mat_identity, mat_shape, mat_vec
from .scalars import is_integral, quad_parts
from ..errors import LatticeError


def _as_int_matrix(M) -> list[list[int]]:
    rows, cols = mat_shape(M)
    out = []
    for row in M:
        new = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError(f"integer matrix expected, got entry {x}")
            new.append(int(f))
        out.append(new)
    return out


def hnf(M) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form: returns (H, U) with H = U @ M, U unimodular.

    H is canonical: positive pivots with strictly increasing pivot columns,
    zeros below each pivot, entries above a pivot reduced into [0, pivot),
    zero rows at the bottom.
    """
    H = _as_int_matrix(M)
    m, n = mat_shape(H) if H else (0, 0)
    U = mat_identity(m)
    r = 0
    for c in range(n):
        while True:
            candidates = [i for i in range(r, m) if H[i][c] != 0]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    q = H[i][c] // H[r][c]
                    if q:
                        H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                        U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if H[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    H[i] = [a - q * b for a, b in zip(H[i], H[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
            r += 1
            if r == m:
                break
    return H, U


def snf(M) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (S, U, V) with S = U @ M @ V diagonal,
    nonnegative, S[i][i] | S[i+1][i+1], and U, V unimodular."""
    S = _as_int_matrix(M)
    m, n = mat_shape(S) if S else (0, 0)
    U = mat_identity(m)
    V = mat_identity(n)

    def row_sub(i, j, q):  # row_i -= q * row_j
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_sub(j, i, q):  # col_j -= q * col_i
        for row in S:
            row[j] -= q * row[i]
        for row in V:
            row[j] -= q * row[i]

    for s in range(min(m, n)):
        while True:
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    v = abs(S[i][j])
                    if v and (best is None or v < best[0]):
                        best = (v, i, j)
            if best is None:
                break
            _, i0, j0 = best
            if i0 != s:
                S[s], S[i0] = S[i0], S[s]
                U[s], U[i0] = U[i0], U[s]
            if j0 != s:
                for row in S:
                    row[s], row[j0] = row[j0], row[s]
                for row in V:
                    row[s], row[j0] = row[j0], row[s]
            if S[s][s] < 0:
                S[s] = [-a for a in S[s]]
                U[s] = [-a for a in U[s]]
            clean = True
            for i in range(s + 1, m):
                if S[i][s]:
                    row_sub(i, s, S[i][s] // S[s][s])
                    if S[i][s]:
                        clean = False
            for j in range(s + 1, n):
                if S[s][j]:
                    col_sub(j, s, S[s][j] // S[s][s])
                    if S[s][j]:
                        clean = False
            if not clean:
                continue
            bad = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if S[i][j] % S[s][s]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(s, bad, -1)  # pull the non-multiple into the working row
        if all(S[i][j] == 0 for i in range(s, m) for j in range(s, n)):
            break
    return S, U, V


def solve_mod_lattice(M, c):
    """Solve M x == c (mod Z^n) exactly, or return None.

    M is a square integer matrix; c may have Fraction or QuadExt entries.
    Solvability is decided through the Smith form: after the unimodular
    change of rows, each zero invariant factor demands an integral right-hand
    side, every nonzero one is divided out.
    """
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("solve_mod_lattice needs a square matrix")
    S, U, V = snf(M)
    rhs = mat_vec(U, list(c))
    y = []
    for i in range(n):
        s = S[i][i]
        if s == 0:
            if not is_integral(rhs[i]):
                return None
            y.append(Fraction(0))
        else:
            y.append(rhs[i] / s)
    return mat_vec(V, y)


def solve_integer(M, c):
    """Solve M z = c exactly with z an integer vector, or return None.

    M is an integer matrix (any shape), c a rational vector.
    """
    m, n = mat_shape(M)
    if len(c) != m:
        raise ValueError("dimension mismatch")
    S, U, V = snf(M)
    rhs = mat_vec(U, [Fraction(x) for x in c])
    y = [Fraction(0)] * n
    for i in range(m):
        s = S[i][i] if i < n else 0
        if s == 0:
            if rhs[i] != 0:
                return None
        else:
            q = rhs[i] / s
            if q.denominator != 1:
                return None
            y[i] = q
    z = mat_vec(V, y)
    return [int(v) for v in z]


def _pivot_col(row):
    for j, x in enumerate(row):
        if x != 0:
            return j
    return None


def row_span_contains(rows, v) -> bool:
    """Membership of a rational vector in the integer row span of HNF rows."""
    w = [Fraction(x) for x in v]
    for row in rows:
        c = _pivot_col(row)
        if c is None:
            continue
        q = w[c] / row[c]
        if q == 0:
            continue
        if q.denominator != 1:
            return False
        w = [a - q * b for a, b in zip(w, row)]
    return all(x == 0 for x in w)


def nonzero_rows(rows):
    return [row for row in rows if any(x != 0 for x in row)]


def hnf_basis(M) -> list[list[int]]:
    """Nonzero rows of the Hermite form: a canonical lattice basis."""
    H, _ = hnf(M)
    return nonzero_rows(H)


def reduce_mod_lattice(basis, x):
    """Canonical representative of x modulo the lattice spanned by `basis`.

    `basis` must be a full-rank square HNF (upper triangular, positive
    diagonal); the output has coordinate i in [0, basis[i][i]).
    """
    n = len(basis)
    w = list(x)
    for i in range(n):
        q = Fraction(w[i]) // basis[i][i]
        if q:
            w = [a - q * b for a, b in zip(w, basis[i])]
    return w


def coset_representatives(basis) -> list[tuple[int, ...]]:
    """Transversal of Z^n modulo a full-rank HNF sublattice basis.

    The representatives are exactly the integer vectors in the fundamental
    box [0, d_1) x ... x [0, d_n), listed lexicographically.
    """
    import itertools

    n = len(basis)
    diag = [basis[i][i] for i in range(n)]
    if any(d <= 0 for d in diag):
        raise LatticeError("full-rank HNF basis required for coset enumeration")
    return [t for t in itertools.product(*(range(d) for d in diag))]


def rational_row_hnf(rows) -> tuple[list[list[Fraction]], list[list[int]]]:
    """Canonical basis of the Z-module spanned by rational rows.

    Returns (basis, U) where basis = the nonzero rows of HNF(D*rows)/D for a
    common denominator D, and U holds the integer row combinations expressing
    each basis row in terms of the input rows.
    """
    if not rows:
        return [], []
    D = 1
    for row in rows:
        for x in row:
            f = Fraction(x)
            D = D * f.denominator // gcd(D, f.denominator)
    scaled = [[int(Fraction(x) * D) for x in row] for row in rows]
    H, U = hnf(scaled)
    basis, combos = [], []
    for row, u in zip(H, U):
        if any(x != 0 for x in row):
            basis.append([Fraction(x, D) for x in row])
            combos.append(list(u))
    return basis, combos


def split_quad_vector(v) -> tuple[list[Fraction], list[Fraction]]:
    """Componentwise (rational part, sqrt coefficient) of a scalar vector."""
    rat, irr = [], []
    for x in v:
        a, b = quad_parts(x)
        rat.append(a)
        irr.append(b)
    return rat, irr
