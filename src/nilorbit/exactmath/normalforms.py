"""Integer normal forms (Hermite, Smith) and lattice solvers.

Pivot policy everywhere: smallest absolute value first, ties broken by lowest
row index (then lowest column index for Smith), so the computed forms and all
downstream classification transcripts are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .linalg import integral_rows, mat_identity, mat_shape
from .scalars import QuadExt, quad_parts
from ..errors import LatticeError, MixedFieldError


def _as_int_matrix(M) -> list[list[int]]:
    mat_shape(M)
    rows, d = integral_rows(M)
    if d != 1:
        raise ValueError(f"integer matrix expected, got an entry with denominator {d}")
    return [list(row) for row in rows]


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


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def integral_quad_vector(v) -> tuple[tuple[int, ...], tuple[int, ...], int, int | None]:
    """(r, s, D, d) with v = (r + s*sqrt(d)) / D for integer vectors r and s
    and the least common denominator D of every rational and sqrt-part; d
    is None when the sqrt-part is zero.  Two fields raise MixedFieldError."""
    rat, irr = split_quad_vector(v)
    (r, s), D = integral_rows([rat, irr])
    d = next((x.d for x in v if isinstance(x, QuadExt) and x.b), None)
    return r, s, D, d


def quad_vector(r, s, D, d) -> list:
    """The vector (r + s*sqrt(d)) / D: a Fraction where the sqrt-part is zero,
    a QuadExt over Q(sqrt(d)) elsewhere."""
    return [QuadExt(Fraction(a, D), Fraction(b, D), d) if b else Fraction(a, D)
            for a, b in zip(r, s)]


def smith_solve_mod_lattice(M, r, s, D):
    """Solve M x == (r + s*sqrt(d)) / D (mod Z^n) on integers, or return None.

    M is a square integer matrix, r and s integer vectors.  With the Smith
    form S = U M V, the right-hand side becomes (U r, U s) / D.  A zero
    invariant factor demands a zero sqrt-part and an integral rational part;
    every nonzero one, which divides the last nonzero one E, is divided out
    as a multiplication by E / S[i][i].  Returns (x_r, x_s, D*E) with
    x = (x_r + x_s*sqrt(d)) / (D*E), where x_r = V y_r and x_s = V y_s.
    """
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("solve_mod_lattice needs a square matrix")
    if len(r) != n or len(s) != n:
        raise ValueError(f"right-hand side of length {len(r)} for a {n}x{n} matrix")
    S, U, V = snf(M)
    factors = [S[i][i] for i in range(n)]
    E = next((f for f in reversed(factors) if f), 1)
    y_r, y_s = [], []
    for u, f in zip(U, factors):
        a, b = _dot(u, r), _dot(u, s)
        if f == 0:
            if b or a % D:
                return None
            a = b = 0
        else:
            a, b = a * (E // f), b * (E // f)
        y_r.append(a)
        y_s.append(b)
    return [_dot(row, y_r) for row in V], [_dot(row, y_s) for row in V], D * E


def solve_mod_lattice(M, c):
    """Solve M x == c (mod Z^n) exactly, or return None.

    M is a square integer matrix; c may have Fraction or QuadExt entries.
    Solvability is decided on integers by smith_solve_mod_lattice; Fractions
    and QuadExts are built only for the solution.
    """
    r, s, D, d = integral_quad_vector(c)
    solution = smith_solve_mod_lattice(M, r, s, D)
    return None if solution is None else quad_vector(*solution, d)


def solve_integer(M, c):
    """Solve M z = c exactly with z an integer vector, or return None.

    M is an integer matrix (any shape), c a rational or Q(sqrt(d)) vector.
    With the Smith form S = U M V and c = (r + s*sqrt(d)) / D, a solution
    needs U s = 0, and (U r)_i divisible by D*S[i][i], zero where
    S[i][i] = 0.  Decided on integers only.
    """
    m, n = mat_shape(M)
    if len(c) != m:
        raise ValueError("dimension mismatch")
    r, s, D, _ = integral_quad_vector(c)
    S, U, V = snf(M)
    y = [0] * n
    for i, u in enumerate(U):
        a, b = _dot(u, r), _dot(u, s)
        f = S[i][i] * D if i < n else 0
        if b or (a if f == 0 else a % f):
            return None
        if f:
            y[i] = a // f
    return [_dot(row, y) for row in V]


def _pivot_col(row):
    for j, x in enumerate(row):
        if x != 0:
            return j
    return None


def row_span_contains(rows, v) -> bool:
    """Membership of a rational vector in the integer row span of integer
    rows in echelon form (HNF rows), decided on D*v for the least common
    denominator D of v."""
    if any(len(row) != len(v) for row in rows):
        raise ValueError(f"vector of length {len(v)} against rows of another length")
    (w,), D = integral_rows([v])
    for row in rows:
        c = _pivot_col(row)
        if c is None:
            continue
        q, rem = divmod(w[c], D * row[c])
        if rem:
            return False
        if q:
            w = [a - q * D * b for a, b in zip(w, row)]
    return not any(w)


def nonzero_rows(rows):
    return [row for row in rows if any(x != 0 for x in row)]


def hnf_basis(M) -> list[list[int]]:
    """Nonzero rows of the Hermite form: a canonical lattice basis."""
    H, _ = hnf(M)
    return nonzero_rows(H)


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
    scaled, D = integral_rows(rows)
    H, U = hnf(scaled)
    basis, combos = [], []
    for row, u in zip(H, U):
        if any(x != 0 for x in row):
            basis.append([Fraction(x, D) for x in row])
            combos.append(list(u))
    return basis, combos


def split_quad_vector(v) -> tuple[list[Fraction], list[Fraction]]:
    """Componentwise (rational part, sqrt coefficient) of a vector over one
    Q(sqrt(d)); irrational entries over two fields raise MixedFieldError."""
    rat, irr = [], []
    field = None
    for x in v:
        a, b = quad_parts(x)
        if b:
            if field is not None and x.d != field:
                raise MixedFieldError(f"cannot combine sqrt({field}) with sqrt({x.d})")
            field = x.d
        rat.append(a)
        irr.append(b)
    return rat, irr
