"""Dense exact matrix/vector helpers over int, Fraction and QuadExt entries.

Matrices are plain sequences of row sequences; every function returns fresh
lists and never mutates its arguments.  Entry types only need +, -, * (and /
for the rational solvers), so the same code serves integer lattices, rational
matrices and vectors over a quadratic field.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .scalars import as_fraction


def mat_shape(M) -> tuple[int, int]:
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if any(len(r) != cols for r in M):
        raise ValueError("ragged matrix")
    return rows, cols


def mat_identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zeros(rows: int, cols: int):
    return [[0] * cols for _ in range(rows)]


def mat_copy(M):
    return [list(r) for r in M]


def freeze_matrix(M) -> tuple:
    return tuple(tuple(r) for r in M)


def mat_equal(A, B) -> bool:
    return mat_shape(A) == mat_shape(B) and all(
        a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb)
    )


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, s):
    return [[s * a for a in row] for row in A]


def mat_mul(A, B):
    m, k = mat_shape(A)
    k2, n = mat_shape(B)
    if k != k2:
        raise ValueError(f"shape mismatch {m}x{k} @ {k2}x{n}")
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def mat_vec(A, v):
    m, n = mat_shape(A)
    if len(v) != n:
        raise ValueError(f"shape mismatch {m}x{n} @ vector of length {len(v)}")
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def mat_pow(A, k: int):
    n, n2 = mat_shape(A)
    if n != n2:
        raise ValueError("matrix power needs a square matrix")
    if k < 0:
        raise ValueError("negative matrix power not supported")
    out = mat_identity(n)
    base = mat_copy(A)
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def vec_is_zero(u) -> bool:
    return all(x == 0 for x in u)


def is_integer_matrix(M) -> bool:
    return all(isinstance(x, int) or Fraction(x).denominator == 1 for r in M for x in r)


def geometric_sum(A, k: int):
    """I + A + A^2 + ... + A^(k-1)."""
    n, _ = mat_shape(A)
    out = mat_zeros(n, n)
    term = mat_identity(n)
    for _ in range(k):
        out = mat_add(out, term)
        term = mat_mul(term, A)
    return out


def det(M):
    """Exact determinant; Bareiss over the integers, Gauss-Jordan over Q otherwise."""
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in M for x in row):
        return _det_bareiss([list(r) for r in M])
    _, pivots, sign = _gauss_jordan(M)
    return sign * prod(p for _, p in pivots) if len(pivots) == n else Fraction(0)


def _det_bareiss(a) -> int:
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _gauss_jordan(rows):
    """Gauss-Jordan elimination over Q on a copy of the rows.

    Returns (a, pivots, sign): a is the reduced row echelon form, whose
    first len(pivots) rows are the nonzero ones; pivots lists (column,
    value before scaling) for each of them; sign is (-1)^(row swaps).
    """
    a = [[as_fraction(x) for x in row] for row in rows]
    m = len(a)
    pivots = []
    sign = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        pivots.append((c, a[r][c]))
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    return a, pivots, sign


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over Q; returns the nonzero rows."""
    a, pivots, _ = _gauss_jordan(rows)
    return a[: len(pivots)]


def charpoly(M) -> list[Fraction]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    Faddeev-LeVerrier recurrence; exact because each division by k is exact
    over Q.
    """
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("characteristic polynomial needs a square matrix")
    A = [[as_fraction(x) for x in row] for row in M]
    coeffs = [Fraction(1)]
    Mk = mat_copy(A)
    for k in range(1, n + 1):
        ck = -Fraction(sum(Mk[i][i] for i in range(n)), k)
        coeffs.append(ck)
        if k < n:
            shifted = mat_add(Mk, mat_scale(mat_identity(n), ck))
            Mk = mat_mul(A, shifted)
    return coeffs


def invert_rational(A):
    """Exact inverse of a square rational matrix, or None if singular: the
    right half of the RREF of [A | I] when its pivots sit on A's diagonal."""
    n, n2 = mat_shape(A)
    if n != n2:
        raise ValueError("inverse needs a square matrix")
    a, pivots, _ = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(A)])
    if [c for c, _ in pivots] != list(range(n)):
        return None
    return [row[n:] for row in a]
