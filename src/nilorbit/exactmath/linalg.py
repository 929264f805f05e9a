"""Dense exact matrix/vector helpers over int, Fraction and QuadExt entries.

Matrices are plain sequences of row sequences; every function returns fresh
lists and never mutates its arguments.  The arithmetic helpers only need +,
- and *, so they serve integer lattices, rational matrices and vectors over a
quadratic field alike.  Elimination (det, rref, invert_rational, kernels)
needs rational entries, which one fraction-free integer pass handles; a
Q(sqrt(d)) vector is split into rational and sqrt-parts first
(split_quad_vector).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def integral_rows(M) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(integer rows, d) with M = rows / d for the least d; ints stay ints."""
    M = [[x if isinstance(x, (int, Fraction)) else as_fraction(x) for x in row] for row in M]
    d = lcm(*{x.denominator for row in M for x in row})
    # tuples from lists, not generators: CPython builds a tuple from a
    # generator by resizing, which leaves one block per call in the tuple
    # free list of the final size, up to 2000 per size
    return tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in M]), d


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination (E. H. Bareiss, Math. Comp. 22
    (1968); H. Cohen, GTM 138, 2.2) of the rows scaled to integers by the
    lcm d of their denominators; each division by the previous pivot is exact.

    Returns (a, cols, p, sign, d): the first len(cols) rows of a are nonzero,
    with pivot columns cols, and every pivot entry equals the last pivot p,
    so a/p is the RREF; sign is (-1)^(row swaps), and sign*p is det(d*M)
    for a square M of full rank.
    """
    scaled, d = integral_rows(rows)
    a = [list(r) for r in scaled]
    m = len(a)
    cols = []
    sign = p = 1
    for c in range(len(a[0]) if a else 0):
        r = len(cols)
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        prev, p = p, a[r][c]
        row = a[r]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        cols.append(c)
    return a, cols, p, sign, d


def det(M):
    """Exact determinant: an int for an all-int matrix, a Fraction otherwise."""
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("determinant needs a square matrix")
    _, cols, p, sign, d = _eliminate(M)
    value = sign * p if len(cols) == n else 0
    return value if all(isinstance(x, int) for row in M for x in row) else Fraction(value, d**n)


def integral_rref(rows) -> tuple[list[list[int]], list[int], int]:
    """(R, cols, p): the nonzero rows of the reduced row echelon form over Q
    are R / p, with integer rows R whose pivot entries in columns cols all
    equal p."""
    a, cols, p, _, _ = _eliminate(rows)
    return a[: len(cols)], cols, p


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over Q; returns the nonzero rows."""
    R, _, p = integral_rref(rows)
    return [[Fraction(x, p) for x in row] for row in R]


def invert_rational(A):
    """Exact inverse of a square rational matrix, or None if singular: the
    right half of the RREF of [A | I] when its pivots sit on A's diagonal."""
    n, n2 = mat_shape(A)
    if n != n2:
        raise ValueError("inverse needs a square matrix")
    a, cols, p, _, _ = _eliminate([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(A)])
    if cols != list(range(n)):
        return None
    return [[Fraction(x, p) for x in row[n:]] for row in a]
