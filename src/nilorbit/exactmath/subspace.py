"""Rational subspaces in reduced row-echelon form.

A subspace of Q^n is stored by its unique RREF basis, so equality, sums and
membership are canonical structural operations.  A rational basis determines
the real span; all "directions" reasoning downstream (eventually periodic
sets, equalizers) happens through these bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import root_of_unity_orders
from .linalg import mat_identity, mat_pow, mat_shape, mat_sub, mat_transpose
from .scalars import as_fraction


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over Q; returns the nonzero rows."""
    a = [[as_fraction(x) for x in row] for row in rows]
    if not a:
        return []
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return [row for row in a[:r]]


@dataclass(frozen=True)
class SubspaceQ:
    """A subspace of Q^n with canonical RREF basis (possibly empty)."""

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "SubspaceQ":
        rows = rref(vectors)
        return cls(ambient_dim, tuple(tuple(r) for r in rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivot_columns(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x != 0) for row in self.basis]

    def reduce(self, v) -> list[Fraction]:
        """Residual of v after eliminating all pivot coordinates (zero iff member)."""
        w = [as_fraction(x) for x in v]
        for row, c in zip(self.basis, self.pivot_columns()):
            f = w[c]
            if f != 0:
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def coefficients_of(self, v):
        """Coefficients of v in the RREF basis, or None if v is outside."""
        w = [as_fraction(x) for x in v]
        coeffs = []
        for row, c in zip(self.basis, self.pivot_columns()):
            f = w[c]
            coeffs.append(f)
            if f != 0:
                w = [a - f * b for a, b in zip(w, row)]
        if any(x != 0 for x in w):
            return None
        return coeffs

    def sum(self, other: "SubspaceQ") -> "SubspaceQ":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return SubspaceQ.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def complement(self) -> "SubspaceQ":
        """Coordinate complement: standard basis vectors at non-pivot columns."""
        pivots = set(self.pivot_columns())
        vecs = []
        for j in range(self.ambient_dim):
            if j not in pivots:
                e = [Fraction(0)] * self.ambient_dim
                e[j] = Fraction(1)
                vecs.append(e)
        return SubspaceQ.from_vectors(self.ambient_dim, vecs)

    def __str__(self):
        if self.dim == 0:
            return f"0 < Q^{self.ambient_dim}"
        rows = "; ".join("(" + ", ".join(map(str, r)) + ")" for r in self.basis)
        return f"span{{{rows}}} < Q^{self.ambient_dim}"


def rational_kernel(M) -> SubspaceQ:
    """Canonical rational basis of ker(M); spans the real kernel as well."""
    m, n = mat_shape(M)
    rows = rref(M)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in rows]
    free = [j for j in range(n) if j not in pivots]
    vecs = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        vecs.append(v)
    return SubspaceQ.from_vectors(n, vecs)


def rational_image(M) -> SubspaceQ:
    """Canonical rational basis of the column space of M."""
    m, n = mat_shape(M)
    return SubspaceQ.from_vectors(m, mat_transpose(M))


def eventually_fixed_subspace(M, include_nilpotent: bool = False) -> SubspaceQ:
    """Directions eventually fixed by the matrix: sum of ker(M^d - I) over all
    orders d a root-of-unity eigenvalue can have in this dimension, plus the
    generalized kernel ker(M^n) when `include_nilpotent` is set.

    The rational basis spans the full real subspace of such directions.
    """
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("square matrix required")
    vectors: list[list[Fraction]] = []
    ident = mat_identity(n)
    for d in root_of_unity_orders(n):
        ker = rational_kernel(mat_sub(mat_pow(M, d), ident))
        vectors.extend(list(row) for row in ker.basis)
    if include_nilpotent:
        ker = rational_kernel(mat_pow(M, n))
        vectors.extend(list(row) for row in ker.basis)
    return SubspaceQ.from_vectors(n, vectors)
