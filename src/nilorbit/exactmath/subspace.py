"""Rational subspaces in reduced row-echelon form.

A subspace of Q^n is stored by its unique RREF basis, so equality, sums and
membership are canonical structural operations.  A rational basis determines
the real span; all "directions" reasoning downstream (eventually periodic
sets, equalizers) happens through these bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclotomic import maximal_root_of_unity_orders
from .linalg import (
    _eliminate, integral_rows, mat_identity, mat_pow, mat_shape, mat_sub, rref,
)


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
        return list(self._integral_form[2])

    @cached_property
    def _integral_form(self) -> tuple:
        """(R, P, pivots, free): the basis is R / P with integer rows R, so
        every pivot entry of R is P; free lists the non-pivot columns."""
        R, P = integral_rows(self.basis)
        pivots = tuple(next(j for j, x in enumerate(row) if x) for row in R)
        free = tuple(j for j in range(self.ambient_dim) if j not in pivots)
        return R, P, pivots, free

    def _residual(self, v) -> tuple[tuple[int, ...], int, list[int]]:
        """(w, D, t): v = w / D on integers, and t = P*w - sum_i w[c_i]*R_i on
        the free columns, which is P*D times the residual of v there.

        For an RREF basis the coefficient of row i is v[c_i] itself: no other
        row has an entry in pivot column c_i, so back-substitution never
        changes it, and the residual vanishes on every pivot column."""
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector of length {len(v)} in Q^{self.ambient_dim}")
        R, P, pivots, free = self._integral_form
        (w,), D = integral_rows([v])
        coeffs = [w[c] for c in pivots]
        return w, D, [P * w[j] - sum(f * row[j] for f, row in zip(coeffs, R)) for j in free]

    def reduce(self, v) -> list[Fraction]:
        """Residual of v after eliminating all pivot coordinates (zero iff member)."""
        _, D, t = self._residual(v)
        _, P, _, free = self._integral_form
        out = [Fraction(0)] * self.ambient_dim
        for j, x in zip(free, t):
            out[j] = Fraction(x, P * D)
        return out

    def contains(self, v) -> bool:
        return not any(self._residual(v)[2])

    def coefficients_of(self, v):
        """Coefficients of v in the RREF basis, or None if v is outside."""
        w, D, t = self._residual(v)
        if any(t):
            return None
        return [Fraction(w[c], D) for c in self._integral_form[2]]

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


def _kernel_vectors(M) -> list[list[int]]:
    """Integer basis of ker(M): free column f of the elimination gives
    p*e_f - sum_r a[r][f]*e_(c_r)."""
    _, n = mat_shape(M)
    a, cols, p, _, _ = _eliminate(M)
    vecs = []
    for f in (j for j in range(n) if j not in cols):
        v = [0] * n
        v[f] = p
        for row, c in zip(a, cols):
            v[c] = -row[f]
        vecs.append(v)
    return vecs


def rational_kernel(M) -> SubspaceQ:
    """Canonical rational basis of ker(M); spans the real kernel as well."""
    return SubspaceQ.from_vectors(mat_shape(M)[1], _kernel_vectors(M))


def eventually_fixed_subspace(M, include_nilpotent: bool = False) -> SubspaceQ:
    """Directions eventually fixed by the matrix: sum of ker(M^d - I) over all
    orders d a root-of-unity eigenvalue can have in this dimension, plus the
    generalized kernel ker(M^n) when `include_nilpotent` is set.

    Only the maximal orders (those dividing no other order) are computed.  If
    d | e then M^d v = v gives M^e v = (M^d)^(e/d) v = v, so ker(M^d - I) lies
    in ker(M^e - I); every order divides a maximal one, and the maximal orders
    are orders themselves, so both sums span the same subspace.  The kernels
    stay integer vectors until one final elimination of their union.

    The rational basis spans the full real subspace of such directions.
    """
    n, n2 = mat_shape(M)
    if n != n2:
        raise ValueError("square matrix required")
    vectors: list[list[int]] = []
    ident = mat_identity(n)
    for d in maximal_root_of_unity_orders(n):
        vectors.extend(_kernel_vectors(mat_sub(mat_pow(M, d), ident)))
    if include_nilpotent:
        vectors.extend(_kernel_vectors(mat_pow(M, n)))
    return SubspaceQ.from_vectors(n, vectors)
