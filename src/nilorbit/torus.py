"""Affine endomorphisms of the n-torus: exact orbits and periodicity.

A map is x -> A x + b (mod Z^n) with an integer linear part A (this is what
makes the map well defined on the torus) and a rational or quadratic-field
translation b.  Orbits of rational points live in a finite grid whose
denominator never grows, so classification is exact cycle detection.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from .errors import (
    ConsistencyError,
    LatticeError,
    SearchBoundExceededError,
    UnsupportedInputError,
)
from .exactmath import (
    QuadExt,
    SubspaceQ,
    as_fraction,
    coset_representatives,
    denominator_lcm,
    det,
    eventually_fixed_subspace,
    freeze_matrix,
    geometric_sum,
    hnf_basis,
    invert_rational,
    is_integer_matrix,
    lcm,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_shape,
    mat_sub,
    mat_transpose,
    mat_vec,
    rational_kernel,
    root_of_unity_orders,
    reduce_mod_lattice,
    row_span_contains,
    scalar_is_rational,
    solve_mod_lattice,
    split_quad_vector,
    vec_is_zero,
)
from .orbits import Classification, OrbitResult, classify_orbit


@dataclass(frozen=True)
class TorusPoint:
    """Canonical representative of a torus point: coordinates in [0, 1)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(Fraction(c) % 1 for c in self.coords)
        )

    @classmethod
    def _canonical(cls, coords: tuple[Fraction, ...]) -> TorusPoint:
        """A point from coordinates already in [0, 1), without re-normalising."""
        point = object.__new__(cls)
        object.__setattr__(point, "coords", coords)
        return point

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class TorusEndo:
    """Affine self-map of the n-torus with integer linear part."""

    linear: tuple[tuple[int, ...], ...]
    translation: tuple

    def __init__(self, linear, translation=None):
        n, n2 = mat_shape(linear)
        if n != n2:
            raise ValueError("linear part must be square")
        if not is_integer_matrix(linear):
            raise ValueError(
                "linear part must be an integer matrix; a rational matrix does "
                "not map Z^n into itself"
            )
        lin = freeze_matrix([[int(x) for x in row] for row in linear])
        if translation is None:
            translation = [Fraction(0)] * n
        if len(translation) != n:
            raise ValueError("translation length mismatch")
        tr = []
        for x in translation:
            if isinstance(x, QuadExt):
                tr.append(x.as_fraction() if x.is_rational else x)
            else:
                tr.append(Fraction(x))
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tuple(tr))

    @property
    def dim(self) -> int:
        return len(self.linear)

    @cached_property
    def determinant(self) -> int:
        return det(self.linear)

    @property
    def has_irrational_translation(self) -> bool:
        return any(isinstance(x, QuadExt) for x in self.translation)

    @property
    def is_linear(self) -> bool:
        return all(not isinstance(x, QuadExt) and x == 0 for x in self.translation)

    @property
    def is_pure_translation(self) -> bool:
        return self.linear == freeze_matrix(mat_identity(self.dim))

    def translation_fractions(self) -> tuple[Fraction, ...]:
        return self._translation_fractions

    @cached_property
    def _translation_fractions(self) -> tuple[Fraction, ...]:
        # an irrational translation raises here, so it is never cached
        if self.has_irrational_translation:
            raise UnsupportedInputError(
                "operation needs a rational translation part"
            )
        return tuple(Fraction(x) for x in self.translation)

    @cached_property
    def translation_order(self) -> int:
        """Relative order of the (rational) translation."""
        return relative_order(self._translation_fractions)

    def __str__(self):
        return f"x -> {list(map(list, self.linear))} x + ({', '.join(map(str, self.translation))})"


def relative_order(q) -> int:
    """Least s >= 1 with s*q integral: the lcm of coordinate denominators."""
    for x in q:
        if not scalar_is_rational(x):
            raise UnsupportedInputError("relative order is defined for rational points")
    return denominator_lcm(as_fraction(x) for x in q)


def _require_rational_point(q):
    coords = []
    for x in q:
        if not scalar_is_rational(x):
            raise UnsupportedInputError(
                "mixed irrational point: orbit tracking is exact over Q only"
            )
        coords.append(as_fraction(x))
    return coords


def step(f: TorusEndo, x: TorusPoint) -> TorusPoint:
    """One application: canonical representative of A x + b (mod Z^n)."""
    if f.has_irrational_translation:
        raise UnsupportedInputError(
            "cannot track a rational point under an irrational translation; "
            "use translation_periodicity for the structural verdict"
        )
    moved = mat_vec(f.linear, list(x.coords))
    return TorusPoint(tuple(m + b for m, b in zip(moved, f.translation)))


class _FractionMemo(dict):
    """Fraction(a, m) by numerator a, built on first use."""

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, a):
        value = self[a] = Fraction(a, self.m)
        return value


class TorusGrid:
    """The map on numerators of the grid (1/m)Z^n: x -> (A x + m b) mod m.

    m must be a multiple of the relative order of the translation.
    """

    def __init__(self, f: TorusEndo, m: int):
        self.m = m
        rows = [(row, int(x * m) % m) for row, x in zip(f.linear, f.translation_fractions())]
        mul = operator.mul

        # a closure, not a method: the walk calls it once per state
        def step(state):
            return tuple([(sum(map(mul, row, state)) + c) % m for row, c in rows])

        self.step = step
        self._fractions = _FractionMemo(m)

    def order(self, state) -> int:
        """Relative order of the grid point state/m."""
        return self.m // gcd(self.m, *state)

    def decode(self, state) -> TorusPoint:
        # numerators are reduced mod m, so every a/m is already in [0, 1)
        return TorusPoint._canonical(tuple(map(self._fractions.__getitem__, state)))


def classify(f: TorusEndo, q) -> tuple[Classification, OrbitResult]:
    """Exact (preperiod, period) of a rational point under the map.

    The orbit stays inside the finite grid of denominator lcm(ord(q), ord(b))
    because the linear part maps Z^n into itself, so hash-based cycle
    detection terminates and is exact.
    """
    if f.has_irrational_translation:
        raise UnsupportedInputError(
            "classification of rational points needs a rational translation; "
            "use translation_periodicity instead"
        )
    if len(q) != f.dim:
        raise ValueError(f"point has length {len(q)}, map has dimension {f.dim}")
    qs = [x % 1 for x in _require_rational_point(q)]
    m = lcm(relative_order(qs), f.translation_order)
    return classify_orbit(TorusGrid(f, m), tuple(int(x * m) % m for x in qs))


def fixed_point(f: TorusEndo):
    """A fixed point on the torus, or None: solves (A - I) x == -b (mod Z^n)."""
    return periodic_point_of_period(f, 1)


def periodic_point_of_period(f: TorusEndo, k: int):
    """A point of period dividing k, or None (see _period_solution)."""
    if k < 1:
        raise ValueError("period must be positive")
    x = _period_solution(f, k, f.translation_fractions())
    return None if x is None else TorusPoint(tuple(x))


def _period_solution(f: TorusEndo, k: int, b):
    """A solution of the period-k equation, or None.

    Fixed points of the k-th iterate solve (A^k - I) x == -(A^{k-1}+...+I) b
    modulo Z^n; b may be rational or quadratic.
    """
    Mk = mat_sub(mat_pow(f.linear, k), mat_identity(f.dim))
    c = mat_vec(geometric_sum(f.linear, k), list(b))
    return solve_mod_lattice(Mk, [-v for v in c])


class TranslationVerdict(enum.Enum):
    ALL_POINTS_PERIODIC = "all_points_periodic"
    EMPTY = "empty"


def translation_periodicity(b) -> TranslationVerdict:
    """Periodic points of a pure translation x -> x + b: all of the torus when
    every coordinate of b is rational, none otherwise."""
    if all(scalar_is_rational(x) for x in b):
        return TranslationVerdict.ALL_POINTS_PERIODIC
    return TranslationVerdict.EMPTY


@dataclass(frozen=True)
class PeriodicPointSearch:
    """Outcome of has_periodic_point: `status` is "yes", "empty" or "unknown".

    "yes" carries the witness iterate k; "unknown" is an honest bounded-search
    answer carrying the bound."""

    status: str
    k: int | None = None
    bound: int | None = None

    def __str__(self):
        if self.status == "yes":
            return f"Yes(k={self.k})"
        if self.status == "empty":
            return "Empty"
        return f"UnknownUpTo({self.bound})"


def has_unity_eigenvalue(A) -> bool:
    """True iff some eigenvalue of A is a root of unity (decided rationally:
    the eventually fixed subspace is nonzero)."""
    return eventually_fixed_subspace(A).dim > 0


def has_periodic_point(f: TorusEndo, k_max: int = 64) -> PeriodicPointSearch:
    """Decide existence of a periodic point where the structure theory allows.

    Exact answers: pure translations (periodic points exist iff the
    translation is rational) and maps without root-of-unity eigenvalues
    (a fixed point always exists since A - I is invertible).  Otherwise a
    bounded search over iterates with an honest UnknownUpTo verdict.
    """
    if f.is_pure_translation:
        if translation_periodicity(f.translation) is TranslationVerdict.EMPTY:
            return PeriodicPointSearch("empty")
        k0 = relative_order(f.translation)
        return PeriodicPointSearch("yes", k=k0)
    if not has_unity_eigenvalue(f.linear):
        return PeriodicPointSearch("yes", k=1)
    for k in range(1, k_max + 1):
        if _period_solution(f, k, f.translation) is not None:
            return PeriodicPointSearch("yes", k=k)
    return PeriodicPointSearch("unknown", bound=k_max)


def conjugate_to_linear(f: TorusEndo):
    """Conjugate an affine map with a fixed point to its linear part.

    Returns (linear map, g0) where translation by -g0 maps orbits of f onto
    orbits of the linear map; None when no fixed point exists.
    """
    g0 = fixed_point(f)
    if g0 is None:
        return None
    return TorusEndo(f.linear), g0


def unity_subspace(A, include_kernel: bool = False) -> SubspaceQ:
    """Rational span of the directions some iterate of A fixes.

    With `include_kernel`, additionally the directions eventually killed by A
    (generalized kernel), which is the right notion for non-invertible maps.
    """
    return eventually_fixed_subspace(A, include_nilpotent=include_kernel)


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    """Structural description g0 + Q^n + H of the eventually periodic set.

    Membership for a point with coordinates in Q(sqrt(d)): the vector of
    sqrt-coefficients must lie in H (the rational span absorbs everything
    rational, including the base point)."""

    base_point: TorusPoint
    subspace: SubspaceQ

    def contains(self, v) -> bool:
        if len(v) != self.subspace.ambient_dim:
            raise ValueError("dimension mismatch")
        _, irr = split_quad_vector(v)
        return self.subspace.contains(irr)


def eventually_periodic_set(f: TorusEndo, k_bound: int | None = None) -> EventuallyPeriodicSet:
    """Description of the eventually periodic set as p(Q^n + g0 + H).

    g0 is a periodic point (a fixed point of some iterate, found by bounded
    search); H is the unity subspace, including the kernel directions when
    the linear part is singular.
    """
    b = f.translation_fractions()
    if k_bound is None:
        k_bound = max(1, lcm(*root_of_unity_orders(f.dim)) * relative_order(b))
    g0 = None
    for k in range(1, k_bound + 1):
        g0 = periodic_point_of_period(f, k)
        if g0 is not None:
            break
    if g0 is None:
        raise SearchBoundExceededError(
            f"no periodic point found among iterates k <= {k_bound}", k_bound
        )
    H = unity_subspace(f.linear, include_kernel=f.determinant == 0)
    return EventuallyPeriodicSet(g0, H)


def order_coprime_to_det(f: TorusEndo, q) -> bool:
    """Sufficient condition: gcd(det, relative order) = 1 forces periodicity.

    Only the linear case is meaningful; conjugate an affine map first.
    """
    if not f.is_linear:
        raise UnsupportedInputError(
            "criterion applies to linear maps; conjugate away the translation first"
        )
    D = f.determinant
    if D == 0:
        raise UnsupportedInputError("criterion inapplicable to singular maps")
    return gcd(abs(D), relative_order(q)) == 1


def constant_order_on_cycle(result: OrbitResult) -> bool:
    """Relative order is constant along the cycle (necessary for periodicity)."""
    orders = {relative_order(p.coords) for p in result.cycle}
    return len(orders) <= 1


def equalizer_membership(phi, psi, v) -> bool:
    """Decide v in Q^n + H with H = ker(phi - psi), for v over Q(sqrt(d)).

    Decided by reducing v modulo a rational complement of H and testing
    rationality of the remainder; cross-checked against rationality of
    (phi - psi) v, which it provably equals.
    """
    n, n2 = mat_shape(phi)
    if (n, n2) != mat_shape(psi) or n != n2:
        raise ValueError("equalizer needs two square matrices of equal shape")
    diff = mat_sub(phi, psi)
    H = rational_kernel(diff)
    rat, irr = split_quad_vector(v)
    # remainder of v modulo H lives in the coordinate complement; it is
    # rational iff the sqrt-part of v reduces to zero against H
    remainder_irr = H.reduce(irr)
    member = vec_is_zero(remainder_irr)
    image = mat_vec(diff, list(v))
    image_rational = all(scalar_is_rational(x) for x in image)
    if member != image_rational:
        raise ConsistencyError(
            "equalizer membership disagrees with rationality of the difference image",
            payload={"phi": phi, "psi": psi, "v": v},
        )
    return member


def lattice_coordinates(rows, A, b):
    """The affine map x -> A x + b on R^n/L in lattice coordinates.

    L is spanned by the integer `rows`; returns (map on u, B^-1) for the
    coordinate change x = B u with B = rows^T.  A must preserve L, so the
    conjugated linear part is integral.
    """
    n = len(A)
    B = [[Fraction(rows[j][i]) for j in range(n)] for i in range(n)]
    Binv = invert_rational(B)
    A_up = mat_mul(mat_mul(Binv, [list(r) for r in A]), B)
    if not is_integer_matrix(A_up):
        raise ConsistencyError("conjugated linear part is not integral", payload=A_up)
    b_up = mat_vec(Binv, list(b))
    return TorusEndo([[int(x) for x in row] for row in A_up], b_up), Binv


def cover_lattice(L_basis, A) -> list[list[int]]:
    """HNF rows of the sublattice L spanned by `L_basis`, checked to have
    finite index in Z^n and to be preserved by the linear part A."""
    n = len(A)
    if any(len(row) != n for row in L_basis):
        raise LatticeError(f"sublattice rows must have {n} entries")
    H = hnf_basis(L_basis)
    if len(H) < n:
        raise LatticeError("sublattice has infinite index (rank deficient)")
    for row in H:
        if not row_span_contains(H, mat_vec(A, row)):
            raise LatticeError(
                "lift mismatch: linear part does not preserve the sublattice"
            )
    return H


def classify_fiber(rows, f: TorusEndo, points):
    """Every point of R^n/L over the given points of R^n/Z^n, classified
    under f acting on R^n/L.

    L is spanned by the full-rank HNF `rows` and preserved by the linear
    part of f (see cover_lattice).  Returns (fiber, classifications); fiber
    points are ambient coordinates reduced modulo L, listed point by point
    and, over each point, in the order of coset_representatives.
    """
    f_up, Binv = lattice_coordinates(rows, f.linear, f.translation_fractions())
    shifts = coset_representatives(rows)
    fiber = []
    classes = []
    for p in points:
        for z in shifts:
            x = [a + b for a, b in zip(p, z)]
            fiber.append(tuple(reduce_mod_lattice(rows, x)))
            classes.append(classify(f_up, mat_vec(Binv, x))[0])
    # len(points) * [Z^n : L] entries by construction, so this also checks
    # the covering degree
    if len(set(fiber)) != len(fiber):
        raise ConsistencyError("fiber enumeration produced duplicate points", payload=fiber)
    return fiber, classes


@dataclass(frozen=True)
class CoverTransferReport:
    """Classification transfer along a finite torus self-cover."""

    index: int
    fiber: tuple[tuple[Fraction, ...], ...]  # upstairs representatives mod L
    fiber_classifications: tuple[Classification, ...]
    base_classification: Classification
    induced_map_injective: bool
    per_projection_matches: bool
    injective_fiber_periodic: bool | None


def cover_transfer(L_basis, f_up: TorusEndo, f_down: TorusEndo, q) -> CoverTransferReport:
    """Classify a point downstairs and its whole fiber upstairs, checking the
    covering statements: periodicity projects onto periodicity, and for an
    injective induced map on Z^n/L a periodic fiber is periodic throughout.
    """
    if f_up.linear != f_down.linear or f_up.translation != f_down.translation:
        raise LatticeError("lift mismatch: up- and downstairs maps must agree")
    H = cover_lattice(L_basis, f_down.linear)
    qs = [Fraction(x) % 1 for x in q]
    fiber, fiber_cls = classify_fiber(H, f_down, [qs])
    base_cls = classify(f_down, qs)[0]

    # A induces a bijection of the finite group Z^n/L iff A Z^n + L = Z^n
    image = hnf_basis(mat_transpose(f_down.linear) + H)
    injective = prod(image[i][i] for i in range(len(H))) == 1

    per_projection = any(c.periodic for c in fiber_cls) == base_cls.periodic
    inj_fiber = None
    if injective:
        inj_fiber = all(c.periodic for c in fiber_cls) == base_cls.periodic
    report = CoverTransferReport(
        index=len(fiber),
        fiber=tuple(fiber),
        fiber_classifications=tuple(fiber_cls),
        base_classification=base_cls,
        induced_map_injective=injective,
        per_projection_matches=per_projection,
        injective_fiber_periodic=inj_fiber,
    )
    if not (per_projection and (inj_fiber in (None, True))):
        raise ConsistencyError("covering transfer statement failed", payload=report)
    return report


def strictly_preperiodic_witness(f: TorusEndo):
    """A rational point that is eventually periodic but not periodic.

    Exists iff |det| != 1: some preimage of the lattice is not in the lattice
    and maps onto the fixed point 0.  Returns None for |det| = 1 (every
    rational point of an automorphism is periodic).  For det = 0, any nonzero
    kernel point works.
    """
    if not f.is_linear:
        raise UnsupportedInputError("witness construction applies to linear maps")
    D = f.determinant
    n = f.dim
    if abs(D) == 1:
        return None
    if D == 0:
        v = list(rational_kernel(f.linear).basis[0])
        j = next(i for i, x in enumerate(v) if x != 0)
        candidate = TorusPoint(tuple(x / (2 * v[j]) for x in v))
    else:
        candidate = None
        Ainv = invert_rational([list(r) for r in f.linear])
        for i in range(n):
            col = [Ainv[r][i] for r in range(n)]
            if any(x.denominator != 1 for x in col):
                candidate = TorusPoint(tuple(col))
                break
        if candidate is None:
            raise ConsistencyError("no non-integral preimage column despite |det| > 1")
    cls, _ = classify(f, candidate.coords)
    if cls.periodic or vec_is_zero(candidate.coords):
        raise ConsistencyError("witness failed verification", payload=candidate)
    return candidate
