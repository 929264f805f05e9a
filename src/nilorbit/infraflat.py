"""Flat manifolds given by crystallographic data over Z^n.

A group is described by finitely many holonomy representatives (F, t): the
full group is the set of maps x -> F x + t + z over integer z.  Validation
certifies closure and torsion-freeness; affine self-maps are admitted when
they normalize the group, and classification happens through torus covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    ConsistencyError,
    InvalidFixtureError,
    UnsupportedInputError,
)
from .exactmath import (
    det,
    freeze_matrix,
    geometric_sum,
    hnf_basis,
    is_integer_matrix,
    lcm,
    mat_equal,
    mat_identity,
    mat_mul,
    mat_shape,
    mat_vec,
    row_span_contains,
    solve_integer,
)
from .orbits import Classification, iterate_orbit, orbit_verdict
from .torus import TorusEndo, TorusGrid, fiber_verdicts, relative_order


@dataclass(frozen=True)
class HolonomyRep:
    """One coset representative (F, t): the map x -> F x + t."""

    F: tuple[tuple[int, ...], ...]
    t: tuple[Fraction, ...]

    def apply(self, x):
        return [m + v for m, v in zip(mat_vec(self.F, list(x)), self.t)]


@dataclass(frozen=True)
class BieberbachGroup:
    """Certified torsion-free crystallographic data; build via validate_bieberbach."""

    dim: int
    reps: tuple[HolonomyRep, ...]

    @property
    def holonomy_order(self) -> int:
        return len(self.reps)

    @cached_property
    def power_cover(self) -> TorusCover:
        """holonomy_power_cover(self), built and checked once per group."""
        return holonomy_power_cover(self)

    @cached_property
    def rep_maps(self) -> tuple[TorusEndo, ...]:
        """Each representative as a torus map, built once per group."""
        return tuple(TorusEndo(rep.F, rep.t) for rep in self.reps)


def _rep_order(F, cap: int) -> int:
    n = len(F)
    ident = mat_identity(n)
    power = [list(r) for r in F]
    for k in range(1, cap + 1):
        if mat_equal(power, ident):
            return k
        power = mat_mul(power, F)
    raise InvalidFixtureError("holonomy matrix order exceeds the group size")


def validate_bieberbach(dim: int, reps) -> BieberbachGroup:
    """Validate crystallographic data and certify torsion-freeness.

    Requirements: the identity representative is present, every F lies in
    GL(n, Z), the representatives are closed under composition up to integer
    translations, and no non-identity element has finite order.  Torsion of
    (F, t + z) with F of order r reduces to integer solvability of
    P z = -P t for P = I + F + ... + F^{r-1}, decided exactly.
    """
    parsed = []
    for F, t in reps:
        n, n2 = mat_shape(F)
        if n != n2 or n != dim:
            raise InvalidFixtureError("holonomy matrix has wrong shape")
        if not is_integer_matrix(F):
            raise InvalidFixtureError("holonomy matrices must be integral")
        Fi = [[int(x) for x in row] for row in F]
        if abs(det(Fi)) != 1:
            raise InvalidFixtureError(
                "holonomy matrices must be unimodular (preserve Z^n)"
            )
        tv = tuple(Fraction(x) % 1 for x in t)
        parsed.append(HolonomyRep(freeze_matrix(Fi), tv))

    ident = freeze_matrix(mat_identity(dim))
    if not any(rep.F == ident and not any(rep.t) for rep in parsed):
        raise InvalidFixtureError("identity representative (I, 0) is required")
    index = {rep.F: k for k, rep in enumerate(parsed)}
    if len(index) != len(parsed):
        raise InvalidFixtureError(
            "holonomy matrices must be distinct per representative"
        )

    for i, ri in enumerate(parsed):
        for j, rj in enumerate(parsed):
            k = index.get(freeze_matrix(mat_mul(ri.F, rj.F)))
            if k is None:
                raise InvalidFixtureError(
                    f"holonomy not closed: product of representatives {i} and {j}"
                )
            shift = [
                a + b - c
                for a, b, c in zip(mat_vec(ri.F, list(rj.t)), ri.t, parsed[k].t)
            ]
            if any(Fraction(x).denominator != 1 for x in shift):
                raise InvalidFixtureError(
                    f"translation cocycle broken between representatives {i} and {j}"
                )

    order = len(parsed)
    for idx, rep in enumerate(parsed):
        if rep.F == ident:
            continue
        P = geometric_sum(rep.F, _rep_order(rep.F, order))
        rhs = [-x for x in mat_vec(P, list(rep.t))]
        if solve_integer(P, rhs) is not None:
            raise InvalidFixtureError(
                f"torsion detected: representative {idx} has a finite-order element"
            )
    return BieberbachGroup(dim, tuple(parsed))


@dataclass(frozen=True)
class InfraEndo:
    """Affine map (A, b) normalizing the group, with the witnessing table
    from each representative to its image representative."""

    group: BieberbachGroup
    linear: tuple[tuple[int, ...], ...]
    translation: tuple[Fraction, ...]
    rep_images: tuple[int, ...]

    @cached_property
    def determinant(self) -> int:
        return det(self.linear)


def validate_endo(group: BieberbachGroup, A, b) -> InfraEndo:
    """Admit an affine map: for each representative (F_i, t_i) there must be a
    representative (F_j, t_j) with A F_i = F_j A and b + A t_i = t_j + F_j b
    modulo Z^n."""
    n, n2 = mat_shape(A)
    if n != n2 or n != group.dim:
        raise InvalidFixtureError("linear part has wrong shape")
    if not is_integer_matrix(A):
        raise InvalidFixtureError("linear part must be integral")
    Ai = [[int(x) for x in row] for row in A]
    bv = tuple(Fraction(x) for x in b)
    table = []
    for i, rep in enumerate(group.reps):
        AF = mat_mul(Ai, list(map(list, rep.F)))
        image = None
        for j, cand in enumerate(group.reps):
            if not mat_equal(AF, mat_mul(list(map(list, cand.F)), Ai)):
                continue
            shift = [
                bb + at - tj - fb
                for bb, at, tj, fb in zip(
                    bv, mat_vec(Ai, list(rep.t)), cand.t, mat_vec(cand.F, list(bv))
                )
            ]
            if all(Fraction(x).denominator == 1 for x in shift):
                image = j
                break
        if image is None:
            raise InvalidFixtureError(
                f"affine map does not normalize the group: representative {i} has no image"
            )
        table.append(image)
    return InfraEndo(group, freeze_matrix(Ai), bv, tuple(table))


@dataclass(frozen=True)
class TorusCover:
    """A finite torus cover R^n/L -> flat manifold, L given by HNF rows."""

    group: BieberbachGroup
    lattice_rows: tuple[tuple[int, ...], ...]
    index: int


def fitting_lift(group: BieberbachGroup, endo: InfraEndo) -> TorusEndo:
    """The same affine map viewed on the translation-lattice torus Z^n/R^n.

    Needs an invertible linear part (then periodic fibers are periodic
    throughout); use holonomy_power_cover for the singular regime.
    """
    if endo.determinant == 0:
        raise UnsupportedInputError(
            "Fitting lift needs an invertible linear part; use holonomy_power_cover"
        )
    return TorusEndo(endo.linear, endo.translation)


def holonomy_power_cover(group: BieberbachGroup) -> TorusCover:
    """Sublattice generated by the |F|-th powers: every admitted affine map
    lifts to the corresponding torus cover.

    For flat groups each element is (F_i, t_i + z), so the |F|-th powers are
    precisely the translations P_i (t_i + z) with P_i = sum of powers of F_i:
    the lattice is generated by the vectors P_i t_i and the columns of P_i.
    Stability under conjugation by every representative is verified exactly.
    """
    n = group.dim
    order = group.holonomy_order
    vectors = []
    for rep in group.reps:
        P = geometric_sum(rep.F, order)
        pt = mat_vec(P, list(rep.t))
        if any(Fraction(x).denominator != 1 for x in pt):
            raise ConsistencyError("power of a group element is not integral", payload=rep)
        vectors.append([int(x) for x in pt])
        vectors.extend([[P[r][c] for r in range(n)] for c in range(n)])
    rows = hnf_basis(vectors)
    if len(rows) < n:
        raise ConsistencyError("power lattice is rank deficient")
    index = 1
    for i in range(n):
        index *= rows[i][i]
    for rep in group.reps:
        for v in rows:
            if not row_span_contains(rows, mat_vec(rep.F, list(v))):
                raise ConsistencyError(
                    "power lattice not stable under holonomy conjugation", payload=rep
                )
    return TorusCover(group, freeze_matrix(rows), index)


class FlatPoints(TorusGrid):
    """An admissible map f on the flat manifold, walked on numerators of the
    grid (1/m)Z^n: a state is the least numerator tuple of a group orbit.

    Each representative (F, t) is an integer affine map on numerators, a
    state a to (F a + m t) mod m, listed in `images`; so m must also be a
    multiple of the relative order of every t.
    """

    def __init__(self, group: BieberbachGroup, f: TorusEndo, m: int):
        super().__init__(f, m)
        self.images = images = [TorusGrid(rep, m).step for rep in group.rep_maps]
        lift = self.step

        # plain closures, not bound methods: the instance holds them, and
        # they hold no reference back to it, so no cycle waits for the gc
        def canonical(state):
            return min(image(state) for image in images)

        def step(state):
            return canonical(lift(state))

        self.canonical, self.step = canonical, step

    def walk(self, start):
        """iterate_orbit over the canonical step, its path as columns."""
        mu, lam, path = iterate_orbit(self.step, start)
        return mu, lam, list(zip(*path))


def classify_infra(
    group: BieberbachGroup, endo: InfraEndo, x, cover: str = "auto"
) -> Classification:
    """Exact (preperiod, period) of a rational point on the flat manifold.

    The orbit is walked on least numerator tuples of group orbits (see
    FlatPoints); the verdict is cross-checked against the classification of
    the whole fiber in a torus cover, "fitting" (R^n/Z^n, invertible maps
    only) or "gamma_power" (see holonomy_power_cover); "auto" picks the first
    when the linear part is invertible.  The point is periodic iff some fiber
    point is, and for the Fitting cover the fiber of a periodic point is
    entirely periodic.
    """
    xs = [Fraction(v) for v in x]
    if len(xs) != group.dim:
        raise ValueError("point dimension mismatch")
    if cover == "auto":
        cover = "fitting" if endo.determinant != 0 else "gamma_power"
    if cover == "fitting":
        lift = fitting_lift(group, endo)
        rows = mat_identity(group.dim)
    elif cover == "gamma_power":
        lift = TorusEndo(endo.linear, endo.translation)
        rows = group.power_cover.lattice_rows
    else:
        raise ValueError(f"unknown cover {cover!r}: use 'auto', 'fitting' or 'gamma_power'")

    # numerators mod m order like the points a/m in [0, 1)
    m = lcm(relative_order(xs), lift.translation_order,
            *(rep.translation_order for rep in group.rep_maps))
    flat = FlatPoints(group, lift, m)
    a = tuple(int(v * m) % m for v in xs)
    base = orbit_verdict(flat.walk, flat.orders, flat.canonical(a))
    # the fiber over the group orbit of x starts at the images rep.apply(x),
    # on numerators over m; a shift by Z^n leaves the fiber as a set
    _, fiber_cls = fiber_verdicts(rows, lift, [image(a) for image in flat.images], m)
    if any(c.periodic for c in fiber_cls) != base.periodic:
        raise ConsistencyError(
            "periodicity does not project correctly along the cover",
            payload=(cover, x, base, fiber_cls),
        )
    # all-or-none needs an invertible lift, which only the Fitting cover has
    if cover == "fitting" and all(c.periodic for c in fiber_cls) != base.periodic:
        raise ConsistencyError(
            "invertible lift should have an all-or-none periodic fiber",
            payload=(cover, x, base, fiber_cls),
        )
    return base
