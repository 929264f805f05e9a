"""Class-2 nilpotent Lie groups in exponential coordinates.

The group law is the two-term product log(g h) = X + Y + [X, Y]/2, which is
exact over Q, so lattices, relative orders and orbit classification all run
in exact rational arithmetic.  Lattices are handled through adapted bases:
the trailing rows span the derived directions, giving a two-stage
(abelianization first, centre second) normal form.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd

from .errors import ConsistencyError, LatticeError, UnsupportedInputError
from .exactmath import (
    SubspaceQ,
    denominator_lcm,
    det,
    eventually_fixed_subspace,
    freeze_matrix,
    integral_rows,
    invert_rational,
    is_integer_matrix,
    mat_mul,
    mat_shape,
    mat_sub,
    mat_transpose,
    mat_vec,
    prime_support,
    rational_kernel,
    rational_row_hnf,
    vec_is_zero,
)
from .orbits import Classification, OrbitResult, classify_orbit, iterate_orbit


@dataclass(frozen=True)
class Class2Group:
    """Nilpotent Lie algebra/group of class <= 2 via structure constants.

    ``bracket[i][j]`` is the coordinate vector of [e_i, e_j]; antisymmetry
    and centrality of the bracket image are enforced, which makes the BCH
    series terminate after the single [X, Y]/2 term.
    """

    dim: int
    bracket: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, bracket):
        m = len(bracket)
        tensor = []
        for i in range(m):
            if len(bracket[i]) != m:
                raise ValueError("bracket tensor must be m x m")
            row = []
            for j in range(m):
                vec = tuple(Fraction(x) for x in bracket[i][j])
                if len(vec) != m:
                    raise ValueError("bracket values must be m-vectors")
                row.append(vec)
            tensor.append(tuple(row))
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "bracket", tuple(tensor))
        for i in range(m):
            for j in range(m):
                if any(a != -b for a, b in zip(self.bracket[i][j], self.bracket[j][i])):
                    raise ValueError(f"bracket not antisymmetric at ({i}, {j})")
        # class <= 2: bracket values must be central, i.e. bracket away to zero
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if not vec_is_zero(self.bracket_vec(self._basis_vec(i), self.bracket[j][k])):
                        raise ValueError(
                            f"bracket image not central: [e_{i}, [e_{j}, e_{k}]] != 0"
                        )

    def _basis_vec(self, i: int) -> list[Fraction]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def bracket_vec(self, x, y) -> list[Fraction]:
        """[x, y] for coordinate vectors, extended bilinearly."""
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                cij = self.bracket[i][j]
                f = xi * yj
                for k in range(self.dim):
                    if cij[k]:
                        out[k] += f * cij[k]
        return out

    @cached_property
    def derived(self) -> SubspaceQ:
        """Span of the bracket image; the designated central directions."""
        vecs = [list(self.bracket[i][j]) for i in range(self.dim) for j in range(i)]
        return SubspaceQ.from_vectors(self.dim, vecs)

    def quotient_coords(self, v) -> list[Fraction]:
        """Coordinates of v in the quotient modulo the derived directions."""
        w = self.derived.reduce(v)
        pivots = set(self.derived.pivot_columns())
        return [w[j] for j in range(self.dim) if j not in pivots]

    @classmethod
    def abelian(cls, dim: int) -> "Class2Group":
        zero = [[ [0] * dim for _ in range(dim)] for _ in range(dim)]
        return cls(zero)

    @classmethod
    def heisenberg(cls) -> "Class2Group":
        """3-dimensional group with [e0, e1] = e2, e2 central."""
        z = [0, 0, 0]
        b = [
            [z, [0, 0, 1], z],
            [[0, 0, -1], z, z],
            [z, z, z],
        ]
        return cls(b)


@dataclass(frozen=True)
class MalcevElement:
    """Group element exp(X) stored by its exponential coordinates X."""

    group: Class2Group
    coords: tuple[Fraction, ...]

    def __init__(self, group, coords):
        if len(coords) != group.dim:
            raise ValueError("coordinate length mismatch")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))

    @property
    def is_identity(self) -> bool:
        return vec_is_zero(self.coords)

    def __str__(self):
        return "exp(" + ", ".join(str(c) for c in self.coords) + ")"


def identity(group: Class2Group) -> MalcevElement:
    return MalcevElement(group, [Fraction(0)] * group.dim)


def bch_mul(g: MalcevElement, h: MalcevElement) -> MalcevElement:
    """Group product: log(g h) = X + Y + [X, Y]/2 (exact in class <= 2)."""
    if g.group is not h.group and g.group != h.group:
        raise ValueError("elements of different groups")
    corr = g.group.bracket_vec(g.coords, h.coords)
    coords = [x + y + c / 2 for x, y, c in zip(g.coords, h.coords, corr)]
    return MalcevElement(g.group, coords)


def bch_inv(g: MalcevElement) -> MalcevElement:
    return MalcevElement(g.group, [-x for x in g.coords])


def bch_pow(g: MalcevElement, s) -> MalcevElement:
    """exp(X)^s = exp(s X); s may be any rational (1/s gives the unique root)."""
    s = Fraction(s)
    return MalcevElement(g.group, [s * x for x in g.coords])


def commutator(g: MalcevElement, h: MalcevElement) -> MalcevElement:
    return MalcevElement(g.group, g.group.bracket_vec(g.coords, h.coords))


def _horizontal_product(group: Class2Group, rows, exponents) -> MalcevElement:
    """The ordered product exp(t_0 r_0) exp(t_1 r_1) ... over the rows."""
    out = identity(group)
    for t, row in zip(exponents, rows):
        if t:
            out = bch_mul(out, MalcevElement(group, [t * x for x in row]))
    return out


def _combination(dim: int, coeffs, rows) -> list[Fraction]:
    """The vector sum c_i r_i (zeros of length dim for no rows)."""
    out = [Fraction(0)] * dim
    for c, row in zip(coeffs, rows):
        if c:
            out = [o + c * x for o, x in zip(out, row)]
    return out


@dataclass(frozen=True)
class LatticeSubgroup:
    """Finitely generated lattice via an adapted basis.

    The first dim - r rows project to a basis of the abelianized lattice and
    the last r rows span the lattice inside the derived directions; closure
    under the group product is verified on basis pairs at construction.
    """

    group: Class2Group
    basis: tuple[tuple[Fraction, ...], ...]

    def __init__(self, group, basis):
        m = group.dim
        rows = freeze_matrix([[Fraction(x) for x in row] for row in basis])
        if len(rows) != m:
            raise LatticeError(f"adapted basis needs {m} rows, got {len(rows)}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "basis", rows)
        r = group.derived.dim
        for k in range(m - r, m):
            if not group.derived.contains(rows[k]):
                raise LatticeError(
                    f"basis row {k} should lie in the derived directions"
                )
        central_span = SubspaceQ.from_vectors(m, [list(v) for v in rows[m - r:]])
        if central_span.dim != r:
            raise LatticeError("central basis rows are linearly dependent")
        if self._ab_matrix_inv is None:
            raise LatticeError(
                "leading basis rows do not project to an abelianization basis"
            )
        self.structure_constants  # raises LatticeError unless closed under products

    @property
    def central_rank(self) -> int:
        return self.group.derived.dim

    @property
    def horizontal_rows(self):
        return self.basis[: self.group.dim - self.central_rank]

    @property
    def central_rows(self):
        return self.basis[self.group.dim - self.central_rank:]

    @cached_property
    def structure_constants(self) -> tuple[tuple[int, int, int, int], ...]:
        """The integer central coefficients C_ij = central_coeffs([h_i, h_j])
        of the horizontal rows, as (i, j, l, C_ij[l]) for i < j and every
        nonzero entry.

        In lattice-basis coordinates y (X = B^T y) the normal form is
        a = y_h, c = y_c - 1/2 * sum_{i<j} a_i a_j C_ij.  The lattice is
        closed under products exactly when every C_ij is integral.
        """
        rows = self.horizontal_rows
        out = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                coeffs = self.central_coeffs(self.group.bracket_vec(rows[i], rows[j]))
                if any(x.denominator != 1 for x in coeffs):
                    raise LatticeError(
                        f"not closed under products: [b_{i}, b_{j}] is outside "
                        "the central lattice"
                    )
                out += [(i, j, l, int(x)) for l, x in enumerate(coeffs) if x]
        return tuple(out)

    @cached_property
    def integral_inverse(self):
        """(P, d) with integer P: the lattice-basis coordinates of X are P X / d."""
        return integral_rows(self._full_matrix_inv)

    @cached_property
    def _integral_columns(self):
        """(Q, d) with integer Q: the exponential coordinates of y are Q y / d."""
        return integral_rows(mat_transpose([list(r) for r in self.basis]))

    @cached_property
    def _ab_matrix_inv(self):
        cols = [self.group.quotient_coords(row) for row in self.horizontal_rows]
        return invert_rational(mat_transpose(cols))

    @cached_property
    def _central_matrix_inv(self):
        if self.central_rank == 0:
            return []
        cols = [self.group.derived.coefficients_of(row) for row in self.central_rows]
        return invert_rational(mat_transpose(cols))

    @cached_property
    def _full_matrix_inv(self):
        return invert_rational(mat_transpose([list(r) for r in self.basis]))

    def ab_coords(self, vec) -> list[Fraction]:
        """Coefficients of vec in the projected horizontal basis."""
        return mat_vec(self._ab_matrix_inv, self.group.quotient_coords(vec))

    def central_coeffs(self, vec) -> list[Fraction]:
        """Coefficients of a derived-direction vector in the central rows."""
        coords = self.group.derived.coefficients_of(vec)
        if coords is None:
            raise ValueError("vector is not in the derived directions")
        if self.central_rank == 0:
            return []
        return mat_vec(self._central_matrix_inv, coords)

    def coords_in_basis(self, vec) -> list[Fraction]:
        return mat_vec(self._full_matrix_inv, list(vec))

    def horizontal_product(self, exponents) -> MalcevElement:
        """Ordered product of exp(t_i b_i) over the horizontal rows."""
        return _horizontal_product(self.group, self.horizontal_rows, exponents)

    def central_combination(self, coeffs) -> list[Fraction]:
        return _combination(self.group.dim, coeffs, self.central_rows)

    def normal_form(self, g: MalcevElement):
        """(a, c): g = (ordered horizontal product with exponents a) * exp(sum c_k z_k).

        Both exponent vectors are rational; g is in the lattice iff both are
        integral.
        """
        a = self.ab_coords(g.coords)
        w = bch_mul(bch_inv(self.horizontal_product(a)), g)
        if not vec_is_zero(self.group.quotient_coords(w.coords)):
            raise ConsistencyError("normal form residual is not central", payload=g)
        c = self.central_coeffs(list(w.coords))
        return a, c

    def contains(self, g: MalcevElement) -> bool:
        a, c = self.normal_form(g)
        return all(x.denominator == 1 for x in a) and all(
            x.denominator == 1 for x in c
        )

    def canonical_rep(self, g: MalcevElement) -> MalcevElement:
        """The unique element of the coset N g with abelianization exponents
        in [0,1) and then central exponents in [0,1).

        Well defined because integral central corrections never disturb the
        abelianization coordinates.
        """
        a = self.ab_coords(g.coords)
        k = [Fraction(floor(x)) for x in a]
        g1 = bch_mul(bch_inv(self.horizontal_product(k)), g)
        _, c1 = self.normal_form(g1)
        l = [Fraction(floor(x)) for x in c1]
        shift = self.central_combination([-x for x in l])
        return MalcevElement(self.group, [x + s for x, s in zip(g1.coords, shift)])


def _grid_coords(N: LatticeSubgroup, s: int, nums):
    """(dh, dh*y_h, 2*dh^2*y_c) for the lattice-basis coordinates y = P X / d
    of X = nums/s, with N.integral_inverse = (P, d) and dh = d*s."""
    P, d = N.integral_inverse
    dh = d * s
    k = len(N.horizontal_rows)
    y = [sum(map(operator.mul, row, nums)) for row in P]
    return dh, y[:k], [2 * dh * v for v in y[k:]]


def _scaled_order(dh: int, yh, yc, constants) -> int:
    """relative_order from integer coordinates (dh*y_h, 2*dh^2*y_c)."""
    sq = dh * dh
    e = dh // gcd(dh, *yh)
    n = [e * v // dh for v in yh]
    w = [e * v for v in yc]
    for i, j, l, x in constants:
        w[l] -= sq * x * n[i] * n[j]
    return e * (2 * sq // gcd(2 * sq, *w))


def grid_order(N: LatticeSubgroup, s: int, nums) -> int:
    """Relative order of the point exp(nums/s) for an integer vector nums."""
    return _scaled_order(*_grid_coords(N, s, nums), N.structure_constants)


def relative_order(N: LatticeSubgroup, g: MalcevElement) -> int:
    """Least s >= 1 with g^s in N, in closed form.

    In lattice-basis coordinates g^s has y = s*y, so its normal form is
    (s*y_h, s*y_c - s^2/2 * Q(y_h)) with Q(a) = sum_{i<j} a_i a_j C_ij.  So s
    is a multiple of the abelianization order e = den(y_h).  h = g^e has
    integral horizontal exponents n, and h^t has central exponents
    t*c - t(t-1)/2 * Q(n) with Q(n) integral, so h^t is in N iff den(c) | t.
    The order is e*den(c).  If g's exponential coordinates lie in (1/m)Z
    and N.integral_inverse = (P, d), y lies in (1/(d*m))Z, so the order
    divides 2*(d*m)^2.
    """
    s = denominator_lcm(g.coords)
    return grid_order(N, s, [int(x * s) for x in g.coords])


def subgroup_generated(gens) -> LatticeSubgroup:
    """Lattice generated by finitely many rational elements.

    Two-stage construction: Hermite form on the abelianization images gives
    the horizontal basis (as genuine products of the generators); the central
    lattice is the Hermite span of the generators' central residues together
    with all pairwise commutators.  The result is post-verified to contain
    every generator and to be closed under basis products.
    """
    if not gens:
        raise LatticeError("at least one generator required")
    group = gens[0].group
    m = group.dim
    r = group.derived.dim
    ab_rows = [group.quotient_coords(g.coords) for g in gens]
    H_ab, combos = rational_row_hnf(ab_rows)
    if len(H_ab) < m - r:
        raise LatticeError(
            f"generators span rank {len(H_ab)} < {m - r} in the abelianization"
        )
    gen_rows = [g.coords for g in gens]
    horizontals = [_horizontal_product(group, gen_rows, u).coords for u in combos]
    # independent HNF rows in Q^(m-r), at least m-r of them: H_ab is invertible
    ab_inv = invert_rational(mat_transpose(H_ab))
    central_vecs = []
    for g in gens:
        t = mat_vec(ab_inv, group.quotient_coords(g.coords))
        if any(x.denominator != 1 for x in t):
            raise ConsistencyError("abelianization coefficients not integral")
        w = bch_mul(bch_inv(_horizontal_product(group, horizontals, t)), g)
        if not group.derived.contains(list(w.coords)):
            raise ConsistencyError("generator residue is not central", payload=g)
        central_vecs.append(list(w.coords))
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            central_vecs.append(group.bracket_vec(gens[i].coords, gens[j].coords))
    central_coords = [group.derived.coefficients_of(v) for v in central_vecs]
    central_coords = [c for c in central_coords if c is not None and not vec_is_zero(c)]
    H_c, _ = rational_row_hnf(central_coords) if central_coords else ([], [])
    if len(H_c) < r:
        raise LatticeError(
            f"generated group has central rank {len(H_c)} < {r}: not a full lattice"
        )
    central_rows = [_combination(m, row, group.derived.basis) for row in H_c]

    lattice = LatticeSubgroup(group, horizontals + central_rows)
    for g in gens:
        if not lattice.contains(g):
            raise ConsistencyError("generated lattice misses a generator", payload=g)
    basis_elems = [MalcevElement(group, row) for row in lattice.basis]
    for x in basis_elems:
        for y in basis_elems:
            if not lattice.contains(bch_mul(x, y)):
                raise ConsistencyError("generated lattice not closed under products")
    return lattice


def basis_root_subgroup(N: LatticeSubgroup, s: int) -> LatticeSubgroup:
    """Subgroup generated by the s-th roots exp(b/s) of the adapted basis.

    Always contained in the group of all elements whose s-th power lies in N;
    equality can genuinely fail in class 2 (use root_closure_counterexample
    to probe), so only the guaranteed containments are asserted here.
    """
    if s < 1:
        raise ValueError("s must be positive")
    gens = [bch_pow(MalcevElement(N.group, row), Fraction(1, s)) for row in N.basis]
    H = subgroup_generated(gens)
    for g in gens:
        if not N.contains(bch_pow(g, s)):
            raise ConsistencyError("root generator power left the lattice", payload=g)
    return H


def root_closure_counterexample(
    N: LatticeSubgroup, s: int, samples: int = 200, seed: int = 0
):
    """Probe whether exp(b/s) over the adapted basis generates every element
    with s-th power in N.

    Samples random lattice elements and tests their unique s-th roots for
    membership in basis_root_subgroup(N, s); returns a counterexample root or
    None.  A counterexample is a genuine mathematical gap, not an error: the
    recipe subgroup can be strictly smaller.
    """
    H = basis_root_subgroup(N, s)
    rng = random.Random(seed)
    m = N.group.dim
    for _ in range(samples):
        exponents = [rng.randint(-3, 3) for _ in range(m)]
        elem = _horizontal_product(N.group, N.basis, exponents)
        root = bch_pow(elem, Fraction(1, s))
        if not N.contains(bch_pow(root, s)):
            raise ConsistencyError("sampled root lost its defining property")
        if not H.contains(root):
            return root
    return None


def subgroup_index(sub: LatticeSubgroup, sup: LatticeSubgroup) -> int:
    """[sup : sub] for nested lattices, errors if sub is not inside sup.

    Product of the two change-of-basis determinants (abelianization stage
    times central stage); multiplicative along towers.
    """
    if sub.group != sup.group:
        raise ValueError("lattices live in different groups")
    T_ab = []
    for i, row in enumerate(sub.horizontal_rows):
        elem = MalcevElement(sub.group, row)
        a, c = sup.normal_form(elem)
        if any(x.denominator != 1 for x in a) or any(x.denominator != 1 for x in c):
            raise LatticeError(f"basis row {i} of the subgroup is outside the supergroup")
        T_ab.append([int(x) for x in a])
    T_c = []
    off = len(sub.horizontal_rows)
    for i, row in enumerate(sub.central_rows):
        coeffs = sup.central_coeffs(list(row))
        if any(x.denominator != 1 for x in coeffs):
            raise LatticeError(
                f"basis row {off + i} of the subgroup is outside the supergroup"
            )
        T_c.append([int(x) for x in coeffs])
    idx = abs(det(T_ab)) if T_ab else 1
    idx *= abs(det(T_c)) if T_c else 1
    return int(idx)


@dataclass(frozen=True)
class NilEndo:
    """Endomorphism given by its Lie algebra matrix; brackets are preserved
    and the lattice is mapped into itself (both verified by make_endo)."""

    group: Class2Group
    matrix: tuple[tuple[Fraction, ...], ...]
    determinant: Fraction


def make_endo(group: Class2Group, M, N: LatticeSubgroup) -> NilEndo:
    """Validate and build an endomorphism compatible with the lattice.

    Checks M[x, y] = [Mx, My] on all basis pairs, checks the images of the
    adapted basis land in N, and asserts |det M| = [N : image lattice].
    """
    n, n2 = mat_shape(M)
    if n != n2 or n != group.dim:
        raise ValueError("endomorphism matrix must be dim x dim")
    Mrows = [[Fraction(x) for x in row] for row in M]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(Mrows, list(group.bracket[i][j]))
            ei = group._basis_vec(i)
            ej = group._basis_vec(j)
            rhs = group.bracket_vec(mat_vec(Mrows, ei), mat_vec(Mrows, ej))
            if lhs != rhs:
                raise ValueError(
                    f"matrix does not preserve the bracket on basis pair ({i}, {j})"
                )
    images = [MalcevElement(group, mat_vec(Mrows, list(row))) for row in N.basis]
    for k, img in enumerate(images):
        if not N.contains(img):
            raise ValueError(f"image of basis row {k} leaves the lattice")
    D = det(Mrows)
    endo = NilEndo(group, freeze_matrix(Mrows), D)
    if D != 0:
        image_lattice = subgroup_generated(images)
        idx = subgroup_index(image_lattice, N)
        if idx != abs(D):
            raise ConsistencyError(
                f"index of the image lattice is {idx}, expected |det| = {abs(D)}"
            )
    return endo


def apply_endo(delta: NilEndo, g: MalcevElement) -> MalcevElement:
    return MalcevElement(delta.group, mat_vec([list(r) for r in delta.matrix], list(g.coords)))


def _map_blocks(delta: NilEndo, N: LatticeSubgroup):
    """The map's matrix T in lattice-basis coordinates (y -> T y), as the
    integer blocks (T_hh, 2*T_ch, T_cc).

    A map that sends N into itself and preserves the derived directions has
    T_hc = 0 and integral T_hh and T_cc.  T_ch is half-integral, since the
    images of the horizontal rows have integral normal forms.
    """
    basis_t = mat_transpose([list(r) for r in N.basis])
    T = mat_mul(mat_mul(N._full_matrix_inv, [list(r) for r in delta.matrix]), basis_t)
    k = len(N.horizontal_rows)
    if any(x for row in T[:k] for x in row[k:]):
        raise ConsistencyError(
            "the map moves central directions into horizontal ones", payload=delta
        )
    blocks = (
        ("horizontal", [row[:k] for row in T[:k]], "integral"),
        ("horizontal->central", [[2 * x for x in row[:k]] for row in T[k:]], "half-integral"),
        ("central", [row[k:] for row in T[k:]], "integral"),
    )
    for name, block, kind in blocks:
        if not is_integer_matrix(block):
            raise ConsistencyError(
                f"{name} block of the map in lattice coordinates is not {kind}",
                payload=delta,
            )
    return tuple(integral_rows(block)[0] for _, block, _ in blocks)


class NilCosets:
    """The endomorphism on cosets N g, in lattice-basis coordinates y.

    The starts' exponential coordinates lie in (1/s)Z, so for
    N.integral_inverse = (P, d) every y lies in (1/dh)Z with dh = d*s.  A
    state is the y of a coset's canonical representative (normal form
    exponents a and c in [0, 1)), scaled to integers as (dh*y_h, dc*y_c)
    with dc = 2*dh^2.  In these coordinates the map has integral horizontal
    and central blocks, a zero central -> horizontal block and a
    half-integral horizontal -> central block (checked once per system,
    ConsistencyError otherwise), so the orbit never needs larger
    denominators.  `encode`, `step`, `canonical` and `order` use integers
    only; `decode` builds Fractions for the transcript.
    """

    def __init__(self, delta: NilEndo, N: LatticeSubgroup, s: int):
        self.lattice = N
        self.group = N.group
        self.s = s
        self.dh = dh = N.integral_inverse[1] * s
        self.dc = dc = 2 * dh * dh
        self._k = len(N.horizontal_rows)
        hh, ch2, cc = _map_blocks(delta, N)
        crows = [tuple(x * dh for x in w) + c for w, c in zip(ch2, cc)]
        constants = N.structure_constants
        wide = 2 * dh
        mul = operator.mul

        # closures, not methods: the walk calls them once per state
        def canonical(yh, yc):
            """The state of the coset N g for g with integer coordinates
            (dh*y_h, dc*y_c).  exp(floor(a) h)^-1 g has normal form
            (frac(a), c) with c = y_c - Q(a)/2 + sum_{i<j} frac(a_i)
            floor(a_j) C_ij; a central lattice element takes c mod 1."""
            floors = [v // dh for v in yh]
            a = [v % dh for v in yh]
            c = list(yc)
            qa = [0] * len(c)
            for i, j, l, x in constants:
                c[l] += x * (wide * a[i] * floors[j] - yh[i] * yh[j])
                qa[l] += x * a[i] * a[j]
            return (*a, *[v % dc + w for v, w in zip(c, qa)])

        def step(state):
            return canonical(
                [sum(map(mul, row, state)) for row in hh],
                [sum(map(mul, row, state)) for row in crows],
            )

        self.canonical = canonical
        self.step = step
        self._wide = wide

    def encode(self, nums):
        """The state of the coset of the point exp(nums/s)."""
        _, yh, yc = _grid_coords(self.lattice, self.s, nums)
        return self.canonical(yh, yc)

    def order(self, state) -> int:
        k = self._k
        return _scaled_order(self.dh, state[:k], state[k:], self.lattice.structure_constants)

    def decode(self, state) -> MalcevElement:
        columns, d = self.lattice._integral_columns
        y = [v * self._wide for v in state[: self._k]] + list(state[self._k:])  # dc * y
        den = d * self.dc
        return MalcevElement(
            self.group, [Fraction(sum(map(operator.mul, col, y)), den) for col in columns]
        )

    def walk(self, start):
        return iterate_orbit(self.step, start)

    def transcript(self, path):
        return tuple(map(self.order, path)), tuple(map(self.decode, path))


def classify_nil(
    delta: NilEndo, N: LatticeSubgroup, g: MalcevElement
) -> tuple[Classification, OrbitResult]:
    """Exact (preperiod, period) of the coset N g under the endomorphism.

    The orbit runs on integer states over the grid of g's exponential
    coordinates (see NilCosets), so it stays inside a finite set of
    canonical coset representatives and hash-based cycle detection
    terminates.  The transcript lists those representatives.
    """
    s = denominator_lcm(g.coords)
    system = NilCosets(delta, N, s)
    return classify_orbit(system, system.encode([int(x * s) for x in g.coords]))


def order_coprime_to_det(delta: NilEndo, N: LatticeSubgroup, g: MalcevElement) -> bool:
    """Sufficient condition: relative order coprime to the determinant forces
    the coset to be periodic."""
    D = delta.determinant
    if D == 0:
        raise UnsupportedInputError("criterion inapplicable to non-injective maps")
    if abs(D).denominator != 1:
        raise UnsupportedInputError("criterion needs an integral determinant")
    return gcd(int(abs(D)), relative_order(N, g)) == 1


def constant_prime_support_on_cycle(N: LatticeSubgroup, result: OrbitResult) -> bool:
    """Prime support of the relative order is invariant along the cycle."""
    supports = {prime_support(relative_order(N, e)) for e in result.cycle}
    return len(supports) <= 1


def unity_subalgebra(delta: NilEndo, include_nilpotent: bool = False) -> SubspaceQ:
    """Directions eventually fixed by the endomorphism; verified to be closed
    under the bracket (fixed spaces of bracket-preserving maps always are)."""
    S = eventually_fixed_subspace([list(r) for r in delta.matrix], include_nilpotent)
    _check_bracket_closed(delta.group, S)
    return S


def equalizer_subalgebra(phi: NilEndo, psi: NilEndo) -> SubspaceQ:
    """Kernel of phi - psi: the directions where the two maps agree."""
    if phi.group != psi.group:
        raise ValueError("endomorphisms of different groups")
    S = rational_kernel(mat_sub([list(r) for r in phi.matrix], [list(r) for r in psi.matrix]))
    _check_bracket_closed(phi.group, S)
    return S


def _check_bracket_closed(group: Class2Group, S: SubspaceQ):
    for u in S.basis:
        for v in S.basis:
            if not S.contains(group.bracket_vec(list(u), list(v))):
                raise ConsistencyError(
                    "computed subspace is not bracket-closed", payload=S
                )
