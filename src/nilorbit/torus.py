"""Affine endomorphisms of the n-torus: exact orbits and periodicity.

A map is x -> A x + b (mod Z^n) with an integer linear part A (this is what
makes the map well defined on the torus) and a rational or quadratic-field
translation b.  Orbits of rational points live in a finite grid whose
denominator never grows, so classification is exact cycle detection.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, repeat
from math import gcd, prod
from operator import floordiv, mul

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
    hnf_basis,
    integral_quad_vector,
    integral_rows,
    integral_rref,
    invert_rational,
    is_integer_matrix,
    lcm,
    mat_add,
    mat_identity,
    mat_mul,
    mat_shape,
    mat_sub,
    mat_transpose,
    mat_vec,
    quad_vector,
    rational_kernel,
    root_of_unity_orders,
    row_span_contains,
    scalar_is_rational,
    smith_solve_mod_lattice,
    split_quad_vector,
    vec_is_zero,
)
from .orbits import Classification, OrbitResult, classify_orbit, orbit_verdict


@dataclass(frozen=True, slots=True)
class TorusPoint:
    """Canonical representative of a torus point: coordinates in [0, 1)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(Fraction(c) % 1 for c in self.coords)
        )

    @classmethod
    def _canonical_points(cls, coords) -> tuple[TorusPoint, ...]:
        """Points from coordinate tuples already in [0, 1), without
        re-normalising: bare instances, then one pass that sets coords
        through the slot's descriptor (which the frozen __setattr__ does
        not guard)."""
        coords = tuple(coords)
        points = tuple(map(object.__new__, repeat(cls, len(coords))))
        deque(map(cls.coords.__set__, points, coords), maxlen=0)
        return points

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
    return denominator_lcm(q)


def step(f: TorusEndo, x: TorusPoint) -> TorusPoint:
    """One application: canonical representative of A x + b (mod Z^n)."""
    if f.has_irrational_translation:
        raise UnsupportedInputError(
            "cannot track a rational point under an irrational translation; "
            "use translation_periodicity for the structural verdict"
        )
    moved = mat_vec(f.linear, list(x.coords))
    return TorusPoint(tuple(m + b for m, b in zip(moved, f.translation)))


# The grid map of dimension n, its orbit walk and its sweep.  ({coords}) =
# ({rows}) is one step, {push} appends to the columns, {unpack} reads a key.
_GRID_SOURCE = """\
def make({params}):
    def step(state):
        ({coords}) = state
        return ({rows})

    def walk(start):
        ({coords}) = start
        if not ({in_grid}):
            raise ValueError("state outside the grid")
        {columns} = {empty}
        {pushes} = {appends}
        for _ in range(tail):
            {push}
            ({coords}) = ({rows})
        # x_tail is periodic: walk on to its first return
        ({starts}) = ({coords})
        while True:
            {push}
            ({coords}) = ({rows})
            if not ({moved}):
                break
        lam = len(col0) - tail
        # x_j = x_(j+lam) holds from mu on, so step back from the tail
        mu = tail
        while mu and {same}:
            mu -= 1
        {cut}
        return mu, lam, [{columns}]

    def sweep(starts):
        memo = [None] * m ** {n}
        succ = memo.copy()
        for start in starts:
            if not 0 <= start < len(memo):
                raise ValueError("state outside the grid")
            if memo[start] is not None:
                continue
            {unpack}
            key = start
            path = [key]
            # a state holds its place on the path until the walk is classified
            memo[key] = 0
            while True:
                ({coords}) = ({rows})
                # targets bind left to right: succ[old key], then key
                succ[key] = key = {key}
                if memo[key] is not None:
                    break
                memo[key] = len(path)
                path.append(key)
            cut = memo[key]
            if type(cut) is int:  # a cycle from path[cut]
                dist, lam = cut, len(path) - cut
            else:  # into a classified state
                (dist, lam), cut = cut, len(path)
                dist += cut
            for i in range(cut):
                memo[path[i]] = (dist - i, lam)
            cell = (0, lam)
            for key in path[cut:]:
                memo[key] = cell
        return memo, succ

    return step, walk, sweep
"""


@lru_cache(maxsize=None)
def _grid_factory(n: int):
    """make(m, a0_0, ..., a0_{n-1}, a1_0, ..., c0, ..., c_{n-1}, tail) ->
    (step, walk, sweep) for the grid map of dimension n.

    The source depends on n only; the entries, the translation numerators,
    m and tail are arguments, so one compiled factory serves every map and
    grid of that dimension.  The step is straight-line code, one affine row
    mod m per coordinate; it unpacks the state, so a state of the wrong
    length raises ValueError.

    walk(start) returns (preperiod, period, columns): the orbit of start,
    its preperiod tail then one cycle, as one list of numerators per
    coordinate.  The coordinates stay locals and are stepped inline, with
    no call per step and no visited set.  The walk steps `tail` times, then
    on to the first return of the state it reached; the preperiod mu is the
    least j < tail with x_j = x_(j+period), or tail if there is none, and
    the columns are cut to mu + period.  This is exact whenever tail bounds
    every preperiod of the grid (see TorusGrid.tail); a smaller tail can
    leave the walk on a state that never returns.  A start of the wrong
    length or outside [0, m)^n raises ValueError.

    sweep(starts) is orbits.sweep_orbits on list slots, stepped the same
    way.  It returns (memo, succ), indexed by packed key: memo[k] =
    (preperiod, period) and succ[k] the next key, for every state reached
    from the starts.  On a bijective grid the first classified state a walk
    meets is its own start, so the walk is one cycle and shares one
    (0, period).  A start outside range(m**n) raises ValueError.
    """
    key = "x0"
    for j in range(1, n):
        key = f"({key}) * m + x{j}"
    unpack = "".join(["r = start; ", *(f"x{j} = r % m; r //= m; " for j in range(n - 1, 0, -1)),
                      "x0 = r"])

    def each(pattern, sep=""):
        return sep.join(pattern.format(j) for j in range(n))

    rows = "".join(
        "(" + " + ".join([*(f"a{i}_{j}*x{j}" for j in range(n)), f"c{i}"]) + ") % m, "
        for i in range(n)
    )
    source = _GRID_SOURCE.format(
        params=", ".join(["m", *(f"a{i}_{j}" for i in range(n) for j in range(n)),
                          *(f"c{i}" for i in range(n)), "tail"]),
        n=n, unpack=unpack, coords=each("x{}, "), rows=rows, key=key, empty="[], " * n,
        starts=each("s{}, "), columns=each("col{}, "), pushes=each("push{}, "),
        appends=each("col{}.append, "), push=each("push{0}(x{0})", "; "),
        in_grid=each("0 <= x{} < m", " and "), moved=each("x{0} != s{0}", " or "),
        same=each("col{0}[mu - 1] == col{0}[mu - 1 + lam]", " and "),
        cut=each("del col{0}[mu + lam:]", "; "),
    )
    # runtime warnings of the generated code name this module
    namespace: dict = {"__name__": __name__}
    exec(compile(source, f"<nilorbit grid n={n}>", "exec"), namespace)
    return namespace["make"]


class TorusGrid:
    """The map on numerators of the grid (1/m)Z^n: x -> (A x + m b) mod m.

    m must be a multiple of the relative order of the translation.  The
    step, walk and sweep come from _grid_factory.  A path is handed on as
    one column of numerators per coordinate.

    `tail` bounds every preperiod on the grid, so the walk is exact.  The
    map x -> A x + c on (Z/m)^n is the linear map T = [[A, c], [0, 1]] on
    (Z/m)^(n+1), restricted to last coordinate 1, and det T = det A.  Split
    (Z/m)^(n+1) into its p-parts (Z/p^k)^(n+1).  Where p does not divide
    det A, T is bijective, so every orbit there is a cycle.  Otherwise, by
    Fitting's lemma, the kernels of T^j stop growing within the composition
    length (n+1) k <= (n+1) floor(log2 m); past that, T^j x lies in the
    image on which T is bijective, so it is periodic.  Hence tail = 0 when
    gcd(det A, m) = 1, and (n+1) floor(log2 m) otherwise.  The bound cannot
    shrink by much: x -> [[1, 1], [-1, 1]] x + (127/128, 19/32) has
    preperiod 14 at the origin of the grid m = 128, where the tail is 21.
    """

    def __init__(self, f: TorusEndo, m: int):
        self.m = m
        self.tail = 0 if gcd(f.determinant, m) == 1 else (f.dim + 1) * (m.bit_length() - 1)
        numerators = [int(x * m) % m for x in f.translation_fractions()]
        self.step, self.walk, self.sweep = _grid_factory(f.dim)(
            m, *(a for row in f.linear for a in row), *numerators, self.tail
        )

    def orders(self, columns) -> tuple[int, ...]:
        """Relative orders of the grid points of a path given as columns."""
        m = self.m
        return tuple(map(floordiv, repeat(m), map(gcd, repeat(m), *columns)))

    def transcript(self, columns):
        """(relative orders, points) of a path given as columns."""
        m = self.m
        # numerators are reduced mod m, so every a/m is already in [0, 1)
        numerators = list(set().union(*columns))
        table = dict(zip(numerators, _reduced_fractions(numerators, m)))
        points = zip(*[map(table.__getitem__, column) for column in columns])
        return self.orders(columns), TorusPoint._canonical_points(points)


def _reduced_fractions(numerators, m) -> list[Fraction]:
    """[Fraction(a, m) for a in numerators], for 0 <= a < m, built in bulk.

    Fraction(a, m) stores (a // g, m // g) with g = gcd(a, m).  Bare
    instances get those two slots through the class's member descriptors,
    so no Fraction.__new__ (with its type dispatch, gcd and sign check) runs
    per entry.
    """
    g = list(map(gcd, numerators, repeat(m)))
    fractions = list(map(object.__new__, repeat(Fraction, len(numerators))))
    deque(map(Fraction._numerator.__set__, fractions, map(floordiv, numerators, g)), maxlen=0)
    deque(map(Fraction._denominator.__set__, fractions, map(floordiv, repeat(m), g)), maxlen=0)
    return fractions


def classify(f: TorusEndo, q) -> tuple[Classification, OrbitResult]:
    """Exact (preperiod, period) of a rational point under the map.

    The orbit stays inside the finite grid of denominator lcm(ord(q), ord(b))
    because the linear part maps Z^n into itself, so the walk terminates and
    is exact: it runs past a proven bound on the preperiod, then to the
    first return (see TorusGrid).
    """
    if f.has_irrational_translation:
        raise UnsupportedInputError(
            "classification of rational points needs a rational translation; "
            "use translation_periodicity instead"
        )
    if len(q) != f.dim:
        raise ValueError(f"point has length {len(q)}, map has dimension {f.dim}")
    m = lcm(relative_order(q), f.translation_order)
    return classify_orbit(TorusGrid(f, m), tuple(int(as_fraction(x) * m) % m for x in q))


def fixed_point(f: TorusEndo):
    """A fixed point on the torus, or None: solves (A - I) x == -b (mod Z^n)."""
    return periodic_point_of_period(f, 1)


def periodic_point_of_period(f: TorusEndo, k: int):
    """A point of period dividing k, or None (see _period_solution)."""
    if k < 1:
        raise ValueError("period must be positive")
    G, Mk = next(islice(_period_systems(f.linear), k - 1, None))
    x = _period_solution(G, Mk, f.translation_fractions())
    return None if x is None else TorusPoint(tuple(x))


def _period_systems(A):
    """(G, A^k - I) for k = 1, 2, ... with G = A^{k-1}+...+I.

    One product per k: A G_k = G_(k+1) - I, and A^k - I = A G_k - G_k.
    """
    ident = mat_identity(len(A))
    G = ident
    while True:
        AG = mat_mul(A, G)
        yield G, mat_sub(AG, G)
        G = mat_add(ident, AG)


def _period_solution(G, Mk, b):
    """A solution of the period-k equation, or None.

    Fixed points of the k-th iterate solve (A^k - I) x == -G b modulo Z^n
    with G = A^{k-1}+...+I, as _period_systems yields them; b may be
    rational or quadratic.  G multiplies the integer numerators of b, and
    the Smith-form solve runs on integers.
    """
    r, s, D, d = integral_quad_vector(b)
    solution = smith_solve_mod_lattice(
        Mk, [-x for x in mat_vec(G, r)], [-x for x in mat_vec(G, s)], D
    )
    return None if solution is None else quad_vector(*solution, d)


def _first_period_solution(A, b, bound: int):
    """(k, x) for the least k <= bound whose period-k equation (see
    _period_solution) has a solution x, or None."""
    for k, (G, Mk) in zip(range(1, bound + 1), _period_systems(A)):
        x = _period_solution(G, Mk, b)
        if x is not None:
            return k, x
    return None


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


def has_periodic_point(f: TorusEndo, k_max: int = 64) -> PeriodicPointSearch:
    """Decide existence of a periodic point by a search over iterates k <= k_max.

    A pure translation is decided exactly: periodic points exist iff the
    translation is rational (else Empty).  Every other map goes to the
    period-k solves in turn.  Without a root-of-unity eigenvalue, A - I is
    invertible over Q, so the k = 1 solve always succeeds (Yes(k=1)).  With
    one, a solution for some k <= k_max gives Yes(k), and none gives the
    honest bounded answer UnknownUpTo(k_max).  k_max < 1 raises ValueError.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    if f.is_pure_translation:
        if translation_periodicity(f.translation) is TranslationVerdict.EMPTY:
            return PeriodicPointSearch("empty")
        k0 = relative_order(f.translation)
        return PeriodicPointSearch("yes", k=k0)
    found = _first_period_solution(f.linear, f.translation, k_max)
    if found is not None:
        return PeriodicPointSearch("yes", k=found[0])
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
    found = _first_period_solution(f.linear, b, k_bound)
    if found is None:
        raise SearchBoundExceededError(
            f"no periodic point found among iterates k <= {k_bound}", k_bound
        )
    H = unity_subspace(f.linear, include_kernel=f.determinant == 0)
    return EventuallyPeriodicSet(TorusPoint(tuple(found[1])), H)


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

    phi and psi are scaled to integers by one denominator, so H is the kernel
    of the integer difference; v is a member iff its sqrt-part, scaled to
    integers, is killed by the integer RREF rows of that difference.  This
    is cross-checked against the difference itself applied to the sqrt-part.
    Mixing two fields raises MixedFieldError.
    """
    n, n2 = mat_shape(phi)
    if (n, n2) != mat_shape(psi) or n != n2:
        raise ValueError("equalizer needs two square matrices of equal shape")
    if len(v) != n:
        raise ValueError(f"vector of length {len(v)} for {n}x{n} matrices")
    rows, _ = integral_rows([*phi, *psi])
    diff = [[a - b for a, b in zip(p, q)] for p, q in zip(rows[:n], rows[n:])]
    _, irr = split_quad_vector(v)
    (s,), _ = integral_rows([irr])
    member = not any(sum(map(mul, row, s)) for row in integral_rref(diff)[0])
    if member != vec_is_zero(mat_vec(diff, s)):
        raise ConsistencyError(
            "equalizer membership disagrees with the difference image",
            payload={"phi": phi, "psi": psi, "v": v},
        )
    return member


def lattice_coordinates(rows, A, b):
    """The affine map x -> A x + b on R^n/L in lattice coordinates.

    L is spanned by the integer `rows`; returns (map on u, B^-1) for the
    coordinate change x = B u with B = rows^T, with B^-1 a tuple of tuples.
    A must preserve L, so the conjugated linear part is integral.  Both are
    computed once per (rows, A, b) while they stay in a bounded cache.
    """
    return _lattice_coordinates(freeze_matrix(rows), freeze_matrix(A), tuple(b))[:2]


@lru_cache(maxsize=256)
def _lattice_coordinates(rows, A, b):
    """(map on u, B^-1, Bi, D) with B^-1 = Bi / D for an integer matrix Bi."""
    n = len(A)
    B = [[Fraction(rows[j][i]) for j in range(n)] for i in range(n)]
    Binv = invert_rational(B)
    A_up = mat_mul(mat_mul(Binv, [list(r) for r in A]), B)
    if not is_integer_matrix(A_up):
        # lru_cache stores no exception, so every call raises again
        raise ConsistencyError("conjugated linear part is not integral", payload=A_up)
    b_up = mat_vec(Binv, list(b))
    Bi, D = integral_rows(Binv)
    return TorusEndo([[int(x) for x in row] for row in A_up], b_up), freeze_matrix(Binv), Bi, D


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


@lru_cache(maxsize=256)
def _cover(L_basis, A):
    """(HNF rows of L, as a tuple of tuples; whether A induces a bijection
    of Z^n/L) for frozen L_basis and A, see cover_lattice."""
    # lru_cache stores no exception, so a LatticeError is raised on every call
    H = cover_lattice(L_basis, A)
    # A induces a bijection of the finite group Z^n/L iff A Z^n + L = Z^n
    image = hnf_basis(mat_transpose(A) + H)
    return freeze_matrix(H), prod(image[i][i] for i in range(len(H))) == 1


def classify_fiber(rows, f: TorusEndo, points):
    """Every point of R^n/L over the given points of R^n/Z^n, classified
    under f acting on R^n/L.

    L is spanned by the full-rank HNF `rows` and preserved by the linear
    part of f (see cover_lattice).  Returns (fiber, classifications); fiber
    points are ambient coordinates reduced modulo L, listed point by point
    and, over each point, in the order of coset_representatives.  The
    points are written over one common denominator and classified by
    fiber_verdicts; Fractions are built for the returned fiber only.
    """
    numerators, q = integral_rows(points)
    fiber, classes = fiber_verdicts(rows, f, numerators, q)
    return [tuple([Fraction(a, q) for a in w]) for w in fiber], classes


def fiber_verdicts(rows, f: TorusEndo, numerators, q: int):
    """classify_fiber on integers: the points are the integer vectors
    `numerators` over the common denominator q.

    Returns (fiber, classifications) with each fiber point as its integer
    numerators over q.  A fiber point w/q has lattice coordinates
    Bi w / (D q) for B^-1 = Bi / D, so every fiber orbit lives on the one
    grid of denominator M = lcm(D q, ord(b_up)); relative orders do not
    depend on the multiple M chosen, and the walk keeps nothing but them.
    """
    f_up, _, Bi, D = _lattice_coordinates(
        freeze_matrix(rows), f.linear, f.translation_fractions())
    if any(len(a) != f.dim for a in numerators):
        raise ValueError(f"fiber over a point of the wrong length for dimension {f.dim}")
    M = lcm(D * q, f_up.translation_order)
    scale = M // (D * q)
    grid = TorusGrid(f_up, M)
    # reduction modulo L: coordinate i of w/q lands in [0, H_ii), that is
    # w_i in [0, q H_ii), by subtracting multiples of the row q H_i
    lattice = [[q * x for x in row] for row in rows]
    shifts = [[q * z for z in shift] for shift in coset_representatives(rows)]
    fiber = []
    classes = []
    for a in numerators:
        for z in shifts:
            w = [x + y for x, y in zip(a, z)]
            for i, row in enumerate(lattice):
                t = w[i] // row[i]
                if t:
                    w = [x - t * y for x, y in zip(w, row)]
            fiber.append(tuple(w))
            start = tuple([sum(map(mul, brow, w)) * scale % M for brow in Bi])
            classes.append(orbit_verdict(grid.walk, grid.orders, start))
    # len(points) * [Z^n : L] entries by construction, so this also checks
    # the covering degree
    if len(set(fiber)) != len(fiber):
        raise ConsistencyError(
            "fiber enumeration produced duplicate points",
            payload=[tuple([Fraction(a, q) for a in w]) for w in fiber],
        )
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
    H, injective = _cover(freeze_matrix(L_basis), f_down.linear)
    qs = [Fraction(x) % 1 for x in q]
    fiber, fiber_cls = classify_fiber(H, f_down, [qs])
    # the base point is the whole fiber of the trivial cover L = Z^n
    _, (base_cls,) = classify_fiber(mat_identity(len(H)), f_down, [qs])

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
