"""Independent reference computations used only as test oracles.

These deliberately avoid the library's code paths: determinants by textbook
Gaussian elimination, reduced row echelon forms and kernels by Gauss-Jordan
elimination over Fraction, lattice membership by greedy triangular reduction,
totients by coprime counting, orbits by direct Fraction iteration, grid
steps row by row, cycle detection by list search, orbit transcripts one
state at a time, nil relative orders by stepping through multiples, nil
lattice coordinates stage by stage (quotient first, derived directions
second), nil orbits by Fraction BCH products,
flat-manifold orbits by a Fraction min over holonomy images, cover fibers
point by point through a full torus classify, periodic-point searches with
the geometric sum rebuilt for every k, and report text by the standard
library's JSON encoder.

The Fraction and QuadExt structure decisions the library replaced with
integer ones live on here: the sum of ker(M^d - I) over every root-of-unity
order, the Smith-form solves over Fraction and QuadExt right-hand sides,
and back-substitution in an RREF basis over Fraction.
"""

import json
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from nilorbit.errors import SearchBoundExceededError
from nilorbit.exactmath import (
    coset_representatives,
    denominator_lcm,
    geometric_sum,
    is_integral,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    snf,
)
from nilorbit.nilclass2 import MalcevElement, apply_endo, bch_inv, bch_mul, bch_pow, identity
from nilorbit.torus import TorusPoint, classify, lattice_coordinates


def gaussian_det(M):
    a = [[Fraction(x) for x in row] for row in M]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def reference_rref(rows):
    """Reduced row echelon form over Q by Gauss-Jordan elimination on
    Fractions; returns the nonzero rows."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
        pivots.append(c)
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    return a[: len(pivots)]


def free_column_kernel(M):
    """Kernel basis of M read off reference_rref: one vector e_f - sum of
    rref[r][f] e_(c_r) per free column f, with c_r the pivot columns."""
    n = len(M[0])
    rows = reference_rref(M)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in rows]
    vecs = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        vecs.append(v)
    return vecs


def reference_eventually_fixed_subspace(M, include_nilpotent=False):
    """RREF rows of the sum of ker(M^d - I) over every d with totient
    phi(d) <= n (found by coprime counting), plus ker(M^n) when
    include_nilpotent is set; kernels by free_column_kernel."""
    n = len(M)
    vectors = []
    for d in range(1, 2 * n * n + 1):
        if totient_count(d) <= n:
            P = mat_pow(M, d)
            vectors += free_column_kernel([[x - (i == j) for j, x in enumerate(row)]
                                           for i, row in enumerate(P)])
    if include_nilpotent:
        vectors += free_column_kernel(mat_pow(M, n))
    return reference_rref(vectors) if vectors else []


def reference_solve_mod_lattice(M, c):
    """M x == c (mod Z^n) through the Smith form, with U c and V y over
    Fraction or QuadExt entries."""
    n = len(M)
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


def reference_period_search(A, b, k_max):
    """(k, x) for the least k <= k_max whose period-k equation
    (A^k - I) x == -(I + A + ... + A^(k-1)) b (mod Z^n) is solvable, with x
    from reference_solve_mod_lattice, or None; the geometric sum is rebuilt
    from scratch by geometric_sum for every k."""
    minus_identity = mat_sub(A, mat_identity(len(A)))
    for k in range(1, k_max + 1):
        G = geometric_sum(A, k)
        x = reference_solve_mod_lattice(mat_mul(minus_identity, G),
                                        [-v for v in mat_vec(G, list(b))])
        if x is not None:
            return k, x
    return None


def reduce_mod_lattice(basis, x):
    """Representative of x modulo the lattice of a full-rank square HNF
    `basis`, over Fraction: coordinate i lands in [0, basis[i][i])."""
    w = list(x)
    for i, row in enumerate(basis):
        q = Fraction(w[i]) // row[i]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return w


def reference_classify_fiber(rows, f, points):
    """classify_fiber one fiber point at a time: p + z reduced modulo L by
    reduce_mod_lattice, and a full torus classify of its lattice
    coordinates B^-1 (p + z), on a grid of its own."""
    f_up, Binv = lattice_coordinates(rows, f.linear, f.translation_fractions())
    fiber = []
    classes = []
    for p in points:
        for z in coset_representatives(rows):
            x = [a + b for a, b in zip(p, z)]
            fiber.append(tuple(reduce_mod_lattice(rows, x)))
            classes.append(classify(f_up, mat_vec(Binv, x))[0])
    return fiber, classes


def reference_solve_integer(M, c):
    """An integer z with M z = c through the Smith form over Fraction, or None."""
    m, n = len(M), len(M[0])
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
    return [int(v) for v in mat_vec(V, y)]


def reference_back_substitute(basis, v):
    """(coefficients, residual) of v against RREF rows, over Fraction."""
    w = [Fraction(x) for x in v]
    coeffs = []
    for row in basis:
        c = next(j for j, x in enumerate(row) if x != 0)
        f = w[c]
        coeffs.append(f)
        if f != 0:
            w = [a - f * b for a, b in zip(w, row)]
    return coeffs, w


def triangular_member(rows, v):
    """Membership of v in the integer row span of rows in echelon form."""
    w = [Fraction(x) for x in v]
    for row in rows:
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            continue
        q = w[c] / row[c]
        if q.denominator != 1:
            return False
        w = [a - q * b for a, b in zip(w, row)]
    return all(x == 0 for x in w)


def totient_count(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def prime_set(n):
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def brute_orbit(A, b, q):
    """(preperiod, period, points) by direct Fraction iteration mod 1."""
    n = len(A)
    x = tuple(Fraction(v) % 1 for v in q)
    index = {}
    path = []
    while x not in index:
        index[x] = len(path)
        path.append(x)
        moved = [sum(A[i][j] * x[j] for j in range(n)) + b[i] for i in range(n)]
        x = tuple(Fraction(v) % 1 for v in moved)
    mu = index[x]
    return mu, len(path) - mu, path


def reference_torus_step(A, b, m):
    """The grid step x -> (A x + m b) mod m on numerator tuples, one row at a
    time; m must be a multiple of the relative order of b."""
    rows = [(row, int(x * m) % m) for row, x in zip(A, b)]

    def step(state):
        return tuple([(sum(map(mul, row, state)) + c) % m for row, c in rows])

    return step


def torus_decode(m, state):
    """The point state/m of the grid (1/m)Z^n, through the public constructor."""
    return TorusPoint(tuple(Fraction(a, m) for a in state))


def reference_transcript(m, path):
    """(relative orders, points) of grid states, one state at a time."""
    return (tuple(m // gcd(m, *state) for state in path),
            tuple(torus_decode(m, state) for state in path))


def nil_reference_transcript(system, path):
    """(relative orders, points) of integer states (dh*y_h, dc*y_c) in the
    lattice-basis coordinates y of N, for the lattice N and the scales dh
    and dc of a NilCosets system, one state at a time: the point is
    X = B^T y and its order comes from nil_relative_order_search."""
    N, dh, dc = system.lattice, system.dh, system.dc
    k = len(N.horizontal_rows)
    points = []
    for state in path:
        y = [Fraction(v, dh) for v in state[:k]] + [Fraction(v, dc) for v in state[k:]]
        coords = [sum(v * row[j] for v, row in zip(y, N.basis)) for j in range(len(y))]
        points.append(MalcevElement(N.group, coords))
    return tuple(nil_relative_order_search(N, g) for g in points), tuple(points)


def naive_orbit(step, start):
    """(preperiod, period, path) of start, finding the first repeat by a
    search of the path list: quadratic, and no hashing."""
    path = []
    x = start
    while x not in path:
        path.append(x)
        x = step(x)
    mu = path.index(x)
    return mu, len(path) - mu, path


def random_invertible_matrix(rng, n, lo=-5, hi=5):
    while True:
        M = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if gaussian_det(M) != 0:
            return M


def random_unimodular_matrix(rng, n, ops=12):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        if c:
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        if rng.random() < 0.3:
            M[i], M[j] = M[j], M[i]
    return M


def reference_solve(columns, v):
    """x with sum x_i columns[i] = v for independent columns, by
    reference_rref of the augmented system; None when v is outside their
    span."""
    rows = reference_rref([[col[j] for col in columns] + [v[j]] for j in range(len(v))])
    if any(all(x == 0 for x in row[:-1]) for row in rows):  # a pivot in the last column
        return None
    return [row[-1] for row in rows]


def reference_ab_coords(N, vec):
    """Coefficients of vec in the projected horizontal rows, stage one:
    quotient coordinates modulo the derived directions."""
    q = N.group.quotient_coords
    return reference_solve([q(row) for row in N.horizontal_rows], q(vec))


def reference_central_coeffs(N, vec):
    """Coefficients of vec in the central rows, stage two: coordinates in
    the derived directions' basis; None when vec is outside them."""
    derived = N.group.derived
    coords = derived.coefficients_of(list(vec))
    if coords is None:
        return None
    return reference_solve([derived.coefficients_of(list(r)) for r in N.central_rows], coords)


def reference_normal_form(N, g):
    """(a, c) with g = exp(a_0 h_0) exp(a_1 h_1) ... * exp(sum c_l z_l): a
    from stage one, then c from stage two on the residual of the ordered
    horizontal product."""
    a = reference_ab_coords(N, g.coords)
    h = identity(N.group)
    for t, row in zip(a, N.horizontal_rows):
        h = bch_mul(h, bch_pow(MalcevElement(N.group, row), t))
    c = reference_central_coeffs(N, bch_mul(bch_inv(h), g).coords)
    assert c is not None, "normal form residual is not central"
    return a, c


def nil_relative_order_search(N, g):
    """Least s >= 1 with g^s in N, by certified bounded search.

    With s0 the lcm of the adapted-basis coordinate denominators of g, the
    order always divides 2*s0^2 in class <= 2, so the search bound (2*s0)^3
    can only be exceeded by an implementation bug.
    """
    y = N.coords_in_basis(g.coords)
    s0 = denominator_lcm(y)
    bound = (2 * s0) ** 3
    step = denominator_lcm(N.ab_coords(g.coords))  # necessary divisor of the order
    for s in range(step, bound + 1, step):
        if N.contains(bch_pow(g, s)):
            return s
    raise SearchBoundExceededError(
        f"relative order exceeded certified bound {bound}", bound
    )


def nil_reference_path(delta, N, g):
    """(preperiod, period, path) of the coset N g, walking the Fraction
    canonical representatives N.canonical_rep(delta(x))."""
    x = N.canonical_rep(g)
    index = {}
    path = []
    while x.coords not in index:
        index[x.coords] = len(path)
        path.append(x)
        x = N.canonical_rep(apply_endo(delta, x))
    mu = index[x.coords]
    return mu, len(path) - mu, path


def nil_reference_walk(delta, N, g):
    """(preperiod, period, coords, orders) of nil_reference_path, with each
    state's relative order by nil_relative_order_search."""
    mu, lam, path = nil_reference_path(delta, N, g)
    orders = [nil_relative_order_search(N, p) for p in path]
    return mu, lam, [p.coords for p in path], orders


def flat_reference_walk(group, endo, x):
    """(preperiod, period, orders) of the group orbit of x under endo,
    walking Fraction canonical points: the least of the images
    rep.apply(p) mod 1 over the holonomy representatives."""

    def canonical(p):
        return min(tuple(Fraction(v) % 1 for v in rep.apply(p)) for rep in group.reps)

    x = canonical(x)
    index = {}
    path = []
    while x not in index:
        index[x] = len(path)
        path.append(x)
        moved = [sum(a * v for a, v in zip(row, x)) + b
                 for row, b in zip(endo.linear, endo.translation)]
        x = canonical(moved)
    mu = index[x]
    orders = [lcm(*(v.denominator for v in p)) for p in path]
    return mu, len(path) - mu, orders


def json_report_text(report):
    """A report rendered by the standard library: sorted keys, indent 2."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
