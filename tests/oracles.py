"""Independent reference computations used only as test oracles.

These deliberately avoid the library's code paths: determinants by textbook
Gaussian elimination, lattice membership by greedy triangular reduction,
totients by coprime counting, orbits by direct Fraction iteration, nil
relative orders by stepping through multiples, nil orbits by Fraction
BCH products, flat-manifold orbits by a Fraction min over holonomy images
and report text by the standard library's JSON encoder.
"""

import json
from fractions import Fraction
from math import gcd, lcm

from nilorbit.errors import SearchBoundExceededError
from nilorbit.exactmath import denominator_lcm
from nilorbit.nilclass2 import apply_endo, bch_pow


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


def nil_reference_walk(delta, N, g):
    """(preperiod, period, coords, orders) of the coset N g, walking the
    Fraction canonical representatives N.canonical_rep(delta(x))."""
    x = N.canonical_rep(g)
    index = {}
    path = []
    while x.coords not in index:
        index[x.coords] = len(path)
        path.append(x)
        x = N.canonical_rep(apply_endo(delta, x))
    mu = index[x.coords]
    orders = [nil_relative_order_search(N, p) for p in path]
    return mu, len(path) - mu, [p.coords for p in path], orders


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
