"""Seeded workloads of the nilorbit benchmark.

A workload is a set-up plus a deck.  The set-up is what a user pays before
the first verdict: the import, fixture loading and the validation of groups,
lattices and maps.  The deck is a seeded list of operations.  Each operation
is one closed-loop call into the public API, paired with a certificate check
of its output that shares no code with the call it checks where that is
practical, and with a fingerprint used to compare repeated runs.

Decks are built in rounds.  Every round holds each operation class of the
workload once, with fresh seeded inputs, in a seeded order.  The class mix is
fixed, so the latency distribution does not drift with the seed.

Library calls go through module attributes (``torus.classify``, never a
name imported from ``nilorbit.torus``) so that the traced run's wrappers,
installed on those modules, see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from nilorbit import cli, fixtures, infraflat, nilclass2, scan, torus  # noqa: E402
from nilorbit.exactmath import QuadExt  # noqa: E402

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
FIXTURE_DIR = SRC / "nilorbit" / "fixtures"
OUT_DIR = ROOT / ".bench_out"  # CLI reports and span files; listed in .gitignore


class CertificateError(Exception):
    """An operation returned an output that fails its certificate."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


@dataclass
class Op:
    """One closed-loop call.

    ``certify(out)`` checks the output and returns the number of exact
    verdicts it delivers; it raises CertificateError on a bad output.
    ``fingerprint(out)`` is a digest of everything the call returned.
    """

    kind: str
    call: Callable[[], Any]
    certify: Callable[[Any], int]
    fingerprint: Callable[[Any], str]


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def exact_order_point(rng: random.Random, m: int, n: int) -> list[Fraction]:
    """A seeded point of (1/m)Z^n / Z^n whose relative order is exactly m."""
    while True:
        nums = [rng.randrange(m) for _ in range(n)]
        if gcd(m, *nums) == 1:
            return [Fraction(a, m) for a in nums]


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def exact_order_count(bound: int, n: int) -> int:
    """Number of points of (1/m)Z^n / Z^n of relative order exactly m, summed
    over m <= bound (Jordan's totient)."""
    total = 0
    for m in range(1, bound + 1):
        count = m**n
        for p in prime_factors(m):
            count = count // p**n * (p**n - 1)
        total += count
    return total


def affine(A, b, x):
    return tuple(sum(a * xi for a, xi in zip(row, x)) + bi for row, bi in zip(A, b))


def affine_step(A, b, x, moduli):
    """A x + b reduced coordinatewise modulo the given moduli."""
    return tuple(y % mod for y, mod in zip(affine(A, b, x), moduli))


def replay(step, start):
    """(preperiod, period, path) of start under step, by a dictionary walk."""
    seen, path, x = {}, [], start
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = step(x)
    return seen[x], len(path) - seen[x], path


def point_order(coords) -> int:
    return lcm(*(Fraction(x).denominator for x in coords))


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def mat_pow(A, k: int):
    n = len(A)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul(out, A)
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def rational_det(A) -> Fraction:
    a = [[Fraction(x) for x in row] for row in A]
    n, d = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


# ---------------------------------------------------------------------------
# torus-walk: one long orbit per call through torus.classify


TORUS_CLASSES = (
    # (label, linear part, translation, modulus).  At these moduli every
    # point of exact relative order m has the same period (the preperiod
    # varies by one at the even moduli of the det-2 map), so an op's size
    # does not depend on which point the seed picks.  Periods run from
    # 3600 to 10000 steps.
    ("cat@3607", [[2, 1], [1, 1]], None, 3607),
    ("cat@4507", [[2, 1], [1, 1]], None, 4507),
    ("cat+b@1703", [[2, 1], [1, 1]], ["1/2", "1/3"], 13 * 131),
    ("cat+b@1727", [[2, 1], [1, 1]], ["1/2", "1/3"], 11 * 157),
    ("a1@67", [[3, 1], [1, 1]], None, 67),
    ("a1@166", [[3, 1], [1, 1]], None, 2 * 83),
    ("a1@268", [[3, 1], [1, 1]], None, 4 * 67),
    ("cubic@51", [[0, 0, 1], [1, 0, 1], [0, 1, 0]], None, 3 * 17),
    ("cubic@62", [[0, 0, 1], [1, 0, 1], [0, 1, 0]], None, 2 * 31),
    ("cubic+b@13", [[0, 0, 1], [1, 0, 1], [0, 1, 0]], ["1/2", "0", "1/5"], 13),
    ("det3@61", [[1, 1, 0], [0, 1, 1], [1, 0, 2]], None, 61),
)


def torus_setup():
    return {
        label: (torus.TorusEndo(A, [Fraction(x) for x in b] if b else None), m)
        for label, A, b, m in TORUS_CLASSES
    }


def certify_torus_orbit(f, q, out) -> int:
    cls, orbit = out
    pts = [p.coords for p in orbit.points]
    pre, per = cls.preperiod, cls.period
    expect(len(orbit.tail) == pre and len(orbit.cycle) == per, "orbit lengths")
    expect(len(cls.relative_order_trace) == len(pts), "trace length")
    expect(per >= 1 and pts[0] == tuple(Fraction(x) % 1 for x in q), "orbit start")
    expect(all(0 <= x < 1 for p in pts for x in p), "coordinates outside [0, 1)")
    # replay x -> A x + b (mod 1) on numerators over a common denominator m
    b = f.translation_fractions()
    m = lcm(*(x.denominator for p in pts for x in p), *(x.denominator for x in b))
    c = [x.numerator * (m // x.denominator) for x in b]
    nums = [tuple(x.numerator * (m // x.denominator) for x in p) for p in pts]
    expect(len(set(nums)) == len(nums), "orbit points repeat")
    moduli = (m,) * len(c)
    for i, p in enumerate(nums):
        successor = nums[i + 1] if i + 1 < len(nums) else nums[pre]
        expect(affine_step(f.linear, c, p, moduli) == successor, f"step {i} is not A x + b")
        expect(cls.relative_order_trace[i] == m // gcd(m, *p), f"relative order {i}")
    return 1


def fingerprint_orbit(out) -> str:
    cls, orbit = out
    coords = [(x.numerator, x.denominator) for p in orbit.points for x in p.coords]
    return sha((cls.preperiod, cls.period, cls.relative_order_trace, len(orbit.tail), coords))


def torus_op(label, f, q) -> Op:
    return Op(
        label,
        lambda: torus.classify(f, q),
        lambda out: certify_torus_orbit(f, q, out),
        fingerprint_orbit,
    )


def torus_deck(ctx, rng: random.Random, rounds: int) -> list[Op]:
    deck = []
    for _ in range(rounds):
        batch = [
            torus_op(label, f, exact_order_point(rng, m, f.dim))
            for label, (f, m) in ctx.items()
        ]
        rng.shuffle(batch)
        deck += batch
    return deck


# ---------------------------------------------------------------------------
# Reports shared by grid-scan and nil: render, then compare with the digest
# recorded for the same report at the commit that defined the benchmark.


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


def report_key(kind: str, fixture_name: str, bound: int) -> str:
    return f"{kind}:{fixture_name}:{bound}"


def check_digest(digests, key: str, text: str) -> None:
    expect(key in digests, f"no reference digest for {key}")
    expect(hashlib.sha256(text.encode()).hexdigest() == digests[key],
           f"{key} differs from the reference bytes")


def certify_report(digests, kind, report, text, bound, dim) -> int:
    key = report_key(kind, report["fixture"], bound)
    check_digest(digests, key, text)
    if kind == "scan":
        expect(report["ok"], f"{key}: assertions failed")
        points = exact_order_count(bound, dim)
        expect(report["summary"]["points"] == points, f"{key}: row count")
        expect(sum(len(rows) for rows in report["tables"].values()) == points,
               f"{key}: table rows")
        return points
    cells = [c["cells"] for c in report["cells"].values() if c.get("admissible")]
    expect(cells == [m**dim for m in range(1, bound + 1)
                     if report["cells"][str(m)]["admissible"]], f"{key}: cells")
    return sum(cells)


def report_op(digests, kind, fixture, bound, dim, endo_name=None) -> Op:
    def call():
        if kind == "scan":
            report = scan.scan_report(fixture, bound, workers=1, endo_name=endo_name)
        else:
            report = scan.density_report(fixture, bound, endo_name=endo_name)
        return report, scan.render_report(report)

    label = f"{kind}:{fixture.name}{':' + endo_name if endo_name else ''}@{bound}"
    return Op(
        label,
        call,
        lambda out: certify_report(digests, kind, out[0], out[1], bound, dim),
        lambda out: hashlib.sha256(out[1].encode()).hexdigest(),
    )


# ---------------------------------------------------------------------------
# grid-scan: whole-denominator sweeps of the shipped 2x2 torus fixtures


GRID_FIXTURES = ("a1", "a2", "a3", "a4")
SCAN_BOUNDS = (18, 20, 22, 24)  # one per fixture per round, seeded Latin square
DENSITY_BOUNDS = (26, 30, 34, 38)
CLI_BOUNDS = (16, 18, 20)


def grid_setup():
    return {
        name: fixtures.load_fixture(FIXTURE_DIR / f"{name}.json") for name in GRID_FIXTURES
    }


def certify_cli(digests, name, bound, out) -> int:
    code, path = out
    expect(code == 0, f"cli scan exited {code}")
    check_digest(digests, report_key("scan", name, bound), Path(path).read_text())
    return exact_order_count(bound, 2)


def cli_op(digests, name, bound, out_path: Path) -> Op:
    argv = ["scan", "--fixture", str(FIXTURE_DIR / f"{name}.json"),
            "--max-den", str(bound), "--out", str(out_path)]
    return Op(
        f"cli:{name}@{bound}",
        lambda: (cli.main(argv), out_path),
        lambda out: certify_cli(digests, name, bound, out),
        lambda out: (f"{out[0]}:" + hashlib.sha256(Path(out[1]).read_bytes()).hexdigest()),
    )


def grid_deck(fxs, rng: random.Random, rounds: int) -> list[Op]:
    digests = load_digests()
    OUT_DIR.mkdir(exist_ok=True)
    deck = []
    # A seeded Latin square: over len(SCAN_BOUNDS) rounds every fixture meets
    # every bound once, so the op sizes in a deck do not depend on the seed.
    scan_perm = rng.sample(range(len(SCAN_BOUNDS)), len(SCAN_BOUNDS))
    density_perm = rng.sample(range(len(DENSITY_BOUNDS)), len(DENSITY_BOUNDS))
    for r in range(rounds):
        batch = []
        for name, sp, dp in zip(GRID_FIXTURES, scan_perm, density_perm):
            sb = SCAN_BOUNDS[(sp + r) % len(SCAN_BOUNDS)]
            db = DENSITY_BOUNDS[(dp + r) % len(DENSITY_BOUNDS)]
            batch.append(report_op(digests, "scan", fxs[name], sb, 2))
            batch.append(report_op(digests, "density", fxs[name], db, 2))
        batch.append(cli_op(digests, rng.choice(GRID_FIXTURES), rng.choice(CLI_BOUNDS),
                            OUT_DIR / "cli-scan.json"))
        rng.shuffle(batch)
        deck += batch
    return deck


# ---------------------------------------------------------------------------
# nil: coset orbits on 2-step nilmanifolds


RANK2_BRACKET = {(0, 1): 3, (0, 2): 4}  # [e0,e1] = e3, [e0,e2] = e4
RANK2_MAP = [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
             [0, 0, 0, 4, 0], [0, 0, 0, 0, 4]]

NIL_CLASSIFY = (
    # (fixture, map, denominator, ops per round); the period depends only on
    # the denominator for these maps (not so for automorphism at 11, where it
    # is 10 or 110, so a seed's draw would set the tail).  The ~14 ms
    # classes are the most numerous, so the median latency falls inside them.
    ("heisenberg", "automorphism", 5, 1),
    ("heisenberg", "automorphism", 7, 2),
    ("heisenberg", "grading_2", 13, 4),
    ("heisenberg", "grading_2", 23, 4),
    ("rank2", "grading_2", 9, 4),
    ("rank2", "grading_2", 11, 1),
)
NIL_REPORTS = (
    ("scan", "heisenberg", "automorphism", 3),
    ("scan", "heisenberg", "grading_2", 3),
    ("scan", "rank2", "grading_2", 2),
    ("density", "heisenberg", "automorphism", 3),
    ("density", "heisenberg", "grading_2", 4),
)
ORDER_SAMPLES = 2  # orbit points per classify op whose relative order is certified


def build_rank2():
    """Central rank 2 group [e0,e1]=e3, [e0,e2]=e4 with the standard lattice
    and the graded map diag(2,2,2,4,4)."""
    dim = 5
    unit = [[int(i == j) for j in range(dim)] for i in range(dim)]
    bracket = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), k in RANK2_BRACKET.items():
        bracket[i][j] = list(unit[k])
        bracket[j][i] = [-x for x in unit[k]]
    group = nilclass2.Class2Group(bracket)
    lattice = nilclass2.subgroup_generated(
        [nilclass2.MalcevElement(group, row) for row in unit]
    )
    endo = nilclass2.make_endo(group, RANK2_MAP, lattice)
    return fixtures.NilFixture("rank2", "central rank 2", group, lattice, {"grading_2": endo})


def nil_setup():
    return {
        "heisenberg": fixtures.load_fixture(FIXTURE_DIR / "heisenberg.json"),
        "rank2": build_rank2(),
    }


def certify_nil_orbit(fixture, endo, g, samples, out) -> int:
    cls, orbit = out
    N = fixture.lattice
    pts = orbit.points
    pre, per = cls.preperiod, cls.period
    expect(len(orbit.tail) == pre and len(orbit.cycle) == per and per >= 1, "orbit lengths")
    expect(len(cls.relative_order_trace) == len(pts), "trace length")
    coords = [p.coords for p in pts]
    expect(len(set(coords)) == len(coords), "orbit points repeat")
    expect(coords[0] == N.canonical_rep(g).coords, "orbit start")

    def successor(p):
        return N.canonical_rep(nilclass2.apply_endo(endo, p)).coords

    expect(successor(pts[-1]) == coords[pre], "last point does not return to cycle[0]")
    if pre:
        expect(successor(pts[pre - 1]) == coords[pre], "tail does not enter the cycle")
    for u in samples:
        i = int(u * len(pts))
        e, s = pts[i], cls.relative_order_trace[i]
        expect(N.contains(nilclass2.bch_pow(e, s)), f"g^s not in N at point {i}")
        for p in prime_factors(s):
            expect(not N.contains(nilclass2.bch_pow(e, s // p)),
                   f"relative order {s} at point {i} is not minimal")
    return 1


def nil_classify_op(fixture, endo_name, m, g, samples) -> Op:
    endo = fixture.endos[endo_name]
    return Op(
        f"classify_nil:{fixture.name}:{endo_name}@{m}",
        lambda: nilclass2.classify_nil(endo, fixture.lattice, g),
        lambda out: certify_nil_orbit(fixture, endo, g, samples, out),
        fingerprint_orbit,
    )


def nil_deck(fxs, rng: random.Random, rounds: int) -> list[Op]:
    digests = load_digests()
    deck = []
    for _ in range(rounds):
        batch = []
        for name, endo_name, m, count in NIL_CLASSIFY:
            fx = fxs[name]
            for _ in range(count):
                g = nilclass2.MalcevElement(fx.group, exact_order_point(rng, m, fx.group.dim))
                samples = [rng.random() for _ in range(ORDER_SAMPLES)]
                batch.append(nil_classify_op(fx, endo_name, m, g, samples))
        for kind, name, endo_name, bound in NIL_REPORTS:
            fx = fxs[name]
            batch.append(report_op(digests, kind, fx, bound, fx.group.dim, endo_name))
        rng.shuffle(batch)
        deck += batch
    return deck


# ---------------------------------------------------------------------------
# structure: decisions made without a long walk


UNITY_BLOCKS = ([[0, -1], [1, 0]], [[0, -1], [1, -1]], [[1]], [[-1]])
OTHER_BLOCKS = ([[2, 1], [1, 1]], [[3]], [[2]], [[-2]])  # no root-of-unity eigenvalue
QUAD_FIELDS = (2, 3, 5)
EPS_VECTORS = 16


def structure_setup():
    cover = fixtures.load_fixture(FIXTURE_DIR / "expand_cover.json")
    klein = fixtures.load_fixture(FIXTURE_DIR / "klein_bottle.json")
    # a singular admissible map, so classify_infra takes the power-cover path
    singular = infraflat.validate_endo(klein.group, [[3, 0], [0, 0]], [0, 0])
    return {"cover": cover, "klein": klein, "singular": singular}


def rand_frac(rng, lo, hi, den):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def root_of_unity_orders(n: int) -> list[int]:
    """Orders k of the roots of unity that can be eigenvalues of an integer
    n x n matrix: phi(k) <= n, which forces k <= 12 for n <= 4."""
    return [k for k in range(1, 13) if sum(gcd(k, j) == 1 for j in range(1, k + 1)) <= n]


def unimodular_pair(rng, n):
    """A seeded unimodular U and its inverse, as products of elementary moves."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        E = [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(n)] for r in range(n)]
        Einv = [[int(r == s) - (c if (r, s) == (i, j) else 0) for s in range(n)] for r in range(n)]
        U = mat_mul(U, E)
        Uinv = mat_mul(Einv, Uinv)
    return U, Uinv


def unity_map(rng):
    """U diag(R, B) U^-1 with R of finite order and B without root-of-unity
    eigenvalues: the unity subspace is U times the R coordinates.
    Returns (A, n, dim R, U)."""
    R = rng.choice(UNITY_BLOCKS)
    B = rng.choice([b for b in OTHER_BLOCKS if len(R) + len(b) >= 3])
    n = len(R) + len(B)
    U, Uinv = unimodular_pair(rng, n)
    return mat_mul(mat_mul(U, block_diag(R, B)), Uinv), n, len(R), U


def hyperbolic_map(rng, n):
    """A seeded integer matrix with no root-of-unity eigenvalue and det != 0."""
    orders = root_of_unity_orders(n)
    while True:
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if rational_det(A) == 0:
            continue
        power, ok = A, True
        for k in range(1, max(orders) + 1):
            if k in orders:
                shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(power)]
                if rational_det(shifted) == 0:
                    ok = False
                    break
            power = mat_mul(power, A)
        if ok:
            return A


def with_fixed_point(rng, A):
    """Translation b = (I - A) y0 + z, so y0 is a fixed point of x -> A x + b."""
    n = len(A)
    y0 = [Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in range(n)]
    return [y - sum(a * x for a, x in zip(row, y0)) + rng.randint(-1, 1)
            for row, y in zip(A, y0)]


def seeded_torus_map(rng):
    """Half hyperbolic maps with any rational translation, half maps with a
    root-of-unity eigenvalue and a translation that admits a fixed point:
    either way a periodic point of every period exists."""
    if rng.random() < 0.5:
        A = hyperbolic_map(rng, rng.choice((3, 4)))
        b = [Fraction(rng.randint(0, 5), rng.randint(1, 6)) for _ in A]
    else:
        A = unity_map(rng)[0]
        b = with_fixed_point(rng, A)
    return A, b


def period_rhs(A, b, k):
    """c_k = (I + A + ... + A^{k-1}) b: the k-th iterate is x -> A^k x + c_k."""
    c = [Fraction(0)] * len(b)
    for i in range(k):
        c = [x + y for x, y in zip(c, mat_vec(mat_pow(A, i), b))]
    return c


def certify_period_solution(A, b, k, x) -> int:
    expect(x is not None, f"no solution of the period-{k} equation")
    Ak = mat_pow(A, k)
    image = [y - xi + ci for y, xi, ci in zip(mat_vec(Ak, x.coords), x.coords, period_rhs(A, b, k))]
    expect(all(v.denominator == 1 for v in image), f"(A^{k} - I) x + c is not integral")
    return 1


def period_op(A, b, k) -> Op:
    f = torus.TorusEndo(A, b)
    return Op(
        "periodic_point_of_period",
        lambda: torus.periodic_point_of_period(f, k),
        lambda x: certify_period_solution(A, b, k, x),
        lambda x: sha(None if x is None else x.coords),
    )


def certify_search(A, b, out) -> int:
    expect(out.status == "yes", f"periodic point search answered {out}")
    return certify_period_solution(A, b, out.k, torus.periodic_point_of_period(
        torus.TorusEndo(A, b), out.k))


def search_op(A, b) -> Op:
    f = torus.TorusEndo(A, b)
    return Op(
        "has_periodic_point",
        lambda: torus.has_periodic_point(f),
        lambda out: certify_search(A, b, out),
        lambda out: sha((out.status, out.k, out.bound)),
    )


def equalizer_inputs(rng):
    """phi, psi and v over Q(sqrt d); phi - psi kills a seeded vector w, and
    40% of the vectors have their sqrt part on the line of w."""
    n = rng.randint(2, 4)
    phi = [[rand_frac(rng, -3, 3, 2) for _ in range(n)] for _ in range(n)]
    w = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    j = rng.randrange(n)
    w[j] = Fraction(rng.choice((-2, -1, 1, 2)))
    R = [[rand_frac(rng, -3, 3, 2) for _ in range(n)] for _ in range(n)]
    Rw = mat_vec(R, w)
    D = [[R[r][c] - (Rw[r] / w[j] if c == j else 0) for c in range(n)] for r in range(n)]
    psi = [[p - d for p, d in zip(rp, rd)] for rp, rd in zip(phi, D)]
    if rng.random() < 0.4:
        c = rand_frac(rng, -3, 3, 2)
        irr = [c * x for x in w]
    else:
        irr = [rand_frac(rng, -2, 2, 2) for _ in range(n)]
    d = rng.choice(QUAD_FIELDS)
    v = [QuadExt(rand_frac(rng, -4, 4, 3), b, d) for b in irr]
    return phi, psi, v, D, irr


def certify_equalizer(D, irr, member) -> int:
    expect(member == all(x == 0 for x in mat_vec(D, irr)),
           "membership disagrees with (phi - psi) irr == 0")
    return 1


def equalizer_op(rng) -> Op:
    phi, psi, v, D, irr = equalizer_inputs(rng)
    return Op(
        "equalizer_membership",
        lambda: torus.equalizer_membership(phi, psi, v),
        lambda member: certify_equalizer(D, irr, member),
        lambda member: sha(member),
    )


def certify_eps(A, b, vectors, out) -> int:
    eps, answers = out
    n = len(A)
    g0 = tuple(eps.base_point.coords)
    pre, _, _ = replay(lambda x: affine_step(A, b, x, (1,) * n), g0)
    expect(pre == 0, "base point of the eventually periodic set is not periodic")
    P = mat_pow(A, lcm(*root_of_unity_orders(n)))
    for i in range(n):
        P[i][i] -= 1
    for v, answer in zip(vectors, answers):
        irr = [x.b if isinstance(x, QuadExt) else Fraction(0) for x in v]
        expect(answer == all(x == 0 for x in mat_vec(P, irr)),
               "membership disagrees with (A^L - I) irr == 0")
    return 1 + len(answers)


def eps_op(rng) -> Op:
    A, n, r, U = unity_map(rng)
    b = with_fixed_point(rng, A)
    vectors = []
    for _ in range(EPS_VECTORS):
        if rng.random() < 0.5:  # sqrt part inside the unity subspace
            coeffs = [rand_frac(rng, -3, 3, 2) for _ in range(r)] + [0] * (n - r)
            irr = mat_vec(U, coeffs)
        else:
            irr = [rand_frac(rng, -2, 2, 2) for _ in range(n)]
        d = rng.choice(QUAD_FIELDS)
        vectors.append([QuadExt(rand_frac(rng, -3, 3, 3), x, d) for x in irr])
    f = torus.TorusEndo(A, b)

    def call():
        eps = torus.eventually_periodic_set(f)
        return eps, [eps.contains(v) for v in vectors]

    return Op(
        "eventually_periodic_set",
        call,
        lambda out: certify_eps(A, b, vectors, out),
        lambda out: sha((out[0].base_point.coords, out[1])),
    )


def certify_cover(A, b, L_diag, q, report) -> int:
    n = len(A)
    expect(report.index == prod(L_diag), "cover index")
    expect(len(report.fiber) == report.index == len(set(report.fiber)), "fiber size")
    base = replay(lambda x: affine_step(A, b, x, (1,) * n),
                  tuple(Fraction(x) % 1 for x in q))
    got = report.base_classification
    expect((got.preperiod, got.period) == base[:2], "base classification")
    for pt, cls in zip(report.fiber, report.fiber_classifications):
        expect(tuple(Fraction(x) % 1 for x in pt) == tuple(Fraction(x) % 1 for x in q),
               "fiber point does not lie over the base point")
        up = replay(lambda x: affine_step(A, b, x, L_diag), tuple(pt))
        expect((cls.preperiod, cls.period) == up[:2], f"fiber classification at {pt}")
    return 1 + report.index


def cover_op(ctx, rng) -> Op:
    fx = ctx["cover"]
    rows = [list(r) for r in fx.lattice_rows]
    L_diag = tuple(rows[i][i] for i in range(len(rows)))
    if any(rows[i][j] for i in range(len(rows)) for j in range(len(rows)) if i != j):
        raise ValueError("the replay of fiber orbits needs a diagonal cover lattice")
    A = [list(r) for r in fx.endo.linear]
    b = fx.endo.translation_fractions()
    q = exact_order_point(rng, rng.randint(2, 9), fx.endo.dim)
    return Op(
        "cover_transfer",
        lambda: torus.cover_transfer(rows, fx.endo, fx.endo, q),
        lambda report: certify_cover(A, b, L_diag, q, report),
        lambda report: sha((report.fiber, tuple((c.preperiod, c.period)
                            for c in (report.base_classification, *report.fiber_classifications)))),
    )


def certify_infra(group, endo, x, cls) -> int:
    ones = (1,) * group.dim

    def canonical(p):
        return min(affine_step(rep.F, rep.t, p, ones) for rep in group.reps)

    def step(p):
        return canonical(affine(endo.linear, endo.translation, p))

    pre, per, path = replay(step, canonical(tuple(Fraction(v) for v in x)))
    expect((cls.preperiod, cls.period) == (pre, per), "flat-manifold classification")
    expect(cls.relative_order_trace == tuple(point_order(p) for p in path), "relative orders")
    return 1


def infra_op(group, endo, rng) -> Op:
    x = exact_order_point(rng, rng.randint(2, 15), group.dim)
    return Op(
        "classify_infra",
        lambda: infraflat.classify_infra(group, endo, x),
        lambda cls: certify_infra(group, endo, x, cls),
        lambda cls: sha((cls.preperiod, cls.period, cls.relative_order_trace)),
    )


def batch(kind: str, ops: list[Op]) -> Op:
    """Several calls of one kind as one closed-loop op, so that no op is
    so short that timer and scheduler noise dominate its latency."""
    return Op(
        kind,
        lambda: [op.call() for op in ops],
        lambda outs: sum(op.certify(out) for op, out in zip(ops, outs)),
        lambda outs: sha([op.fingerprint(out) for op, out in zip(ops, outs)]),
    )


def structure_deck(ctx, rng: random.Random, rounds: int) -> list[Op]:
    klein = ctx["klein"]

    def period():
        A, b = seeded_torus_map(rng)
        return period_op(A, b, rng.randint(1, 4))

    kinds = (
        # (kind, calls per op, ops per round, one seeded call).  The equalizer
        # op is the slowest by far and one op in eight, so the latency tail
        # falls inside its class, not on scheduler hiccups.
        ("equalizer_membership", 96, 1, lambda: equalizer_op(rng)),
        ("eventually_periodic_set", 4, 1, lambda: eps_op(rng)),
        ("has_periodic_point", 8, 1, lambda: search_op(*seeded_torus_map(rng))),
        ("periodic_point_of_period", 32, 1, period),
        ("cover_transfer", 12, 1, lambda: cover_op(ctx, rng)),
        ("classify_infra:fitting", 16, 1, lambda: infra_op(klein.group, klein.endo, rng)),
        ("classify_infra:power_cover", 10, 1, lambda: infra_op(klein.group, ctx["singular"], rng)),
    )
    deck = []
    for _ in range(rounds):
        batch_ops = [
            batch(kind, [one() for _ in range(size)])
            for kind, size, per_round, one in kinds
            for _ in range(per_round)
        ]
        rng.shuffle(batch_ops)
        deck += batch_ops
    return deck


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Any]
    deck: Callable[..., list]
    rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus-walk", torus_setup, torus_deck, 2),
        Workload("grid-scan", grid_setup, grid_deck, 4),
        Workload("nil", nil_setup, nil_deck, 3),
        Workload("structure", structure_setup, structure_deck, 6),
    )
}
