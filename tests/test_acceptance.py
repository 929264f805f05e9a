"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with -s or
in the captured output of a failing run).
"""

import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd

from nilorbit.exactmath import QuadExt, denominator_lcm, mat_sub, mat_vec, prime_support
from nilorbit.fixtures import fixtures_dir, shipped
from nilorbit.infraflat import classify_infra, fitting_lift, holonomy_power_cover
from nilorbit.nilclass2 import (
    MalcevElement,
    basis_root_subgroup,
    relative_order as nil_order,
    subgroup_index,
)
from nilorbit.orbits import sweep_orbits
from nilorbit.scan import density_report, scan_report
from nilorbit.torus import (
    TorusEndo,
    TorusGrid,
    classify,
    cover_transfer,
    equalizer_membership,
    strictly_preperiodic_witness,
)
from oracles import random_invertible_matrix, random_unimodular_matrix

FIXTURES = fixtures_dir()


def report(num: int, ok: bool, detail: str = ""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def exact_order_rows(f: TorusEndo, bound: int):
    """(order m, numerators, preperiod, period) for every point of relative
    order exactly m <= bound under the linear map f, plus cycle
    order-constancy over the full grids."""
    import itertools

    n = f.dim
    rows = []
    cycle_order_ok = True
    for m in range(1, bound + 1):
        grid = TorusGrid(f, m)
        memo = sweep_orbits(grid.step, itertools.product(range(m), repeat=n))
        for tup in itertools.product(range(m), repeat=n):
            if gcd(m, *tup) != 1:
                continue
            pre, per = memo[tup]
            rows.append((m, tup, pre, per))
        for state, (pre, per) in memo.items():
            if pre == 0 and grid.order(state) != grid.order(grid.step(state)):
                cycle_order_ok = False
    return rows, cycle_order_ok


def test_criterion_01_a1_reproduction():
    rep = scan_report(shipped("a1"), 15)
    check = rep["assertions"]["periodic_iff_order_coprime_to_det"]
    mismatch = []
    for rows in rep["tables"].values():
        for row in rows:
            odd = row["relative_order"] % 2 == 1
            if (row["verdict"] == "periodic") != odd:
                mismatch.append(row)
    ok = check["passed"] and not mismatch and rep["ok"]
    report(1, ok, f"{rep['summary']['points']} points, periodic iff odd denominator")


def test_criterion_02_a3_reproduction():
    rep = scan_report(shipped("a3"), 15)
    mismatch = []
    for rows in rep["tables"].values():
        for row in rows:
            odd = row["relative_order"] % 2 == 1
            if (row["verdict"] == "periodic") != odd:
                mismatch.append(row)
    ok = rep["ok"] and not mismatch
    report(2, ok, f"{rep['summary']['points']} points, periodic iff odd denominator")


def test_criterion_03_a2_a4_orders():
    ok = True
    details = []
    for name in ("a2", "a4"):
        rep = scan_report(shipped(name), 16)
        found = {
            row["relative_order"]
            for rows in rep["tables"].values()
            for row in rows
            if row["verdict"] == "periodic"
        }
        missing = [s for s in range(1, 17) if s not in found]
        ok = ok and rep["ok"] and not missing
        details.append(f"{name}: orders 1..16 all realized")
    # concrete even-order witness for a2: (1/2, 1/2) is a fixed point, so the
    # periodic set strictly contains the odd-denominator points
    a2 = shipped("a2")
    cls, _ = classify(a2.endo, [F(1, 2), F(1, 2)])
    witness_ok = cls.periodic and cls.period == 1
    ok = ok and witness_ok
    report(3, ok, "; ".join(details) + "; even-order witness (1/2,1/2) periodic")


def _sweep_matrices():
    rng = random.Random(20250810)
    out = []
    for i in range(100):
        n = 1 + i % 3
        A = random_invertible_matrix(rng, n)
        out.append(A)
    return out


MATRIX_SWEEP_CACHE = {}


def _matrix_sweep_rows():
    if "rows" not in MATRIX_SWEEP_CACHE:
        data = []
        cycles_ok = True
        for A in _sweep_matrices():
            f = TorusEndo(A)
            rows, cyc = exact_order_rows(f, 10)
            cycles_ok = cycles_ok and cyc
            data.append((f, rows))
        MATRIX_SWEEP_CACHE["rows"] = (data, cycles_ok)
    return MATRIX_SWEEP_CACHE["rows"]


def test_criterion_04_coprime_order_sweep():
    data, _ = _matrix_sweep_rows()
    failures = 0
    checked = 0
    for f, rows in data:
        D = abs(f.determinant)
        for m, tup, pre, per in rows:
            if gcd(D, m) == 1:
                checked += 1
                if pre != 0:
                    failures += 1
    report(4, failures == 0, f"{checked} coprime-order points over 100 matrices, {failures} failures")


def test_criterion_05_every_point_classifies():
    data, _ = _matrix_sweep_rows()
    total = sum(len(rows) for _, rows in data)
    # every grid point received a finite (preperiod, period) pair
    complete = all(per >= 1 and pre >= 0 for _, rows in data for _, _, pre, per in rows)
    report(5, complete and total > 0, f"{total} points classified over 100 matrices")


def test_criterion_06_cycle_order_invariants():
    data, cycles_ok = _matrix_sweep_rows()
    nil_ok = True
    for endo_name in ("automorphism", "grading_2"):
        rep = scan_report(shipped("heisenberg"), 6, endo_name=endo_name)
        nil_ok = nil_ok and rep["assertions"]["constant_prime_support_on_cycles"]["passed"]
    report(
        6,
        cycles_ok and nil_ok,
        "relative order constant on torus cycles; prime support constant on nil cycles",
    )


def test_criterion_07_root_subgroup_indices():
    fx = shipped("heisenberg")
    N = fx.lattice
    ok = True
    details = []
    for s in (2, 3, 4, 6):
        idx = subgroup_index(N, basis_root_subgroup(N, s))
        ok = ok and prime_support(idx) <= prime_support(s)
        if s == 2:
            ok = ok and idx == 16
        details.append(f"s={s}: index {idx}")
    report(7, ok, "; ".join(details))


def test_criterion_08_relative_order_oracle():
    fx = shipped("heisenberg")
    N = fx.lattice
    g = MalcevElement(fx.group, [F(1, 2), F(1, 2), F(0)])
    ok = nil_order(N, g) == 4
    rng = random.Random(77)
    checked = 0
    for _ in range(500):
        coords = [F(rng.randint(-11, 11), rng.choice([1, 2, 3, 6])) for _ in range(3)]
        h = MalcevElement(fx.group, coords)
        s0 = denominator_lcm(N.coords_in_basis(h.coords))
        if s0 > 6:
            continue
        checked += 1
        s = nil_order(N, h)  # raises if the certified bound is exceeded
        ok = ok and s <= (2 * s0) ** 3
    report(8, ok and checked >= 400, f"order((1/2,1/2,0)) = 4; bound held for {checked} samples")


def test_criterion_09_equalizer_instantiation():
    rng = random.Random(99)
    failures = 0
    checked = 0
    for _ in range(50):
        n = rng.randint(1, 4)
        phi = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        psi = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        diff = mat_sub(phi, psi)
        from nilorbit.exactmath import rational_kernel

        H = rational_kernel(diff)
        for _ in range(200):
            if H.dim and rng.random() < 0.4:
                # construct a member: rational + sqrt(2) * (kernel combination)
                coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(H.dim)]
                irr = [F(0)] * n
                for c, row in zip(coeffs, H.basis):
                    irr = [a + c * b for a, b in zip(irr, row)]
            else:
                irr = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
            rat = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            v = [QuadExt(a, b, 2) for a, b in zip(rat, irr)]
            member = equalizer_membership(phi, psi, v)
            image = mat_vec(diff, v)
            rational = all((not isinstance(x, QuadExt)) or x.is_rational for x in image)
            checked += 1
            if member != rational:
                failures += 1
    report(9, failures == 0, f"{checked} vectors over 50 matrix pairs, {failures} failures")


def test_criterion_10_covering_transfer():
    # 1-dimensional doubling with the image sublattice: integer points
    # upstairs are eventually periodic but only the origin is periodic
    f1 = TorusEndo([[2]])
    rep = cover_transfer([[2]], f1, f1, [F(0)])
    verdicts = sorted((c.preperiod, c.period) for c in rep.fiber_classifications)
    ok = verdicts == [(0, 1), (1, 1)] and rep.per_projection_matches

    fx = shipped("expand_cover")
    f2 = fx.endo
    L = [list(r) for r in fx.lattice_rows]
    checked = 0
    for m in range(1, 9):
        for a in range(m):
            for b in range(m):
                if gcd(m, a, b) != 1:
                    continue
                # cover_transfer raises if any covering statement fails
                r = cover_transfer(L, f2, f2, [F(a, m), F(b, m)])
                ok = ok and r.per_projection_matches
                checked += 1
    report(10, ok, f"doubling witness plus {checked} exhaustive fiber transfers")


def test_criterion_11_klein_bottle():
    fx = shipped("klein_bottle")  # validation happens at load time
    group, endo = fx.group, fx.endo
    lift = fitting_lift(group, endo)
    cover = holonomy_power_cover(group)
    ok = lift.linear == ((3, 0), (0, 2)) and cover.index == 2
    checked = 0
    for m in range(1, 11):
        for a in range(m):
            for b in range(m):
                if gcd(m, a, b) != 1:
                    continue
                x = [F(a, m), F(b, m)]
                c1 = classify_infra(group, endo, x, cover="fitting")
                c2 = classify_infra(group, endo, x, cover="gamma_power")
                if (c1.preperiod, c1.period) != (c2.preperiod, c2.period):
                    ok = False
                # invertible linear part: the whole fiber of a periodic point
                # is periodic (checked inside classify_infra); verify the
                # fiber verdicts explicitly as well
                fiber = {tuple(F(v) % 1 for v in hol.apply(x)) for hol in group.reps}
                ups = [classify(lift, p)[0].periodic for p in fiber]
                if not (all(ups) == c1.periodic and any(ups) == c1.periodic):
                    ok = False
                checked += 1
    report(11, ok, f"{checked} points, both covers agree and lift equalities hold")


def test_criterion_12_automorphism_characterization():
    rng = random.Random(2026)
    ok = True
    for i in range(20):
        n = 2 + i % 2
        A = random_unimodular_matrix(rng, n)
        f = TorusEndo(A)
        assert abs(f.determinant) == 1
        rows, _ = exact_order_rows(f, 10)
        if any(pre != 0 for _, _, pre, _ in rows):
            ok = False
    witnesses = 0
    tried = 0
    while witnesses < 20 and tried < 400:
        tried += 1
        n = 2 + tried % 2
        A = random_invertible_matrix(rng, n)
        f = TorusEndo(A)
        if abs(f.determinant) <= 1:
            continue
        w = strictly_preperiodic_witness(f)  # verified non-periodic internally
        if w is None:
            ok = False
            break
        cls, _ = classify(f, w.coords)
        if cls.periodic:
            ok = False
            break
        witnesses += 1
    ok = ok and witnesses == 20
    report(12, ok, "unimodular maps all-periodic; 20 witnesses for |det| > 1")


def test_criterion_13_density():
    rep = density_report(shipped("a1"), 7)
    ok = all(
        rep["cells"][str(m)]["all_cells_hit"] for m in (3, 5, 7)
    )
    nil_rep = density_report(shipped("heisenberg"), 7, endo_name="automorphism")
    ok = ok and all(nil_rep["cells"][str(m)]["all_cells_hit"] for m in (3, 5, 7))
    report(13, ok, "1/m-cells all hit for m in {3,5,7} on both fixtures")


def test_criterion_14_deterministic_reports(tmp_path):
    ok = True
    cases = {
        "a1": ["--fixture", str(FIXTURES / "a1.json"), "--max-den", "6"],
        "heisenberg": ["--fixture", str(FIXTURES / "heisenberg.json"),
                       "--endo", "grading_2", "--max-den", "3"],
    }
    for name, args in cases.items():
        outputs = []
        for workers in (1, 2, 8):
            target = tmp_path / f"scan_{name}_w{workers}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "nilorbit", "scan", *args,
                    "--workers", str(workers),
                    "--out", str(target),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(target.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
    report(14, ok, "torus and nil scan output byte-identical for 1, 2, 8 workers")
