"""Exhaustive denominator sweeps and density checks with JSON reports.

Reports are deterministic: rows are ordered by denominator and then
lexicographically by point, workers only split whole denominators, and the
merge is independent of the worker count, so output files are byte-identical
across runs and --workers settings.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd

from .errors import UnsupportedInputError
from .exactmath import prime_support
from .fixtures import NilFixture, TorusFixture
from .nilclass2 import NilCosets
from .orbits import Classification, sweep_orbits
from .torus import TorusGrid, TranslationVerdict, translation_periodicity

SCHEMA_VERSION = 1


def _exact_order_states(m: int, n: int):
    """Numerator tuples a with gcd(m, a) = 1: on the torus, the points of
    relative order exactly m."""
    for tup in itertools.product(range(m), repeat=n):
        if gcd(m, *tup) == 1:
            yield tup


def _point_strs(m: int) -> list[str]:
    """str(Fraction(a, m)) for every numerator a mod m."""
    return [str(Fraction(a, m)) for a in range(m)]


class _TorusGrid(TorusGrid):
    """Torus maps on the (1/m)-grid: states are numerator tuples mod m."""

    checks_constant_order = True

    def __init__(self, fixture: TorusFixture, endo_name, m: int):
        super().__init__(fixture.endo, m)
        self.dim = fixture.endo.dim

    @staticmethod
    def describe(fixture: TorusFixture, endo_name):
        """(report name, map description, |determinant|, expectations)."""
        endo = fixture.endo
        map_desc = {"A": [list(r) for r in endo.linear], "b": [str(x) for x in endo.translation]}
        return fixture.name, map_desc, abs(endo.determinant), fixture.expect

    def encode(self, nums):
        return nums

    point_order = TorusGrid.order


class _NilCosets(NilCosets):
    """Nil maps on cosets of the points a/m in exponential coordinates.

    The lattice-basis coordinates of a/m are P a / (d m) for the integer
    inverse basis P / d, so the grid fixes dh = d m and dc = 2 dh^2.
    """

    checks_constant_order = False

    def __init__(self, fixture: NilFixture, endo_name: str, m: int):
        N = fixture.lattice
        rows, d = N.integral_inverse
        dh = d * m
        super().__init__(fixture.endos[endo_name], N, dh, 2 * dh * dh)
        k = len(N.horizontal_rows)
        self._rows = rows[:k], [tuple(2 * dh * x for x in row) for row in rows[k:]]
        self.dim = fixture.group.dim

    @staticmethod
    def describe(fixture: NilFixture, endo_name: str):
        endo = fixture.endos[endo_name]
        map_desc = {"matrix": [[str(x) for x in row] for row in endo.matrix]}
        # |det| is the index of the image lattice, so it is an integer
        return f"{fixture.name}:{endo_name}", map_desc, int(abs(endo.determinant)), {}

    def _scaled(self, nums):
        """(dh*y_h, dc*y_c) for the grid point a/m."""
        return tuple([sum(map(operator.mul, row, nums)) for row in rows] for rows in self._rows)

    def encode(self, nums):
        return self.canonical(*self._scaled(nums))

    def point_order(self, nums) -> int:
        # the grid point itself: its coset representative can have another order
        return self.order_of(*self._scaled(nums))


def _check_bound(command: str, bound: int):
    if bound < 1:
        raise UnsupportedInputError(f"{command} needs a bound of at least 1, got {bound}")


def _family(fixture, endo_name, command: str):
    """The adapter class and map name for a scan or density run."""
    if isinstance(fixture, TorusFixture):
        if not fixture.endo.is_linear:
            raise UnsupportedInputError(f"{command} needs a linear fixture (zero translation)")
        return _TorusGrid, None
    if isinstance(fixture, NilFixture):
        return _NilCosets, fixture.pick_endo(endo_name)
    raise UnsupportedInputError(
        f"{command} supports linear torus and nil fixtures, not {fixture.kind!r}"
    )


def _denominator_table(payload):
    """Worker: classify every grid point a/m with gcd(m, a) = 1.

    The payload names the adapter class, so the step closure is built here
    and the payload pickles for --workers.  Returns (m, rows, order_bad,
    support_bad): the first periodic point whose successor has another
    relative order, or another prime support of it.
    """
    family, fixture, endo_name, m = payload
    grid = family(fixture, endo_name, m)
    points = [(nums, grid.encode(nums)) for nums in _exact_order_states(m, grid.dim)]
    memo = sweep_orbits(grid.step, [state for _, state in points])
    coord = _point_strs(m)
    rows = []
    order_bad = None
    support_bad = None
    for nums, state in points:
        pre, per = memo[state]
        point = ",".join([coord[a] for a in nums])
        rows.append(
            {
                "point": point,
                "verdict": "periodic" if pre == 0 else "eventually_periodic",
                "preperiod": pre,
                "period": per,
                "relative_order": grid.point_order(nums),
            }
        )
        if pre == 0:
            o1 = grid.order(state)
            o2 = grid.order(grid.step(state))
            # equal orders have equal prime support
            if o1 != o2:
                if order_bad is None:
                    order_bad = point
                if support_bad is None and prime_support(o1) != prime_support(o2):
                    support_bad = point
    return m, rows, order_bad, support_bad


def Pool(processes: int):
    """A multiprocessing pool.  The module is imported on first use, since
    single-worker runs never need it."""
    import multiprocessing

    return multiprocessing.Pool(processes=processes)


def _run_jobs(worker, payloads, workers: int):
    if workers <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with Pool(processes=min(workers, len(payloads))) as pool:
        return pool.map(worker, payloads, chunksize=1)


def _assertion(passed, checked, counterexample=None):
    return {
        "passed": bool(passed),
        "checked": checked,
        "counterexample": counterexample,
    }


def scan_report(fixture, max_denominator: int, workers: int = 1, endo_name=None) -> dict:
    """Classify every point with relative order up to the bound and check the
    structural guarantees (termination, coprime-order sufficiency, order
    invariants on cycles, fixture expectations)."""
    _check_bound("scan", max_denominator)
    if workers < 1:
        raise UnsupportedInputError(f"scan needs at least 1 worker, got {workers}")
    family, endo_name = _family(fixture, endo_name, "scan")
    name, map_desc, D, expect = family.describe(fixture, endo_name)
    payloads = [(family, fixture, endo_name, m) for m in range(1, max_denominator + 1)]
    results = _run_jobs(_denominator_table, payloads, workers)

    tables = {}
    all_rows = []
    order_bad = None
    support_bad = None
    for m, rows, table_order_bad, table_support_bad in results:
        tables[str(m)] = rows
        all_rows.extend(rows)
        order_bad = order_bad or table_order_bad
        support_bad = support_bad or table_support_bad

    assertions = {
        "every_point_classified": _assertion(True, len(all_rows)),
        "constant_prime_support_on_cycles": _assertion(
            support_bad is None, len(all_rows), support_bad
        ),
    }
    if family.checks_constant_order:
        assertions["constant_order_on_cycles"] = _assertion(
            order_bad is None, len(all_rows), order_bad
        )
    if D != 0:
        bad = None
        checked = 0
        for row in all_rows:
            if gcd(D, row["relative_order"]) == 1:
                checked += 1
                if row["verdict"] != "periodic" and bad is None:
                    bad = row
        assertions["coprime_order_implies_periodic"] = _assertion(bad is None, checked, bad)
    if expect.get("periodic_iff_order_coprime_to_det"):
        bad = None
        for row in all_rows:
            expected = gcd(D, row["relative_order"]) == 1
            if (row["verdict"] == "periodic") != expected:
                bad = row
                break
        assertions["periodic_iff_order_coprime_to_det"] = _assertion(
            bad is None, len(all_rows), bad
        )
    if expect.get("periodic_point_every_order"):
        found = {row["relative_order"] for row in all_rows if row["verdict"] == "periodic"}
        missing = [s for s in range(1, max_denominator + 1) if s not in found]
        assertions["periodic_point_every_order"] = _assertion(
            not missing, max_denominator, {"missing_orders": missing} if missing else None
        )

    periodic = sum(1 for r in all_rows if r["verdict"] == "periodic")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "scan",
        "fixture": name,
        "map": map_desc,
        "max_denominator": max_denominator,
        "tables": tables,
        "assertions": assertions,
        "ok": all(a["passed"] for a in assertions.values()),
        "summary": {
            "points": len(all_rows),
            "periodic": periodic,
            "eventually_periodic_not_periodic": len(all_rows) - periodic,
        },
    }


def density_report(fixture, m_max: int, endo_name=None) -> dict:
    """Check that every 1/m-cell contains a verified periodic point, for each
    admissible m (coprime to the determinant)."""
    _check_bound("density", m_max)
    if isinstance(fixture, TorusFixture):
        endo = fixture.endo
        if endo.is_pure_translation and endo.has_irrational_translation:
            verdict = translation_periodicity(endo.translation)
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "density",
                "fixture": fixture.name,
                "branch": "no_periodic_points"
                if verdict is TranslationVerdict.EMPTY
                else "all_points_periodic",
                "cells": {},
                "ok": True,
            }
    family, endo_name = _family(fixture, endo_name, "density")
    name, _, D, _ = family.describe(fixture, endo_name)
    cells = {}
    for m in range(1, m_max + 1):
        if D != 0 and gcd(D, m) != 1:
            cells[str(m)] = {"admissible": False}
            continue
        grid = family(fixture, endo_name, m)
        starts = {nums: grid.encode(nums) for nums in itertools.product(range(m), repeat=grid.dim)}
        memo = sweep_orbits(grid.step, starts.values())
        coord = _point_strs(m)
        missing = [
            ",".join([coord[a] for a in nums])
            for nums, state in starts.items()
            if memo[state][0] != 0
        ]
        cells[str(m)] = {
            "admissible": True,
            "cells": m**grid.dim,
            "all_cells_hit": not missing,
            "missing": missing,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "density",
        "fixture": name,
        "branch": "periodic_grid",
        "cells": cells,
        "ok": all(cell.get("all_cells_hit", True) for cell in cells.values()),
    }


def render_report(report: dict) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=2) + "\\n".

    Byte for byte the same text for any tree of dicts with str keys,
    lists, tuples, str, int, bool, None and float, without the pure-Python
    encoder that json.dumps falls back to whenever it indents.
    """
    return _render(report, "") + "\n"


def _render(value, indent: str) -> str:
    fmt = _SCALARS.get(type(value))
    if fmt is not None:
        return fmt(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = tuple(sorted(value))
        # scan rows and density cells hold scalars: format those without a call
        slots = [
            fmt(v) if (fmt := _SCALARS.get(type(v))) else _render(v, inner)
            for v in map(value.__getitem__, keys)
        ]
        return _dict_template(keys, indent) % tuple(slots)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = ",\n" + inner
        return "[\n" + inner + sep.join([_render(v, inner) for v in value]) + "\n" + indent + "]"
    # subclasses of str and int (bool has none, so it never gets here)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    # floats render as json.dumps renders them; anything else raises TypeError
    return json.dumps(value)


# exact types only, so that True is not formatted as an int
_SCALARS = {
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    int: int.__repr__,
}


@lru_cache(maxsize=256)
def _dict_template(keys: tuple, indent: str) -> str:
    """'{"key": %s, ...}' laid out at this indent, one slot per sorted key.

    A non-str key raises TypeError here.
    """
    inner = indent + "  "
    slots = [inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    return "{\n" + ",\n".join(slots) + "\n" + indent + "}"


def classification_row(cls: Classification) -> dict:
    return {
        "verdict": "periodic" if cls.periodic else "eventually_periodic",
        "preperiod": cls.preperiod,
        "period": cls.period,
        "relative_order_trace": list(cls.relative_order_trace),
    }
