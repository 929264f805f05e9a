"""Exhaustive denominator sweeps and density checks with JSON reports.

Reports are deterministic: rows are ordered by denominator and then
lexicographically by point, workers only split whole denominators, and the
merge is independent of the worker count, so output files are byte-identical
across runs and --workers settings.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial
from itertools import chain, compress, product, repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import floordiv, itemgetter

from .errors import UnsupportedInputError
from .exactmath import prime_support
from .fixtures import NilFixture, TorusFixture
from .nilclass2 import NilCosets, grid_order
from .orbits import Classification, sweep_orbits
from .torus import TorusGrid

SCHEMA_VERSION = 1


def _point_strs(m: int) -> list[str]:
    """str(Fraction(a, m)) for every numerator a mod m, without the Fractions."""
    return ["0"] + [f"{a // (g := gcd(a, m))}/{m // g}" for a in range(1, m)]


def _check_bound(command: str, bound: int):
    if bound < 1:
        raise UnsupportedInputError(f"{command} needs a bound of at least 1, got {bound}")


def _describe(fixture, endo_name, command: str):
    """(report name, map description, |determinant|, expectations, map name)
    of a scan or density run; the map name is None on the torus."""
    if isinstance(fixture, TorusFixture):
        endo = fixture.endo
        if not endo.is_linear:
            raise UnsupportedInputError(f"{command} needs a linear fixture (zero translation)")
        map_desc = {"A": [list(r) for r in endo.linear], "b": [str(x) for x in endo.translation]}
        return fixture.name, map_desc, abs(endo.determinant), fixture.expect, None
    if isinstance(fixture, NilFixture):
        endo_name = fixture.pick_endo(endo_name)
        endo = fixture.endos[endo_name]
        map_desc = {"matrix": [[str(x) for x in row] for row in endo.matrix]}
        # |det| is the index of the image lattice, so it is an integer
        return f"{fixture.name}:{endo_name}", map_desc, int(abs(endo.determinant)), {}, endo_name
    raise UnsupportedInputError(
        f"{command} supports linear torus and nil fixtures, not {fixture.kind!r}"
    )


def _sweep(fixture, endo_name, m: int, exact_order: bool):
    """(names, indices, states, orders, memo, succ, order) of the grid a/m.

    A point is named by its index, a packed in base m: names[i] is its
    report string.  indices lists every point, or with exact_order those
    with gcd(m, a) = 1, whose relative orders `orders` yields.  states[j]
    is the state of point indices[j]: the index on the torus, the coset of
    exp(a/m) on nil.  memo[x], succ[x] and order(x) are a swept state's
    (preperiod, period), successor and relative order.
    """
    torus = isinstance(fixture, TorusFixture)
    n = fixture.endo.dim if torus else fixture.group.dim
    names = list(map(",".join, product(_point_strs(m), repeat=n)))
    # coordinate j of every index: each numerator m**(n-1-j) times, m**j times over
    columns = [list(chain.from_iterable(map(repeat, range(m), repeat(m ** (n - 1 - j))))) * m ** j
               for j in range(n)]
    gcds = list(map(gcd, repeat(m), *columns))
    indices = range(m ** n)
    if exact_order:
        indices = list(compress(indices, map((1).__eq__, gcds)))
    if torus:
        grid = TorusGrid(fixture.endo, m)
        states, orders, sweep = indices, repeat(m), grid.sweep
        order = list(map(floordiv, repeat(m), gcds)).__getitem__
    else:
        grid = NilCosets(fixture.endos[endo_name], fixture.lattice, m)
        nums = list(product(range(m), repeat=n))
        states = [grid.encode(nums[i]) for i in indices]
        # the order of the point itself, as its coset representative's can differ
        orders = (grid_order(fixture.lattice, m, nums[i]) for i in indices)
        sweep, order = partial(sweep_orbits, grid.step), grid.order
    memo, succ = sweep(states)
    return names, indices, states, orders, memo, succ, order


def _denominator_table(payload):
    """Worker: classify every grid point a/m with gcd(m, a) = 1.

    The payload is (fixture, map name, m), so the grid is built here and the
    payload pickles for --workers.  Returns (m, rows, order_bad,
    support_bad): the first periodic point whose successor has another
    relative order, or another prime support of it.
    """
    fixture, endo_name, m = payload
    names, indices, states, orders, memo, succ, order = _sweep(
        fixture, endo_name, m, exact_order=True
    )
    rows = []
    order_bad = None
    support_bad = None
    for i, state, relative_order in zip(indices, states, orders):
        pre, per = memo[state]
        rows.append(
            {
                "point": names[i],
                "verdict": "periodic" if pre == 0 else "eventually_periodic",
                "preperiod": pre,
                "period": per,
                "relative_order": relative_order,
            }
        )
        if pre == 0:
            o1 = order(state)
            o2 = order(succ[state])
            # equal orders have equal prime support
            if o1 != o2:
                if order_bad is None:
                    order_bad = names[i]
                if support_bad is None and prime_support(o1) != prime_support(o2):
                    support_bad = names[i]
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
    name, map_desc, D, expect, endo_name = _describe(fixture, endo_name, "scan")
    payloads = [(fixture, endo_name, m) for m in range(1, max_denominator + 1)]
    results = _run_jobs(_denominator_table, payloads, workers)

    tables = {str(m): rows for m, rows, _, _ in results}
    all_rows = list(chain.from_iterable(tables.values()))
    # the first counterexample of each kind, by denominator
    _, _, order_bads, support_bads = zip(*results)
    order_bad = next(filter(None, order_bads), None)
    support_bad = next(filter(None, support_bads), None)

    assertions = {
        "every_point_classified": _assertion(True, len(all_rows)),
        "constant_prime_support_on_cycles": _assertion(
            support_bad is None, len(all_rows), support_bad
        ),
    }
    if isinstance(fixture, TorusFixture):
        assertions["constant_order_on_cycles"] = _assertion(
            order_bad is None, len(all_rows), order_bad
        )
    if D != 0:
        coprime = [row for row in all_rows if gcd(D, row["relative_order"]) == 1]
        bad = next((row for row in coprime if row["verdict"] != "periodic"), None)
        assertions["coprime_order_implies_periodic"] = _assertion(bad is None, len(coprime), bad)
    if expect.get("periodic_iff_order_coprime_to_det"):
        bad = next((row for row in all_rows if (row["verdict"] == "periodic")
                    != (gcd(D, row["relative_order"]) == 1)), None)
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
            # TorusEndo stores a rational QuadExt as a Fraction: b is irrational
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": "density",
                "fixture": fixture.name,
                "branch": "no_periodic_points",
                "cells": {},
                "ok": True,
            }
    name, _, D, _, endo_name = _describe(fixture, endo_name, "density")
    cells = {}
    for m in range(1, m_max + 1):
        if D != 0 and gcd(D, m) != 1:
            cells[str(m)] = {"admissible": False}
            continue
        if D != 0 and isinstance(fixture, TorusFixture):
            # The paper's sufficient condition, on the whole grid at once: a
            # linear torus map with gcd(det A, m) = 1 makes x -> A x mod m a
            # bijection of the finite set (Z/m)^n, so every point of the grid
            # is periodic and no cell needs a sweep.  Nil grids are swept: a
            # cell point a/m can have relative order 2m there.
            size, missing = m ** fixture.endo.dim, []
        else:
            names, indices, states, _, memo, _, _ = _sweep(
                fixture, endo_name, m, exact_order=False
            )
            size = len(indices)
            missing = [names[i] for i, state in zip(indices, states) if memo[state][0] != 0]
        cells[str(m)] = {
            "admissible": True,
            "cells": size,
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
        items = _render_table(value, inner) or [_render(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    # subclasses of str and int (bool has none, so it never gets here)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    # floats render as json.dumps renders them; anything else raises TypeError
    return json.dumps(value)


def _render_table(rows, indent: str):
    """The items of a list of plain dicts with one key set (two or more),
    each key holding only exact ints or only exact strs, rendered column by
    column through one template: strs through the encoder, ints into %s as
    they are.  None for any other list."""
    first = rows[0]
    if set(map(type, rows)) != {dict} or len(first) < 2 or len(set(map(len, rows))) != 1:
        return None
    keys = tuple(sorted(first))
    try:  # rows of one length that all hold first's keys hold no other key
        values = list(map(itemgetter(*keys), rows))
    except KeyError:
        return None
    columns = []
    for column in zip(*values):
        kinds = set(map(type, column))
        if kinds == {int}:
            columns.append(column)
        elif kinds == {str}:
            columns.append(map(encode_basestring_ascii, column))
        else:
            return None
    return list(map(_dict_template(keys, indent).__mod__, zip(*columns)))


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
