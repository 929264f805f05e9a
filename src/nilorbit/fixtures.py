"""Fixture files: JSON descriptions of maps, groups and lattices.

Schemas (fractions are "p/q" strings; quadratic scalars are
{"a": "p/q", "b": "p/q", "d": int} for a + b*sqrt(d)):

  torus:  {"n": int, "A": [[int]], "b": [scalar], "points": [[frac]]}
  cover:  torus keys plus "L_basis": [[int]]
  nil:    {"dim": m, "bracket": {"i,j": [frac]}, "lattice_basis": [[frac]],
           "endos": {"name": [[frac]]}}   (indices 0-based)
  infra:  {"n": int, "reps": [{"F": [[int]], "t": [frac]}],
           "endo": {"A": [[int]], "b": [frac]}}

"name", "description" and "expect" are optional metadata; the fixture kind is
inferred from the keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import InvalidFixtureError, LatticeError, UnsupportedInputError
from .exactmath import parse_scalar
from .infraflat import BieberbachGroup, InfraEndo, validate_bieberbach, validate_endo
from .nilclass2 import (
    Class2Group,
    LatticeSubgroup,
    MalcevElement,
    NilEndo,
    make_endo,
    subgroup_generated,
)
from .torus import TorusEndo, cover_lattice


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class TorusFixture:
    name: str
    description: str
    endo: TorusEndo
    points: tuple[tuple[Fraction, ...], ...]
    expect: dict = field(default_factory=dict)

    kind = "torus"


@dataclass(frozen=True)
class CoverFixture:
    name: str
    description: str
    endo: TorusEndo
    lattice_rows: tuple[tuple[int, ...], ...]

    kind = "cover"


@dataclass(frozen=True)
class NilFixture:
    name: str
    description: str
    group: Class2Group
    lattice: LatticeSubgroup
    endos: dict[str, NilEndo]

    kind = "nil"

    def pick_endo(self, name=None) -> str:
        """The map called `name`, or the only map when no name is given."""
        names = sorted(self.endos)
        if not names:
            raise UnsupportedInputError("fixture has no maps; add them under \"endos\"")
        if name is None:
            if len(names) == 1:
                return names[0]
            raise UnsupportedInputError(
                f"fixture has several maps {names}; pick one with --endo"
            )
        if name not in self.endos:
            raise UnsupportedInputError(f"no map named {name!r}; available: {names}")
        return name


@dataclass(frozen=True)
class InfraFixture:
    name: str
    description: str
    group: BieberbachGroup
    endo: InfraEndo

    kind = "infra"


def detect_kind(doc: dict) -> str:
    if "bracket" in doc and "dim" in doc:
        return "nil"
    if "reps" in doc:
        return "infra"
    if "L_basis" in doc:
        return "cover"
    if "n" in doc and "A" in doc:
        return "torus"
    raise InvalidFixtureError("cannot infer fixture kind from keys")


def _parse_vector(values):
    return [parse_scalar(v) for v in values]


def _object_field(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise InvalidFixtureError(f"{key!r} must be a JSON object, not {type(value).__name__}")
    return value


def _parse_int(x) -> int:
    """An integer given exactly: 2, "2" and 2.0 load; 2.5 does not."""
    value = Fraction(str(x))
    if value.denominator != 1:
        raise InvalidFixtureError(f"expected an integer, got {x!r}")
    return int(value)


def _parse_int_matrix(rows):
    return [[_parse_int(x) for x in row] for row in rows]


def load_fixture(path):
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidFixtureError(f"cannot read fixture {path}: {exc}") from exc
    return build_fixture(doc, default_name=path.stem)


def build_fixture(doc: dict, default_name: str = "inline"):
    if not isinstance(doc, dict):
        raise InvalidFixtureError("fixture document must be a JSON object")
    kind = doc.get("type") or detect_kind(doc)
    name = doc.get("name", default_name)
    description = doc.get("description", "")
    try:
        if kind == "torus":
            endo = TorusEndo(_parse_int_matrix(doc["A"]), _parse_vector(doc["b"]))
            points = tuple(
                tuple(Fraction(str(x)) for x in pt) for pt in doc.get("points", [])
            )
            return TorusFixture(name, description, endo, points, doc.get("expect", {}))
        if kind == "cover":
            endo = TorusEndo(_parse_int_matrix(doc["A"]), _parse_vector(doc["b"]))
            rows = tuple(map(tuple, _parse_int_matrix(doc["L_basis"])))
            cover_lattice(rows, endo.linear)
            return CoverFixture(name, description, endo, rows)
        if kind == "nil":
            m = _parse_int(doc["dim"])
            tensor = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
            for key, vec in _object_field(doc, "bracket").items():
                i, j = (int(part) for part in key.split(","))
                if not (0 <= i < m and 0 <= j < m):
                    raise InvalidFixtureError(f"bracket key {key!r} is outside 0..{m - 1}")
                value = [Fraction(str(x)) for x in vec]
                tensor[i][j] = value
                tensor[j][i] = [-x for x in value]
            group = Class2Group(tensor)
            gens = [
                MalcevElement(group, [Fraction(str(x)) for x in row])
                for row in doc["lattice_basis"]
            ]
            lattice = subgroup_generated(gens)
            endos = {
                key: make_endo(group, [[Fraction(str(x)) for x in row] for row in mat], lattice)
                for key, mat in _object_field(doc, "endos").items()
            }
            return NilFixture(name, description, group, lattice, endos)
        if kind == "infra":
            reps = [
                (_parse_int_matrix(rep["F"]), [Fraction(str(x)) for x in rep["t"]])
                for rep in doc["reps"]
            ]
            group = validate_bieberbach(_parse_int(doc["n"]), reps)
            endo_doc = doc["endo"]
            endo = validate_endo(
                group,
                _parse_int_matrix(endo_doc["A"]),
                [Fraction(str(x)) for x in endo_doc["b"]],
            )
            return InfraFixture(name, description, group, endo)
    except InvalidFixtureError:
        raise
    except (KeyError, ValueError, TypeError, ZeroDivisionError, LatticeError) as exc:
        raise InvalidFixtureError(f"malformed {kind} fixture: {exc}") from exc
    raise InvalidFixtureError(f"unknown fixture kind {kind!r}")


def list_fixtures():
    """(name, path, kind, description) for every shipped fixture file."""
    out = []
    for path in sorted(fixtures_dir().glob("*.json")):
        doc = json.loads(path.read_text())
        out.append(
            (doc.get("name", path.stem), path, doc.get("type") or detect_kind(doc),
             doc.get("description", ""))
        )
    return out


def shipped(name: str):
    path = fixtures_dir() / f"{name}.json"
    if not path.exists():
        raise InvalidFixtureError(f"no shipped fixture named {name!r}")
    return load_fixture(path)
