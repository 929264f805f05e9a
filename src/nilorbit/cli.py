"""Command line surface: classify points, run sweeps, check density.

Exit codes: 0 ok, 1 assertion failure, 2 bad fixture, 3 unsupported input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    InvalidFixtureError,
    MixedFieldError,
    NilorbitError,
    UnsupportedInputError,
)
from .fixtures import (
    CoverFixture,
    InfraFixture,
    NilFixture,
    TorusFixture,
    list_fixtures,
    load_fixture,
)
from .infraflat import classify_infra
from .nilclass2 import MalcevElement, classify_nil
from .scan import classification_row, density_report, render_report, scan_report
from .torus import classify, cover_transfer

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_BAD_FIXTURE = 2
EXIT_UNSUPPORTED = 3


def _parse_point(text: str):
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UnsupportedInputError(f"cannot parse point {text!r}: {exc}") from exc


def cmd_classify(args) -> int:
    fixture = load_fixture(args.fixture)
    point = _parse_point(args.point)
    expected_dim = (
        fixture.group.dim if isinstance(fixture, (NilFixture, InfraFixture))
        else fixture.endo.dim
    )
    if len(point) != expected_dim:
        raise UnsupportedInputError(
            f"point has {len(point)} coordinates, fixture needs {expected_dim}"
        )
    transcript = []
    if isinstance(fixture, TorusFixture):
        cls, orbit = classify(fixture.endo, point)
        transcript = [str(p) for p in orbit.points]
    elif isinstance(fixture, NilFixture):
        name = fixture.pick_endo(args.endo)
        g = MalcevElement(fixture.group, point)
        cls, orbit = classify_nil(fixture.endos[name], fixture.lattice, g)
        transcript = [str(p) for p in orbit.points]
    elif isinstance(fixture, InfraFixture):
        cls = classify_infra(fixture.group, fixture.endo, point)
    elif isinstance(fixture, CoverFixture):
        report = cover_transfer(
            [list(r) for r in fixture.lattice_rows], fixture.endo, fixture.endo, point
        )
        cls = report.base_classification
        transcript = [
            f"fiber {tuple(map(str, pt))}: {c}"
            for pt, c in zip(report.fiber, report.fiber_classifications)
        ]
    else:  # pragma: no cover
        raise UnsupportedInputError(f"cannot classify on fixture kind {fixture.kind!r}")

    if args.json:
        blob = classification_row(cls)
        blob["orbit"] = transcript
        print(json.dumps(blob, sort_keys=True))
    else:
        print(cls.verdict)
        if isinstance(fixture, CoverFixture):
            for line in transcript:
                print(f"  {line}")
        else:
            for i, line in enumerate(transcript):
                marker = "tail" if i < cls.preperiod else "cycle"
                print(f"  step {i} [{marker}] {line}")
    return EXIT_OK


def _write_report(report: dict, out: str | None) -> None:
    """Render the report to the file out, or to stdout when out is None."""
    text = render_report(report)
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UnsupportedInputError(f"cannot write report {out!r}: {exc.strerror or exc}") from exc


def cmd_scan(args) -> int:
    fixture = load_fixture(args.fixture)
    report = scan_report(fixture, args.max_den, workers=args.workers, endo_name=args.endo)
    _write_report(report, args.out)
    if not report["ok"]:
        print("scan assertions failed; counterexamples are in the report", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_density(args) -> int:
    fixture = load_fixture(args.fixture)
    report = density_report(fixture, args.m_max, endo_name=args.endo)
    _write_report(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_ASSERTION


def cmd_fixtures(_args) -> int:
    for name, path, kind, description in list_fixtures():
        print(f"{name:24} {kind:6} {path}")
        if description:
            print(f"{'':24} {description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorbit",
        description="Exact periodic-point classification for affine maps on "
        "tori, flat manifolds and 2-step nilmanifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one point")
    p.add_argument("--fixture", required=True, help="fixture JSON path")
    p.add_argument("--point", required=True, help='coordinates "p/q,p/q,..."')
    p.add_argument("--endo", default=None, help="map name for nil fixtures")
    p.add_argument("--json", action="store_true", help="machine readable output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="exhaustive sweep over bounded denominators")
    p.add_argument("--fixture", required=True)
    p.add_argument("--max-den", type=int, required=True, dest="max_den")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--endo", default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("density", help="verify periodic points hit every 1/m cell")
    p.add_argument("--fixture", required=True)
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--endo", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("fixtures", help="list shipped fixtures")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidFixtureError as exc:
        print(f"bad fixture: {exc}", file=sys.stderr)
        return EXIT_BAD_FIXTURE
    except (UnsupportedInputError, MixedFieldError) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except NilorbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
