import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from nilorbit.cli import main
from nilorbit.fixtures import (
    InvalidFixtureError,
    build_fixture,
    detect_kind,
    fixtures_dir,
    list_fixtures,
    load_fixture,
    shipped,
)
from nilorbit.nilclass2 import MalcevElement, classify_nil, relative_order as nil_relative_order
from nilorbit.torus import classify

FIXTURES = fixtures_dir()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nilorbit", *args],
        capture_output=True,
        text=True,
    )


# --- fixture loading ------------------------------------------------------------

def test_all_shipped_fixtures_load():
    names = {name for name, _, _, _ in list_fixtures()}
    assert {"a1", "a2", "a3", "a4", "klein_bottle", "heisenberg", "expand_cover"} <= names
    for name, path, kind, _ in list_fixtures():
        load_fixture(path)


def test_detect_kind():
    assert detect_kind({"n": 2, "A": [[1]]}) == "torus"
    assert detect_kind({"n": 2, "A": [[1]], "L_basis": [[1]]}) == "cover"
    assert detect_kind({"dim": 3, "bracket": {}}) == "nil"
    assert detect_kind({"n": 2, "reps": []}) == "infra"
    with pytest.raises(InvalidFixtureError):
        detect_kind({"foo": 1})


def _nil_doc(bracket, lattice_basis=((1, 0, 0), (0, 1, 0), (0, 0, 1))):
    return {"dim": 3, "bracket": bracket, "lattice_basis": [list(r) for r in lattice_basis]}


def _klein_doc(F=((1, 0), (0, -1)), A=((3, 0), (0, 2))):
    return {"n": 2, "reps": [{"F": [[1, 0], [0, 1]], "t": ["0", "0"]},
                             {"F": [list(r) for r in F], "t": ["1/2", "0"]}],
            "endo": {"A": [list(r) for r in A], "b": ["0", "0"]}}


# non-integral JSON numbers in integer matrices, which int() would truncate
def _quad_d_doc(d):
    """A pure translation by sqrt(d) in the first coordinate."""
    return {"n": 2, "A": [[1, 0], [0, 1]], "b": [{"a": "0", "b": "1", "d": d}, "0"]}


_FLOAT_ENTRY_DOCS = [
    {"n": 2, "A": [[2.5, 1], [1, 1]], "b": ["0", "0"]},
    {"n": 2, "A": [[2.5, 0], [0, 3]], "b": ["0", "0"], "L_basis": [[2, 0], [0, 1]]},
    {"n": 2, "A": [[2, 0], [0, 3]], "b": ["0", "0"], "L_basis": [[2.5, 0], [0, 1]]},
    _klein_doc(F=((1, 0), (0, -1.5))),
    _klein_doc(A=((3.5, 0), (0, 2))),
    _quad_d_doc(2.5),
]

_NIL_LIST_DOCS = [
    (_nil_doc([["0", "0", "1"]]), "bracket"),
    ({**_nil_doc({"0,1": ["0", "0", "1"]}), "endos": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}, "endos"),
]


def test_build_fixture_rejects_garbage():
    with pytest.raises(InvalidFixtureError):
        build_fixture({"n": 2, "A": [[1, 0], [0, 1]], "b": ["1/0", "0"]})
    with pytest.raises(InvalidFixtureError):
        build_fixture([1, 2, 3])
    # bracket keys index basis vectors 0..dim-1
    for key in ("0,5", "0,-2"):
        with pytest.raises(InvalidFixtureError, match="outside"):
            build_fixture(_nil_doc({key: ["0", "0", "1"]}))
    # "bracket" and "endos" must be JSON objects, not lists
    for doc, key in _NIL_LIST_DOCS:
        with pytest.raises(InvalidFixtureError, match=key):
            build_fixture(doc)
    for doc in _FLOAT_ENTRY_DOCS:
        with pytest.raises(InvalidFixtureError, match="expected an integer"):
            build_fixture(doc)
    # integral entries load however they are written
    for two in (2, "2", 2.0):
        fx = build_fixture({"n": 2, "A": [[two, 1], [1, 1]], "b": ["0", "0"]})
        assert fx.endo.linear == ((2, 1), (1, 1))
        fx = build_fixture({"n": 2, "A": [[2, 0], [0, 3]], "b": ["0", "0"],
                            "L_basis": [[two, 0], [0, 1]]})
        assert fx.lattice_rows == ((2, 0), (0, 1))
        fx = build_fixture(_klein_doc(A=((3, 0), (0, two))))
        assert fx.endo.linear == ((3, 0), (0, 2))
        fx = build_fixture(_quad_d_doc(two))
        assert fx.endo.translation[0].d == 2


# --- classify command ------------------------------------------------------------

def test_cli_classify_matches_library(tmp_path):
    out = run_cli("classify", "--fixture", str(FIXTURES / "a1.json"), "--point", "1/5,2/5")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("Periodic")
    fx = shipped("a1")
    cls, _ = classify(fx.endo, [F(1, 5), F(2, 5)])
    assert out.stdout.splitlines()[0] == cls.verdict

    out = run_cli("classify", "--fixture", str(FIXTURES / "a1.json"), "--point", "1/2,0")
    assert out.stdout.splitlines()[0].startswith("EventuallyPeriodic")

    out = run_cli(
        "classify", "--fixture", str(FIXTURES / "identity.json"), "--point", "2/7,3/5"
    )
    assert out.stdout.splitlines()[0] == "Periodic(period=1)"


def test_cli_classify_json_mode():
    out = run_cli(
        "classify", "--fixture", str(FIXTURES / "a1.json"), "--point", "1/2,0", "--json"
    )
    blob = json.loads(out.stdout)
    assert blob["verdict"] == "eventually_periodic"
    assert blob["preperiod"] == 2 and blob["period"] == 1


def test_cli_classify_nil_and_infra():
    out = run_cli(
        "classify",
        "--fixture", str(FIXTURES / "heisenberg.json"),
        "--endo", "grading_2",
        "--point", "1/2,0,0",
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "EventuallyPeriodic(preperiod=1, period=1)"
    out = run_cli(
        "classify", "--fixture", str(FIXTURES / "klein_bottle.json"), "--point", "1/5,1/7"
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0].startswith("Periodic")


def test_cli_exit_code_bad_fixture(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = run_cli("classify", "--fixture", str(bad), "--point", "0,0")
    assert out.returncode == 2
    missing_keys = tmp_path / "odd.json"
    missing_keys.write_text('{"foo": 1}')
    out = run_cli("classify", "--fixture", str(missing_keys), "--point", "0,0")
    assert out.returncode == 2
    bad_docs = [(doc, "0,0,0") for doc, _ in _NIL_LIST_DOCS] + [
        # nil lattice of deficient rank in the abelianization
        (_nil_doc({"0,1": ["0", "0", "1"]}, [[1, 0, 0], [2, 0, 0], [0, 0, 1]]), "0,0,0"),
        # rank-deficient cover lattice
        ({"n": 2, "A": [[2, 0], [0, 3]], "b": ["0", "0"], "L_basis": [[2, 0], [4, 0]]}, "0,0"),
        # cover lattice 2Z x Z is not preserved by swapping the axes
        ({"n": 2, "A": [[0, 1], [1, 0]], "b": ["0", "0"], "L_basis": [[2, 0], [0, 1]]}, "0,0"),
        # cover lattice rows of the wrong length
        ({"n": 2, "A": [[2, 0], [0, 3]], "b": ["0", "0"], "L_basis": [[1, 0, 0], [0, 1, 0]]}, "0,0"),
    ] + [(doc, "1/3,1/5") for doc in _FLOAT_ENTRY_DOCS]
    for doc, point in bad_docs:
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(doc))
        out = run_cli("classify", "--fixture", str(path), "--point", point)
        assert out.returncode == 2, (doc, out.stderr)
        assert "Traceback" not in out.stderr
    # a huge nil dim fails before the dim^3 bracket tensor is built; a file
    # that is not UTF-8 and an integer past Python's digit limit fail to parse
    heisenberg = json.loads((FIXTURES / "heisenberg.json").read_text())
    raw = [json.dumps({**heisenberg, "dim": dim}).encode() for dim in (10**50, 1e300)] + [
        b'\xff\xfe{"n": 1}',
        ('{"n": 2, "A": [[' + "1" * 5000 + ']], "b": ["0"]}').encode(),
    ]
    for data in raw:
        path.write_bytes(data)
        out = run_cli("classify", "--fixture", str(path), "--point", "0,0,0")
        assert out.returncode == 2, (data[:40], out.stderr)
        assert out.stderr.startswith("bad fixture:") and "Traceback" not in out.stderr
    # a quadratic d of 2.5 once loaded as sqrt(2), and density reported on it
    path.write_text(json.dumps(_quad_d_doc(2.5)))
    out = run_cli("density", "--fixture", str(path), "--m-max", "3")
    assert out.returncode == 2, out.stderr
    assert "expected an integer" in out.stderr


def test_cli_rejects_fixture_of_another_dimension(tmp_path, capsys):
    # "n" must be the number of rows of A, and every listed point that long
    docs = [
        {"n": 3, "A": [[2, 1], [1, 1]], "b": ["0", "0"]},
        {"n": 5, "A": [[2, 0], [0, 3]], "b": ["0", "0"], "L_basis": [[2, 0], [0, 3]]},
        {"n": 2, "A": [[2, 1], [1, 1]], "b": ["0", "0"], "points": [["1/3", "1/3", "1/3"]]},
    ]
    path = tmp_path / "dimension.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        for argv in (
            ["classify", "--fixture", str(path), "--point", "0,0"],
            ["scan", "--fixture", str(path), "--max-den", "2"],
        ):
            assert main(argv) == 2, (doc, argv)
            err = capsys.readouterr().err
            assert err.startswith("bad fixture:") and "Traceback" not in err, err


ZERO_DIMENSIONAL = [
    {"n": 0, "A": [], "b": []},
    {"n": 0, "A": [], "b": [], "L_basis": []},
    {"n": 0, "reps": [{"F": [], "t": []}], "endo": {"A": [], "b": []}},
]


@pytest.mark.parametrize("doc", ZERO_DIMENSIONAL, ids=["torus", "cover", "flat"])
def test_zero_dimensional_fixture_is_refused(doc, tmp_path, capsys):
    # a grid with no columns has nothing to sweep; n = 0 is bad input (exit 2)
    with pytest.raises(InvalidFixtureError, match="at least 1"):
        build_fixture(doc)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["classify", "--fixture", str(path), "--point", "0"],
        ["density", "--fixture", str(path), "--m-max", "3"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("bad fixture:") and "Traceback" not in err, err


def test_cli_exit_code_unsupported_input():
    out = run_cli(
        "classify",
        "--fixture", str(FIXTURES / "irrational_translation.json"),
        "--point", "1/2,0",
    )
    assert out.returncode == 3
    out = run_cli(
        "scan", "--fixture", str(FIXTURES / "klein_bottle.json"), "--max-den", "3"
    )
    assert out.returncode == 3


def test_cli_undecidable_quadratic_d_exits_unsupported(tmp_path):
    """A prime d past the square-free trial bound is refused, not factored."""
    doc = json.loads((FIXTURES / "irrational_translation.json").read_text())
    doc["b"][0]["d"] = 10**39 + 3
    path = tmp_path / "large_d.json"
    path.write_text(json.dumps(doc))
    out = subprocess.run(
        [sys.executable, "-m", "nilorbit", "classify", "--fixture", str(path), "--point", "0,0"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("unsupported input:") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "command, extra",
    [
        ("classify", ["--point", "1/2,0,0"]),
        ("scan", ["--max-den", "3"]),
        ("density", ["--m-max", "3"]),
    ],
)
def test_cli_unknown_endo_exits_unsupported(command, extra):
    fixture = str(FIXTURES / "heisenberg.json")
    out = run_cli(command, "--fixture", fixture, "--endo", "nope", *extra)
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert "no map named 'nope'" in out.stderr


@pytest.mark.parametrize("endos", [{}, None])
def test_cli_nil_fixture_without_maps(endos, tmp_path):
    doc = _nil_doc({"0,1": ["0", "0", "1"]})
    if endos is not None:
        doc["endos"] = endos
    path = tmp_path / "no_maps.json"
    path.write_text(json.dumps(doc))
    out = run_cli("classify", "--fixture", str(path), "--point", "1/2,0,0")
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert "fixture has no maps" in out.stderr


@pytest.mark.parametrize(
    "command, flag, bound",
    [("scan", "--max-den", "0"), ("scan", "--max-den", "-2"), ("density", "--m-max", "-1")],
)
def test_cli_rejects_bound_below_one(command, flag, bound):
    out = run_cli(command, "--fixture", str(FIXTURES / "a1.json"), flag, bound)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_rejects_workers_below_one(workers, monkeypatch, capsys, tmp_path):
    from nilorbit import scan

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scan, "Pool", no_pool)
    target = tmp_path / "report.json"
    code = main([
        "scan", "--fixture", str(FIXTURES / "a1.json"), "--max-den", "4",
        "--workers", workers, "--out", str(target),
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 1 worker" in captured.err
    assert not target.exists()


@pytest.mark.parametrize(
    "command, extra", [("scan", ["--max-den", "3"]), ("density", ["--m-max", "3"])]
)
def test_cli_unwritable_out_exits_unsupported(command, extra, tmp_path):
    target = tmp_path / "missing" / "r.json"
    out = run_cli(command, "--fixture", str(FIXTURES / "a1.json"), *extra, "--out", str(target))
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    assert "cannot write report" in out.stderr
    assert not target.parent.exists()


# --- scan and density commands -------------------------------------------------------

def test_cli_scan_writes_report(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli(
        "scan", "--fixture", str(FIXTURES / "a1.json"), "--max-den", "6",
        "--out", str(target),
    )
    assert out.returncode == 0
    report = json.loads(target.read_text())
    assert report["schema_version"] == 1
    assert report["ok"] is True
    assert set(report["tables"]) == {str(m) for m in range(1, 7)}
    # rows are ordered lexicographically within a denominator
    rows = report["tables"]["5"]
    assert rows == sorted(rows, key=lambda r: [F(p) for p in r["point"].split(",")])


def test_cli_scan_verdicts_match_library():
    for name, endo, bound in [
        ("a1", None, 4), ("heisenberg", "automorphism", 3), ("heisenberg", "grading_2", 3)
    ]:
        fx = shipped(name)
        args = ["--endo", endo] if endo else []
        out = run_cli(
            "scan", "--fixture", str(FIXTURES / f"{name}.json"), "--max-den", str(bound), *args
        )
        report = json.loads(out.stdout)
        for rows in report["tables"].values():
            for row in rows:
                point = [F(p) for p in row["point"].split(",")]
                if endo is None:
                    cls, _ = classify(fx.endo, point)
                else:
                    g = MalcevElement(fx.group, point)
                    cls, _ = classify_nil(fx.endos[endo], fx.lattice, g)
                    assert row["relative_order"] == nil_relative_order(fx.lattice, g)
                assert row["verdict"] == ("periodic" if cls.periodic else "eventually_periodic")
                assert row["preperiod"] == cls.preperiod
                assert row["period"] == cls.period


def test_cli_density(tmp_path):
    out = run_cli(
        "density", "--fixture", str(FIXTURES / "a1.json"), "--m-max", "5"
    )
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["cells"]["3"]["all_cells_hit"] is True
    assert report["cells"]["2"] == {"admissible": False}


def test_cli_density_empty_branch():
    out = run_cli(
        "density", "--fixture", str(FIXTURES / "irrational_translation.json"), "--m-max", "4"
    )
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["branch"] == "no_periodic_points"


def test_cli_fixtures_listing():
    out = run_cli("fixtures")
    assert out.returncode == 0
    assert "klein_bottle" in out.stdout
    assert "heisenberg" in out.stdout


def test_cli_classify_cover_fixture():
    out = run_cli(
        "classify", "--fixture", str(FIXTURES / "expand_cover.json"), "--point", "0,0"
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "Periodic(period=1)"
    assert "fiber" in out.stdout


def test_cli_scan_rejects_affine_fixture(tmp_path):
    doc = {"n": 1, "A": [[3]], "b": ["1/2"]}
    p = tmp_path / "affine.json"
    p.write_text(json.dumps(doc))
    out = run_cli("scan", "--fixture", str(p), "--max-den", "3")
    assert out.returncode == 3


def test_cli_point_dimension_mismatch():
    out = run_cli("classify", "--fixture", str(FIXTURES / "a1.json"), "--point", "1/2")
    assert out.returncode == 3


def test_cli_classify_output_pinned(capsys):
    """classify prints the same bytes as recorded for one point on every
    shipped fixture, in text and --json, cover fiber order included."""
    cases = json.loads((Path(__file__).parent / "classify_pins.json").read_text())
    assert {case["fixture"] for case in cases} == {name for name, _, _, _ in list_fixtures()}
    for case in cases:
        argv = ["classify", "--fixture", str(FIXTURES / f"{case['fixture']}.json"), *case["args"]]
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out) == (case["exit"], case["stdout"]), argv


def test_scan_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        out = run_cli(
            "scan", "--fixture", str(FIXTURES / "a3.json"), "--max-den", "5",
            "--out", str(target),
        )
        assert out.returncode == 0
    assert a.read_bytes() == b.read_bytes()
