"""End-to-end command behavior: JSON reports, CSV scans, SVG plots, exit codes."""

import contextlib
import csv
import io
import json
import re
import tempfile
import tracemalloc
import warnings
from itertools import repeat
from math import isfinite
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy import sparse
from conftest import drop_held_sectors

import sunmetro.algebra as algebra
import sunmetro.channel as channel
import sunmetro.cli as cli
import sunmetro.metrology as metrology
import sunmetro.probes as probes
import sunmetro.representation as representation
from sunmetro import (
    Parametrization,
    ProbeSpec,
    Representation,
    SingularCovarianceError,
    SingularInformationError,
    build_probe,
    build_report,
    casimir,
    covariance,
    exponential,
    gellmann_basis,
    generators_closed_form,
    intrinsic_bound,
    qfim,
    saturation_check,
    unpolarized_report,
    weighted_bound,
)
from sunmetro.cli import main

HEADER = "n,N,casimir,cs_ghz,cs_floor,cs_optimized"


@pytest.fixture
def files(tmp_path):
    docs = {
        "tetra": {"kind": "tetrahedron_j2"},
        "noon4": {"kind": "noon", "N": 4},
        "ghz39": {"kind": "ghz", "n": 3, "N": 9},
        "cyclic": {"kind": "su3_cyclic", "k": 3, "l": 3},
        "stretched": {"kind": "fock", "occupations": [4, 0]},
        "euler": {"kind": "euler_su2", "n": 2},
        "exp2": {"kind": "exponential", "n": 2},
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def test_bound_tetrahedron_intrinsic(files, capsys):
    rc = main(["bound", files["tetra"], files["euler"], "--theta", "0.3,1.1,-0.4"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["intrinsic_bound"] == 0.375
    assert doc["weighted_bound"] == 0.375
    assert doc["flags"]["unpolarized_order"] == 2
    assert doc["flags"]["saturable"] is True
    assert np.max(np.abs(np.array(doc["mean"]))) < 1e-10
    assert abs(doc["metric"][0][2] - np.cos(1.1)) < 1e-9


def test_bound_identity_weight_frozen_value(files, capsys):
    rc = main(["bound", files["noon4"], files["exp2"], "--theta", "0,0,0", "--weight", "identity"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["weighted_bound"] == 0.5625


def test_bound_weight_matrix_file(files, capsys, tmp_path):
    wpath = tmp_path / "weight.json"
    wpath.write_text(json.dumps([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
    rc = main(["bound", files["noon4"], files["exp2"], "--theta", "0,0,0", "--weight", str(wpath)])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["weighted_bound"] == 0.8125  # 2/4 + 1/4 + 1/16


def test_bound_singular_covariance_exits_2(files, capsys):
    rc = main(["bound", files["stretched"], files["euler"], "--theta", "0.3,1.1,-0.4"])
    captured = capsys.readouterr()
    assert rc == 2
    diag = json.loads(captured.err)
    assert diag["rank"] == 2
    assert captured.out == ""


def test_bound_singular_chart_identity_weight_exits_2(files, capsys):
    rc = main(
        ["bound", files["tetra"], files["euler"], "--theta", "0.3,0,-0.4", "--weight", "identity"]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert json.loads(captured.err)["rank"] == 2


def test_bound_singular_chart_intrinsic_weight_survives(files, capsys):
    rc = main(["bound", files["tetra"], files["euler"], "--theta", "0.3,0,-0.4"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["weighted_bound"] == 0.375
    assert doc["flags"]["qfim_singular"] is True


def test_bound_overflowing_weighted_bound_exits_1(files, capsys, tmp_path):
    # a finite positive definite weight passes every check of its own, but
    # Tr[W Q^-1] overflows near the euler chart's pole
    wpath = tmp_path / "huge.json"
    wpath.write_text(json.dumps(np.diag([8e307] * 3).tolist()))
    argv = ["bound", files["tetra"], files["euler"], "--theta", "0.3,0.05,-0.4",
            "--weight", str(wpath)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("sunmetro: error: the weighted bound Tr[W Q^-1] overflows")


def test_bound_parse_failures_exit_1(files, capsys, tmp_path):
    assert main(["bound", str(tmp_path / "missing.json"), files["euler"], "--theta", "0,0,0"]) == 1
    assert main(["bound", files["tetra"], files["euler"], "--theta", "0.1,0.2"]) == 1
    assert main(["bound", files["tetra"], files["euler"], "--theta", "a,b,c"]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("not json at all")
    assert main(["bound", str(broken), files["euler"], "--theta", "0,0,0"]) == 1
    assert main(["bound", files["tetra"], files["euler"]]) == 1  # --theta required
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "ghz", "n": [1], "N": 3},
        {"kind": "custom", "n": 2, "N": 1, "amplitudes": 5},
        {"kind": "fock", "occupations": 3},
        {"kind": "ghz", "n": float("inf"), "N": 3},
        {"kind": "noon", "N": 4.7},
        {"kind": "noon", "N": True},
        {"kind": "fock", "occupations": [2.5, 1, 0]},
        {"kind": "custom", "n": 2, "N": 1, "amplitudes": [float("nan"), 0]},
        {"kind": "custom", "n": 2, "N": 1, "amplitudes": [1e300, 1e300]},
    ],
)
def test_malformed_probe_fields_exit_1(files, capsys, tmp_path, doc):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", str(path), files["euler"], "--theta", "0,0,0"]) == 1
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sunmetro: error:") and "Traceback" not in err


def _product_chart(last_axis):
    return {"kind": "product_of_exponentials", "n": 2, "factors": [[0, 0, 1], [0, 1, 0], last_axis]}


@pytest.mark.parametrize(
    "chart, weight",
    [
        ({"kind": "exponential", "n": [2]}, "intrinsic"),
        ({"kind": "product_of_exponentials", "n": 2, "factors": 5}, "intrinsic"),
        ({"kind": "exponential", "n": float("inf")}, "intrinsic"),
        ({"kind": "exponential", "n": 2.9}, "intrinsic"),
        ({"kind": "exponential", "n": 2}, {"a": 1}),
        ({"kind": "exponential", "n": 2}, [[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]]),
        (_product_chart([0, float("nan"), 1]), "intrinsic"),
        (_product_chart([0, 0, float("inf")]), "intrinsic"),
        (_product_chart([0, 0, 1.35e154]), "intrinsic"),  # the metric overflows
    ],
    ids=[
        "chart-n-list", "chart-factors-int", "chart-n-inf", "chart-n-float", "weight-object",
        "weight-inf", "chart-axis-nan", "chart-axis-inf", "chart-axis-overflows",
    ],
)
def test_malformed_chart_or_weight_exits_1(files, capsys, tmp_path, chart, weight):
    chart_path = tmp_path / "chart.json"
    chart_path.write_text(json.dumps(chart))
    argv = ["bound", files["tetra"], str(chart_path), "--theta", "0,0,0"]
    if weight != "intrinsic":
        weight_path = tmp_path / "weight.json"
        weight_path.write_text(json.dumps(weight))
        argv += ["--weight", str(weight_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sunmetro: error:") and "Traceback" not in captured.err


def test_malformed_weight_exits_1_even_with_a_singular_probe(files, capsys, tmp_path):
    fock = tmp_path / "fock30.json"
    fock.write_text(json.dumps({"kind": "fock", "occupations": [3, 0]}))
    weight = tmp_path / "weight2.json"
    weight.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    for probe in (str(fock), files["tetra"]):
        argv = ["bound", probe, files["exp2"], "--theta", "0,0,0", "--weight", str(weight)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sunmetro: error: weight shape (2, 2) does not match Q (3, 3)\n"


@pytest.mark.parametrize(
    "text, seed_flag",
    [
        ("[1, 2]", True),
        ('{"restarts": "x"}', True),
        ('{"restarts": [1]}', True),
        ('{"restarts": true}', True),
        ('{"restarts": 1e400}', True),
        ('{"max_iters": 2.5}', True),
        ('{"seed": "abc"}', False),
        ('{"seed": 1.5}', False),
    ],
    ids=["list", "restarts-str", "restarts-list", "restarts-bool", "restarts-inf",
         "max-iters-float", "seed-str", "seed-float"],
)
def test_malformed_optimizer_config_exits_1(capsys, tmp_path, text, seed_flag):
    path = tmp_path / "config.json"
    path.write_text(text)
    argv = ["optimize", "--n", "2", "--particles", "4", "--config", str(path)]
    assert main(argv + (["--seed", "1"] if seed_flag else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sunmetro: error:") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "role, doc, field",
    [
        ("probe", {"kind": "custom", "n": 2, "N": 1, "amplitudes": [True, False]}, "'amplitudes'"),
        ("chart", {"kind": "product_of_exponentials", "n": 2, "factors": [[True, 0, 0]]},
         "'factors'"),
        ("weight", [[True, 0, 0], [0, True, 0], [0, 0, True]], "weight matrix"),
        ("probe", {"kind": "custom", "n": 2, "N": 1, "amplitudes": [["0.6", "0"], ["0.8", "0"]]},
         "'amplitudes'"),
        ("chart", {"kind": "product_of_exponentials", "n": 2, "factors": [["1", "0", "0"]]},
         "'factors'"),
        ("weight", [["1", 0, 0], [0, "1", 0], [0, 0, "1"]], "weight matrix"),
        ("weight", [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]], "weight matrix"),
    ],
    ids=["amplitudes", "factors", "weight", "amplitudes-str", "factors-str", "weight-str",
         "weight-int-beyond-float"],
)
def test_json_booleans_and_strings_are_refused_where_numbers_are_read(
    files, capsys, tmp_path, role, doc, field
):
    # true and false are not read as 1.0 and 0.0, as they are not read as
    # integers in n, N or the optimizer config; nor is a numeric string read
    # as its number, or an integer beyond float range rounded to inf
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {
        "probe": ["check", str(path)],
        "chart": ["bound", files["tetra"], str(path), "--theta", "0.3"],
        "weight": ["bound", files["tetra"], files["euler"], "--theta", "0.3,1.1,-0.4",
                   "--weight", str(path)],
    }[role]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("sunmetro: error:") and field in line


@pytest.mark.parametrize("role", ["probe", "chart", "weight", "config"])
def test_an_over_deep_document_exits_1(files, capsys, tmp_path, role):
    # written as text: json.dumps itself recurses once per level
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "1" + "]" * 5000)
    argv = {
        "probe": ["check", str(path)],
        "chart": ["bound", files["tetra"], str(path), "--theta", "0.3"],
        "weight": ["bound", files["tetra"], files["euler"], "--theta", "0.3,1.1,-0.4",
                   "--weight", str(path)],
        "config": ["optimize", "--n", "2", "--particles", "4", "--seed", "1",
                   "--config", str(path)],
    }[role]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("sunmetro: error:") and str(path) in line


def test_no_chart_free_request_forms_structure_constants(tmp_path, capsys, monkeypatch):
    # without a chart saturable is read from the mean alone, so neither check
    # nor scan asks for the structure constants
    def refuse(basis):
        raise AssertionError("a request without a chart formed structure constants")

    monkeypatch.setattr(metrology, "structure_constants", refuse)
    monkeypatch.setattr(algebra, "structure_constants", refuse)
    doc = {"kind": "ghz", "n": 3, "N": 2}
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["saturable"] is True
    scan = ["scan", "--n", "3", "--nmin", "2", "--nmax", "4", "--states", "ghz,optimized"]
    assert main([*scan, "--seed", "1"]) == 0
    capsys.readouterr()
    assert type(build_report(build_probe(ProbeSpec.from_json(doc))).flags["saturable"]) is bool


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cap_below_one_is_usage_error(files, capsys, cap):
    for argv in (
        ["bound", files["tetra"], files["euler"], "--theta", "0,0,0"],
        ["check", files["tetra"]],
        ["scan", "--n", "3", "--nmin", "2", "--nmax", "3"],
        ["optimize", "--n", "2", "--particles", "4", "--seed", "1"],
    ):
        assert main(argv + ["--cap", cap]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--cap" in captured.err


# a document of each probe kind, with its sector (n, N) and dimension D; a
# kind added to _PROBE_KINDS without one here fails the test below
CAPPED_PROBES = {
    "ghz": ({"kind": "ghz", "n": 3, "N": 3}, 3, 3, 10),
    "noon": ({"kind": "noon", "N": 4}, 2, 4, 5),
    "tetrahedron_j2": ({"kind": "tetrahedron_j2"}, 2, 4, 5),
    "su3_cyclic": ({"kind": "su3_cyclic", "k": 3, "l": 3}, 3, 9, 55),
    "fock": ({"kind": "fock", "occupations": [2, 1, 1]}, 3, 4, 15),
    "custom": ({"kind": "custom", "n": 2, "N": 2, "amplitudes": [1.0, 0.0, 0.0]}, 2, 2, 3),
}


@pytest.mark.parametrize("kind", list(probes._PROBE_KINDS))
def test_check_honours_cap_for_every_probe_kind(kind, tmp_path, capsys):
    doc, n, particles, dim = CAPPED_PROBES[kind]
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--cap", str(dim - 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"symmetric({n}, {particles}) has dimension {dim} > cap {dim - 1}" in captured.err
    assert main(["check", str(path), "--cap", str(dim)]) == 0
    capsys.readouterr()


@pytest.fixture
def refuse_dense_stack(monkeypatch):
    # a representation keeps no dense view, and densifying a tall (d D, D)
    # sparse matrix, which only the generator stack is, fails the test
    assert not hasattr(Representation, "generators")
    toarray = sparse.csr_array.toarray

    def refuse(self, *args, **kwargs):
        if self.shape[0] > self.shape[1]:
            raise AssertionError(f"a {self.shape} sparse stack was densified")
        return toarray(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_array, "toarray", refuse)


def test_scan_bound_check_never_build_the_dense_stack(files, capsys, refuse_dense_stack):
    exp3 = files["dir"] / "exp3.json"
    exp3.write_text(json.dumps({"kind": "exponential", "n": 3}))
    theta3 = ",".join(["0.1"] * 8)
    assert main(["scan", "--n", "3", "--nmin", "2", "--nmax", "6"]) == 0
    for probe, chart, theta, code in (
        ("tetra", files["euler"], "0.1,0.2,0.3", 0),
        ("stretched", files["euler"], "0.1,0.2,0.3", 2),
        ("ghz39", str(exp3), theta3, 0),
        ("cyclic", str(exp3), theta3, 0),
    ):
        assert main(["bound", files[probe], chart, "--theta", theta]) == code
        assert main(["check", files[probe]]) == 0
    capsys.readouterr()


def test_check_cyclic(files, capsys):
    rc = main(["check", files["cyclic"]])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {
        "first_order",
        "second_order",
        "deviation",
        "intrinsic_bound",
        "floor",
        "saturable",
    }
    assert doc["first_order"] and doc["second_order"] and doc["saturable"]
    assert doc["intrinsic_bound"] == doc["floor"]
    assert abs(doc["intrinsic_bound"] - 4.0 / 9.0) < 1e-9


def test_check_ghz_anisotropic(files, capsys):
    rc = main(["check", files["ghz39"]])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["first_order"] and not doc["second_order"]
    assert doc["deviation"] == 9.0


def test_check_singular_probe_reports_null_bound(files, capsys):
    rc = main(["check", files["stretched"]])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["intrinsic_bound"] is None
    assert not doc["first_order"] and not doc["saturable"]


def test_scan_frozen_rows(files, capsys):
    rc = main(["scan", "--n", "2", "--nmin", "2", "--nmax", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert lines[1] == "2,2,2,singular,1.125,"
    assert lines[2] == "2,3,3.75,0.777777777778,0.6,"
    assert lines[3] == "2,4,6,0.5625,0.375,"


@pytest.mark.parametrize("n, nmax", [(2, 40), (3, 24), (4, 9), (5, 6), (6, 4)])
def test_scan_matches_the_golden_csv(capsys, n, nmax):
    # the rows span both construction-check kernels: the grouped merge takes
    # sym(3, 1), sym(4, 1..2), sym(5, 1..3) and sym(6, 1..4), the sparse
    # product the rest
    argv = ["scan", "--n", str(n), "--nmin", "1", "--nmax", str(nmax), "--states", "ghz,floor"]
    assert main(argv) == 0
    golden = (Path(__file__).parent / "data" / f"scan_n{n}.csv").read_bytes()
    assert capsys.readouterr().out.encode() == golden


BOUND_GOLDEN = Path(__file__).parent / "data" / "bound_golden.json"

# a JSON number as the CLI prints it
_NUMERAL = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")


def _run_bound_case(case: dict, work: Path) -> dict:
    """One pinned ``bound`` request: its exit code, stdout and stderr."""
    for role in ("probe", "chart", "weight"):
        (work / f"{role}.json").write_text(json.dumps(case[role]))
    weight = case["weight"] if isinstance(case["weight"], str) else str(work / "weight.json")
    argv = ["bound", str(work / "probe.json"), str(work / "chart.json"),
            "--theta=" + ",".join(repr(t) for t in case["theta"]), "--weight", weight]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def write_bound_golden() -> None:
    """Rerun every case of ``BOUND_GOLDEN`` and store what ``bound`` printed.

    Run after a deliberate change of ``bound``'s output, from the repository
    root: ``PYTHONPATH=src:tests python -c "import test_cli; test_cli.write_bound_golden()"``
    """
    cases = json.loads(BOUND_GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as work:
        for case in cases:
            case.update(_run_bound_case(case, Path(work)))
    BOUND_GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


def _assert_field_close(actual, expected):
    # each number to 1e-10 of the largest entry of its field: entries at
    # rounding noise (1e-17 where a mean vanishes) vary with the BLAS kernel
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert a.shape == e.shape
    scale = max(float(np.max(np.abs(e), initial=0.0)), 1e-300)
    assert np.max(np.abs(a - e), initial=0.0) <= 1e-10 * scale


def test_bound_matches_the_pinned_outputs(tmp_path):
    # the bound-mix probes on each chart kind with each kind of weight, at
    # fixed points; the euler chart on an SU(3) or SU(4) probe exits 1 and
    # the stretched Fock probe exits 2
    cases = json.loads(BOUND_GOLDEN.read_text())
    codes = set()
    for case in cases:
        got = _run_bound_case(case, tmp_path)
        assert (got["rc"], got["err"]) == (case["rc"], case["err"])
        # the layout and every byte outside a number exactly
        assert _NUMERAL.sub("#", got["out"]) == _NUMERAL.sub("#", case["out"])
        if case["rc"] == 0:
            doc, pinned = json.loads(got["out"]), json.loads(case["out"])
            assert doc["flags"] == pinned["flags"]
            for key in ("mean", "covariance", "qfim", "metric", "intrinsic_bound", "weighted_bound"):
                _assert_field_close(doc[key], pinned[key])
        codes.add(case["rc"])
    assert len(cases) == 47 and codes == {0, 1, 2}


def test_scan_optimized_row_within_bracket(files, tmp_path, capsys):
    out_csv = tmp_path / "scan.csv"
    rc = main(
        [
            "scan", "--n", "2", "--nmin", "3", "--nmax", "3",
            "--states", "ghz,floor,optimized", "--seed", "11", "--out", str(out_csv),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    row = rows[0]
    ghz, floor, opt = (float(row[k]) for k in ("cs_ghz", "cs_floor", "cs_optimized"))
    assert floor - 1e-9 <= opt <= ghz
    assert ghz >= floor


@pytest.mark.parametrize("states", [["ghz"], ["optimized", "--seed", "1"]], ids=["ghz", "optimized"])
def test_scan_writes_the_floor_whatever_states_select(capsys, states):
    # cs_floor is written on every row, so floor in --states selects nothing
    assert main(["scan", "--n", "2", "--nmin", "2", "--nmax", "3", "--states", *states]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["cs_floor"] for row in rows] == ["1.125", "0.6"]
    assert [row["casimir"] for row in rows] == ["2", "3.75"]


def test_scan_cap_marks_skipped_rows(capsys):
    rc = main(["scan", "--n", "3", "--nmin", "1", "--nmax", "3", "--cap", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[2] == "3,2,skipped,skipped,skipped,skipped"
    assert lines[3] == "3,3,skipped,skipped,skipped,skipped"
    assert lines[1].startswith("3,1,")


def test_scan_skips_a_sector_whose_dimension_has_thousands_of_digits(capsys):
    # binom(39999, 19999) has about 12000 digits, more than int-to-str allows
    assert main(["scan", "--n", "20000", "--nmin", "20000", "--nmax", "20000"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "20000,20000,skipped,skipped,skipped,skipped"
    assert captured.err == ""


def test_scan_marks_failed_optimization_singular(capsys):
    # symmetric(2, 1) carries no regular covariance, so every restart fails
    argv = ["scan", "--n", "2", "--nmin", "1", "--nmax", "2", "--states", "optimized"]
    assert main(argv + ["--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.split("\n") == [HEADER, "2,1,0.75,,3,singular", "2,2,2,,1.125,2.25", ""]
    assert captured.err == ""


def test_scan_reproducible_and_job_count_invariant(tmp_path):
    args = ["scan", "--n", "2", "--nmin", "3", "--nmax", "6",
            "--states", "ghz,floor,optimized", "--seed", "5"]
    outputs = []
    for i, jobs in enumerate(("1", "1", "3")):
        path = tmp_path / f"scan{i}.csv"
        assert main(args + ["--jobs", jobs, "--out", str(path)]) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_plot_svg(files, tmp_path, capsys):
    svg_path = tmp_path / "plot.svg"
    rc = main(
        ["scan", "--n", "2", "--nmin", "4", "--nmax", "10", "--plot", str(svg_path),
         "--out", str(tmp_path / "scan.csv")]
    )
    assert rc == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text and "cs_ghz" in text and "cs_floor" in text


def test_scan_validation_failures_exit_1(capsys):
    assert main(["scan", "--n", "2", "--nmin", "0", "--nmax", "4"]) == 1
    assert main(["scan", "--n", "2", "--nmin", "5", "--nmax", "4"]) == 1
    assert main(["scan", "--n", "2", "--nmin", "2", "--nmax", "4", "--states", "bell"]) == 1
    assert main(["scan", "--n", "2", "--nmin", "2", "--nmax", "4", "--states", "optimized"]) == 1
    capsys.readouterr()


def test_optimize_never_builds_the_dense_stack(capsys, refuse_dense_stack):
    assert main(["optimize", "--n", "3", "--particles", "6", "--seed", "1"]) == 0
    argv = ["scan", "--n", "2", "--nmin", "3", "--nmax", "5", "--states", "optimized"]
    assert main(argv + ["--seed", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("method, code", [("simplex", 1), ("gradient_descent_on_sphere", 0)])
def test_optimizer_method_names(tmp_path, capsys, method, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"method": method, "restarts": 2}))
    assert main(["optimize", "--n", "2", "--particles", "4", "--seed", "1", "--config", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("sunmetro: error:") and f"unknown method {method!r}" in captured.err
    else:
        assert json.loads(captured.out)["converged"] is True


def test_large_n_check_ends_in_an_exit_code(tmp_path, capsys):
    # the dense (d, d, n, n) product behind the structure constants raised
    # MemoryError at n = 40 and peaked at 455 MB traced at n = 14
    path = tmp_path / "ghz14.json"
    path.write_text(json.dumps({"kind": "ghz", "n": 14, "N": 1}))
    tracemalloc.start()
    try:
        rc = main(["check", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc in (0, 1) and "Traceback" not in captured.err
    assert peak < 50 * 2**20


def test_check_decomposes_no_singular_pure_covariance(tmp_path, capsys, monkeypatch):
    # an N = 1 probe has rank C <= 2(D - 1) = 78 < d = 1599, so the report
    # reads the rank from the 80 x 80 Gram and decomposes no 1599 x 1599 C
    shapes = []

    def spied(routine):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return routine(a, *args, **kwargs)
        return wrapper

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "cholesky", "inv", "pinv",
                 "solve", "lstsq", "matrix_rank", "det", "slogdet"):
        monkeypatch.setattr(np.linalg, name, spied(getattr(np.linalg, name)))
    path = tmp_path / "ghz40.json"
    path.write_text(json.dumps({"kind": "ghz", "n": 40, "N": 1}))
    assert main(["check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["intrinsic_bound"] is None and doc["floor"] == 31980.0
    assert shapes == [(80, 80)]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "PROBE"],
        ["bound", "PROBE", "CHART", "--theta", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"],
        ["scan", "--n", "3", "--nmin", "2", "--nmax", "3"],
        ["optimize", "--n", "3", "--particles", "2", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_running_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch, argv):
    # the su(n) work grows with n whatever --cap allows, so an allocation can
    # fail below the cap; main reports it as one error line, not a traceback
    def exhausted(*args):
        raise MemoryError

    drop_held_sectors()  # a held sector would be returned without a build
    monkeypatch.setattr(representation, "_collective_stack", exhausted)
    probe, chart = tmp_path / "ghz.json", tmp_path / "exp3.json"
    probe.write_text(json.dumps({"kind": "ghz", "n": 3, "N": 2}))
    chart.write_text(json.dumps({"kind": "exponential", "n": 3}))
    argv = [{"PROBE": str(probe), "CHART": str(chart)}.get(arg, arg) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("sunmetro: error: out of memory") and "--cap bounds" in line


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "PROBE", "--cap", "20"],
        ["optimize", "--n", "40", "--particles", "1", "--seed", "1", "--cap", "20"],
        ["scan", "--n", "40", "--nmin", "1", "--nmax", "1", "--cap", "20"],
    ],
)
def test_cap_refuses_before_the_basis_is_built(tmp_path, capsys, argv):
    # a refused request builds no su(n) basis at all: the cache records no call
    path = tmp_path / "ghz40.json"
    path.write_text(json.dumps({"kind": "ghz", "n": 40, "N": 1}))
    argv = [str(path) if arg == "PROBE" else arg for arg in argv]
    gellmann_basis.cache_clear()
    rc = main(argv)
    captured = capsys.readouterr()
    if argv[0] == "scan":
        assert rc == 0 and captured.out.splitlines()[1] == "40,1,skipped,skipped,skipped,skipped"
    else:
        assert rc == 1 and "symmetric(40, 1) has dimension 40 > cap 20" in captured.err
    info = gellmann_basis.cache_info()
    assert info.hits == info.misses == info.currsize == 0


def test_optimize_command(tmp_path, capsys):
    rc = main(["optimize", "--n", "2", "--particles", "4", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["floor"] == 0.375
    assert abs(doc["bound_achieved"] - 0.375) < 0.375 * 0.01
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    assert amps.shape == (5,)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-6


def test_optimize_reaches_the_sym35_floor(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 2}))
    argv = ["optimize", "--n", "3", "--particles", "5", "--seed", "1018", "--config", str(config)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True and doc["floor"] == 1.2
    assert doc["bound_achieved"] == 1.2  # the floor to all 12 printed digits


@pytest.mark.parametrize("seed", ["1", "2"])
def test_optimize_certifies_the_sym45_floor(tmp_path, capsys, seed):
    # with {"restarts": 4} every restart used to stop at max_iters on the
    # degenerate minimum and the run exited 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 4}))
    argv = ["optimize", "--n", "4", "--particles", "5", "--seed", seed, "--config", str(config)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True and doc["bound_achieved"] == doc["floor"]
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({"kind": "custom", "n": 4, "N": 5, "amplitudes": doc["amplitudes"]}))
    assert main(["check", str(probe)]) == 0
    graded = json.loads(capsys.readouterr().out)
    assert graded["first_order"] is True and graded["second_order"] is True


def test_optimize_seed_from_config_and_flag_override(tmp_path, capsys):
    base = main(["optimize", "--n", "2", "--particles", "4", "--seed", "7"])
    out_flag = capsys.readouterr().out
    assert base == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 7, "restarts": 20}))
    assert main(["optimize", "--n", "2", "--particles", "4", "--config", str(config)]) == 0
    out_config = capsys.readouterr().out
    assert out_config == out_flag
    override = tmp_path / "override.json"
    override.write_text(json.dumps({"seed": 3}))
    assert (
        main(["optimize", "--n", "2", "--particles", "4", "--config", str(override), "--seed", "7"])
        == 0
    )
    assert capsys.readouterr().out == out_flag


def test_optimize_requires_seed(capsys):
    rc = main(["optimize", "--n", "2", "--particles", "4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--n", "2", "--particles", "3", "--seed", "-5"],
        # the N = 1 row runs the optimizer with seed -2 + 1
        ["scan", "--n", "2", "--nmin", "1", "--nmax", "3", "--states", "optimized", "--seed", "-2"],
    ],
    ids=["optimize", "scan"],
)
def test_negative_optimizer_seed_exits_1(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sunmetro: error:") and "seed" in captured.err


def test_scan_rejects_a_negative_row_seed_before_any_row(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(representation, "symmetric_representation", refuse)
    argv = ["scan", "--n", "2", "--nmin", "1", "--nmax", "3", "--states", "ghz,optimized"]
    assert main(argv + ["--seed", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sunmetro: error: --seed -2 ")


def test_scan_seed_minus_one_seeds_rows_from_zero(capsys):
    argv = ["scan", "--n", "2", "--nmin", "1", "--nmax", "3", "--states", "optimized"]
    assert main(argv + ["--seed", "-1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "2,1,0.75,,3,singular",
        "2,2,2,,1.125,2.25",
        "2,3,3.75,,0.6,0.777777777778",
    ]


def test_optimize_failure_exits_3(capsys):
    rc = main(["optimize", "--n", "2", "--particles", "1", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    diag = json.loads(captured.err)
    assert diag["singular_restarts"] == 20


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_optimize_refuses_one_particle_with_the_same_line(n, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a restart ran")

    monkeypatch.setattr("sunmetro.probes._lbfgs", refuse)
    assert main(["optimize", "--n", str(n), "--particles", "1", "--seed", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # the line the 20 singular restarts gave when they all ran
    assert captured.err == (
        f'{{"error": "all 20 restarts stayed in the singular region of symmetric({n}, 1)", '
        f'"singular_restarts": 20, "space_dim": {n}}}\n'
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "PROBE", "--cap", "54"],
        ["bound", "PROBE", "CHART", "--theta", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8", "--cap", "54"],
        ["optimize", "--n", "3", "--particles", "9", "--seed", "1", "--cap", "54"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_held_sector_still_refuses_a_lower_cap(tmp_path, capsys, argv):
    probe, chart = tmp_path / "ghz39.json", tmp_path / "exp3.json"
    probe.write_text(json.dumps({"kind": "ghz", "n": 3, "N": 9}))
    chart.write_text(json.dumps({"kind": "exponential", "n": 3}))
    representation.symmetric_sector(3, 9)
    assert (3, 9) in representation._sectors._reps
    argv = [{"PROBE": str(probe), "CHART": str(chart)}.get(arg, arg) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sunmetro: error: symmetric(3, 9) has dimension 55 > cap 54\n"
    assert (3, 9) in representation._sectors._reps


def test_scan_leaves_the_held_sectors_as_they_were(capsys, monkeypatch):
    drop_held_sectors()
    representation.symmetric_sector(3, 3)
    representation.symmetric_sector(2, 4)
    before = list(representation._sectors._reps.items()), representation._sectors.dims
    built = []
    build = cli.symmetric_representation

    def counted(basis, particles, cap):
        built.append((basis.n, particles))
        return build(basis, particles, cap=cap)

    monkeypatch.setattr(cli, "symmetric_representation", counted)
    argv = ["scan", "--n", "3", "--nmin", "1", "--nmax", "3", "--states", "ghz,floor,optimized"]
    assert main(argv + ["--seed", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 4
    # every row builds its own sector, the held sym(3, 3) too
    assert built == [(3, 1), (3, 2), (3, 3)]
    assert (list(representation._sectors._reps.items()), representation._sectors.dims) == before


def test_bound_out_flag_writes_file(files, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(
        ["bound", files["tetra"], files["exp2"], "--theta", "0,0,0", "--out", str(target)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["intrinsic_bound"] == 0.375


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "bound" in capsys.readouterr().out
    assert main([]) == 1  # a subcommand is required
    capsys.readouterr()


# The differential grid: every probe of the ``files`` fixture on every chart
# of its n, at a regular point and (euler) at the pole, with each kind of weight.
GRID_CHARTS = {
    2: [
        ({"kind": "euler_su2", "n": 2}, [0.3, 1.1, -0.4]),
        ({"kind": "euler_su2", "n": 2}, [0.3, 0.0, -0.4]),
        ({"kind": "exponential", "n": 2}, [0.2, -0.5, 0.9]),
    ],
    3: [({"kind": "exponential", "n": 3}, [0.1, -0.2, 0.3, 0.05, -0.4, 0.25, 0.15, -0.1])],
}
GRID_PROBES = {
    "tetra": {"kind": "tetrahedron_j2"},
    "noon4": {"kind": "noon", "N": 4},
    "stretched": {"kind": "fock", "occupations": [4, 0]},
    "ghz39": {"kind": "ghz", "n": 3, "N": 9},
    "cyclic": {"kind": "su3_cyclic", "k": 3, "l": 3},
}


def _grid_weight(size: int) -> np.ndarray:
    a = np.random.default_rng(size).standard_normal((size, size))
    return a @ a.T / size + 0.5 * np.eye(size)


def _reference_grade(state) -> dict:
    # the isotropy grade as unpolarized_report computed it on its own
    mean, cov = covariance(state)
    d = state.rep.basis.dim
    deviation = float(np.max(np.abs(cov - casimir(state.rep) / d * np.eye(d))))
    first = bool(np.linalg.norm(mean) < 1e-10)
    return {"first_order": first, "second_order": first and deviation < 1e-8,
            "deviation": deviation}


def _reference_bound(probe: dict, chart: dict, theta, weight):
    """``bound`` by the per-function route; (exit code, report or diagnostics)."""
    state = build_probe(ProbeSpec.from_json(probe))
    mean, cov = covariance(state)
    gm = generators_closed_form(Parametrization.from_json(chart), theta)
    metric = gm.hmat @ gm.hmat.T
    metric = (metric + metric.T) / 2.0
    q = qfim(gm, cov)
    intrinsic = cov_error = q_error = None
    try:
        intrinsic = intrinsic_bound(cov)
    except SingularCovarianceError as exc:
        cov_error = exc
    if isinstance(weight, str):
        wmat = metric if weight == "intrinsic" else np.eye(len(q))
    else:
        wmat = weight
    try:
        weighted = weighted_bound(wmat, q)
    except SingularInformationError as exc:
        q_error = exc
        is_intrinsic = isinstance(weight, str) and weight == "intrinsic"
        weighted = intrinsic if is_intrinsic else None
    if weighted is None:
        error = cov_error or q_error
        return 2, {"error": str(error), "rank": error.rank,
                   "condition_number": error.condition_number}
    grade = _reference_grade(state)
    _assert_same(unpolarized_report(state), grade)
    return 0, {
        "mean": mean,
        "covariance": cov,
        "qfim": q,
        "metric": metric,
        "intrinsic_bound": intrinsic,
        "weighted_bound": weighted,
        "flags": {
            "covariance_singular": cov_error is not None,
            "qfim_singular": q_error is not None,
            "saturable": saturation_check(state, gm),
            "unpolarized_order": 2 if grade["second_order"] else int(grade["first_order"]),
        },
    }


def _reference_check(probe: dict) -> dict:
    """``check`` by the per-function route."""
    state = build_probe(ProbeSpec.from_json(probe))
    n, d = state.rep.basis.n, state.rep.basis.dim
    grade = _reference_grade(state)
    try:
        bound = intrinsic_bound(covariance(state)[1])
    except SingularCovarianceError:
        bound = None
    origin = generators_closed_form(exponential(n), np.zeros(d))
    return {
        "first_order": grade["first_order"],
        "second_order": grade["second_order"],
        "deviation": grade["deviation"],
        "intrinsic_bound": bound,
        "floor": d * d / (4.0 * casimir(state.rep)),
        "saturable": saturation_check(state, origin),
    }


def _assert_same(actual, expected):
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        for key, value in expected.items():
            _assert_same(actual[key], value)
    elif expected is None or isinstance(expected, (bool, int, str)):
        assert actual == expected and type(actual) is type(expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


def test_bound_and_check_match_the_per_function_route(tmp_path, capsys, monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda doc, out: emitted.append(doc))
    outcomes = set()
    for name, probe in GRID_PROBES.items():
        probe_path = tmp_path / f"{name}.json"
        probe_path.write_text(json.dumps(probe))
        n = build_probe(ProbeSpec.from_json(probe)).rep.basis.n
        for k, (chart, theta) in enumerate(GRID_CHARTS[n]):
            chart_path = tmp_path / f"chart{n}_{k}.json"
            chart_path.write_text(json.dumps(chart))
            weight_path = tmp_path / f"weight{len(theta)}.json"
            weight_path.write_text(json.dumps(_grid_weight(len(theta)).tolist()))
            for weight, flag in (("intrinsic", "intrinsic"), ("identity", "identity"),
                                 (_grid_weight(len(theta)), str(weight_path))):
                argv = ["bound", str(probe_path), str(chart_path),
                        "--theta", ",".join(repr(t) for t in theta), "--weight", flag]
                emitted.clear()
                rc = main(argv)
                captured = capsys.readouterr()
                code, expected = _reference_bound(probe, chart, theta, weight)
                assert rc == code, argv
                outcomes.add("report" if code == 0 else expected["error"].split()[0])
                if code == 0:
                    assert len(emitted) == 1 and captured.err == ""
                    _assert_same(emitted[0], expected)
                else:
                    assert emitted == [] and captured.out == ""
                    assert captured.err == json.dumps(cli._round_floats(expected)) + "\n"
        emitted.clear()
        assert main(["check", str(probe_path)]) == 0
        assert len(emitted) == 1
        _assert_same(emitted[0], _reference_check(probe))
    # the grid reaches a report, a singular C and a singular Q
    assert outcomes == {"report", "covariance", "information"}


def test_check_builds_no_chart(tmp_path, monkeypatch):
    # check reads the commutator expectations from the basis generators; the
    # reference still takes them from the exponential chart at the origin
    expected = {name: _reference_check(probe) for name, probe in GRID_PROBES.items()}
    assert {doc["saturable"] for doc in expected.values()} == {True, False}

    def refuse(*args, **kwargs):
        raise AssertionError("check built generator rows")

    monkeypatch.setattr(channel, "generators_closed_form", refuse)
    monkeypatch.setattr(metrology, "generators_closed_form", refuse)
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda doc, out: emitted.append(doc))
    for name, probe in GRID_PROBES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(probe))
        emitted.clear()
        assert main(["check", str(path)]) == 0
        _assert_same(emitted[0], expected[name])


def test_parser_is_built_once_and_answers_like_a_fresh_one(files, capsys, monkeypatch, tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"kind": "noon", "N": 4.7}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 2}))
    calls = [
        (["bound", files["tetra"]], 1),
        (["--help"], 0),
        (["bound", files["tetra"], files["euler"], "--theta", "0.3,1.1,-0.4"], 0),
        (["check", files["ghz39"]], 0),
        (["scan", "--n", "2", "--nmin", "1", "--nmax", "4"], 0),
        (["optimize", "--n", "2", "--particles", "4", "--seed", "1", "--config", str(config)], 0),
        (["check", str(malformed)], 1),
        (["bound", files["stretched"], files["euler"], "--theta", "0.3,1.1,-0.4"], 2),
    ]

    def run_all():
        outcomes = []
        for argv, _ in calls:
            rc = main(argv)
            captured = capsys.readouterr()
            outcomes.append((rc, captured.out, captured.err))
        return outcomes

    cli._build_parser.cache_clear()
    reused = run_all()
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _, _ in reused] == [code for _, code in calls]

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == reused


def _round_floats_reference(obj):
    # the rounding as it was before floats were tested first
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float(f"{f:.12g}") if np.isfinite(f) else repr(f)
    if isinstance(obj, dict):
        return {k: _round_floats_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats_reference(v) for v in obj]
    return obj


# the floats every test of the writer draws from; numpy float64 is a float
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([
        float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308,
        123456789012.0, 1e16, 1e22,
    ]),
    st.floats().map(np.float64),
)
# the values of an error's diagnostics
_DIAGNOSTICS = st.dictionaries(
    st.text(max_size=4),
    st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=4)),
    max_size=6,
)
# the shapes of the documents bound, check and optimize print
_FLOAT_LISTS = st.lists(_FLOATS, min_size=1, max_size=6)
_DOCS = st.recursive(
    st.one_of(
        _FLOATS, st.integers(), st.booleans(), st.none(),
        _FLOAT_LISTS, st.lists(_FLOAT_LISTS, min_size=1, max_size=4),
    ),
    lambda inner: st.dictionaries(st.text(max_size=4), inner, min_size=1, max_size=6),
    max_leaves=40,
)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(diag=_DIAGNOSTICS)
def test_round_floats_matches_the_reference_text(diag):
    expected = json.dumps(_round_floats_reference(diag))
    assert json.dumps(cli._round_floats(diag)) == expected


def _written(doc) -> str:
    return cli._layout(doc, "\n")


ADVERSARIAL_DOCS = [
    {"nan": [float("nan"), 1.0], "inf": [float("inf"), -float("inf")], "one": float("-inf")},
    {"zero": [-0.0, 0.0, -0.0], "sub": [5e-324, 2.2250738585072014e-308, -1e-310]},
    {"numpy": [np.float64(0.1), np.float64("nan"), np.float64(-0.0)]},
    {"numpy_flat": [np.float64(1.0) / 3, np.float64(2.0)], "scalar": np.float64(1e300)},
    {"single": [1.0], "one_row": [[2.0]], "int": 0},
    {"rows": [[np.float64(0.1), 0.2], [1.0]], "nan_row": [[1.0], [2.0, float("nan")]]},
    {"ragged": [[1.0, 2.0], [3.0]], "deep": {"a": {"b": {"c": [[1e-5]]}}}},
    {"ключ": {"κλειδί": [1.0], "键": None}, "\u2028": True, "\"\n\t": False},
    {"ints": 3, "big": 2**70, "neg": -7, "flags": {"t": True, "f": False, "none": None}},
    [[1.0, 2.0], [3.0, -float("inf")], [4.0, 5.0]],
    [1e-300],
    {"k": 0.0},
    0.1 + 0.2,
    [[np.float64(1e22)]],
    None,
    [123456789012.0, 1234567890123.0, 1e16, 1e-5, 1e22, -2.0],
]


@pytest.mark.parametrize("doc", ADVERSARIAL_DOCS)
def test_writer_matches_json_dumps_on_adversarial_documents(doc):
    assert _written(doc) == json.dumps(_round_floats_reference(doc), indent=2)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(doc=_DOCS)
def test_writer_matches_json_dumps_hypothesis(doc):
    assert _written(doc) == json.dumps(_round_floats_reference(doc), indent=2)


def _float_texts_reference(values):
    # the writer's one-line route: every float through .12g, float and repr
    rounded = map(float, map(float.__format__, values, repeat(".12g")))
    return [repr(r) if isfinite(r) else f'"{r!r}"' for r in rounded]


# where the notations of .12g and repr part: exponent forms below 1e-4 and
# from 1e12 (.12g) or 1e16 (repr), whole numbers, rounding up into the next
# decade, subnormals, the largest float and the signed zeros
_FLOAT_EDGES = [
    0.0, -0.0, 1.0, -3.0, 0.5, 1e-4, 9.99999999999e-5, 9.999999999995e-5, 1e-5,
    999999999999.0, 999999999999.5, 1e12, 123456789012.0, 1234567890123.0,
    9999999999999998.0, 9.99999999999e15, 1e16, 1e22, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, float("nan"), float("inf"), -float("inf"),
]


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(values=st.lists(
    st.one_of(
        _FLOATS,
        st.sampled_from(_FLOAT_EDGES),
        st.floats(1e11, 1e17),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-323, 307)),
    ),
    max_size=20,
))
@example(values=_FLOAT_EDGES)
def test_float_texts_match_the_repr_route_hypothesis(values):
    assert cli._float_texts(values) == _float_texts_reference(values)


@pytest.mark.parametrize("doc", [
    {"error": "text"},
    {"pair": (1.0, 2.0)},
    {"rows": [(1.0, 2.0)]},
    {"single": np.float32(0.5)},
    {"list": [0.5, np.float32(0.5)]},
    {1: 0.5},
    {"rank": np.int64(3)},
    {"ints": [1, 2]},
    {"ragged": [[1.0], []]},
    {"empty": []},
    {"flags": {}},
])
def test_writer_refuses_values_outside_the_document_shapes(doc):
    with pytest.raises(TypeError):
        _written(doc)


def test_writer_prints_real_documents_as_json_dumps(files, capsys, monkeypatch, tmp_path):
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc, out: (emitted.append(doc), emit(doc, out)))
    exp3 = tmp_path / "exp3.json"
    exp3.write_text(json.dumps({"kind": "exponential", "n": 3}))
    unconverged = tmp_path / "unconverged.json"
    unconverged.write_text(json.dumps({"restarts": 1, "max_iters": 1}))
    runs = [
        (["bound", files["tetra"], files["euler"], "--theta", "0.3,1.1,-0.4"], 0),
        (["bound", files["tetra"], files["exp2"], "--theta", "0,0,0", "--weight", "identity"], 0),
        (["bound", files["ghz39"], str(exp3), "--theta", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"], 0),
        (["check", files["cyclic"]], 0),
        (["check", files["stretched"]], 0),
        (["optimize", "--n", "2", "--particles", "4", "--seed", "1"], 0),
        (["optimize", "--n", "3", "--particles", "3", "--seed", "1",
          "--config", str(unconverged)], 3),
    ]
    for argv, code in runs:
        emitted.clear()
        assert main(argv) == code, argv
        assert len(emitted) == 1
        assert capsys.readouterr().out == json.dumps(_round_floats_reference(emitted[0]), indent=2) + "\n"


# Documents for the exit-code property: arbitrary JSON, and documents of each
# role with fields in range, some of them then replaced by arbitrary JSON or
# dropped.  Integers stay small: a valid document's cost grows with n, N and
# the restarts.  Numbers include numeric strings and integers beyond float
# range, which amplitudes, factor axes and weight entries refuse.
_NUMBER = st.one_of(
    st.integers(-2, 6), st.floats(), st.floats().map(repr), st.integers(10**308, 10**400)
)
_ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-4, 12), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=10,
)
_AMPLITUDES = st.lists(
    st.one_of(_NUMBER, st.lists(_NUMBER, min_size=2, max_size=2)), max_size=6
)
_PROBE_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("ghz"), "n": st.integers(1, 5), "N": st.integers(-1, 6)}
    ),
    st.fixed_dictionaries({"kind": st.just("noon"), "N": st.integers(-1, 8)}),
    st.just({"kind": "tetrahedron_j2"}),
    st.fixed_dictionaries(
        {"kind": st.just("su3_cyclic"), "k": st.integers(-1, 5), "l": st.integers(-1, 5)}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("fock"), "occupations": st.lists(st.integers(-1, 5), max_size=4)}
    ),
    st.fixed_dictionaries({
        "kind": st.just("custom"),
        "n": st.integers(1, 3),
        "N": st.integers(0, 3),
        "amplitudes": _AMPLITUDES,
    }),
    st.sampled_from([
        {"kind": "custom", "n": 2, "N": 1, "amplitudes": [[0.6, 0], [0, 0.8]]},
        {"kind": "custom", "n": 2, "N": 3, "amplitudes": [0.5, 0.5, 0.5, 0.5]},
    ]),
)
_CHART_DOCS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("exponential"), "n": st.integers(1, 4)}),
    st.fixed_dictionaries({"kind": st.just("euler_su2"), "n": st.integers(1, 3)}),
    st.fixed_dictionaries({
        "kind": st.just("product_of_exponentials"),
        "n": st.integers(1, 3),
        "factors": st.lists(
            st.one_of(st.lists(_NUMBER, min_size=3, max_size=3), st.lists(_NUMBER, max_size=4)),
            max_size=4,
        ),
    }),
)
_CONFIG_DOCS = st.fixed_dictionaries(
    {"seed": st.one_of(st.none(), st.integers(-1, 5))},
    optional={
        "restarts": st.integers(-1, 4),
        "max_iters": st.integers(-1, 60),
        "tolerance": _NUMBER,
        "method": st.sampled_from(["gradient_descent_on_sphere", "simplex"]),
    },
)


# weight matrices for the property's euler chart, which has three parameters:
# any shape, 3 x 3 with any entries (asymmetric, non-finite), symmetric but
# possibly indefinite, and symmetric positive definite (A A^T + I)
_WEIGHT_DOCS = st.one_of(
    st.lists(st.lists(_NUMBER, max_size=4), max_size=4),
    st.lists(st.lists(_NUMBER, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9).map(
        lambda a: (np.reshape(a, (3, 3)) + np.reshape(a, (3, 3)).T).tolist()
    ),
    st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9).map(
        lambda a: (np.reshape(a, (3, 3)) @ np.reshape(a, (3, 3)).T + np.eye(3)).tolist()
    ),
)


@st.composite
def _corrupted(draw, docs):
    # one field replaced by arbitrary JSON, or dropped
    doc = dict(draw(docs))
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        doc[key] = draw(_ANY_JSON)
    else:
        del doc[key]
    return doc


def _role(name, docs):
    return st.tuples(st.just(name), st.one_of(docs, _corrupted(docs), _ANY_JSON))


_ROLES = st.one_of(
    _role("check probe", _PROBE_DOCS),
    _role("bound probe", _PROBE_DOCS),
    _role("bound chart", _CHART_DOCS),
    _role("optimize config", _CONFIG_DOCS),
    st.tuples(st.just("bound weight"), st.one_of(_WEIGHT_DOCS, _ANY_JSON)),
)


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    (path / "probe.json").write_text(json.dumps({"kind": "tetrahedron_j2"}))
    (path / "chart.json").write_text(json.dumps({"kind": "euler_su2", "n": 2}))
    return path


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(role_and_doc=_ROLES)
# weights whose symmetry check overflows, by w - w^T and by w + w^T
@example(role_and_doc=("bound weight", [[1e308, -1e308, 0.0], [1e308, 1.0, 0.0], [0.0, 0.0, 1.0]]))
@example(role_and_doc=("bound weight", [[1.7e308, 0.0, 0.0], [0.0, 1.7e308, 0.0], [0.0, 0.0, 1.0]]))
def test_any_json_document_ends_in_a_documented_exit_code(role_and_doc, property_dir):
    role, doc = role_and_doc
    path = property_dir / "doc.json"
    path.write_text(json.dumps(doc))
    probe, chart = str(property_dir / "probe.json"), str(property_dir / "chart.json")
    argv = {
        "check probe": ["check", str(path)],
        "bound probe": ["bound", str(path), chart, "--theta", "0.3,1.1,-0.4"],
        "bound chart": ["bound", probe, str(path), "--theta", "0.3,1.1,-0.4"],
        "bound weight": ["bound", probe, chart, "--theta", "0.3,1.1,-0.4", "--weight", str(path)],
        "optimize config": ["optimize", "--n", "2", "--particles", "4", "--config", str(path)],
    }[role]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main([*argv, "--cap", "200"])
    assert rc in (0, 1, 2, 3)
