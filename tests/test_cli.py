"""End-to-end command behavior: JSON reports, CSV scans, SVG plots, exit codes."""

import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import sparse

import sunmetro.cli as cli
from sunmetro import (
    Parametrization,
    ProbeSpec,
    Representation,
    SingularCovarianceError,
    SingularInformationError,
    build_probe,
    casimir,
    covariance,
    exponential,
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
    ],
)
def test_malformed_probe_fields_exit_1(files, capsys, tmp_path, doc):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", str(path), files["euler"], "--theta", "0,0,0"]) == 1
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sunmetro: error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "chart, weight",
    [
        ({"kind": "exponential", "n": [2]}, "intrinsic"),
        ({"kind": "product_of_exponentials", "n": 2, "factors": 5}, "intrinsic"),
        ({"kind": "exponential", "n": float("inf")}, "intrinsic"),
        ({"kind": "exponential", "n": 2.9}, "intrinsic"),
        ({"kind": "exponential", "n": 2}, {"a": 1}),
        ({"kind": "exponential", "n": 2}, [[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]]),
    ],
    ids=[
        "chart-n-list", "chart-factors-int", "chart-n-inf", "chart-n-float", "weight-object",
        "weight-inf",
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


def test_scan_cap_marks_skipped_rows(capsys):
    rc = main(["scan", "--n", "3", "--nmin", "1", "--nmax", "3", "--cap", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[2] == "3,2,skipped,skipped,skipped,skipped"
    assert lines[3] == "3,3,skipped,skipped,skipped,skipped"
    assert lines[1].startswith("3,1,")


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
    assert doc["bound_achieved"] == pytest.approx(1.2, rel=1e-6)


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


def test_optimize_failure_exits_3(capsys):
    rc = main(["optimize", "--n", "2", "--particles", "1", "--seed", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    diag = json.loads(captured.err)
    assert diag["singular_restarts"] == 20


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


_LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308]),
    st.floats(width=16).map(np.float16),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=6),
    ),
    max_leaves=40,
)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(doc=_DOCS)
def test_round_floats_matches_the_reference_text(doc):
    expected = json.dumps(_round_floats_reference(doc), indent=2)
    assert json.dumps(cli._round_floats(doc), indent=2) == expected
