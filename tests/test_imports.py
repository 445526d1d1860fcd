"""Which scipy subpackages each entry point loads, each case in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.special", "scipy.linalg")

PROBE = {"kind": "tetrahedron_j2"}
CHART = {"kind": "euler_su2", "n": 2}


def loaded_after(code: str, cwd: Path) -> set:
    """The DEFERRED subpackages in sys.modules after ``code`` runs in a new process."""
    report = f"import json, sys\nprint(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_cli(*argv: str) -> str:
    # the command's own output goes to stderr so that stdout ends with the module list
    return (
        "import contextlib, sys\nfrom sunmetro.cli import main\n"
        f"with contextlib.redirect_stdout(sys.stderr):\n    assert main({list(argv)!r}) == 0"
    )


# every case requires that no DEFERRED subpackage loads
CASES = {
    "import-cli": "import sunmetro.cli",
    "import-package": "import sunmetro",
    "scan": run_cli("scan", "--n", "3", "--nmin", "2", "--nmax", "6"),
    "scan-optimized": run_cli(
        "scan", "--n", "3", "--nmin", "3", "--nmax", "4", "--states", "optimized", "--seed", "1"
    ),
    "check": run_cli("check", "probe.json"),
    "bound": run_cli("bound", "probe.json", "chart.json", "--theta", "0.3,1.1,-0.4"),
    # the descent and the polish at the floor are numpy
    "optimize": run_cli("optimize", "--n", "2", "--particles", "4", "--seed", "1"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_scipy_subpackages_load_only_where_they_are_called(case, tmp_path):
    (tmp_path / "probe.json").write_text(json.dumps(PROBE))
    (tmp_path / "chart.json").write_text(json.dumps(CHART))
    assert loaded_after(CASES[case], tmp_path) == set()


def test_quadrature_loads_no_scipy_special(tmp_path):
    # the Gauss-Legendre nodes come from numpy; the Pade expm is scipy.linalg's
    code = (
        "from sunmetro import exponential, generators_quadrature\n"
        "generators_quadrature(exponential(2), [0.3, -0.2, 0.5], order=8)"
    )
    assert "scipy.special" not in loaded_after(code, tmp_path)
