"""The project's pytest configuration still reports failing hypothesis examples."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SUITE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_hypothesis_example_is_reported(tmp_path):
    # warnings are errors under the project's config; hypothesis's failure
    # report must not trip one and end the session in an INTERNALERROR
    (tmp_path / "test_suite.py").write_text(SUITE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_suite.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
