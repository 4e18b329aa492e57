"""The repository's pytest settings, run on a small suite in a child interpreter."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_lets_the_rest_run(tmp_path):
    """Reporting a failing ``@given`` example makes hypothesis import libcst, whose
    import can raise a DeprecationWarning; under ``filterwarnings = error`` alone
    that ended the session with an INTERNALERROR before the next test ran."""
    (tmp_path / "test_suite.py").write_text(SUITE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_suite.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
