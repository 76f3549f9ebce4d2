"""Tests for the repository's pytest configuration itself."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ONE_FAILING_ONE_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
"""


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # Hypothesis imports libcst to report a failing example; libcst warns
    # at import, and the ini's error filters would turn that warning into
    # an INTERNALERROR that ends the session unreported
    (tmp_path / "test_two.py").write_text(ONE_FAILING_ONE_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in run.stdout
