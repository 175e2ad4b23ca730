"""The project's pytest configuration reports a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_property_fails_and_the_run_goes_on(tmp_path):
    """Under ``filterwarnings = error``, Hypothesis formatting its falsifying
    example must not abort the session: the property is reported FAILED,
    the test after it runs, and pytest exits 1, not 3."""
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_PYPROJECT), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert "1 failed, 1 passed" in run.stdout
