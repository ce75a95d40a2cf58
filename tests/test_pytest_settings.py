"""The repository's pytest settings, applied to a throwaway test file run in
a pytest subprocess: a failing hypothesis property reports its falsifying
example, and a DeprecationWarning is still an error."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property(n):
    assert n < 5


def test_deprecated():
    warnings.warn("an old API", DeprecationWarning)
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "test_throwaway.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output   # tests failed; 3 would be an internal error
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_property(" in output
    assert "2 failed" in output
