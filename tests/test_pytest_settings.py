"""The suite's pytest settings let a failing property test report normally.

``pyproject.toml`` turns every warning into an error. hypothesis's
``pytest_runtest_makereport`` hook sets off a DeprecationWarning
(``mypy_extensions.TypedDict is deprecated``) when it reports a failing
example; without the settings' entry that ignores it, the error ends the
whole run with an INTERNALERROR, and no test after the failing one runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_passes():
    pass
'''


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_child.py").write_text(FAILING_PROPERTY,
                                            encoding="utf-8")
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    result = subprocess.run(
        [sys.executable, *dev, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in result.stdout, output
