"""The exit-code contract that ``tools/compare_outputs.py`` checks on the
log of every command it runs: exit 0, 2 or 3, no traceback or warning on
standard error, and one ``error:`` line on an exit 2."""

import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
STEP = ["select", "--spectra", "s.csv", "--concentrations", "c.csv"]
WARNING = ("/src/specsel/regress.py:77: RuntimeWarning: overflow "
           "encountered in multiply\n  terms = coeffs * scores\n")
TRACEBACK = ('Traceback (most recent call last):\n  File "<string>", line 1,'
             ' in <module>\nValueError: bad\n')


def load_tool() -> types.ModuleType:
    """``tools/compare_outputs.py`` as a module, run from its source so
    that nothing is written under ``tools/``."""
    module = types.ModuleType("compare_outputs")
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"),
         module.__dict__)
    return module


TOOL_MODULE = load_tool()


@pytest.mark.parametrize("code,stdout,stderr", [
    (0, "", ""),
    (0, "chosen: snv at 3 PCs\n", "progress: 12 of 12 candidates\n"),
    # stdout is not checked
    (0, "RuntimeWarning: in a label\nTraceback\n", ""),
    (2, "", "error: SpecselError: phantom set needs at least 4 spectra\n"),
    (3, "", "warning: no candidate is significant\n"),
], ids=["quiet", "progress", "stdout_free", "one_error", "fallback"])
def test_log_keeps_the_contract(code, stdout, stderr):
    log = TOOL_MODULE.command_log(STEP, code, stdout, stderr)
    assert not TOOL_MODULE.breaks_contract(log)


@pytest.mark.parametrize("code,stderr", [
    (1, ""),
    (-11, ""),
    (0, TRACEBACK),
    (2, TRACEBACK + "error: ValueError: bad\n"),
    (0, WARNING),
    (2, WARNING + "error: NonFiniteValue: x\n"),
    (3, "x.py:1: UserWarning: import\n"),
    (2, ""),
    (2, "error: SpecselError: a\nerror: SpecselError: b\n"),
    (2, "specsel: error: unrecognized arguments\n"),
], ids=["exit_1", "signal", "traceback", "traceback_exit_2", "warning",
        "warning_exit_2", "user_warning", "no_error_line",
        "two_error_lines", "error_not_at_line_start"])
def test_log_breaks_the_contract(code, stderr):
    log = TOOL_MODULE.command_log(STEP, code, "", stderr)
    assert TOOL_MODULE.breaks_contract(log)
