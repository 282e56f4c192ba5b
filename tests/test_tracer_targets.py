"""Every function the benchmark's tracer wraps still exists in specsel.

``perfbench/tracer.py`` patches ``specsel.<module>.<name>`` for each name
in its ``TARGETS``, and fails when one is gone; this checks those names
without running the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> dict[str, tuple[str, ...]]:
    """``TARGETS`` as the tracer's source writes it, read without running
    the tracer."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"])


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in tracer_targets().items()
    for name in names])
def test_tracer_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"specsel.{module}"),
                            name, None))
