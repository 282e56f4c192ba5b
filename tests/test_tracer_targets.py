"""Every function the benchmark's tracer wraps still exists in specsel,
and the significance gate still calls its traced parts.

``perfbench/tracer.py`` patches ``specsel.<module>.<name>`` for each name
in its ``TARGETS``, and fails when one is gone; this checks those names
without running the benchmark. The benchmark's ``significance.*`` metrics
are read from the spans of the gate's calls to ``anova_oneway``,
``boxplot_stats`` and ``f_cdf``, so a gate that reached them by another
route would read 0 there; the last test pins those spans.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

from specsel import selector, synth
from specsel.cli import DEFAULT_CANDIDATES
from specsel.preprocess import parse_pipeline

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


def load_tracer() -> types.ModuleType:
    """``perfbench/tracer.py`` as a module, run from its source so that
    nothing is written under ``perfbench/``."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_gate_calls_stay_visible_to_the_tracer():
    spectra, conc = synth.tears_phantom(8, 7)
    grid = [parse_pipeline(text) for text in DEFAULT_CANDIDATES]
    tracer_module = load_tracer()
    with tracer_module.Tracer() as tracer:
        selector.select_method(spectra, conc, grid)
    spans = tracer.spans
    gates = {s["id"] for s in spans
             if s["name"] == "significance.select_optimal_pc"}
    assert len(gates) == 12
    for gate in gates:
        children = sorted(s["name"] for s in spans if s["parent"] == gate
                          and s["name"] != "significance.f_cdf")
        assert children == ["significance.anova_oneway",
                            "significance.boxplot_stats"]
    metrics = tracer_module.layer_metrics([], spans, [])
    assert metrics["significance.pairwise_tests"] == (45, "count")
    assert metrics["significance.anova_s"][0] > 0.0
    assert metrics["significance.boxplot_s"][0] > 0.0
