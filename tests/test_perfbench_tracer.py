"""The benchmark's traced mode still finds, wraps and restores the layers.

``perfbench/tracer.py`` looks the stream builders and the component
estimators up by name and wraps every ``repro`` module attribute bound to
them for the duration of a ``with Tracer():`` block.  A renamed or deleted
function would make ``perfbench/run.py --trace 1`` fail, so these tests
drive the tracer from outside the benchmark without changing it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.activity import accumulator, memory_traffic, multiplier, operand_bus
from repro.activity.engine import estimate_activity
from repro.kernels import schedule
from repro.kernels.gemm import GemmOperands, GemmProblem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

COMPONENT_MODULES = {
    "operand": operand_bus,
    "multiplier": multiplier,
    "datapath": accumulator,
    "memory": memory_traffic,
}


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def traced_functions():
    """The stream builders and the eight component estimators."""
    functions = [schedule.build_streams, schedule.build_streams_stacked]
    for component, module in COMPONENT_MODULES.items():
        for suffix in ("", "_batch"):
            functions.append(getattr(module, f"estimate_{component}_activity{suffix}"))
    return functions


def bindings(functions):
    """Every (module, attribute) in ``repro`` bound to one of ``functions``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in functions):
                found.append((module, attr, value))
    return found


def test_tracer_wraps_and_restores_the_activity_layers(tracer_module):
    functions = traced_functions()
    assert len(functions) == 10
    before = bindings(functions)
    # Each function is bound at least in its defining module.
    assert {id(value) for _, _, value in before} == {id(fn) for fn in functions}

    with tracer_module.Tracer():
        for module, attr, original in before:
            current = getattr(module, attr)
            assert current is not original, f"{module.__name__}.{attr} not wrapped"
            assert current.__wrapped__ is original

    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


def test_traced_single_invocation_matches_untraced(tracer_module, rng):
    problem = GemmProblem(n=16, m=12, k=20, dtype="fp16_t", transpose_b=True)
    operands = GemmOperands(
        problem=problem,
        a=rng.normal(size=problem.a_shape),
        b_stored=rng.normal(size=problem.b_storage_shape),
    )
    untraced = estimate_activity(operands, seed=3)

    tracer = tracer_module.Tracer()
    with tracer:
        traced = estimate_activity(operands, seed=3)
        for component, module in COMPONENT_MODULES.items():
            single = getattr(module, f"estimate_{component}_activity")
            assert single(schedule.build_streams(operands)) is not None

    assert traced == untraced
    layers = {span[2] for span in tracer.spans}
    assert "kernels.build_streams" in layers
    for component in COMPONENT_MODULES:
        assert f"activity.{component}" in layers
        # The scanned-word count reads the streams' a_used and b_used.
        assert all(value > 0 for value in tracer.info(f"activity.{component}"))
