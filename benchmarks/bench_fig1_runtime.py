"""Figure 1: average iteration runtime by datatype.

Paper expectation: runtimes are very consistent across experiments for a
given datatype; the tensor-core FP16-T setup is the fastest, FP32 the
slowest of the four setups.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.experiments.figures import run_figure


def bench_fig1_runtime_by_dtype(benchmark):
    figure = benchmark.pedantic(
        run_figure, args=("fig1", settings_for_profile()), rounds=1, iterations=1
    )
    emit_figure(figure)

    sweep = figure.panel("runtime_by_dtype")
    runtime = dict(zip(sweep.values, sweep.runtimes()))
    # Shape checks: tensor cores are the fastest path, FP32 the slowest.
    assert runtime["fp16_t"] < runtime["fp16"] < runtime["fp32"]
    assert runtime["int8"] < runtime["fp32"]
