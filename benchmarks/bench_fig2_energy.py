"""Figure 2: average iteration energy by datatype (Gaussian random inputs).

Paper expectation: iteration energy mirrors iteration runtime because power
is similar across datatypes for random inputs — FP16-T is the most energy
efficient per GEMM despite drawing the most power.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.experiments.figures import run_figure


def bench_fig2_energy_by_dtype(benchmark):
    figure = benchmark.pedantic(
        run_figure, args=("fig2", settings_for_profile()), rounds=1, iterations=1
    )
    emit_figure(figure)

    sweep = figure.panel("energy_by_dtype")
    energy = dict(zip(sweep.values, sweep.energies()))
    runtime = dict(zip(sweep.values, sweep.runtimes()))
    # Energy ranking follows the runtime ranking (identical patterns, Fig 1 vs 2).
    energy_order = sorted(energy, key=energy.get)
    runtime_order = sorted(runtime, key=runtime.get)
    assert energy_order == runtime_order
    assert energy["fp16_t"] < energy["fp32"]
