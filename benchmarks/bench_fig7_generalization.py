"""Figure 7: generalization of the trends across GPU generations.

Paper expectations: the V100, A100 and H100 show consistent trends (mean,
randomized MSBs, sorting and sparsity all move power the same way); the
Quadro RTX 6000 shows less pronounced swings (older design, GDDR6, lower
TDP) and is run at 512x512 because it throttles at 2048x2048.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.analysis.takeaways import (
    check_t2_mean_reduces_power,
    check_t6_msb_randomization_increases,
    check_t8_sorting_decreases,
    check_t12_sparsity_decreases,
)
from repro.experiments.figures import run_figure
from repro.experiments.figures.fig7_generalization import power_swing_by_gpu
from repro.gpu.specs import PAPER_GPUS


def bench_fig7_generalization(benchmark):
    settings = settings_for_profile()
    figure = benchmark.pedantic(run_figure, args=("fig7", settings), rounds=1, iterations=1)

    checks = []
    for gpu in PAPER_GPUS:
        checks.append(check_t2_mean_reduces_power(figure.panel(f"{gpu}/mean")))
        checks.append(check_t6_msb_randomization_increases(figure.panel(f"{gpu}/msb")))
        checks.append(check_t8_sorting_decreases(figure.panel(f"{gpu}/sorted_rows")))
        checks.append(check_t12_sparsity_decreases(figure.panel(f"{gpu}/sparsity")))
    swings = power_swing_by_gpu(figure)
    notes = [f"{c.takeaway}@panel: {'PASS' if c.passed else 'FAIL'} — {c.detail}" for c in checks]
    notes.append("max relative power swing per GPU: " + ", ".join(f"{g}={s:.1%}" for g, s in swings.items()))
    emit_figure(figure, notes)

    failed = [c for c in checks if not c.passed]
    assert not failed, f"cross-GPU trends failed: {len(failed)} checks"

    # The RTX 6000's swings are the least pronounced of the four GPUs
    # (compare against the strongest of the HBM GPUs to stay robust to the
    # per-GPU occupancy differences of the benchmark profile's matrix size).
    assert swings["rtx6000"] <= max(swings[g] for g in ("v100", "a100", "h100")) + 1e-9
