"""Figure 4: effects of bit similarity on GPU power.

Paper expectations (T4-T7): power rises as bits become less similar (random
flips, randomized LSBs, randomized MSBs), and FP16-T is the most power
hungry datatype overall.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.analysis.takeaways import (
    check_t4_similar_bits_use_less,
    check_t5_lsb_randomization_increases,
    check_t6_msb_randomization_increases,
    check_t7_fp16t_most_power_hungry,
)
from repro.experiments.figures import run_figure
from repro.experiments.figures.fig4_bit_similarity import datatype_power_ranking


def bench_fig4_bit_similarity(benchmark):
    settings = settings_for_profile()
    figure = benchmark.pedantic(run_figure, args=("fig4", settings), rounds=1, iterations=1)

    checks = []
    for dtype in settings.dtypes:
        checks.append(check_t4_similar_bits_use_less(figure.panel(f"a_bit_flip/{dtype}")))
        checks.append(check_t5_lsb_randomization_increases(figure.panel(f"b_lsb/{dtype}")))
        checks.append(check_t6_msb_randomization_increases(figure.panel(f"c_msb/{dtype}")))
    checks.append(check_t7_fp16t_most_power_hungry(datatype_power_ranking(figure)))
    emit_figure(figure, [f"{c.takeaway}: {'PASS' if c.passed else 'FAIL'} — {c.detail}" for c in checks])

    failed = [c for c in checks if not c.passed]
    assert not failed, f"bit-similarity takeaways failed: {[c.takeaway for c in failed]}"

    # The paper reports swings of up to ~38% between the most similar and the
    # most random inputs; verify a substantial relative swing is visible.
    fp16t_swing = figure.panel("a_bit_flip/fp16_t").power_range_fraction()
    assert fp16t_swing > 0.04
