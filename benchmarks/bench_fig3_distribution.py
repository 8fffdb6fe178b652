"""Figure 3: effects of input value distribution on GPU power.

Paper expectations (T1-T3): the std sweep is nearly flat; larger means
reduce power for floating point datatypes; small value sets reduce power.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.analysis.takeaways import (
    check_t1_std_insensitive,
    check_t2_mean_reduces_power,
    check_t3_small_set_reduces_power,
)
from repro.experiments.figures import run_figure


def bench_fig3_value_distribution(benchmark):
    settings = settings_for_profile()
    figure = benchmark.pedantic(run_figure, args=("fig3", settings), rounds=1, iterations=1)

    checks = []
    for dtype in settings.dtypes:
        checks.append(check_t1_std_insensitive(figure.panel(f"a_std/{dtype}")))
        if dtype != "int8":
            checks.append(check_t2_mean_reduces_power(figure.panel(f"b_mean/{dtype}")))
        checks.append(check_t3_small_set_reduces_power(figure.panel(f"c_value_set/{dtype}")))
    emit_figure(figure, [f"{c.takeaway}: {'PASS' if c.passed else 'FAIL'} — {c.detail}" for c in checks])

    failed = [c for c in checks if not c.passed]
    assert not failed, f"distribution takeaways failed: {[c.takeaway for c in failed]}"
