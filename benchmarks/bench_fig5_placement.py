"""Figure 5: effects of input value placement (sorting) on GPU power.

Paper expectations (T8-T11): sorting into rows or columns reduces power;
aligned sorting (B transposed) reduces it the most; intra-row sorting helps
less than full sorting.
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.analysis.takeaways import (
    check_t8_sorting_decreases,
    check_t9_aligned_sorting_better,
    check_t10_column_sorting_decreases,
    check_t11_intra_row_lesser_effect,
)
from repro.experiments.figures import run_figure


def bench_fig5_placement(benchmark):
    settings = settings_for_profile()
    figure = benchmark.pedantic(run_figure, args=("fig5", settings), rounds=1, iterations=1)

    checks = []
    for dtype in settings.dtypes:
        rows = figure.panel(f"a_sorted_rows/{dtype}")
        aligned = figure.panel(f"b_sorted_aligned/{dtype}")
        columns = figure.panel(f"c_sorted_columns/{dtype}")
        within = figure.panel(f"d_sorted_within_rows/{dtype}")
        checks.append(check_t8_sorting_decreases(rows))
        checks.append(check_t9_aligned_sorting_better(rows, aligned))
        checks.append(check_t10_column_sorting_decreases(columns))
        checks.append(check_t11_intra_row_lesser_effect(rows, within))
    emit_figure(figure, [f"{c.takeaway}: {'PASS' if c.passed else 'FAIL'} — {c.detail}" for c in checks])

    failed = [c for c in checks if not c.passed]
    assert not failed, f"placement takeaways failed: {[c.takeaway for c in failed]}"
