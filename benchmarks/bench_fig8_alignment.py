"""Figure 8: bit alignment and Hamming weight of input values vs. GPU power.

Paper expectation: across floating point datatypes, higher bit alignment
and lower Hamming weight loosely correlate with lower average power, though
the trend is "not entirely consistent".
"""

from __future__ import annotations

from common import emit_figure, settings_for_profile
from repro.analysis.correlation import correlate_power_with_bit_metrics
from repro.experiments.figures import run_figure


def bench_fig8_alignment_hamming(benchmark):
    settings = settings_for_profile()
    figure = benchmark.pedantic(run_figure, args=("fig8", settings), rounds=1, iterations=1)
    emit_figure(figure)

    all_results = [
        result for sweep in figure.panels.values() for result in sweep.results
    ]
    summaries = {s.dtype: s for s in correlate_power_with_bit_metrics(all_results)}

    # Hamming weight should correlate positively with power for FP datatypes
    # (lower weight -> lower power), echoing the paper's loose trend.
    fp_dtypes = [d for d in settings.dtypes if d.startswith("fp")]
    positive = [summaries[d].hamming_spearman > 0 for d in fp_dtypes if d in summaries]
    assert any(positive), "expected a positive hamming-vs-power correlation for FP datatypes"
