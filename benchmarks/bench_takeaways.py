"""Aggregate takeaway validation: reproduce T1-T15 in one report.

Runs the minimal sweep set required to evaluate every takeaway statement of
the paper and prints a PASS/FAIL table; the benchmark fails if any takeaway
is not reproduced.
"""

from __future__ import annotations

import json

from common import RESULTS_DIR, settings_for_profile
from repro.analysis.reporting import render_takeaway_report
from repro.analysis.takeaways import evaluate_takeaways, passed_fraction
from repro.experiments.figures.common import base_config, mean_sweep_values
from repro.experiments.harness import run_experiment
from repro.experiments.sweep import run_sweep


def _collect_sweeps(settings):
    def sweep(family, parameter, values, transpose_b=True, **params):
        config = base_config(settings, "fp16_t", pattern_family=family, **params)
        config = config.with_overrides(transpose_b=transpose_b)
        return run_sweep(config, parameter, values)

    fractions = [0.0, 0.5, 1.0]
    return {
        "std": sweep("gaussian", "std", [0.25, 1.0, 210.0, 4096.0], mean=0.0),
        "mean": sweep("gaussian", "mean", mean_sweep_values("fp16_t"), std=1.0),
        "value_set": sweep("value_set", "set_size", [1, 16, 256]),
        "bit_flip": sweep("bit_flip", "probability", [0.0, 0.1, 0.3, 0.5]),
        "lsb": sweep("randomize_lsb", "fraction", fractions),
        "msb": sweep("randomize_msb", "fraction", fractions),
        "sorted_rows": sweep("sorted_rows", "fraction", fractions, transpose_b=False),
        "sorted_aligned": sweep("sorted_rows", "fraction", fractions),
        "sorted_columns": sweep("sorted_columns", "fraction", fractions),
        "sorted_within_rows": sweep("sorted_within_rows", "fraction", fractions),
        "sparsity": sweep("sparsity", "sparsity", [0.0, 0.25, 0.5, 0.75, 1.0]),
        "sorted_sparsity": sweep("sorted_sparsity", "sparsity", [0.0, 0.15, 0.3, 0.45, 0.7, 1.0]),
        "zero_lsb": sweep("zero_lsb", "fraction", fractions),
        "zero_msb": sweep("zero_msb", "fraction", fractions),
    }


def _power_by_dtype(settings):
    powers = {}
    for dtype in settings.dtypes:
        result = run_experiment(base_config(settings, dtype, pattern_family="gaussian"))
        powers[dtype] = result.mean_power_watts
    return powers


def _run_takeaways(settings):
    sweeps = _collect_sweeps(settings)
    ranking = _power_by_dtype(settings)
    checks = evaluate_takeaways(sweeps, ranking)
    return checks


def bench_takeaways_t1_to_t15(benchmark):
    settings = settings_for_profile()
    checks = benchmark.pedantic(_run_takeaways, args=(settings,), rounds=1, iterations=1)

    report = render_takeaway_report(checks, title="Paper takeaways T1-T15 (reproduced)")
    print()
    print(report)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "takeaways.txt").write_text(report + "\n")
    (RESULTS_DIR / "takeaways.json").write_text(
        json.dumps([c.as_dict() for c in checks], indent=2)
    )

    assert len(checks) == 15
    assert passed_fraction(checks) == 1.0, [c.takeaway for c in checks if not c.passed]
