"""Ablation: which datapath component carries each input-dependence trend?

DESIGN.md attributes different takeaways to different parts of the modeled
datapath (operand delivery and product/accumulator switching for the sorting
and similarity effects, the multiplier's partial-product density for the
sparsity and bit-zeroing effects).  This benchmark zeroes one component's
weight at a time, re-runs two signature experiments (full sorting and the
sorted-sparsity peak), and reports how the effect size changes.
"""

from __future__ import annotations

import json

import numpy as np

from common import RESULTS_DIR, settings_for_profile
from repro.activity.engine import activity_from_matrices
from repro.gpu.device import Device
from repro.kernels.gemm import GemmProblem
from repro.kernels.launch import plan_launch
from repro.patterns.library import build_pattern
from repro.power.components import ComponentWeights
from repro.power.model import PowerModel
from repro.util.rng import derive_rng
from repro.util.tables import format_table

COMPONENTS = ("operand", "multiplier", "datapath", "memory")


def _power_with_weights(device, problem, a, b, weights):
    launch = plan_launch(problem, device)
    activity = activity_from_matrices(a, b, dtype=problem.dtype)
    model = PowerModel(device, weights=weights)
    return model.estimate(launch, activity, include_process_variation=False).watts


def _run_ablation(size):
    device = Device.create("a100")
    problem = GemmProblem.square(size, dtype="fp16_t")
    dtype = "fp16_t"

    def matrices(family, **params):
        pattern = build_pattern(family, dtype, **params)
        a = pattern.generate((size, size), dtype, derive_rng(11, "A", family, tuple(params.items())))
        b = pattern.generate((size, size), dtype, derive_rng(11, "B", family, tuple(params.items())))
        return a, b

    workloads = {
        "gaussian": matrices("gaussian"),
        "sorted": matrices("sorted_rows", fraction=1.0),
        "sorted+35% sparsity": matrices("sorted_sparsity", sparsity=0.35),
        "75% sparsity": matrices("sparsity", sparsity=0.75),
    }

    rows = []
    results = {}
    weight_variants = {"full model": ComponentWeights()}
    for component in COMPONENTS:
        weight_variants[f"without {component}"] = ComponentWeights().without(component)

    for variant_name, weights in weight_variants.items():
        powers = {
            name: _power_with_weights(device, problem, a, b, weights)
            for name, (a, b) in workloads.items()
        }
        sorting_drop = powers["gaussian"] - powers["sorted"]
        sparsity_drop = powers["gaussian"] - powers["75% sparsity"]
        sorted_sparsity_bump = powers["sorted+35% sparsity"] - powers["sorted"]
        rows.append(
            [variant_name, powers["gaussian"], sorting_drop, sparsity_drop, sorted_sparsity_bump]
        )
        results[variant_name] = {
            "powers": powers,
            "sorting_drop_w": sorting_drop,
            "sparsity_drop_w": sparsity_drop,
            "sorted_sparsity_bump_w": sorted_sparsity_bump,
        }
    return rows, results


def bench_ablation_activity_components(benchmark):
    size = settings_for_profile().matrix_size
    rows, results = benchmark.pedantic(_run_ablation, args=(size,), rounds=1, iterations=1)

    table = format_table(
        ["model variant", "gaussian_W", "sorting_drop_W", "sparsity_drop_W", "sortsparse_bump_W"],
        rows,
        precision=2,
        title=f"Ablation of activity components (A100, fp16_t, {size}^2)",
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "ablation_components.txt").write_text(table + "\n")
    (RESULTS_DIR / "ablation_components.json").write_text(json.dumps(results, indent=2))

    full = results["full model"]
    # The sorting effect is carried by the toggle-driven components: removing
    # the operand path must shrink the sorting drop.
    assert results["without operand"]["sorting_drop_w"] < full["sorting_drop_w"]
    # The sparsity effect is carried largely by the multiplier: removing it
    # must shrink the sparsity drop.
    assert results["without multiplier"]["sparsity_drop_w"] < full["sparsity_drop_w"]
    # The sorted-sparsity bump (T13) disappears without the operand/datapath
    # toggles but survives in the full model.
    assert full["sorted_sparsity_bump_w"] > 0
    assert np.isfinite(full["sorted_sparsity_bump_w"])
