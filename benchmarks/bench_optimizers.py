"""Evaluation of the §V power-aware optimizers built on the power model.

Not a paper figure: this benchmark quantifies how much power/energy each of
the proposed future-work techniques (weight shifting, permutation-invariant
reordering, power-aware sparsity, data pruning for capping, the power-aware
compiler) recovers on a transformer-like GEMM workload.
"""

from __future__ import annotations

import json

import numpy as np

from common import RESULTS_DIR, settings_for_profile
from repro.optimize.compiler import GemmOp, Pipeline, PowerAwareCompiler
from repro.optimize.estimation import quick_power_estimate
from repro.optimize.permutation import greedy_low_toggle_permutation, permute_columns
from repro.optimize.power_capping import find_sparsity_for_cap
from repro.optimize.sparsity_design import design_sparsity
from repro.optimize.weight_shift import shift_weights_for_power
from repro.util.rng import derive_rng
from repro.util.tables import format_table


def _llm_layer(size):
    """Activation / weight matrices shaped like one transformer projection."""
    rng = derive_rng(99, "optimizer_bench", size)
    activations = rng.normal(0.0, 1.0, size=(size, size))
    weights = rng.normal(0.0, 0.02, size=(size, size))
    return activations, weights


def _run_optimizers(size):
    activations, weights = _llm_layer(size)
    baseline = quick_power_estimate(activations, weights, dtype="fp16_t", gpu="a100")

    rows = []
    results = {"baseline_power_w": baseline.power_watts}

    shift = shift_weights_for_power(activations, weights, dtype="fp16_t", gpu="a100")
    rows.append(["weight mean shift", shift.shifted.power_watts, shift.power_reduction_watts, "approximate"])
    results["weight_shift"] = shift.shifted.as_dict()

    permutation = greedy_low_toggle_permutation(weights, dtype="fp16_t")
    permuted = quick_power_estimate(activations, permute_columns(weights, permutation), gpu="a100")
    rows.append(["permutation reorder", permuted.power_watts, baseline.power_watts - permuted.power_watts, "exact"])
    results["permutation"] = permuted.as_dict()

    design = design_sparsity(activations, weights, sparsity=0.5, dtype="fp16_t", gpu="a100")
    rows.append(["50% magnitude pruning", design.pruned.power_watts, design.power_reduction_watts, f"err={design.relative_error:.3f}"])
    results["sparsity_design"] = design.pruned.as_dict()

    structured = design_sparsity(activations, weights, sparsity=0.5, structured=(2, 4), dtype="fp16_t", gpu="a100")
    rows.append(["2:4 structured sparsity", structured.pruned.power_watts, structured.power_reduction_watts, f"err={structured.relative_error:.3f}"])
    results["structured_sparsity"] = structured.pruned.as_dict()

    floor = quick_power_estimate(activations, np.zeros_like(weights), gpu="a100").power_watts
    cap_target = floor + 0.4 * (baseline.power_watts - floor)
    cap = find_sparsity_for_cap(activations, weights, power_cap_watts=cap_target, dtype="fp16_t", gpu="a100")
    rows.append([f"cap @ {cap_target:.0f} W via pruning", cap.capped.power_watts, baseline.power_watts - cap.capped.power_watts, f"sparsity={cap.sparsity:.2f}"])
    results["power_capping"] = {"sparsity": cap.sparsity, "feasible": cap.feasible, **cap.capped.as_dict()}

    pipeline = Pipeline(
        [
            GemmOp("attn_qkv", activations, weights.T.copy(), allowed_transforms=("permute_columns",)),
            GemmOp("mlp_up", activations, weights.T.copy(), allowed_transforms=("permute_columns", "shift_mean")),
            GemmOp("mlp_down", activations, weights.T.copy(), allowed_transforms=("permute_columns", "prune")),
        ]
    )
    report = PowerAwareCompiler("a100").compile(pipeline)
    rows.append(["power-aware compiler (3-op pipeline)", report.optimized_energy_j / report.baseline_energy_j * baseline.power_watts, report.mean_power_reduction_watts, f"energy -{report.energy_reduction_fraction:.1%}"])
    results["compiler"] = {
        "energy_reduction_fraction": report.energy_reduction_fraction,
        "transforms": [op.transform for op in report.ops],
    }

    return baseline, rows, results


def bench_power_aware_optimizers(benchmark):
    size = min(settings_for_profile().matrix_size, 512)
    baseline, rows, results = benchmark.pedantic(_run_optimizers, args=(size,), rounds=1, iterations=1)

    table = format_table(
        ["technique", "power_W", "reduction_W", "notes"],
        rows,
        precision=2,
        title=f"Power-aware optimizers on a {size}^2 FP16-T GEMM (A100); baseline {baseline.power_watts:.1f} W",
    )
    print()
    print(table)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "optimizers.txt").write_text(table + "\n")
    (RESULTS_DIR / "optimizers.json").write_text(json.dumps(results, indent=2))

    # Every technique must be power-neutral or better; pruning-based ones
    # must show a strictly positive reduction.
    assert all(row[2] >= -1e-6 for row in rows)
    assert results["power_capping"]["feasible"]
    assert results["compiler"]["energy_reduction_fraction"] >= 0.0
