"""Unit tests for the repro.optimize package (§V power-aware optimizations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.gpu.device import Device
from repro.optimize.compiler import GemmOp, Pipeline, PowerAwareCompiler
from repro.optimize.estimation import quick_power_estimate
from repro.optimize.permutation import (
    column_toggle_cost,
    greedy_low_toggle_permutation,
    permutation_by_column_norm,
    permute_columns,
    restore_columns,
)
from repro.optimize.power_capping import find_sparsity_for_cap
from repro.optimize.sparsity_design import design_sparsity, magnitude_prune, structured_prune
from repro.optimize.weight_shift import candidate_shifts, shift_weights_for_power


@pytest.fixture
def activations(rng):
    return rng.normal(0.0, 1.0, size=(128, 128))


@pytest.fixture
def weights(rng):
    return rng.normal(0.0, 0.05, size=(128, 128))


class TestQuickEstimate:
    def test_fields_and_ranges(self, activations, weights):
        estimate = quick_power_estimate(activations, weights, dtype="fp16_t", gpu="a100")
        assert estimate.power_watts > 50.0
        assert estimate.iteration_time_s > 0
        assert estimate.iteration_energy_j == pytest.approx(
            estimate.power_watts * estimate.iteration_time_s
        )
        assert 0.0 <= estimate.activity_factor <= 1.15

    def test_accepts_device_instance(self, activations, weights):
        device = Device.create("h100")
        estimate = quick_power_estimate(activations, weights, gpu=device)
        assert estimate.power_watts > 60.0

    def test_deterministic(self, activations, weights):
        one = quick_power_estimate(activations, weights)
        two = quick_power_estimate(activations, weights)
        assert one.power_watts == pytest.approx(two.power_watts)

    def test_zero_weights_lower_power(self, activations, weights):
        dense = quick_power_estimate(activations, weights)
        empty = quick_power_estimate(activations, np.zeros_like(weights))
        assert empty.power_watts < dense.power_watts


class TestWeightShift:
    def test_candidate_shifts_positive_increasing(self, weights):
        shifts = candidate_shifts(weights, count=4)
        assert len(shifts) == 4
        assert all(s > 0 for s in shifts)
        assert shifts == sorted(shifts)

    def test_candidate_shifts_invalid_count(self, weights):
        with pytest.raises(OptimizationError):
            candidate_shifts(weights, count=0)

    def test_shift_reduces_power(self, activations, weights):
        result = shift_weights_for_power(activations, weights, dtype="fp16_t")
        assert result.shifted.power_watts <= result.baseline.power_watts
        assert result.power_reduction_fraction >= 0.0

    def test_error_budget_respected(self, activations, weights):
        from repro.dtypes import get_dtype

        result = shift_weights_for_power(
            activations, weights, dtype="fp16_t", max_relative_error=0.02
        )
        recovered = get_dtype("fp16_t").quantize(result.shifted_weights) - result.shift
        error = np.linalg.norm(recovered - weights) / np.linalg.norm(weights)
        assert error <= 0.02 + 1e-9

    def test_impossible_budget_returns_identity(self, activations, weights):
        result = shift_weights_for_power(
            activations, weights, shifts=[1e30], max_relative_error=1e-9
        )
        assert result.shift == 0.0
        assert result.power_reduction_watts == 0.0


class TestPermutation:
    def test_norm_permutation_is_valid(self, weights):
        perm = permutation_by_column_norm(weights)
        assert sorted(perm.tolist()) == list(range(weights.shape[1]))

    def test_greedy_permutation_is_valid(self, weights):
        perm = greedy_low_toggle_permutation(weights, dtype="fp16_t", sample_rows=16)
        assert sorted(perm.tolist()) == list(range(weights.shape[1]))

    def test_greedy_reduces_column_toggle_cost(self, weights):
        perm = greedy_low_toggle_permutation(weights, dtype="fp16_t", sample_rows=32)
        before = column_toggle_cost(weights, "fp16_t", sample_rows=32)
        after = column_toggle_cost(permute_columns(weights, perm), "fp16_t", sample_rows=32)
        assert after <= before

    def test_permute_restore_round_trip(self, weights):
        perm = permutation_by_column_norm(weights)
        np.testing.assert_array_equal(restore_columns(permute_columns(weights, perm), perm), weights)

    def test_computational_equivalence(self, activations, weights):
        perm = greedy_low_toggle_permutation(weights, dtype="fp16_t", sample_rows=16)
        direct = activations @ weights
        permuted = restore_columns(activations @ permute_columns(weights, perm), perm)
        np.testing.assert_allclose(direct, permuted, rtol=1e-12)

    def test_invalid_permutation_rejected(self, weights):
        with pytest.raises(OptimizationError):
            permute_columns(weights, np.zeros(weights.shape[1], dtype=np.int64))

    def test_non_2d_rejected(self):
        with pytest.raises(OptimizationError):
            permutation_by_column_norm(np.ones(5))
        with pytest.raises(OptimizationError):
            greedy_low_toggle_permutation(np.ones(5))

    def test_invalid_sample_rows(self, weights):
        with pytest.raises(OptimizationError):
            greedy_low_toggle_permutation(weights, sample_rows=0)


class TestSparsityDesign:
    def test_magnitude_prune_exact_count(self, weights):
        mask = magnitude_prune(weights, 0.25)
        assert (~mask).sum() == int(round(0.25 * weights.size))

    def test_magnitude_prune_keeps_largest(self):
        values = np.array([[0.1, -5.0, 0.2, 3.0]])
        mask = magnitude_prune(values, 0.5)
        np.testing.assert_array_equal(mask, [[False, True, False, True]])

    def test_magnitude_prune_extremes(self, weights):
        assert magnitude_prune(weights, 0.0).all()
        assert not magnitude_prune(weights, 1.0).any()

    def test_magnitude_prune_invalid(self, weights):
        with pytest.raises(OptimizationError):
            magnitude_prune(weights, 1.5)

    def test_structured_prune_2_4(self, weights):
        mask = structured_prune(weights, 2, 4)
        assert mask.mean() == pytest.approx(0.5)
        groups = mask.reshape(weights.shape[0], -1, 4)
        assert np.all(groups.sum(axis=-1) == 2)

    def test_structured_prune_invalid(self, weights):
        with pytest.raises(OptimizationError):
            structured_prune(weights, 5, 4)
        with pytest.raises(OptimizationError):
            structured_prune(np.ones((2, 6)), 2, 4)

    def test_design_reduces_power_and_reports_error(self, activations, weights):
        design = design_sparsity(activations, weights, sparsity=0.6)
        assert design.pruned.power_watts <= design.baseline.power_watts
        assert design.achieved_sparsity == pytest.approx(0.6, abs=0.01)
        assert 0.0 < design.relative_error < 1.0

    def test_structured_design(self, activations, weights):
        design = design_sparsity(activations, weights, sparsity=0.5, structured=(2, 4))
        assert design.achieved_sparsity == pytest.approx(0.5)
        assert design.structured == (2, 4)


class TestPowerCapping:
    def test_cap_above_baseline_needs_no_pruning(self, activations, weights):
        baseline = quick_power_estimate(activations, weights).power_watts
        plan = find_sparsity_for_cap(activations, weights, power_cap_watts=baseline + 10.0)
        assert plan.feasible and plan.sparsity == 0.0

    def test_cap_below_baseline_finds_sparsity(self, activations, weights):
        baseline = quick_power_estimate(activations, weights).power_watts
        floor = quick_power_estimate(activations, np.zeros_like(weights)).power_watts
        cap = floor + 0.5 * (baseline - floor)  # between fully-pruned and baseline power
        plan = find_sparsity_for_cap(activations, weights, power_cap_watts=cap)
        assert plan.feasible
        assert 0.0 < plan.sparsity <= 0.95
        assert plan.capped.power_watts <= plan.power_cap_watts + 1e-6
        assert plan.power_margin_watts >= 0.0

    def test_infeasible_cap_reported(self, activations, weights):
        plan = find_sparsity_for_cap(activations, weights, power_cap_watts=10.0)
        assert not plan.feasible
        assert plan.capped.power_watts > plan.power_cap_watts

    def test_invalid_cap(self, activations, weights):
        with pytest.raises(OptimizationError):
            find_sparsity_for_cap(activations, weights, power_cap_watts=0.0)


class TestCompiler:
    def test_op_validation(self, activations, weights):
        with pytest.raises(OptimizationError):
            GemmOp("bad", activations, weights[:, :64])
        with pytest.raises(OptimizationError):
            GemmOp("bad", activations, weights, allowed_transforms=("fuse",))

    def test_compile_empty_pipeline_rejected(self):
        with pytest.raises(OptimizationError):
            PowerAwareCompiler().compile(Pipeline())

    def test_permutation_only_op_stays_exact(self, activations, weights):
        op = GemmOp("layer0", activations, weights, allowed_transforms=("permute_columns",))
        compiled = PowerAwareCompiler("a100").compile_op(op)
        assert compiled.exact
        assert compiled.optimized.power_watts <= compiled.baseline.power_watts

    def test_pipeline_report_aggregates(self, activations, weights):
        pipeline = Pipeline()
        pipeline.add(GemmOp("l0", activations, weights, allowed_transforms=("permute_columns",)))
        pipeline.add(
            GemmOp("l1", activations, weights, allowed_transforms=("permute_columns", "prune"))
        )
        report = PowerAwareCompiler("a100").compile(pipeline)
        assert len(report.ops) == 2
        assert report.optimized_energy_j <= report.baseline_energy_j
        assert 0.0 <= report.energy_reduction_fraction < 1.0
        assert report.mean_power_reduction_watts >= 0.0
