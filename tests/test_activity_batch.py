"""Stacked activity engine: one invocation is a batch of one, and batching
(at any chunk size) never changes a report, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activity.accumulator import estimate_datapath_activity
from repro.activity.engine import estimate_activity, estimate_activity_batch
from repro.activity.memory_traffic import estimate_memory_activity
from repro.activity.multiplier import estimate_multiplier_activity
from repro.activity.operand_bus import estimate_operand_activity
from repro.activity.sampler import SamplingConfig
from repro.errors import ActivityError, KernelError
from repro.experiments.harness import ExperimentRunner
from repro.kernels.gemm import GemmOperands, GemmProblem
from repro.kernels.schedule import (
    StackedOperandStreams,
    build_streams,
    build_streams_stacked,
)
from repro.patterns.library import build_pattern
from repro.dtypes.registry import get_dtype
from repro.util import bits
from repro.util.rng import derive_rng


def make_operands(size=96, dtype="fp16_t", transpose_b=True, count=3, family="gaussian"):
    spec = get_dtype(dtype)
    problem = GemmProblem.square(size, dtype=dtype, transpose_b=transpose_b)
    pattern = build_pattern(family, spec)
    operands = []
    for seed in range(count):
        a = pattern.generate(problem.a_shape, spec, derive_rng(2024, "A", seed))
        b = pattern.generate(problem.b_storage_shape, spec, derive_rng(2024, "B", seed))
        operands.append(GemmOperands(problem=problem, a=a, b_stored=b))
    return operands


def assert_reports_identical(batch, sequential):
    assert len(batch) == len(sequential)
    for got, expected in zip(batch, sequential):
        got_dict, expected_dict = got.as_dict(), expected.as_dict()
        for field in expected_dict:
            assert got_dict[field] == expected_dict[field], field


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "dtype,transpose_b",
        [
            ("fp16_t", True),
            ("fp16", True),
            ("bf16", True),
            ("fp32", False),
            ("fp64", True),
            ("int8", True),
            ("int32", False),
        ],
    )
    def test_matches_sequential_bit_for_bit(self, dtype, transpose_b):
        operands = make_operands(dtype=dtype, transpose_b=transpose_b)
        sampling = SamplingConfig(output_samples=64)
        sequential = [
            estimate_activity(op, sampling=sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling), sequential
        )

    @pytest.mark.parametrize("family", ["sparsity", "sorted_rows", "constant_random"])
    def test_matches_for_structured_patterns(self, family):
        operands = make_operands(family=family)
        sampling = SamplingConfig(output_samples=64)
        sequential = [
            estimate_activity(op, sampling=sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling), sequential
        )

    def test_explicit_chunking_matches(self):
        operands = make_operands(count=5)
        sampling = SamplingConfig(output_samples=32)
        sequential = [
            estimate_activity(op, sampling=sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        for chunk in (1, 2, 5, 7):
            assert_reports_identical(
                estimate_activity_batch(operands, sampling=sampling, chunk=chunk),
                sequential,
            )

    def test_custom_seeds_respected(self):
        operands = make_operands(count=2)
        sampling = SamplingConfig(output_samples=32)
        sequential = [
            estimate_activity(op, sampling=sampling, seed=seed)
            for seed, op in zip([7, 11], operands)
        ]
        assert_reports_identical(
            estimate_activity_batch(operands, sampling=sampling, seeds=[7, 11]),
            sequential,
        )

    def test_accepts_prebuilt_streams(self):
        operands = make_operands(count=2)
        sampling = SamplingConfig(output_samples=32)
        sequential = [
            estimate_activity(op, sampling=sampling, seed=index)
            for index, op in enumerate(operands)
        ]
        stacked = build_streams_stacked(operands)
        assert_reports_identical(
            estimate_activity_batch(stacked, sampling=sampling), sequential
        )

    def test_rejects_a_sequence_of_streams(self):
        # Streams are stacked once per chunk from operands; a list of
        # per-invocation streams is not a batch item.
        streams = [build_streams(op) for op in make_operands(count=2)]
        with pytest.raises(ActivityError):
            estimate_activity_batch(streams)

    def test_empty_batch(self):
        assert estimate_activity_batch([]) == []

    def test_validation_errors(self):
        operands = make_operands(count=2)
        with pytest.raises(ActivityError):
            estimate_activity_batch(["nope"])
        with pytest.raises(ActivityError):
            estimate_activity_batch(operands, seeds=[1])
        with pytest.raises(ActivityError):
            estimate_activity_batch(operands, chunk=0)


class TestStackedStreams:
    def test_rows_match_single_build(self):
        operands = make_operands(count=2)
        stacked = build_streams_stacked(operands)
        for index, op in enumerate(operands):
            single = build_streams(op)
            assert single.batch == 1
            for name in ("a_used", "b_used", "b_stored", "a_words", "b_words", "b_stored_words"):
                assert np.array_equal(getattr(stacked, name)[index], getattr(single, name)[0])

    def test_dimensions(self):
        stacked = build_streams_stacked(make_operands(size=64, count=3))
        assert stacked.batch == 3
        assert (stacked.n, stacked.k, stacked.m) == (64, 64, 64)
        assert isinstance(stacked, StackedOperandStreams)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(KernelError):
            build_streams_stacked([])
        a, b = make_operands(size=64, count=1) + make_operands(size=96, count=1)
        with pytest.raises(KernelError):
            build_streams_stacked([a, b])
        fp16, int8 = (
            make_operands(size=64, count=1)[0],
            make_operands(size=64, dtype="int8", count=1)[0],
        )
        with pytest.raises(KernelError):
            build_streams_stacked([fp16, int8])

    def test_rejects_mixed_operand_types_either_order(self):
        operands = make_operands(size=64, count=2)
        streams = build_streams(operands[1])
        with pytest.raises(KernelError):
            build_streams_stacked([operands[0], streams])
        with pytest.raises(KernelError):
            build_streams_stacked([streams, operands[0]])
        with pytest.raises(KernelError):
            build_streams_stacked(["junk"])


class TestToggleFractionPerSlice:
    def test_matches_scalar_per_slice(self, rng):
        words = rng.integers(0, 1 << 16, size=(4, 32, 48), dtype=np.uint64).astype(
            np.uint16
        )
        for axis in (1, 2, -1):
            batched = bits.toggle_fraction_per_slice(words, axis=axis)
            expected = [
                bits.toggle_fraction_along_axis(words[i], axis=(axis % 3) - 1)
                for i in range(words.shape[0])
            ]
            assert batched.tolist() == expected

    def test_short_axis_gives_zeros(self):
        words = np.zeros((3, 1, 5), dtype=np.uint16)
        assert bits.toggle_fraction_per_slice(words, axis=1).tolist() == [0.0] * 3

    def test_rejects_bad_input(self):
        with pytest.raises(Exception):
            bits.toggle_fraction_per_slice(np.zeros(4, dtype=np.uint16), axis=0)
        with pytest.raises(Exception):
            bits.toggle_fraction_per_slice(
                np.zeros((2, 3), dtype=np.uint16), axis=0
            )


class TestSingleInvocation:
    @pytest.mark.parametrize(
        "estimator",
        [
            estimate_operand_activity,
            estimate_multiplier_activity,
            estimate_datapath_activity,
            estimate_memory_activity,
        ],
    )
    def test_component_estimators_reject_a_batch(self, estimator):
        stacked = build_streams_stacked(make_operands(size=32, count=2))
        with pytest.raises(ActivityError):
            estimator(stacked)

    def test_estimate_activity_rejects_a_batch(self):
        stacked = build_streams_stacked(make_operands(size=32, count=2))
        with pytest.raises(ActivityError):
            estimate_activity(stacked)

    def test_streams_and_operands_agree(self):
        (op,) = make_operands(size=48, count=1)
        sampling = SamplingConfig(output_samples=16)
        from_operands = estimate_activity(op, sampling=sampling, seed=4)
        from_streams = estimate_activity(build_streams(op), sampling=sampling, seed=4)
        assert from_operands == from_streams


DTYPES = ["fp16_t", "fp16", "bf16", "fp32", "fp64", "int8", "int32"]


@st.composite
def operand_batches(draw):
    """A batch of same-shape operands with per-invocation sampling seeds."""
    dtype = draw(st.sampled_from(DTYPES))
    n, m, k = (draw(st.integers(1, 24)) for _ in range(3))
    transpose_b = draw(st.booleans())
    count = draw(st.integers(1, 4))
    data_seed = draw(st.integers(0, 2**16))
    spec = get_dtype(dtype)
    problem = GemmProblem(n=n, m=m, k=k, dtype=dtype, transpose_b=transpose_b)
    pattern = build_pattern("gaussian", spec)
    operands = [
        GemmOperands(
            problem=problem,
            a=pattern.generate(problem.a_shape, spec, derive_rng(data_seed, "A", index)),
            b_stored=pattern.generate(
                problem.b_storage_shape, spec, derive_rng(data_seed, "B", index)
            ),
        )
        for index in range(count)
    ]
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=count, max_size=count))
    chunk = draw(st.none() | st.integers(1, 5))
    return operands, seeds, chunk


@settings(max_examples=40, deadline=None)
@given(
    batch=operand_batches(),
    output_samples=st.integers(1, 48),
    max_k=st.none() | st.integers(2, 24),
)
def test_single_invocation_is_row_of_batch(batch, output_samples, max_k):
    operands, seeds, chunk = batch
    sampling = SamplingConfig(output_samples=output_samples, max_k=max_k)
    batched = estimate_activity_batch(operands, sampling=sampling, seeds=seeds, chunk=chunk)
    single = [
        estimate_activity(op, sampling=sampling, seed=seed)
        for op, seed in zip(operands, seeds)
    ]
    assert_reports_identical(batched, single)


class TestBatchedHarness:
    def test_run_matches_per_seed_reference(self, quiet_config, seed_reference):
        """The batched runner is bit-for-bit the seed-by-seed reference."""
        runner = ExperimentRunner(quiet_config(seeds=3))
        batched = runner.run()
        reference = [seed_reference(runner.pipeline, index) for index in range(3)]
        assert [m.as_dict() for m in batched.measurements] == [
            m.as_dict() for m in reference
        ]
