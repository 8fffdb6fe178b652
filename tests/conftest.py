"""Shared fixtures for the test suite.

Tests run against small matrices and noise-free telemetry so that every
assertion about trend *direction* is deterministic and the whole suite stays
fast.  The benchmark harness, not the tests, exercises paper-scale sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.activity.engine import estimate_activity
from repro.activity.sampler import SamplingConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.plan import build_problem
from repro.kernels.launch import plan_launch
from repro.telemetry.dcgm import DcgmMonitor
from repro.telemetry.sampler import TelemetryConfig


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def quiet_telemetry() -> TelemetryConfig:
    """Telemetry config with sensor noise and drift disabled."""
    return TelemetryConfig(noise_std_watts=0.0, drift_watts=0.0)


@pytest.fixture
def small_sampling() -> SamplingConfig:
    """Small sampling budget: enough signal for trend checks, fast."""
    return SamplingConfig(output_samples=64)


@pytest.fixture
def quiet_config(quiet_telemetry: TelemetryConfig, small_sampling: SamplingConfig):
    """Factory for small, deterministic experiment configurations."""

    def make(**overrides) -> ExperimentConfig:
        base = ExperimentConfig(
            pattern_family="gaussian",
            dtype="fp16_t",
            gpu="a100",
            matrix_size=128,
            seeds=1,
            telemetry=quiet_telemetry,
            sampling=small_sampling,
            include_process_variation=False,
        )
        return base.with_overrides(**overrides) if overrides else base

    return make


@pytest.fixture
def gaussian_matrices(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A pair of small Gaussian matrices (paper's default input scale)."""
    a = rng.normal(0.0, 210.0, size=(96, 96))
    b = rng.normal(0.0, 210.0, size=(96, 96))
    return a, b


@pytest.fixture
def seed_reference():
    """Run one seed of a pipeline's configuration through the reference path.

    The seed goes through the single-invocation activity estimator, and
    problem, launch and monitor are rebuilt from the config rather than
    taken from the (possibly cache-shared) plan, so the result is an
    independent check of the batched, plan-sharing ``pipeline.run()``.
    """

    def run(pipeline, seed_index: int):
        config = pipeline.config
        problem = build_problem(config)
        operands = pipeline.generate_operands(problem, seed_index)
        activity = estimate_activity(operands, sampling=config.sampling, seed=seed_index)
        launch = plan_launch(problem, pipeline.device)
        monitor = DcgmMonitor(pipeline.device, config=config.telemetry)
        return pipeline.measure_seed(seed_index, launch, activity, monitor)

    return run
