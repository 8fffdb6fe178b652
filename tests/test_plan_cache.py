"""Tests for the experiment plan cache (:mod:`repro.experiments.plan`).

Covers the tier's four promises:

* **Keying** — :func:`plan_fingerprint` is invariant under everything the
  plan does not depend on (seed loop, iterations, measurement procedure,
  labels) and invalidated by everything it does (workload geometry, device,
  telemetry, resolved specs, code version).
* **Build-once** — a cold sweep builds each distinct plan exactly once per
  cache (asserted by call counting), including under concurrent threads and
  inside persistent process-pool workers across chunks.
* **Equivalence** — results are bit-for-bit identical with the plan cache
  on or off, on every execution backend.
* **Lifecycle** — default-instance creation honours the environment knobs
  and the process-pool worker initializer forwards enable/disable.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cache.fingerprint import code_fingerprint, plan_fingerprint
from repro.errors import ExperimentError
from repro.experiments.harness import ExperimentRunner, run_experiment
from repro.experiments.plan import (
    ExperimentPlan,
    PlanCache,
    build_plan,
    build_problem,
    build_workload_pattern,
    clear_workload_pattern_memo,
    get_default_plan_cache,
    resolve_plan_cache,
    set_default_plan_cache,
    workload_pattern_key,
)
from repro.experiments.sweep import (
    _process_worker_init,
    run_configs,
    run_sweep,
    sweep_configs,
)
from repro.gpu import specs as gpu_specs
from repro.kernels.launch import plan_launch
from repro.parallel import BACKENDS, chunk_budget_bytes
from repro.parallel.backends import ProcessExecutor
from repro.activity.sampler import SamplingConfig
from repro.telemetry.sampler import TelemetryConfig


# Top-level helper for the persistent-worker tests (must be picklable).
def _plan_builds_after_running(config):
    """Pool-worker probe: run one experiment, report this worker's plan tier."""
    ExperimentRunner(config, activity_cache=None).run()
    cache = get_default_plan_cache()
    if cache is None:
        return (os.getpid(), None, 0)
    return (os.getpid(), cache.stats.builds, len(cache))


@pytest.fixture
def fresh_default_plan_cache():
    """Reset the process-wide default plan cache around a test."""
    import repro.experiments.plan as plan_module

    saved = (plan_module._default_plan_cache, plan_module._default_plan_initialized)
    plan_module._default_plan_cache = None
    plan_module._default_plan_initialized = False
    yield plan_module
    plan_module._default_plan_cache, plan_module._default_plan_initialized = saved


def _as_dicts(results):
    return [result.as_dict() for result in results]


# ----------------------------------------------------------------- fingerprint


class TestPlanFingerprint:
    def test_deterministic(self, quiet_config):
        config = quiet_config()
        assert plan_fingerprint(config) == plan_fingerprint(config)

    def test_invariant_under_measurement_procedure(self, quiet_config):
        """Everything outside the plan — the seed loop, iteration counts,
        trimming, sampling, process variation, labels — must not change the
        key: that is what lets cross-seed/procedure sweeps share one plan."""
        config = quiet_config()
        base = plan_fingerprint(config)
        for overrides in (
            {"seeds": 7},
            {"base_seed": 999},
            {"iterations": 123},
            {"warmup_trim_s": 1.5},
            {"include_process_variation": True},
            {"label": "renamed"},
            {"sampling": SamplingConfig(output_samples=16)},
        ):
            assert plan_fingerprint(config.with_overrides(**overrides)) == base

    def test_sensitive_to_plan_inputs(self, quiet_config):
        config = quiet_config()
        base = plan_fingerprint(config)
        for overrides in (
            {"pattern_family": "sparsity", "pattern_params": {"sparsity": 0.5}},
            {"pattern_params": {"std": 16.0}},
            {"dtype": "fp32"},
            {"matrix_size": 256},
            {"transpose_b": False},
            {"gpu": "h100"},
            {"instance_id": 3},
            {"telemetry": TelemetryConfig(noise_std_watts=1.0)},
        ):
            assert plan_fingerprint(config.with_overrides(**overrides)) != base

    def test_code_version_invalidates(self, quiet_config):
        config = quiet_config()
        assert plan_fingerprint(config) == plan_fingerprint(
            config, code_version=code_fingerprint()
        )
        assert plan_fingerprint(config) != plan_fingerprint(
            config, code_version="other-version"
        )

    def test_device_spec_change_invalidates(self, quiet_config, monkeypatch):
        """Re-registering a GPU name with a different spec must never serve
        a plan built for the old silicon."""
        config = quiet_config()
        before = plan_fingerprint(config)
        modified = dataclasses.replace(
            gpu_specs.get_gpu_spec("a100"),
            sm_count=gpu_specs.get_gpu_spec("a100").sm_count + 8,
        )
        monkeypatch.setitem(gpu_specs.GPU_SPECS, "a100", modified)
        assert plan_fingerprint(config) != before

    def test_distinct_from_other_fingerprint_kinds(self, quiet_config):
        from repro.cache.fingerprint import activity_fingerprint, experiment_fingerprint

        config = quiet_config()
        assert plan_fingerprint(config) != experiment_fingerprint(config)
        assert plan_fingerprint(config) != activity_fingerprint(config, seed=0)


# ----------------------------------------------------------------- the cache


class TestPlanCache:
    def test_get_or_build_builds_once(self, quiet_config):
        cache = PlanCache(max_entries=4)
        config = quiet_config()
        plan = build_plan(config, cache=cache)
        again = build_plan(config, cache=cache)
        assert again is plan  # identity: plans are immutable, no copies
        assert cache.stats.builds == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_lru_eviction(self, quiet_config):
        cache = PlanCache(max_entries=2)
        for size in (64, 96, 128):
            build_plan(quiet_config(matrix_size=size), cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest (64) was evicted; rebuilding it counts a new build.
        build_plan(quiet_config(matrix_size=64), cache=cache)
        assert cache.stats.builds == 4

    def test_validation(self, quiet_config):
        with pytest.raises(ExperimentError):
            PlanCache(max_entries=0)
        cache = PlanCache()
        with pytest.raises(ExperimentError):
            cache.put("key", "not a plan")
        with pytest.raises(ExperimentError):
            resolve_plan_cache("bogus")

    def test_concurrent_get_or_build_builds_once(self, quiet_config):
        """Racing threads on a cold key must still build exactly once (the
        build runs under the cache lock)."""
        cache = PlanCache()
        config = quiet_config()
        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(lambda _: build_plan(config, cache=cache), range(16)))
        assert cache.stats.builds == 1
        assert all(plan is plans[0] for plan in plans)

    def test_describe_memory_shape(self, quiet_config):
        cache = PlanCache(max_entries=8)
        build_plan(quiet_config(), cache=cache)
        info = cache.describe_memory()
        assert info["entries"] == 1
        assert info["max_entries"] == 8
        assert info["disk_dir"] is None
        assert info["builds"] == info["puts"] == 1
        for key in ("hits", "misses", "hit_rate", "evictions"):
            assert key in info
        # A direct put() counts as a put but not a build.
        plan = build_plan(quiet_config(matrix_size=96), cache=None)
        cache.put(plan.fingerprint, plan)
        info = cache.describe_memory()
        assert info["puts"] == 2
        assert info["builds"] == 1


# ----------------------------------------------------------------- build_plan


class TestBuildPlan:
    def test_plan_matches_scratch_construction(self, quiet_config):
        config = quiet_config()
        plan = build_plan(config, cache=None)
        assert isinstance(plan, ExperimentPlan)
        assert plan.fingerprint == plan_fingerprint(config)
        problem = build_problem(config)
        assert plan.problem == problem
        assert plan.launch.describe() == plan_launch(problem, plan.device).describe()
        assert type(plan.pattern) is type(build_workload_pattern(config))
        assert plan.monitor.device is plan.device
        assert plan.device.name == config.gpu

    def test_cache_none_constructs_fresh(self, quiet_config):
        config = quiet_config()
        assert build_plan(config, cache=None) is not build_plan(config, cache=None)

    def test_default_knobs(self, fresh_default_plan_cache, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE_MAX_ENTRIES", "7")
        cache = get_default_plan_cache()
        assert cache is not None and cache.max_entries == 7

    def test_default_disabled_by_zero_entries(self, fresh_default_plan_cache, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE_MAX_ENTRIES", "0")
        assert get_default_plan_cache() is None

    def test_default_disabled_by_no_cache(self, fresh_default_plan_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert get_default_plan_cache() is None

    def test_set_default_plan_cache(self, fresh_default_plan_cache):
        mine = PlanCache(max_entries=3)
        set_default_plan_cache(mine)
        assert get_default_plan_cache() is mine
        assert resolve_plan_cache(None) is None

    def test_peek_default_caches_includes_plan_tier(
        self, fresh_default_plan_cache, quiet_config
    ):
        """The cache CLI's live stats report the plan tier once it exists."""
        from repro.cache.store import peek_default_caches

        set_default_plan_cache(PlanCache(max_entries=4))
        assert "plan" in peek_default_caches()
        build_plan(quiet_config())  # default sentinel -> the tier we just set
        assert peek_default_caches()["plan"].describe_memory()["entries"] == 1
        set_default_plan_cache(None)
        assert "plan" not in peek_default_caches()

    def test_runner_shares_plan_through_cache(self, quiet_config):
        cache = PlanCache()
        config = quiet_config()
        first = ExperimentRunner(config, activity_cache=None, plan_cache=cache)
        second = ExperimentRunner(
            config.with_overrides(base_seed=777), activity_cache=None, plan_cache=cache
        )
        assert first.plan is second.plan  # base_seed is outside the plan key
        assert cache.stats.builds == 1


# --------------------------------------------------------------- equivalence


class TestSweepPlanEquivalence:
    @pytest.fixture
    def sweep(self, quiet_config):
        """3 distinct configs x 4 seeds (the acceptance-criteria shape)."""
        return sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=4),
            "sparsity",
            [0.0, 0.5, 1.0],
        )

    @pytest.fixture
    def reference(self, sweep):
        return _as_dicts(
            run_configs(sweep, workers=1, cache=None, activity_cache=None, plan_cache=None)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_for_bit_on_off(self, sweep, reference, backend):
        with_cache = run_configs(
            sweep,
            workers=2,
            cache=None,
            activity_cache=None,
            plan_cache=PlanCache(),
            backend=backend,
        )
        without_cache = run_configs(
            sweep,
            workers=2,
            cache=None,
            activity_cache=None,
            plan_cache=None,
            backend=backend,
        )
        assert _as_dicts(with_cache) == reference
        assert _as_dicts(without_cache) == reference

    def test_run_experiment_on_off(self, quiet_config):
        config = quiet_config(seeds=2)
        on = run_experiment(config, None, None, plan_cache=PlanCache())
        off = run_experiment(config, None, None, plan_cache=None)
        assert on.as_dict() == off.as_dict()

    @pytest.mark.parametrize("backend", ("serial", "threads"))
    def test_cold_sweep_builds_each_plan_once(self, sweep, backend):
        """3 distinct configs x 4 seeds: exactly 3 plan builds, whatever the
        in-process backend or worker count."""
        cache = PlanCache()
        run_configs(
            sweep,
            workers=2,
            cache=None,
            activity_cache=None,
            plan_cache=cache,
            backend=backend,
        )
        assert cache.stats.builds == 3
        # A second pass over the same sweep is all hits, still 3 builds.
        run_configs(
            sweep,
            workers=2,
            cache=None,
            activity_cache=None,
            plan_cache=cache,
            backend=backend,
        )
        assert cache.stats.builds == 3
        assert cache.stats.hits >= 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_sweep_plans_once_per_distinct_config(self, quiet_config, backend):
        """`run_sweep` forwards the plan tier: 3 configs x 4 seeds, cold,
        on every backend — bit-for-bit equal to the uncached run, and (for
        the in-process backends, where the parent's instance is observable)
        exactly 3 builds."""
        cache = PlanCache()
        swept = run_sweep(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=4),
            "sparsity",
            [0.0, 0.5, 1.0],
            workers=2,
            cache=None,
            activity_cache=None,
            plan_cache=cache,
            backend=backend,
        )
        reference = run_sweep(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=4),
            "sparsity",
            [0.0, 0.5, 1.0],
            cache=None,
            activity_cache=None,
            plan_cache=None,
        )
        assert _as_dicts(swept.results) == _as_dicts(reference.results)
        if backend != "processes":  # workers keep their own (remote) caches
            assert cache.stats.builds == 3

    def test_cross_seed_sweep_shares_one_plan(self, quiet_config):
        """Points differing only in base_seed are distinct experiments but
        share one plan."""
        configs = sweep_configs(
            quiet_config(matrix_size=32, seeds=4),
            "base_seed",
            [1, 2, 3, 4],
            target="config",
        )
        cache = PlanCache()
        results = run_configs(
            configs, workers=1, cache=None, activity_cache=None, plan_cache=cache
        )
        assert len(results) == 4
        assert cache.stats.builds == 1
        assert cache.stats.hits == 3


# ------------------------------------------------------- pattern sharing


class TestWorkloadPatternSharing:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        clear_workload_pattern_memo()
        yield
        clear_workload_pattern_memo()

    def test_key_ignores_everything_but_the_workload(self, quiet_config):
        config = quiet_config()
        base = workload_pattern_key(config)
        for overrides in (
            {"gpu": "h100"},
            {"instance_id": 3},
            {"matrix_size": 256},
            {"transpose_b": False},
            {"seeds": 7},
            {"iterations": 123},
            {"label": "renamed"},
        ):
            assert workload_pattern_key(config.with_overrides(**overrides)) == base
        for overrides in (
            {"pattern_family": "sparsity", "pattern_params": {"sparsity": 0.5}},
            {"pattern_params": {"std": 16.0}},
            {"dtype": "fp32"},
        ):
            assert workload_pattern_key(config.with_overrides(**overrides)) != base

    def test_cross_device_plans_share_one_pattern(self, quiet_config):
        """Plans differing only in device reuse the workload's pattern object
        instead of each constructing an identical one."""
        plans = [
            build_plan(quiet_config(gpu=gpu), cache=None)
            for gpu in ("v100", "a100", "h100")
        ]
        assert len({plan.fingerprint for plan in plans}) == 3  # distinct plans
        assert all(plan.pattern is plans[0].pattern for plan in plans)

    def test_shared_false_builds_private_instances(self, quiet_config):
        config = quiet_config()
        shared = build_workload_pattern(config)
        assert build_workload_pattern(config) is shared
        private = build_workload_pattern(config, shared=False)
        assert private is not shared
        assert type(private) is type(shared)

    def test_clear_drops_shared_patterns(self, quiet_config):
        config = quiet_config()
        before = build_workload_pattern(config)
        clear_workload_pattern_memo()
        assert build_workload_pattern(config) is not before

    def test_sharing_does_not_change_results(self, quiet_config):
        """Pattern sharing is pure reuse: results are bit-for-bit identical
        with a shared and a private pattern object."""
        config = quiet_config(seeds=2)
        shared_run = run_experiment(config, None, None, plan_cache=None)
        clear_workload_pattern_memo()
        fresh_run = run_experiment(config, None, None, plan_cache=None)
        assert shared_run.as_dict() == fresh_run.as_dict()

    def test_memo_is_bounded(self, quiet_config):
        import repro.experiments.plan as plan_module

        for index in range(plan_module._PATTERN_MEMO_MAX_ENTRIES + 8):
            build_workload_pattern(
                quiet_config(pattern_params={"std": float(index + 1)})
            )
        assert (
            len(plan_module._pattern_memo)
            <= plan_module._PATTERN_MEMO_MAX_ENTRIES
        )


# ------------------------------------------------------ persistent workers


class TestPersistentWorkerPlanReuse:
    def test_worker_plans_once_per_distinct_config_across_chunks(self, quiet_config):
        """One persistent worker served 4 single-item chunks (2 distinct
        configs): its plan cache must report exactly 2 builds at the end."""
        config_a = quiet_config(matrix_size=32, seeds=2)
        config_b = quiet_config(matrix_size=48, seeds=2)
        items = [config_a, config_b, config_a, config_b]
        executor = ProcessExecutor(
            workers=1,
            chunksize=1,
            initializer=_process_worker_init,
            initargs=(chunk_budget_bytes(), 64),
        )
        try:
            probes = list(executor.map(_plan_builds_after_running, items))
        finally:
            executor.shutdown()
        pids = {pid for pid, _, _ in probes}
        assert len(pids) == 1  # one persistent worker served every chunk
        assert [builds for _, builds, _ in probes] == [1, 2, 2, 2]
        assert probes[-1][2] == 2  # two plans resident, not four

    def test_initializer_forwards_disable(self, fresh_default_plan_cache):
        """plan_entries < 1 is the parent's explicit plan_cache=None."""
        _process_worker_init(chunk_budget_bytes(), 0)
        assert get_default_plan_cache() is None

    def test_initializer_seeds_sized_cache(self, fresh_default_plan_cache):
        _process_worker_init(chunk_budget_bytes(), 32)
        cache = get_default_plan_cache()
        assert cache is not None and cache.max_entries == 32

    def test_run_configs_processes_with_plan_cache_disabled(self, quiet_config):
        """End to end: the processes backend with the plan tier disabled
        still returns bit-for-bit identical results."""
        configs = sweep_configs(
            quiet_config(pattern_family="sparsity", matrix_size=32, seeds=2),
            "sparsity",
            [0.0, 1.0],
        )
        reference = _as_dicts(
            run_configs(configs, workers=1, cache=None, activity_cache=None, plan_cache=None)
        )
        computed = run_configs(
            configs,
            workers=2,
            cache=None,
            activity_cache=None,
            plan_cache=None,
            backend="processes",
        )
        assert _as_dicts(computed) == reference
