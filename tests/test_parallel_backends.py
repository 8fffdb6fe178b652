"""Tests for the pluggable sweep execution backends (:mod:`repro.parallel`).

Covers the three pillars of the subsystem:

* **Equivalence** — `serial`, `threads` and `processes` return bit-for-bit
  identical results (and identical :class:`RunStats`) at any worker count,
  with and without the result/activity cache tiers.
* **Failure semantics** — a failing sweep point propagates with its label
  attached, blames only its own submission chunk, cancels queued work, and
  leaves the runner reusable (no leaked pools).
* **Calibration** — the chunk-budget probe honours the environment
  override, persists to the cache directory, and reloads what it persisted.

Plus the premise the ``threads`` backend rests on: the bit-level kernels
release the GIL (asserted in a way that works even on a single-core host).
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cache.store import ActivityCache, ExperimentCache
from repro.errors import ExperimentError
from repro.experiments.figures.common import FigureSettings
from repro.experiments.sweep import RunStats, _chunk_group, run_configs, sweep_configs
from repro.parallel import (
    BACKENDS,
    calibrate_chunk_budget,
    chunk_budget_bytes,
    choose_backend,
    get_executor,
    resolve_backend,
)
from repro.parallel.backends import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.parallel.calibrate import (
    MAX_CHUNK_BUDGET_BYTES,
    MIN_CHUNK_BUDGET_BYTES,
    calibration_path,
)
from repro.util.bits import toggle_fraction_along_axis
from repro.util.rng import derive_rng


# Top-level helpers for the process-executor tests (must be picklable).
_INIT_SENTINEL = {"value": None}


def _set_init_sentinel(value):
    _INIT_SENTINEL["value"] = value


def _read_init_sentinel(_item):
    return _INIT_SENTINEL["value"]


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


@pytest.fixture
def sweep(quiet_config):
    """A small four-point sweep with two seeds per point."""
    return sweep_configs(
        quiet_config(pattern_family="sparsity", matrix_size=32, seeds=2),
        "sparsity",
        [0.0, 0.25, 0.5, 0.75],
    )


@pytest.fixture
def failing_sweep(quiet_config):
    """Six points where the fifth fails at *run* time (pattern params are
    validated inside the worker, not at config construction)."""
    configs = sweep_configs(
        quiet_config(pattern_family="sparsity", matrix_size=32),
        "sparsity",
        [0.0, 0.2, 0.4, 0.6, 3.0, 0.8],
    )
    return configs


def _as_dicts(results):
    return [result.as_dict() for result in results]


# ---------------------------------------------------------------- equivalence


class TestBackendEquivalence:
    @pytest.fixture
    def reference(self, sweep):
        return _as_dicts(run_configs(sweep, workers=1, cache=None, activity_cache=None))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_bit_for_bit_identical(self, sweep, reference, backend, workers):
        stats = RunStats()
        results = run_configs(
            sweep,
            workers=workers,
            backend=backend,
            cache=None,
            activity_cache=None,
            stats=stats,
        )
        assert _as_dicts(results) == reference
        assert stats.executed == 4
        assert stats.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_match_serial(self, sweep, backend):
        serial_stats, backend_stats = RunStats(), RunStats()
        run_configs(sweep, workers=1, cache=None, activity_cache=None, stats=serial_stats)
        run_configs(
            sweep,
            workers=2,
            backend=backend,
            cache=None,
            activity_cache=None,
            stats=backend_stats,
        )
        for field in ("total", "unique", "cache_hits", "executed"):
            assert getattr(backend_stats, field) == getattr(serial_stats, field)
        assert "backend" in backend_stats.as_dict()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_cache_interaction(self, sweep, reference, backend):
        """Every backend fills an explicit result cache (puts happen in the
        parent) and a warm second pass is served entirely from it."""
        cache = ExperimentCache(max_entries=16)
        first = run_configs(
            sweep, workers=2, backend=backend, cache=cache, activity_cache=None
        )
        stats = RunStats()
        second = run_configs(
            sweep,
            workers=2,
            backend=backend,
            cache=cache,
            activity_cache=None,
            stats=stats,
        )
        assert _as_dicts(first) == reference
        assert _as_dicts(second) == reference
        assert stats.cache_hits == 4
        assert stats.executed == 0

    def test_threads_honour_activity_cache_instance(self, sweep, reference):
        """The in-process backends consult an explicit activity-cache
        *instance* directly — warm per-seed entries flow both ways."""
        activity = ActivityCache(max_entries=64)
        run_configs(sweep, workers=2, backend="threads", cache=None, activity_cache=activity)
        assert activity.stats.puts > 0
        warm = run_configs(
            sweep, workers=2, backend="threads", cache=None, activity_cache=activity
        )
        assert activity.stats.hits > 0
        assert _as_dicts(warm) == reference

    def test_dedupe_off_matches(self, quiet_config):
        config = quiet_config(pattern_family="sparsity", matrix_size=32)
        configs = sweep_configs(config, "sparsity", [0.5, 0.5, 0.5])
        reference = _as_dicts(
            run_configs(configs, workers=1, cache=None, activity_cache=None, dedupe=False)
        )
        for backend in ("threads", "processes"):
            results = run_configs(
                configs,
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
                dedupe=False,
            )
            assert _as_dicts(results) == reference


# ----------------------------------------------------------- failure handling


class TestFailurePropagation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_failure_carries_label(self, failing_sweep, backend):
        with pytest.raises(ExperimentError, match="sparsity=3.0"):
            run_configs(
                failing_sweep,
                workers=2,
                backend=backend,
                cache=None,
                activity_cache=None,
            )

    def test_runner_reusable_after_failure(self, failing_sweep, sweep):
        for backend in BACKENDS:
            with pytest.raises(ExperimentError):
                run_configs(
                    failing_sweep, workers=2, backend=backend, cache=None, activity_cache=None
                )
        results = run_configs(sweep, workers=2, cache=None, activity_cache=None)
        assert len(results) == 4

    def test_process_chunk_blame_does_not_cross_chunks(self, failing_sweep):
        """With chunksize 2 the failing point (index 4) shares a chunk with
        index 5 only; indices 0-3 must not be blamed."""
        with pytest.raises(ExperimentError) as excinfo:
            run_configs(
                failing_sweep,
                workers=2,
                backend="processes",
                chunksize=2,
                cache=None,
                activity_cache=None,
            )
        message = str(excinfo.value)
        assert "sparsity=3.0" in message
        for innocent in ("sparsity=0.0", "sparsity=0.2", "sparsity=0.4", "sparsity=0.6"):
            assert innocent not in message

    def test_no_worker_processes_outlive_failure(self, failing_sweep):
        """A failed processes sweep shuts its pool down: every worker it
        started has exited by the time the error reaches the caller."""
        before = {child.pid for child in multiprocessing.active_children()}
        with pytest.raises(ExperimentError):
            run_configs(
                failing_sweep,
                workers=2,
                backend="processes",
                chunksize=1,
                cache=None,
                activity_cache=None,
            )
        after = {child.pid for child in multiprocessing.active_children()}
        assert after - before == set()


class TestChunkGroupHelper:
    PENDING = [(str(i), [i]) for i in range(10)]

    def test_aligned_position_names_own_chunk(self):
        assert _chunk_group(self.PENDING, 4, 4) == self.PENDING[4:8]

    def test_mid_chunk_position_does_not_bleed_into_next_chunk(self):
        # Old behaviour was pending[5:9], crossing the chunk boundary at 8.
        assert _chunk_group(self.PENDING, 5, 4) == self.PENDING[4:8]

    def test_last_partial_chunk_is_clamped(self):
        assert _chunk_group(self.PENDING, 8, 4) == self.PENDING[8:10]
        assert _chunk_group(self.PENDING, 9, 4) == self.PENDING[8:10]

    def test_span_one(self):
        assert _chunk_group(self.PENDING, 7, 1) == [self.PENDING[7]]


# ------------------------------------------------------------------ executors


class TestExecutors:
    def test_serial_is_lazy_and_ordered(self):
        calls = []

        def record(x):
            calls.append(x)
            return x * 10

        iterator = SerialExecutor().map(record, [1, 2, 3])
        assert calls == []  # nothing runs until consumed
        assert next(iterator) == 10
        assert calls == [1]
        assert list(iterator) == [20, 30]

    def test_thread_executor_orders_results(self):
        def slow_first(x):
            if x == 0:
                time.sleep(0.05)
            return x

        with ThreadExecutor(4) as executor:
            assert list(executor.map(slow_first, list(range(6)))) == list(range(6))

    def test_thread_executor_propagates_and_cancels(self):
        started = []

        def boom(x):
            started.append(x)
            if x == 0:
                raise ValueError("boom")
            time.sleep(0.01)
            return x

        executor = ThreadExecutor(1)
        with pytest.raises(ValueError, match="boom"):
            for _ in executor.map(boom, list(range(50))):
                pass
        executor.shutdown(cancel=True)
        # With one worker and cancel_futures, most queued items never start.
        assert len(started) < 50

    def test_get_executor_validates(self):
        with pytest.raises(ExperimentError):
            get_executor("bogus", 2)
        with pytest.raises(ExperimentError):
            ThreadExecutor(0)
        with pytest.raises(ExperimentError):
            ProcessExecutor(2, chunksize=0)

    def test_chunk_span_reflects_chunksize(self):
        executor = ProcessExecutor(2, chunksize=3)
        assert executor.chunk_span == 3
        executor.shutdown()
        assert SerialExecutor().chunk_span == 1

    def test_worker_initializer_runs(self):
        executor = ProcessExecutor(
            1, chunksize=1, initializer=_set_init_sentinel, initargs=(42,)
        )
        with executor:
            assert list(executor.map(_read_init_sentinel, [0])) == [42]


class TestProcessResultTransfer:
    """Process workers return each chunk's results through the pool's
    pickle pipe; these pin the guarantees the sweep runner relies on."""

    @pytest.mark.parametrize("chunksize", [1, 2, 3, 7])
    def test_map_matches_serial_in_order(self, chunksize):
        items = list(range(10))  # chunksize 3 and 7 leave a partial last chunk
        with ProcessExecutor(2, chunksize=chunksize) as executor:
            got = list(executor.map(_square, items))
        assert got == list(SerialExecutor().map(_square, items))

    def test_empty_input_yields_nothing(self):
        with ProcessExecutor(2, chunksize=2) as executor:
            assert list(executor.map(_square, [])) == []

    def test_worker_exception_reaches_consumer(self):
        executor = ProcessExecutor(2, chunksize=2)
        consumed = []
        with pytest.raises(ValueError, match="bad item 3"):
            for value in executor.map(_fail_on_three, list(range(8))):
                consumed.append(value)
        executor.shutdown(cancel=True)
        assert consumed == [0, 1]  # the chunk holding 3 yields nothing
        assert executor.resilience.pool_rebuilds == 0  # a raise is not a breakage

    def test_abandoned_stream_leaves_executor_reusable(self):
        with ProcessExecutor(2, chunksize=1) as executor:
            for value in executor.map(_square, list(range(6))):
                if value == 0:
                    break  # abandon the rest of the stream
            assert list(executor.map(_square, [4, 5])) == [16, 25]

    def test_experiment_result_pickle_round_trip_is_lossless(self, quiet_config):
        from repro.experiments.harness import run_experiment

        result = run_experiment(
            quiet_config(matrix_size=32, seeds=2), cache=None, activity_cache=None
        )
        restored = pickle.loads(pickle.dumps(result))
        assert restored.as_dict() == result.as_dict()
        assert json.dumps(restored.as_dict()) == json.dumps(result.as_dict())


class TestBackendResolution:
    def test_explicit_names_pass_through(self):
        for name in BACKENDS:
            assert resolve_backend(name, workers=1) == name

    def test_auto_collapses_to_serial_for_one_worker(self):
        assert resolve_backend("auto", workers=1) == "serial"

    def test_auto_prefers_threads_for_estimation(self):
        assert resolve_backend("auto", workers=4) == "threads"
        assert resolve_backend("auto", workers=4, workload="generation") == "processes"

    def test_choose_backend(self):
        assert choose_backend("estimation") == "threads"
        assert choose_backend("generation") == "processes"
        with pytest.raises(ExperimentError):
            choose_backend("interpretive-dance")

    def test_env_override_steers_auto_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "processes")
        assert resolve_backend("auto", workers=4) == "processes"
        assert resolve_backend("threads", workers=4) == "threads"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "bogus")
        with pytest.raises(ExperimentError):
            resolve_backend("auto", workers=4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_backend("bogus", workers=2)

    def test_run_configs_rejects_unknown_backend(self, quiet_config):
        with pytest.raises(ExperimentError):
            run_configs([quiet_config()], workers=2, backend="bogus")

    def test_figure_settings_validate_backend(self):
        assert FigureSettings.quick(backend="threads").backend == "threads"
        with pytest.raises(ExperimentError):
            FigureSettings.quick(backend="bogus")


# ---------------------------------------------------------------- calibration


class TestChunkBudgetCalibration:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_BUDGET", "4096")
        assert chunk_budget_bytes(refresh=True) == 4096
        monkeypatch.setenv("REPRO_BATCH_CHUNK_BUDGET", "2M")
        assert chunk_budget_bytes() == 2 << 20  # re-resolves on env change

    def test_env_override_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_CHUNK_BUDGET", "a-few-cachelines")
        with pytest.raises(ExperimentError):
            chunk_budget_bytes(refresh=True)

    def test_override_reaches_recommended_chunk(self, monkeypatch):
        from repro.activity.engine import recommended_chunk

        monkeypatch.setenv("REPRO_BATCH_CHUNK_BUDGET", str(8 * 1000))
        chunk_budget_bytes(refresh=True)
        assert recommended_chunk(100) == 10  # 8000 bytes / (100 values * 8 B)

    def test_probe_persists_to_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK_BUDGET", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        budget = chunk_budget_bytes(refresh=True)
        path = calibration_path(tmp_path)
        assert path.is_file()
        persisted = json.loads(path.read_text())
        assert persisted["budget_bytes"] == budget
        assert MIN_CHUNK_BUDGET_BYTES <= budget <= MAX_CHUNK_BUDGET_BYTES

    def test_persisted_value_is_loaded(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK_BUDGET", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sentinel = 3 << 20
        path = calibration_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"budget_bytes": sentinel}))
        assert chunk_budget_bytes(refresh=True) == sentinel

    def test_corrupt_persisted_file_falls_back_to_probe(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_CHUNK_BUDGET", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = calibration_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json {")
        budget = chunk_budget_bytes(refresh=True)
        assert MIN_CHUNK_BUDGET_BYTES <= budget <= MAX_CHUNK_BUDGET_BYTES

    def test_probe_reports_throughputs_and_bounds(self):
        result = calibrate_chunk_budget(sizes=(1 << 16, 1 << 17), repeats=1)
        assert set(result.throughput_bytes_per_s) == {1 << 16, 1 << 17}
        assert all(rate > 0 for rate in result.throughput_bytes_per_s.values())
        assert MIN_CHUNK_BUDGET_BYTES <= result.budget_bytes <= MAX_CHUNK_BUDGET_BYTES

    def test_probe_rejects_bad_repeats(self):
        with pytest.raises(ExperimentError):
            calibrate_chunk_budget(repeats=0)

    def test_seed_probed_budget(self, monkeypatch):
        import repro.parallel.calibrate as calibrate

        saved = (calibrate._probed_budget, calibrate._resolved)
        try:
            monkeypatch.delenv("REPRO_BATCH_CHUNK_BUDGET", raising=False)
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
            calibrate.seed_probed_budget(123_456)
            assert chunk_budget_bytes() == 123_456  # seed replaces the probe
            monkeypatch.setenv("REPRO_BATCH_CHUNK_BUDGET", "4096")
            assert chunk_budget_bytes() == 4096  # explicit override still wins
            with pytest.raises(ExperimentError):
                calibrate.seed_probed_budget(0)
        finally:
            calibrate._probed_budget, calibrate._resolved = saved


# ------------------------------------------------------------- GIL & threads


def test_toggle_kernel_releases_gil():
    """A pure-Python counter thread must make progress *during* one long
    toggle-kernel call.  If the kernel held the GIL, the counter could not
    run until the call returned (a single ufunc call never hits a bytecode
    boundary); this holds on any core count, unlike wall-clock speedups.
    """
    rng = derive_rng(5, "gil-test", 0)
    words = rng.integers(0, 1 << 16, size=(2048, 2048), dtype=np.uint64).astype(np.uint16)
    toggle_fraction_along_axis(words, 1)  # warm up caches and ufunc dispatch

    counter = [0]
    stop = threading.Event()

    def count() -> None:
        while not stop.is_set():
            counter[0] += 1

    thread = threading.Thread(target=count, daemon=True)
    thread.start()
    try:
        time.sleep(0.02)  # let the counter thread get scheduled
        before = counter[0]
        toggle_fraction_along_axis(words, 1)
        progressed = counter[0] - before
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert progressed > 1000, (
        f"counter advanced only {progressed} increments during the kernel — "
        "the toggle kernel appears to hold the GIL"
    )


def test_cache_is_thread_safe(quiet_config):
    """Hammer one ActivityCache from many threads (the threads backend's
    sharing pattern); the LRU must neither corrupt nor drop bookkeeping."""
    from repro.activity.report import ActivityReport

    cache = ActivityCache(max_entries=32)
    template = dict(
        operand_activity=0.5,
        multiplier_activity=0.5,
        datapath_activity=0.5,
        memory_activity=0.5,
        operand_toggle_a=0.5,
        operand_toggle_b=0.5,
        multiplier_hw_product=0.5,
        zero_mac_fraction=0.0,
        product_toggle=0.5,
        accumulator_toggle=0.5,
        memory_toggle=0.5,
        a_hamming_fraction=0.5,
        b_hamming_fraction=0.5,
        bit_alignment=0.5,
    )

    def worker(worker_id: int) -> None:
        for i in range(200):
            key = f"k{(worker_id * 7 + i) % 48}"
            if cache.get(key) is None:
                cache.put(key, ActivityReport(**template))

    with ThreadPoolExecutor(8) as pool:
        list(pool.map(worker, range(8)))
    assert len(cache) <= 32
    stats = cache.stats
    assert stats.lookups == 8 * 200
    assert stats.hits + stats.misses == stats.lookups


class TestChaosEquivalence:
    """Chaos parametrization: the processes backend keeps its bit-for-bit
    equivalence contract while fault injection kills its workers (see
    tests/test_faults.py for the full resilience matrix)."""

    @pytest.mark.parametrize(
        "schedule_text",
        [
            "pool.worker:kill@2",  # one breakage: rebuild + resubmit
            "pool.worker:kill@1",  # every worker dies: threads fallback
        ],
    )
    def test_killed_workers_never_change_results(
        self, sweep, monkeypatch, schedule_text
    ):
        import repro.faults as faults

        reference = _as_dicts(
            run_configs(sweep, workers=1, cache=None, activity_cache=None)
        )
        monkeypatch.setenv("REPRO_FAULTS", schedule_text)
        faults.reset()
        try:
            stats = RunStats()
            survived = _as_dicts(
                run_configs(
                    sweep,
                    workers=2,
                    backend="processes",
                    cache=None,
                    activity_cache=None,
                    stats=stats,
                )
            )
        finally:
            faults.reset()
            monkeypatch.delenv("REPRO_FAULTS")
        assert survived == reference
        assert stats.pool_rebuilds == 1
        assert stats.chunks_resubmitted > 0
