"""The three workloads: set-up, timed phases and the correctness gate.

Each workload class has ``setup()``, ``run(seconds, phase, tracer)`` (one
timed phase, returning a :class:`Phase`), ``gate()`` (checks every output
the phases produced and returns the number of failed checks) and
``close()``.  The public ``repro.api`` is driven with default settings
throughout; the only knobs are the workload inputs of :mod:`inputs`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import inputs
import loadgen

#: Latency limit per request for ``goodput_rps`` on ``serve_zipf``, a little
#: above its measured p90.  A batch call has no latency target, so on the
#: batch workloads goodput is every resolved point (``points_per_s``).
LATENCY_LIMIT_S = {"serve_zipf": 0.04}
#: Timed points recomputed cache-free by the gate, per workload run.
COLD_GATE_SAMPLES = 2
REPLAY_GATE_SAMPLES_PER_PASS = 3
SERVE_GATE_SAMPLES = 16
#: Reference-unit calls per host-speed reading during a serve load: few, as
#: each one holds the client's loop.
SERVE_REFERENCE_REPEATS = 3


@dataclass
class Phase:
    """What one timed phase did."""

    name: str
    #: operations attempted (points resolved, or requests sent)
    attempted: int = 0
    #: operations that failed or were refused
    failed: int = 0
    #: seconds the phase timed
    seconds: float = 0.0
    #: latencies in seconds, one per request or ``run_configs`` call,
    #: scaled to the reference host speed (:mod:`hostspeed`)
    latencies: "list[float]" = field(default_factory=list)
    #: the same latencies as measured
    raw_latencies: "list[float]" = field(default_factory=list)
    #: configurations each latency sample resolved
    sizes: "list[int]" = field(default_factory=list)
    #: operations completed per second (each workload states how), scaled
    #: like ``latencies``, and as measured
    rate: float = 0.0
    raw_rate: float = 0.0
    #: reference-unit times (ms) taken during the phase
    references: "list[float]" = field(default_factory=list)
    #: free-form facts reported with the run
    notes: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def goodput(self, limit_s: float) -> float:
        """The rate counting only configurations resolved within ``limit_s``."""
        within = sum(size for latency, size in zip(self.latencies, self.sizes) if latency <= limit_s)
        return self.rate * within / max(sum(self.sizes), 1)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


@functools.lru_cache(maxsize=None)
def power_range(gpu: str) -> "tuple[float, float]":
    """The measured-power range of the modeled GPU instance (instance 0).

    Idle and TDP are shifted by the instance's process-variation offset,
    and widened by one per-sample sensor-noise deviation: a reading
    averages twenty or more samples, so its own noise is far smaller.
    """
    from repro.gpu.device import Device
    from repro.telemetry.sampler import TelemetryConfig

    device = Device.create(gpu)
    offset = device.process_variation_watts()
    noise = TelemetryConfig().noise_std_watts
    return device.spec.idle_watts + offset - noise, device.spec.tdp_watts + offset + noise


def power_ok(gpu: str, powers: "list[float]") -> bool:
    """Finite and within the GPU's idle-to-TDP range."""
    low, high = power_range(gpu)
    return all(math.isfinite(p) and low <= p <= high for p in powers)


def result_power_ok(result) -> bool:
    powers = [m.power_watts for m in result.measurements] + [result.mean_power_watts]
    return power_ok(result.config["gpu"], powers)


def _delta(after: dict, before: dict) -> dict:
    """Numeric counters of ``after`` minus ``before``, recursively."""
    return {
        key: _delta(value, before[key]) if isinstance(value, dict)
        else value - before[key] if isinstance(value, (int, float)) else value
        for key, value in after.items()
    }


def _tracing(tracer):
    return tracer if tracer is not None else contextlib.nullcontext()


class _Sweep:
    """Shared parts of the two batch workloads."""

    name = ""

    def __init__(self, seed: int, root: Path, workdir: Path, trace: bool) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        #: chunk budgets the probes of this run chose
        self.budgets: "list[int]" = []

    def setup(self) -> None:
        from repro import api
        from repro.parallel import chunk_budget_bytes

        self.api = api
        # The probe decides whether seeds stack; resolve it before timing.
        self.budgets.append(chunk_budget_bytes())

    def _timed_call(self, configs: list, phase: Phase, scale: float, **handles) -> list:
        """One timed ``run_configs`` call; its duration is one latency sample,
        scaled by ``scale`` to the reference host speed."""
        start = time.perf_counter()
        results = self.api.run_configs(configs, **handles)
        elapsed = time.perf_counter() - start
        phase.seconds += elapsed
        phase.raw_latencies.append(elapsed)
        phase.latencies.append(elapsed * scale)
        phase.sizes.append(len(configs))
        phase.attempted += len(configs)
        return results

    def _differs(self, config, expected: str) -> bool:
        """Recompute ``config`` with no cache tier; compare bit for bit."""
        reference = self.api.estimate_experiment(config, activity_cache=None, plan_cache=None)
        return canonical(reference.as_dict()) != expected

    def close(self) -> None:
        pass


class ColdFigures(_Sweep):
    """Serial all-miss sweep of the paper-figure grid at 1024², 2 seeds."""

    name = "cold_figures"

    def __init__(self, seed: int, root: Path, workdir: Path, trace: bool) -> None:
        super().__init__(seed, root, workdir, trace)
        self.outputs: list = []

    def run(self, seconds: float, phase_name: str, tracer=None) -> Phase:
        phase = Phase(phase_name)
        rows = inputs.cold_rows(self.seed, phase_name)
        with _tracing(tracer):
            while phase.seconds < seconds:
                phase.references.append(hostspeed.reference_ms())
                scale = hostspeed.scale(phase.references[-1])
                for point in next(rows):
                    config = self.api.ExperimentConfig.from_dict(point)
                    self.outputs.append((config, self._timed_call([config], phase, scale)[0]))
        phase.rate = phase.succeeded / sum(phase.latencies)
        phase.raw_rate = phase.succeeded / phase.seconds
        return phase

    def gate(self) -> int:
        failed = sum(not result_power_ok(result) for _, result in self.outputs)
        rng = random.Random(f"gate:{self.name}:{self.seed}")
        return failed + sum(
            self._differs(config, canonical(result.as_dict()))
            for config, result in rng.sample(self.outputs, COLD_GATE_SAMPLES)
        )


class WarmReplay(_Sweep):
    """Figure replay against a warm on-disk cache, fresh handles per pass."""

    name = "warm_replay"

    def setup(self) -> None:
        super().setup()
        self.cache_dir = self.workdir / "cache"
        self.catalogue = inputs.replay_catalogue(self.seed)
        configs = [self.api.ExperimentConfig.from_dict(p) for p in self.catalogue]
        results = self.api.run_configs(configs, **self._handles())
        #: catalogue point -> its cold result, both as canonical JSON
        self.cold = {
            canonical(point): canonical(result.as_dict())
            for point, result in zip(self.catalogue, results)
        }
        self.passes = 0
        self.failed = 0
        self.samples: list = []

    def _handles(self) -> dict:
        api = self.api
        return {
            "cache": api.ExperimentCache(disk_dir=self.cache_dir),
            "activity_cache": api.ActivityCache(disk_dir=self.cache_dir / "activity"),
            "plan_cache": api.PlanCache(),
        }

    def _pass(self, phase: Phase, pass_rates: "list[tuple[float, float]]") -> None:
        """Re-run every figure panel, one ``run_configs`` call each, through
        cache handles opened afresh for the pass, as a new process would.
        The host's speed is measured right before the pass."""
        self.passes += 1
        panels = inputs.replay_pass(self.catalogue, self.passes)
        configs = [[self.api.ExperimentConfig.from_dict(p) for p in panel] for panel in panels]
        phase.references.append(hostspeed.reference_ms())
        scale = hostspeed.scale(phase.references[-1])
        start = time.perf_counter()
        handles = self._handles()
        phase.seconds += time.perf_counter() - start
        results = [self._timed_call(panel, phase, scale, **handles) for panel in configs]
        raw_rate = sum(map(len, panels)) / (time.perf_counter() - start)
        pass_rates.append((raw_rate / scale, raw_rate))
        others = []
        for points, panel, answers in zip(panels, configs, results):
            for point, config, result in zip(points, panel, answers):
                cold = self.cold.get(canonical(point))
                if cold is not None:
                    self.failed += canonical(result.as_dict()) != cold
                else:
                    self.failed += not result_power_ok(result)
                    others.append((config, result))
        rng = random.Random(f"gate:{self.name}:{self.seed}:{self.passes}")
        for config, result in rng.sample(others, REPLAY_GATE_SAMPLES_PER_PASS):
            self.samples.append((config, canonical(result.as_dict())))

    def run(self, seconds: float, phase_name: str, tracer=None) -> Phase:
        self._pass(Phase("warm-up"), [])  # discarded: first touch of the disk tier
        phase, pass_rates = Phase(phase_name), []
        with _tracing(tracer):
            while phase.seconds < seconds:
                self._pass(phase, pass_rates)
        phase.rate = statistics.median(rate for rate, _ in pass_rates)
        phase.raw_rate = statistics.median(raw for _, raw in pass_rates)
        phase.notes = {"passes": len(pass_rates), "points_per_pass": len(self.cold) * len(inputs.GPUS)}
        return phase

    def gate(self) -> int:
        return self.failed + sum(
            self._differs(config, expected) for config, expected in self.samples
        )


class ServeZipf:
    """Open-loop Poisson load on ``/estimate`` over a Zipf catalogue."""

    name = "serve_zipf"
    #: server boots per run; set-up time is their median
    setup_samples = 5
    #: seconds of the same traffic sent before the timed part of a phase,
    #: without a gap: in a trial the first ten seconds, while the popular
    #: configurations were still misses, had twice the median latency of
    #: the rest, and a long-running server's users do not pay that
    warm_up_s = 10.0

    def __init__(self, seed: int, root: Path, workdir: Path, trace: bool) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.trace = trace
        self.server: "loadgen.ServerProcess | None" = None
        #: boot times, scaled to the reference host speed and as measured
        self.setup_times: "list[float]" = []
        self.raw_setup_times: "list[float]" = []
        #: chunk budgets the servers of this run chose
        self.budgets: "list[int]" = []
        self.replies: "list[loadgen.Reply]" = []
        self.sent: "dict[str, dict]" = {}
        self.stats: dict = {}
        self.warm_ups = 0

    def _warm_up(self, port: int) -> None:
        """One configuration outside every catalogue: the server does its
        lazy set-up (compute imports, first allocations) on it, not on the
        load."""
        self.warm_ups += 1
        payload = {"matrix_size": inputs.SERVE_SIZE, "seeds": inputs.SERVE_SEEDS,
                   "base_seed": 1_000_000 + self.warm_ups, "label": f"warm-up-{self.warm_ups}"}
        status, _ = loadgen.call(port, "POST", "/estimate", payload)
        if status != 200:
            raise RuntimeError(f"warm-up request failed with HTTP {status}")

    def setup(self) -> None:
        if self.trace:
            # The traced run hosts its servers in this process, per phase.
            from repro.parallel import chunk_budget_bytes

            self.budgets.append(chunk_budget_bytes())
            return
        # Boot like a user: the last of the set-up servers, whatever budget
        # its probe chose, serves the load; a budget other than the
        # checkout's first is flagged (``chunk_budget_flipped``), not hidden.
        for _ in range(self.setup_samples):
            if self.server is not None:
                self.server.stop()
            scale = hostspeed.scale(hostspeed.reference_ms())
            start = time.perf_counter()
            self.server = loadgen.ServerProcess(self.root, self.workdir)
            self.server.wait_healthy()
            self._warm_up(self.server.port)
            self.raw_setup_times.append(time.perf_counter() - start)
            self.setup_times.append(self.raw_setup_times[-1] * scale)
            self.budgets.append(self.server.budget)

    def run(self, seconds: float, phase_name: str, tracer=None) -> Phase:
        """One open-loop phase: :attr:`warm_up_s` seconds of traffic, then
        ``seconds`` timed.  Every request is checked; latencies and the rate
        are of the timed part, scaled to the reference host speed by the
        median of the reference unit's times taken every half second
        during the load (:mod:`hostspeed`)."""
        schedule = inputs.serve_schedule(self.seed, self.warm_up_s + seconds, phase_name)
        self.sent.update((payload["label"], payload) for _, payload in schedule)
        references: "list[float]" = []

        def sample() -> None:
            references.append(hostspeed.reference_ms(SERVE_REFERENCE_REPEATS))

        if not self.trace:
            load = loadgen.run_open_loop(self.server.port, schedule, sample)
            _, self.stats = loadgen.call(self.server.port, "GET", "/stats")
        else:
            with _tracing(tracer):
                host = loadgen.InProcessServer()
                self._warm_up(host.port)
                if tracer is not None:
                    tracer.spans.clear()
                before = host.service.stats.as_dict()
                try:
                    load = loadgen.run_open_loop(host.port, schedule, sample)
                finally:
                    host.stop()
            self.stats = {"service": _delta(host.service.stats.as_dict(), before)}
        scale = hostspeed.scale(statistics.median(references))
        # The whole load's length: the traced run's spans cover all of it.
        phase = Phase(phase_name, seconds=self.warm_up_s + seconds, references=references)
        timed_from = load.started + self.warm_up_s
        end, answered = timed_from, 0
        for reply in load.replies:
            phase.attempted += 1
            if reply.status != 200:
                phase.failed += 1
            elif reply.due >= timed_from:
                phase.raw_latencies.append(reply.done - reply.due)
                phase.latencies.append(phase.raw_latencies[-1] * scale)
                phase.sizes.append(1)
                answered += 1
                end = max(end, reply.done)
        self.replies.extend(load.replies)
        phase.notes = {
            "requests": len(schedule),
            "timed_requests": sum(r.due >= timed_from for r in load.replies),
            "late_ms": 1e3 * statistics.fmean(r.sent - r.due for r in load.replies),
            "drain_s": end - timed_from,
            "service": self.stats.get("service"),
        }
        # Answers per second of the timed part until the last one arrived:
        # the offered rate while the server keeps up, lower once a backlog
        # builds.
        phase.rate = phase.raw_rate = answered / (end - timed_from) if answered else 0.0
        return phase

    def gate(self) -> int:
        """Every answer in range; repeats of a configuration identical; a
        seeded sample equal to a local cache-free estimate."""
        from repro import api

        failed = 0
        by_key: "dict[str, tuple[str, str]]" = {}
        for reply in self.replies:
            if reply.status != 200:
                continue
            result = reply.document["result"]
            powers = [m["power_watts"] for m in result["measurements"]]
            powers.append(result["mean_power_watts"])
            if not power_ok(result["config"]["gpu"], powers):
                failed += 1
            unlabelled = canonical({**result, "config": {**result["config"], "label": ""}})
            first = by_key.setdefault(reply.document["fingerprint"], (reply.label, unlabelled))
            failed += first[1] != unlabelled
        rng = random.Random(f"gate:{self.name}:{self.seed}")
        for key in rng.sample(sorted(by_key), min(SERVE_GATE_SAMPLES, len(by_key))):
            label = by_key[key][0]
            config = api.ExperimentConfig.from_dict(self.sent[label])
            local = api.estimate_experiment(config, activity_cache=None, plan_cache=None)
            expected = local.as_dict()
            expected["config"]["label"] = config.describe()["label"]
            served = next(r for r in self.replies if r.label == label).document["result"]
            failed += canonical(expected) != canonical(served)
        return failed

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (ColdFigures, WarmReplay, ServeZipf)}
