"""Per-layer metrics of a traced run, and what each one should move.

:data:`LAYER_METRICS` is the benchmark's layer-metric map: for each
per-layer metric, its unit, which way is better, the end-to-end metric and
workload it should move, and the workload where it should not move.  The
``per_layer`` list of ``BENCHMARK.json`` is this table's first three
columns.  Times and counts are per *point*: one resolved configuration of
a sweep, or one request of ``serve_zipf``.
"""

from __future__ import annotations

import statistics

from tracer import ROOT_LAYERS

_COMPUTE = ("points_per_s on cold_figures, latency_p90_ms on serve_zipf", "warm_replay")
_CACHE = ("points_per_s on warm_replay, latency_p50_ms on serve_zipf", "cold_figures")
_SERVE = ("latency_p50_ms and goodput_rps on serve_zipf", "cold_figures, warm_replay")
_ALL = ("all end-to-end metrics, every workload", "")

#: name -> (unit, better, (moves, should not move on))
LAYER_METRICS = {
    "patterns.generate_s": ("s/point", "lower", _COMPUTE),
    "dtypes.encode_s": ("s/point", "lower", _COMPUTE),
    "dtypes.encode_calls": ("calls/point", "lower", _COMPUTE),
    "dtypes.decode_s": ("s/point", "lower", _COMPUTE),
    "dtypes.decode_calls": ("calls/point", "lower", _COMPUTE),
    "kernels.build_streams_s": ("s/point", "lower", _COMPUTE),
    "activity.operand_s": ("s/point", "lower", _COMPUTE),
    "activity.multiplier_s": ("s/point", "lower", _COMPUTE),
    "activity.datapath_s": ("s/point", "lower", _COMPUTE),
    "activity.memory_s": ("s/point", "lower", _COMPUTE),
    "activity.words_scanned": ("words/point", "lower", _COMPUTE),
    "cache.fingerprint_s": ("s/point", "lower", _CACHE),
    "cache.fingerprint_calls": ("calls/point", "lower", _CACHE),
    "cache.result.get_s": ("s/point", "lower", _CACHE),
    "cache.result.put_s": ("s/point", "lower", _CACHE),
    "cache.result.hit_ratio": ("ratio", "higher", _CACHE),
    "cache.result.disk_hits": ("hits/point", "higher", _CACHE),
    "cache.activity.get_s": ("s/point", "lower", _CACHE),
    "cache.activity.put_s": ("s/point", "lower", _CACHE),
    "cache.activity.hit_ratio": ("ratio", "higher", _CACHE),
    "plan.build_s": ("s/point", "lower", _CACHE),
    "plan.hit_ratio": ("ratio", "higher", _CACHE),
    "power.estimate_s": ("s/point", "lower", _CACHE),
    "runtime.estimate_s": ("s/point", "lower", _CACHE),
    "telemetry.power_trace_s": ("s/point", "lower", _CACHE),
    "sweep.run_configs_self_s": ("s/point", "lower", _CACHE),
    "serve.submit_s": ("s", "lower", _SERVE),
    "serve.queue_wait_s": ("s", "lower", _SERVE),
    "serve.compute_s": ("s", "lower", _SERVE),
    "serve.http_s": ("s", "lower", _SERVE),
    "serve.batches": ("count", "lower", _SERVE),
    "serve.mean_batch_size": ("configs/batch", "higher", _SERVE),
    "serve.coalesced": ("count", "higher", _SERVE),
    "serve.rejected": ("count", "lower", _SERVE),
    "serve.result_hit_ratio": ("ratio", "higher", _SERVE),
    "loadgen.late_ms": ("ms", "lower", _SERVE),
    "trace.overhead_frac": ("ratio", "lower", _ALL),
    "trace.coverage": ("ratio", "higher", _ALL),
    "error_rate": ("ratio", "lower", _ALL),
}

#: Self-time metrics and the span layer each sums.
_SELF_TIME = {
    "patterns.generate_s": "patterns.generate",
    "dtypes.encode_s": "dtypes.encode",
    "dtypes.decode_s": "dtypes.decode",
    "kernels.build_streams_s": "kernels.build_streams",
    "activity.operand_s": "activity.operand",
    "activity.multiplier_s": "activity.multiplier",
    "activity.datapath_s": "activity.datapath",
    "activity.memory_s": "activity.memory",
    "cache.fingerprint_s": "cache.fingerprint",
    "cache.result.get_s": "cache.result.get",
    "cache.result.put_s": "cache.result.put",
    "cache.activity.get_s": "cache.activity.get",
    "cache.activity.put_s": "cache.activity.put",
    "plan.build_s": "plan.build",
    "power.estimate_s": "power.estimate",
    "runtime.estimate_s": "runtime.estimate",
    "telemetry.power_trace_s": "telemetry.power_trace",
    "sweep.run_configs_self_s": "sweep.run_configs",
}
_CALLS = {
    "dtypes.encode_calls": "dtypes.encode",
    "dtypes.decode_calls": "dtypes.decode",
    "cache.fingerprint_calls": "cache.fingerprint",
}


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _share(flags: list) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def _serve_metrics(workload, traced, tracer) -> dict:
    """The service's own timings, matched per request.

    A request's queue wait is its ``submit`` time minus the compute time of
    the ``run_configs`` batch that carried its configuration (coalesced
    requests ride another request's batch and are left out); its HTTP time
    is the client's round trip minus its ``submit`` time.
    """
    submits = [(span[4] - span[3], span[7]) for span in tracer.spans if span[2] == "serve.submit"]
    batches = [(span[4] - span[3], span[7]) for span in tracer.spans if span[2] == "sweep.run_configs"]
    batch_of = {config_id: seconds for seconds, ids in batches for config_id in ids}
    round_trip = {r.label: r.done - r.sent for r in workload.replies if r.status == 200}
    service = traced.notes["service"]
    run = service["run"]
    return {
        "serve.submit_s": _mean([seconds for seconds, _ in submits]),
        "serve.queue_wait_s": _mean(
            [seconds - batch_of[cid] for seconds, (cid, _) in submits if cid in batch_of]
        ),
        "serve.compute_s": _mean([seconds for seconds, _ in batches]),
        "serve.http_s": _mean(
            [round_trip[label] - seconds for seconds, (_, label) in submits if label in round_trip]
        ),
        "serve.batches": service["batches"],
        "serve.mean_batch_size": run["total"] / service["batches"] if service["batches"] else 0.0,
        "serve.coalesced": service["coalesced"],
        "serve.rejected": service["rejected"],
        "serve.result_hit_ratio": run["cache_hits"] / run["total"] if run["total"] else 0.0,
        "loadgen.late_ms": traced.notes["late_ms"],
    }


def per_layer(workload, untraced, traced, tracer) -> "dict[str, tuple[float, str]]":
    """Every metric of :data:`LAYER_METRICS` except ``error_rate``."""
    totals = tracer.layer_totals()
    points = max(traced.attempted, 1)
    values = {
        name: totals.get(layer, {}).get("self_s", 0.0) / points
        for name, layer in _SELF_TIME.items()
    }
    values.update(
        (name, totals.get(layer, {}).get("calls", 0) / points) for name, layer in _CALLS.items()
    )
    words = sum(
        sum(tracer.info(f"activity.{part}"))
        for part in ("operand", "multiplier", "datapath", "memory")
    )
    result_gets = tracer.info("cache.result.get")
    values.update(
        {
            "activity.words_scanned": words / points,
            "cache.result.hit_ratio": _share([hit for hit, _ in result_gets]),
            "cache.result.disk_hits": sum(disk for _, disk in result_gets) / points,
            "cache.activity.hit_ratio": _share(tracer.info("cache.activity.get")),
            "plan.hit_ratio": _share([h for h in tracer.info("plan.build") if h is not None]),
        }
    )
    if workload.name == "serve_zipf":
        values.update(_serve_metrics(workload, traced, tracer))
        p50 = statistics.median
        overhead = p50(traced.latencies) / p50(untraced.latencies) - 1.0
    else:
        values.update({name: 0.0 for name in LAYER_METRICS if name.startswith(("serve.", "loadgen."))})
        overhead = untraced.rate / traced.rate - 1.0
    leaf_s = sum(
        entry["self_s"] for layer, entry in totals.items() if layer not in ROOT_LAYERS
    )
    values["trace.overhead_frac"] = overhead
    values["trace.coverage"] = leaf_s / traced.seconds
    return {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS if name in values}
