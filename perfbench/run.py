"""Benchmark of the GEMM power-estimation library, run from the repo root.

    python3 perfbench/run.py --workload cold_figures --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/DESIGN.md``):

* ``cold_figures`` — serial all-miss sweep of a paper-figure grid;
* ``warm_replay``  — the figures again, against a warm on-disk cache;
* ``serve_zipf``   — open-loop Poisson load on ``python -m repro.serve``.

With ``--trace 0`` one timed phase gives the end-to-end metrics.  With
``--trace 1`` the time is split into an untraced and a traced phase; the
traced one wraps the layers' public functions (:mod:`tracer`) and gives
the per-layer metrics, and the two together give the tracing overhead.
The last line of standard output is the result as one JSON object; the
line before it carries what the run observed besides the metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
from workloads import LATENCY_LIMIT_S, WORKLOADS, percentile  # noqa: E402

#: In-process set-ups per batch-workload run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Seconds a set-up sample may take.
SETUP_TIMEOUT_S = 60
#: Minimum share of a batch workload's traced wall time the leaf layers'
#: self times must cover for the per-layer breakdown to be trusted.  On
#: ``warm_replay`` the sweep's own time (about 8%) is not a leaf, and the
#: leaves covered 0.91; losing the wrapper of any of its four largest
#: leaves (result put, fingerprint, telemetry, power) takes it below 0.85.
MIN_COVERAGE = {"cold_figures": 0.90, "warm_replay": 0.85}


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up once, print the time, exit"
    )
    return parser.parse_args(argv)


def setup_samples(args: argparse.Namespace) -> "list[dict]":
    """Further set-ups of the workload, each in a fresh process."""
    command = [
        sys.executable, __file__, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def budget_flipped(out: Path, budgets: "list[int]") -> bool:
    """Whether any probe here chose another chunk budget than the first run
    in this checkout did (the budget decides whether seeds stack)."""
    record = out / "chunk_budget.json"
    if not record.exists():
        record.write_text(json.dumps({"chunk_budget_bytes": budgets[0]}))
    first = json.loads(record.read_text())["chunk_budget_bytes"]
    return any(budget != first for budget in budgets)


def end_to_end(workload, phase, setup_times: "list[float]") -> dict:
    if workload.name == "serve_zipf":
        rss_mb = workload.server.peak_rss_mb()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "points_per_s": (phase.rate, "1/s"),
        "latency_p50_ms": (1e3 * percentile(phase.latencies, 0.50), "ms"),
        "latency_p90_ms": (1e3 * percentile(phase.latencies, 0.90), "ms"),
        "goodput_rps": (phase.goodput(LATENCY_LIMIT_S.get(workload.name, math.inf)), "1/s"),
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    # Defaults only: a stray REPRO_* setting would change the code path.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(root / "src"))
    out = root / ".perfbench"
    workdir = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, root, workdir, bool(args.trace))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            workload.setup()
            raw_setup_s = time.perf_counter() - T0
            setup = {
                "setup_s": raw_setup_s * hostspeed.scale(hostspeed.reference_ms()),
                "raw_setup_s": raw_setup_s,
                "chunk_budget_bytes": workload.budgets[0],
            }
            if args.setup_only:
                print(json.dumps(setup))
                return 0
            return measure(args, workload, setup, caught, out)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, setup: dict, caught: list, out: Path) -> int:
    notes = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        untraced = workload.run(args.seconds / 2, "untraced")
        traced = workload.run(args.seconds / 2, "traced", tracer)
        phases = [untraced, traced]
    else:
        phases = [workload.run(args.seconds, "main")]
    if any(not phase.latencies for phase in phases):
        print("perfbench: no operation of a timed phase succeeded", file=sys.stderr)
        return 1
    if not args.trace:
        phase = phases[0]
        if workload.name == "serve_zipf":
            setup_times, raw_setup_times = workload.setup_times, workload.raw_setup_times
            notes["server_warnings"] = workload.server.warnings()
            notes["timed_server_budget"] = workload.server.budget
        else:
            samples = [setup] + setup_samples(args)
            setup_times = [sample["setup_s"] for sample in samples]
            raw_setup_times = [sample["raw_setup_s"] for sample in samples]
            workload.budgets += [sample["chunk_budget_bytes"] for sample in samples[1:]]
        notes["setup_samples_s"] = setup_times
        # Reported, not bounded: p99 moved too much between runs to carry a
        # bound (quartile spread over ten seeds up to 0.27 on warm_replay and
        # 0.84 on serve_zipf), so p90 is the bounded tail.
        notes["latency_p99_ms"] = 1e3 * percentile(phase.latencies, 0.99)
        notes["raw"] = {
            "setup_s": statistics.median(raw_setup_times),
            "points_per_s": phase.raw_rate,
            **{
                f"latency_p{q}_ms": 1e3 * percentile(phase.raw_latencies, q / 100)
                for q in (50, 90, 99)
            },
        }
        metrics = end_to_end(workload, phase, setup_times)
    gate_failures = workload.gate()
    attempted = sum(phase.attempted for phase in phases)
    # Refused, dropped or erroneous operations and failed checks alike.
    failed = sum(phase.failed for phase in phases) + gate_failures
    correct = failed == 0
    notes.update(
        {
            "phases": {
                phase.name: {
                    "attempted": phase.attempted,
                    "failed": phase.failed,
                    "timed_s": phase.seconds,
                    "latency_samples": len(phase.latencies),
                    "reference_ms": statistics.median(phase.references),
                    **phase.notes,
                }
                for phase in phases
            },
            "gate_failures": gate_failures,
            "chunk_budget_bytes": workload.budgets,
            "chunk_budget_flipped": budget_flipped(out, workload.budgets),
            "warnings": dict(Counter(w.category.__name__ for w in caught)),
        }
    )
    if workload.name == "warm_replay":
        notes["disk_tier"] = "checkout directory"
    if args.trace:
        metrics = layers.per_layer(workload, untraced, traced, tracer)
        coverage = metrics["trace.coverage"][0]
        if coverage < MIN_COVERAGE.get(workload.name, 0.0):
            notes["coverage_too_low"] = coverage
            correct = False
        metrics["error_rate"] = (failed / max(attempted, 1), "ratio")
        trace_path = out / "traces" / f"{args.workload}.json"
        tracer.dump(trace_path)
        notes["trace_file"] = str(trace_path.relative_to(out.parent))
    print(json.dumps({"perfbench": notes}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
