"""Seeded inputs of the three workloads.

Every function here is a pure function of the workload seed: the same seed
gives the same configurations, request order and arrival times.  The
program under test only ever receives what these functions return.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

#: The four datatype setups of the paper.
PAPER_DTYPES = ("fp32", "fp16", "fp16_t", "int8")

#: The GPUs the paper's generalization figure spans; ``a100`` first.
GPUS = ("a100", "v100", "h100", "rtx6000")

#: (family, parameter, values) of the paper-figure sweeps, grouped by the
#: paper's four kinds of input variation.
FIGURE_SWEEPS = (
    # distribution (Fig. 3)
    ("gaussian", "std", (0.25, 1.0, 16.0, 210.0, 1024.0, 4096.0)),
    ("value_set", "set_size", (1, 4, 16, 64, 256, 1024)),
    # bit similarity (Fig. 4)
    ("bit_flip", "probability", (0.0, 0.05, 0.1, 0.2, 0.35, 0.5)),
    ("randomize_lsb", "fraction", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    ("randomize_msb", "fraction", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    # placement (Fig. 5)
    ("sorted_rows", "fraction", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("sorted_columns", "fraction", (0.0, 0.25, 0.5, 0.75, 1.0)),
    # sparsity (Fig. 6)
    ("sparsity", "sparsity", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    ("sorted_sparsity", "sparsity", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0)),
    ("zero_lsb", "fraction", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    ("zero_msb", "fraction", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
)

#: The cold grid: two points of each input-variation kind, alternately fast
#: and slow.  Parameters are fixed so every seed does the same amount of
#: work; the seed only picks the data (``base_seed``).
COLD_POINTS = (
    ("gaussian", {"std": 16.0}),
    ("sorted_rows", {"fraction": 0.5}),
    ("value_set", {"set_size": 16}),
    ("bit_flip", {"probability": 0.2}),
    ("sparsity", {"sparsity": 0.5}),
    ("sorted_columns", {"fraction": 0.5}),
    ("randomize_msb", {"fraction": 0.5}),
    ("sorted_sparsity", {"sparsity": 0.3}),
)
COLD_SIZE = 1024
COLD_SEEDS = 2

REPLAY_SIZE = 64
REPLAY_SEEDS = 2

SERVE_SIZE = 256
SERVE_SEEDS = 2
#: Offered load, well below the knee where the backlog starts to grow.
SERVE_RATE_RPS = 20.0


def _base_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def cold_rows(seed: int, phase: str) -> "Iterator[list[dict]]":
    """The cold grid as an endless sequence of four-point rows.

    Each pass of eight rows visits every (family, dtype) pair once.  Row
    ``r`` gives dtype ``j`` family ``(r + 3j) mod 8``; as
    :data:`COLD_POINTS` alternates fast and slow (sorting, bit flips)
    families, every row holds two of each, and a run cut after any row has
    done about the same work per point.  Every point gets a fresh
    ``base_seed``, so no point repeats within a run; ``phase`` names an
    independent stream.
    """
    rng = random.Random(f"cold_figures:{seed}:{phase}")
    while True:
        for r in range(len(COLD_POINTS)):
            row = []
            for j, dtype in enumerate(PAPER_DTYPES):
                family, params = COLD_POINTS[(r + 3 * j) % len(COLD_POINTS)]
                row.append(
                    {
                        "pattern_family": family,
                        "pattern_params": dict(params),
                        "dtype": dtype,
                        "matrix_size": COLD_SIZE,
                        "seeds": COLD_SEEDS,
                        "base_seed": _base_seed(rng),
                    }
                )
            yield row


def replay_catalogue(seed: int) -> "list[dict]":
    """Every paper-figure sweep point for the four dtypes, on ``a100``."""
    base_seed = _base_seed(random.Random(f"warm_replay:{seed}"))
    return [
        {
            "pattern_family": family,
            "pattern_params": {parameter: value},
            "dtype": dtype,
            "matrix_size": REPLAY_SIZE,
            "seeds": REPLAY_SEEDS,
            "base_seed": base_seed,
            "gpu": GPUS[0],
        }
        for dtype in PAPER_DTYPES
        for family, parameter, values in FIGURE_SWEEPS
        for value in values
    ]


def replay_pass(catalogue: "list[dict]", pass_index: int) -> "list[list[dict]]":
    """One replay pass as figure panels: each panel is one sweep (family and
    dtype) on one GPU, as the figure drivers request it.  The catalogue on
    ``a100`` gives whole-result hits; the same workloads on the other GPUs,
    with a per-pass iteration count, hit the activity tier but miss the
    result tier."""
    panels: "dict[tuple, list[dict]]" = {}
    for gpu in GPUS:
        for point in catalogue:
            if gpu != point["gpu"]:
                point = {**point, "gpu": gpu, "iterations": 2000 + pass_index}
            key = (gpu, point["dtype"], point["pattern_family"])
            panels.setdefault(key, []).append(point)
    return list(panels.values())


def serve_schedule(seed: int, seconds: float, phase: str = "main") -> "list[tuple[float, dict]]":
    """(due time in s, config) for an open-loop Poisson run of ``seconds``.

    The catalogue is every paper-figure sweep point for the four dtypes on
    the four GPUs at 256² (1072 configurations), each with seeded data, in
    seeded popularity order.  Each request draws its configuration
    independently with the plain Zipf law (popularity of rank ``k``
    proportional to ``1 / k``): no trace of this service's traffic exists
    to fit an exponent to.  Arrivals are a Poisson process at
    :data:`SERVE_RATE_RPS` conditioned on its request count.  Everything is
    drawn from the seed; phases of one run share nothing.
    """
    rng = random.Random(f"serve_zipf:{seed}:{phase}")
    catalogue = [
        {
            "pattern_family": family,
            "pattern_params": {parameter: value},
            "dtype": dtype,
            "gpu": gpu,
            "matrix_size": SERVE_SIZE,
            "seeds": SERVE_SEEDS,
            "base_seed": _base_seed(rng),
        }
        for gpu in GPUS
        for dtype in PAPER_DTYPES
        for family, parameter, values in FIGURE_SWEEPS
        for value in values
    ]
    rng.shuffle(catalogue)
    requests = max(1, round(SERVE_RATE_RPS * seconds))
    cumulative_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(catalogue) + 1)))
    ranks = rng.choices(range(len(catalogue)), cum_weights=cumulative_weights, k=requests)
    cumulative, arrivals = 0.0, []
    for _ in range(requests + 1):
        cumulative += rng.expovariate(1.0)
        arrivals.append(cumulative)
    scale = seconds / arrivals[-1]
    return [
        (arrivals[index] * scale, {**catalogue[rank], "label": f"{phase}-{index}"})
        for index, rank in enumerate(ranks)
    ]
