"""Multiplier-array activity.

The dynamic energy of a digital multiplier grows with the number of set
bits in its operands (more partial products are generated and summed), and
a multiply where either operand is exactly zero is effectively gated.  For
a GEMM, the mean over all N*M*K multiply-accumulates of
``hw(A[i,k]) * hw(B[k,j])`` factorizes over the reduction index, so the
estimate below is *exact* and costs only ``O(N*K + K*M)``:

    mean_k [ mean_i hw(A[i,k]) * mean_j hw(B[k,j]) ]

This component is what makes Hamming-weight-reducing inputs (zeroed bits,
sparsity, small-magnitude integers) cheaper — takeaways T12, T14, T15 and
the Figure 8 Hamming-weight correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.activity.toggles import RANDOM_HAMMING_FRACTION, single_invocation
from repro.kernels.schedule import StackedOperandStreams
from repro.util.bits import popcount

__all__ = [
    "MultiplierActivity",
    "estimate_multiplier_activity",
    "estimate_multiplier_activity_batch",
]

#: Residual activity of a zero-gated multiply (clocking and control overhead).
ZERO_GATED_RESIDUAL = 0.04


@dataclass(frozen=True)
class MultiplierActivity:
    """Raw and normalized multiplier-array activity."""

    hw_product: float
    zero_mac_fraction: float
    a_hamming_fraction: float
    b_hamming_fraction: float
    activity: float


def estimate_multiplier_activity(streams: StackedOperandStreams) -> MultiplierActivity:
    """Multiplier-array activity of one GEMM (streams of a batch of one)."""
    return estimate_multiplier_activity_batch(single_invocation(streams))[0]


def estimate_multiplier_activity_batch(
    streams: StackedOperandStreams,
) -> list[MultiplierActivity]:
    """Estimate multiplier-array switching activity (exact), one entry per invocation.

    The popcount table lookups (the expensive part) run once over the 3-D
    word stacks; the cheap per-invocation reductions then run on each slice.
    """
    pc_a = popcount(streams.a_words)  # (S, N, K)
    pc_b = popcount(streams.b_words)  # (S, K, M)
    width = streams.dtype.bits
    return [
        _from_counts(
            pc_a=pc_a[index],
            pc_b=pc_b[index],
            a_used=streams.a_used[index],
            b_used=streams.b_used[index],
            width=width,
        )
        for index in range(streams.batch)
    ]


def _from_counts(
    pc_a: np.ndarray,
    pc_b: np.ndarray,
    a_used: np.ndarray,
    b_used: np.ndarray,
    width: int,
) -> MultiplierActivity:
    """Per-invocation reduction of precomputed per-word popcounts."""
    hw_a = pc_a.astype(np.float64) / width  # (N, K)
    hw_b = pc_b.astype(np.float64) / width  # (K, M)

    a_hamming = float(hw_a.mean())
    b_hamming = float(hw_b.mean())

    # Exact mean over MACs of hw(a)*hw(b): factorizes along the reduction dim.
    mean_hw_a_per_k = hw_a.mean(axis=0)  # (K,)
    mean_hw_b_per_k = hw_b.mean(axis=1)  # (K,)
    hw_product = float((mean_hw_a_per_k * mean_hw_b_per_k).mean())

    # Exact fraction of MACs with at least one zero operand.
    zero_a_per_k = (a_used == 0.0).mean(axis=0)  # (K,)
    zero_b_per_k = (b_used == 0.0).mean(axis=1)  # (K,)
    nonzero_pair_per_k = (1.0 - zero_a_per_k) * (1.0 - zero_b_per_k)
    zero_mac_fraction = float(1.0 - nonzero_pair_per_k.mean())

    normalization = RANDOM_HAMMING_FRACTION**2
    raw_activity = hw_product / normalization
    # Zero-gated multiplies still burn a small residual; non-gated ones are
    # already captured by hw_product (zero operands contribute zero there).
    activity = raw_activity + ZERO_GATED_RESIDUAL * zero_mac_fraction

    return MultiplierActivity(
        hw_product=hw_product,
        zero_mac_fraction=zero_mac_fraction,
        a_hamming_fraction=a_hamming,
        b_hamming_fraction=b_hamming,
        activity=activity,
    )
