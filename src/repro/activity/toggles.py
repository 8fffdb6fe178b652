"""Shared helpers for the activity estimators.

Like :mod:`repro.util.bits`, the helpers here are thin Python shells around
NumPy ufunc/reduction loops (XOR + popcount sums, comparison means, dtype
casts and views) that release the GIL inside their C inner loops and touch
no shared mutable state.  Concurrent invocations from the sweep runner's
``threads`` backend therefore execute in parallel; the Python-side
bookkeeping that does hold the GIL is a few microseconds per call against
milliseconds-to-seconds of kernel time at sweep scales.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.errors import ActivityError
from repro.kernels.schedule import StackedOperandStreams

__all__ = ["encode_for_accumulator", "single_invocation"]

#: Expected toggle fraction between successive i.i.d.-random words; used to
#: normalize stream activities so "random data" maps to activity ~1.0.
RANDOM_TOGGLE_FRACTION = 0.5

#: Expected Hamming-weight fraction of an i.i.d.-random word.
RANDOM_HAMMING_FRACTION = 0.5


def single_invocation(streams: StackedOperandStreams) -> StackedOperandStreams:
    """Check that ``streams`` hold exactly one invocation (a batch of one)."""
    if streams.batch != 1:
        raise ActivityError(
            f"expected the streams of one invocation, got a batch of {streams.batch}; "
            "use the _batch estimator"
        )
    return streams


def encode_for_accumulator(values: np.ndarray, dtype: DTypeSpec) -> np.ndarray:
    """Encode intermediate products / partial sums in the accumulator format.

    NVIDIA GEMM pipelines accumulate FP16/BF16 tensor-core products in FP32
    and INT8 products in INT32; FP32/FP64 accumulate at their own width.
    The returned words are what the accumulator register bits would hold.
    """
    arr = np.asarray(values, dtype=np.float64)
    if dtype.is_integer:
        clipped = np.clip(np.rint(arr), np.iinfo(np.int32).min, np.iinfo(np.int32).max)
        return np.ascontiguousarray(clipped.astype(np.int32)).view(np.uint32)
    if dtype.bits >= 64:
        return np.ascontiguousarray(arr.astype(np.float64)).view(np.uint64)
    with np.errstate(over="ignore", invalid="ignore"):
        as_fp32 = arr.astype(np.float32)
    return np.ascontiguousarray(as_fp32).view(np.uint32)
