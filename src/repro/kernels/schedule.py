"""Operand streaming order of the tiled GEMM mainloop.

For an output element ``(i, j)`` the mainloop walks the reduction dimension
``k``: the multiplier sees the operand sequence ``A[i, 0], A[i, 1], ...``
on one input and ``B[0, j], B[1, j], ...`` on the other, while the
accumulator sees the running partial sums.  The DRAM/L2 interface, by
contrast, sees operands in *storage* order (row-major of the stored
matrices).  Both orders are needed by the switching-activity engine and are
captured here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.dtypes.base import DTypeSpec
from repro.errors import KernelError
from repro.kernels.gemm import GemmOperands
from repro.util.rng import sample_without_replacement

__all__ = [
    "StackedOperandStreams",
    "build_streams",
    "build_streams_stacked",
]


@dataclass
class StackedOperandStreams:
    """Operand streams of a batch of same-shape GEMM invocations.

    The batch (seed) axis is axis 0 of every array: ``a_used`` has shape
    ``(S, N, K)``, ``b_used`` has shape ``(S, K, M)`` and ``b_stored`` keeps
    the storage layout per slice.  Quantization and bit-pattern encoding run
    once over the full stack, which is the expensive part of building
    streams.  A single invocation is a batch of one (:func:`build_streams`).
    """

    dtype: DTypeSpec
    #: A operands as consumed, shape (S, N, K)
    a_used: np.ndarray
    #: B operands as consumed, shape (S, K, M)
    b_used: np.ndarray
    #: B operands as stored in memory, shape (S, M, K) or (S, K, M)
    b_stored: np.ndarray

    @cached_property
    def a_words(self) -> np.ndarray:
        """Bit patterns of A in consumption order, shape (S, N, K)."""
        return self.dtype.encode(self.a_used)

    @cached_property
    def b_words(self) -> np.ndarray:
        """Bit patterns of B in consumption order, shape (S, K, M)."""
        return self.dtype.encode(self.b_used)

    @cached_property
    def b_stored_words(self) -> np.ndarray:
        """Bit patterns of B in storage order, shape (S, *, *)."""
        return self.dtype.encode(self.b_stored)

    @property
    def batch(self) -> int:
        return self.a_used.shape[0]

    @property
    def n(self) -> int:
        return self.a_used.shape[1]

    @property
    def k(self) -> int:
        return self.a_used.shape[2]

    @property
    def m(self) -> int:
        return self.b_used.shape[2]

    def sample_output_positions(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample distinct output coordinates ``(i, j)`` for per-output analysis.

        Sampling is over the full ``N x M`` output space of one invocation;
        when ``count`` exceeds the space the whole space is returned
        (shuffled).
        """
        if count <= 0:
            raise KernelError(f"sample count must be positive, got {count}")
        total = self.n * self.m
        flat = sample_without_replacement(rng, total, min(count, total))
        rows = flat // self.m
        cols = flat % self.m
        return rows.astype(np.int64), cols.astype(np.int64)


def build_streams(operands: GemmOperands) -> StackedOperandStreams:
    """Build the streams of one GEMM invocation: a batch of one."""
    return build_streams_stacked([operands])


def build_streams_stacked(operands: Sequence[GemmOperands]) -> StackedOperandStreams:
    """Stack a batch of same-shape GEMM invocations into one stream object.

    All invocations must share shape, datatype and B-transposition; they are
    quantized in a single vectorized pass.  Quantization is elementwise, so
    the consumed B is exactly the quantized stored B (transposed when the
    kernel transposes B); quantizing once saves a full pass over B.
    """
    items = list(operands)
    if not items:
        raise KernelError("build_streams_stacked needs at least one invocation")
    if not isinstance(items[0], GemmOperands):
        raise KernelError(
            f"build_streams_stacked expects GemmOperands, got {type(items[0]).__name__}"
        )
    first_problem = items[0].problem
    signature = (
        first_problem.n,
        first_problem.m,
        first_problem.k,
        first_problem.dtype,
        first_problem.transpose_b,
    )
    for op in items[1:]:
        if not isinstance(op, GemmOperands):
            raise KernelError("cannot mix GemmOperands with other operand types")
        problem = op.problem
        if (problem.n, problem.m, problem.k, problem.dtype, problem.transpose_b) != signature:
            raise KernelError(
                "stacked operands must share shape, dtype and transposition; got "
                f"{signature} vs {(problem.n, problem.m, problem.k, problem.dtype, problem.transpose_b)}"
            )
    spec = first_problem.dtype_spec
    a_used = spec.quantize(np.stack([op.a for op in items]))
    b_stored = spec.quantize(np.stack([op.b_stored for op in items]))
    if first_problem.transpose_b:
        b_used = b_stored.transpose(0, 2, 1)
    else:
        b_used = b_stored
    return StackedOperandStreams(dtype=spec, a_used=a_used, b_used=b_used, b_stored=b_stored)
