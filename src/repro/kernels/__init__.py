"""GEMM kernel model: problem specification, CUTLASS-style tiling, streaming order.

The paper runs standard (dense) CUTLASS GEMM kernels.  We reproduce the
parts of those kernels that matter for input-dependent power: the functional
result (a reference NumPy GEMM) and, more importantly, the *order* in which
operand values are streamed through the datapath, because that order
determines the bit-flip counts the power model consumes.
"""

from repro.kernels.gemm import GemmOperands, GemmProblem, reference_gemm
from repro.kernels.launch import KernelLaunch, plan_launch
from repro.kernels.schedule import build_streams
from repro.kernels.tiling import TileConfig, default_tile_config

__all__ = [
    "GemmProblem",
    "GemmOperands",
    "reference_gemm",
    "TileConfig",
    "default_tile_config",
    "build_streams",
    "KernelLaunch",
    "plan_launch",
]
