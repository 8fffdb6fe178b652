"""Composite GPU device: spec + clocks + memory + SM resources.

A :class:`Device` is the object the rest of the library talks to.  It also
models the chip-to-chip *process variation* the paper observed (power
shifting by up to ~10 W when the Azure VM instance — and therefore the
physical GPU — changed): each ``instance_id`` deterministically maps to a
small constant power offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.dtypes.registry import get_dtype
from repro.errors import DeviceError
from repro.gpu.clocks import ClockModel
from repro.gpu.memory import MemoryHierarchy
from repro.gpu.sm import SMResources
from repro.gpu.specs import GPUSpec, get_gpu_spec
from repro.gpu.tensor_core import TensorCoreConfig, default_mma_shape
from repro.util.rng import derive_rng

__all__ = ["Device"]


@dataclass
class Device:
    """A simulated GPU instance."""

    spec: GPUSpec
    instance_id: int = 0
    clock_model: ClockModel = field(init=False)
    memory: MemoryHierarchy = field(init=False)
    sm: SMResources = field(init=False)

    def __post_init__(self) -> None:
        self.clock_model = ClockModel(self.spec)
        self.memory = MemoryHierarchy.from_spec(self.spec)
        self.sm = SMResources.from_spec(self.spec)

    # ------------------------------------------------------------ factories

    @classmethod
    def create(cls, name: "str | GPUSpec", instance_id: int = 0) -> "Device":
        """Create a device from a GPU name (e.g. ``"a100"``) or spec."""
        return cls(spec=get_gpu_spec(name), instance_id=int(instance_id))

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def tdp_watts(self) -> float:
        return self.spec.tdp_watts

    @property
    def idle_watts(self) -> float:
        return self.spec.idle_watts

    def peak_throughput_flops(self, dtype: str) -> float:
        """Peak dense throughput for a datatype in FLOP/s (OP/s for integers)."""
        spec_dtype = get_dtype(dtype)
        return self.spec.peak_throughput(spec_dtype.name) * 1e12

    def mma_shape(self, dtype: str) -> TensorCoreConfig:
        """MMA fragment configuration used for a datatype on this device."""
        return default_mma_shape(get_dtype(dtype).name)

    def process_variation_watts(self) -> float:
        """Deterministic per-instance power offset modeling chip variation."""
        return _process_variation_watts(
            self.spec.name, self.spec.process_variation_watts, self.instance_id
        )

    def supports_dtype(self, dtype: str) -> bool:
        return self.spec.supports_dtype(get_dtype(dtype).name)

    def validate_dtype(self, dtype: str) -> str:
        name = get_dtype(dtype).name
        if not self.spec.supports_dtype(name):
            raise DeviceError(f"{self.name} has no throughput entry for dtype {name!r}")
        return name

    def describe(self) -> dict[str, object]:
        """JSON-serializable description used in experiment metadata."""
        return {
            "name": self.spec.name,
            "architecture": self.spec.architecture,
            "instance_id": self.instance_id,
            "sm_count": self.spec.sm_count,
            "tdp_watts": self.spec.tdp_watts,
            "idle_watts": self.spec.idle_watts,
            "memory_type": self.spec.memory_type,
            "memory_bandwidth_gbps": self.spec.memory_bandwidth_gbps,
            "boost_clock_mhz": self.spec.boost_clock_mhz,
        }


# ``typed``: 1, 1.0 and True hash alike but seed the draw through repr().
@lru_cache(maxsize=4096, typed=True)
def _process_variation_watts(name: str, std_watts: float, instance_id: int) -> float:
    """The offset drawn for one (GPU model, variation std, instance): these
    hashable scalars fully determine the draw, so it is made once."""
    rng = derive_rng(0xC0FFEE, "process_variation", name, instance_id)
    offset = float(rng.normal(0.0, std_watts))
    # Clamp to the ~10 W swing the paper reports across VM instances.
    bound = 3.0 * std_watts
    return max(min(offset, bound), -bound)
