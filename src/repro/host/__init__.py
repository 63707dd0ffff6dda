"""Host-side system: PCIe DMA, device API, memory manager, runtime.

* :mod:`repro.host.pcie` — the shared PCIe DMA engine model (Gen3..6).
* :mod:`repro.host.memory_manager` — the thread-safe per-HBM-block
  device memory manager the paper's runtime implements because TaPaSCo
  cannot split the device address space (§IV-B).
* :mod:`repro.host.device` — a TaPaSCo-like device façade: PE
  enumeration, register access, DMA copies, job launch.
* :mod:`repro.host.runtime` — the multi-threaded software runtime:
  block-wise sub-jobs, N control threads per accelerator, overlap of
  transfers and compute (§IV-B).
"""

from repro.host.pcie import DmaEngine
from repro.host.memory_manager import DeviceMemoryManager, MemoryBlockAllocator
from repro.host.device import SimulatedDevice
from repro.host.runtime import InferenceJobConfig, InferenceRuntime, RunStatistics

__all__ = [
    "DmaEngine",
    "DeviceMemoryManager",
    "MemoryBlockAllocator",
    "SimulatedDevice",
    "InferenceJobConfig",
    "InferenceRuntime",
    "RunStatistics",
]
