"""Target-platform models.

* :mod:`repro.platforms.specs` — device resource budgets (VU37P on the
  Bittware XUP-VVH, VU9P on AWS F1), platform resource compositions,
  memory-system and PCIe constants.
* :mod:`repro.platforms.cpu_model` — the 12-core Xeon E5-2680 v3
  baseline of [8].
* :mod:`repro.platforms.gpu_model` — the Nvidia Tesla V100 baseline.
* :mod:`repro.platforms.f1_model` — the prior-work AWS F1 FPGA system
  (DDR, soft controllers, per-benchmark core-count constraints).
* :mod:`repro.platforms.streaming_model` — the 100G in-network
  streaming architecture of [7]: §V-D's one streaming point (line
  rate ÷ wire bytes), whose line rate also sizes the §VII outlook of
  :mod:`repro.experiments.pcie_outlook` (links one card's HBM buffers).
"""

from repro.platforms.specs import (
    VU37P,
    VU9P_F1,
    XUPVVH_HBM_PLATFORM,
    AWS_F1_PLATFORM,
    HBMSpec,
    PCIeSpec,
    HBM_XUPVVH,
    PCIE_GEN3_X16,
    PCIE_GENERATIONS,
)
from repro.platforms.cpu_model import CpuModel, XEON_E5_2680_V3
from repro.platforms.gpu_model import GpuModel, TESLA_V100
from repro.platforms.f1_model import F1SystemModel, AWS_F1_SYSTEM
from repro.platforms.streaming_model import StreamingModel, STREAMING_100G

__all__ = [
    "VU37P",
    "VU9P_F1",
    "XUPVVH_HBM_PLATFORM",
    "AWS_F1_PLATFORM",
    "HBMSpec",
    "PCIeSpec",
    "HBM_XUPVVH",
    "PCIE_GEN3_X16",
    "PCIE_GENERATIONS",
    "CpuModel",
    "XEON_E5_2680_V3",
    "GpuModel",
    "TESLA_V100",
    "F1SystemModel",
    "AWS_F1_SYSTEM",
    "StreamingModel",
    "STREAMING_100G",
]
