"""FPGA resource vectors and device fitting.

Resources follow the five columns of the paper's Table I: LUTs used as
logic, LUTs used as memory (distributed RAM/SRL), registers, BRAM
tiles (36 kb), and DSP slices.  :class:`ResourceVector` is an additive
value type; :class:`DeviceResources` describes a device's budget and
checks fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.errors import ResourceFitError

__all__ = ["ResourceVector", "DeviceResources"]


@dataclass(frozen=True)
class ResourceVector:
    """An additive bundle of FPGA resources (Table I's five columns)."""

    luts_logic: float = 0.0
    luts_mem: float = 0.0
    registers: float = 0.0
    bram: float = 0.0
    dsp: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.luts_logic + other.luts_logic,
            self.luts_mem + other.luts_mem,
            self.registers + other.registers,
            self.bram + other.bram,
            self.dsp + other.dsp,
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        return ResourceVector(
            self.luts_logic * factor,
            self.luts_mem * factor,
            self.registers * factor,
            self.bram * factor,
            self.dsp * factor,
        )

    __rmul__ = __mul__

    def as_dict(self) -> Dict[str, float]:
        """Column-name keyed view (Table I ordering)."""
        return {
            "luts_logic": self.luts_logic,
            "luts_mem": self.luts_mem,
            "registers": self.registers,
            "bram": self.bram,
            "dsp": self.dsp,
        }

    @staticmethod
    def total(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum an iterable of vectors."""
        acc = ResourceVector()
        for vector in vectors:
            acc = acc + vector
        return acc


@dataclass(frozen=True)
class DeviceResources:
    """A device's resource budget plus identification."""

    name: str
    budget: ResourceVector

    def utilisation(self, used: ResourceVector) -> Dict[str, float]:
        """Fractional utilisation per resource column."""
        budget = self.budget.as_dict()
        used_d = used.as_dict()
        out = {}
        for key, cap in budget.items():
            out[key] = used_d[key] / cap if cap > 0 else float("inf")
        return out

    def fits(self, used: ResourceVector, max_utilisation: float = 1.0) -> bool:
        """True when *used* stays within ``max_utilisation`` per column.

        Real designs fail routing well before 100% utilisation; the
        design composer passes ~0.8 here to model routability limits
        (the paper: "limited FPGA logic resources, as well as routing
        scarcity").
        """
        return all(u <= max_utilisation for u in self.utilisation(used).values())

    def check_fit(self, used: ResourceVector, max_utilisation: float = 1.0) -> None:
        """Raise :class:`ResourceFitError` naming the violated columns."""
        over = {
            key: value
            for key, value in self.utilisation(used).items()
            if value > max_utilisation
        }
        if over:
            detail = ", ".join(f"{k}={v:.1%}" for k, v in sorted(over.items()))
            raise ResourceFitError(
                f"design exceeds {max_utilisation:.0%} of {self.name}: {detail}"
            )
