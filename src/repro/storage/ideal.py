"""Ideal lossless storage — the analytic reference buffer.

Used by tests (as a known-good oracle for energy conservation) and by
experiments that want to isolate harvesting-side effects from storage
losses (e.g. the MPPT study E5 in DESIGN.md).
"""

from __future__ import annotations

from ..spec.registry import register

from .base import EnergyStorage

__all__ = ["IdealStorage"]


@register("storage", "ideal")
class IdealStorage(EnergyStorage):
    """Lossless, leakage-free buffer with a constant terminal voltage."""

    table_label = "Ideal store"

    def __init__(self, capacity_j: float = 100.0, initial_soc: float = 0.5,
                 nominal_voltage: float = 3.0, name: str = ""):
        super().__init__(capacity_j=capacity_j, initial_soc=initial_soc,
                         name=name)
        if nominal_voltage <= 0:
            raise ValueError("nominal_voltage must be positive")
        self.nominal_voltage = nominal_voltage

    def voltage(self) -> float:
        return self.nominal_voltage if self.energy_j > 0 else 0.0
