"""Lithium-ion capacitor (LIC) hybrid storage model.

The survey cites the authors' LIC characterisation work (ref. [10],
Porcarelli et al., INSS 2012: "Characterization of lithium-ion capacitors
for low-power energy neutral wireless sensor networks"). An LIC is a hybrid
between a supercapacitor and a lithium battery: capacitor-like linear
voltage behaviour within a *bounded* window (the pre-doped anode forbids
discharge below ~2.2 V), energy density several times a supercap's, and
self-discharge far below a supercap's leakage. That combination is why the
reference positions LICs as the buffer of choice for energy-neutral nodes.
"""

from __future__ import annotations

from ..spec.registry import register

import math

from .base import EnergyStorage

__all__ = ["LithiumIonCapacitor"]


@register("storage", "lic")
class LithiumIonCapacitor(EnergyStorage):
    """Lithium-ion capacitor: C*V physics inside a [v_min, v_max] window.

    Parameters
    ----------
    capacitance_f:
        Nameplate capacitance, farads.
    max_voltage:
        Upper voltage bound, V (typ. 3.8).
    min_voltage:
        Lower voltage bound, V (typ. 2.2 — going lower damages the cell,
        so the model simply refuses).
    leakage_resistance:
        Effective self-discharge resistance, ohms (much larger than a
        supercap's; megaohm scale).
    initial_soc:
        Initial usable state of charge in [0, 1].
    name:
        Instance label.
    """

    table_label = "Li-ion capacitor"

    def __init__(self, capacitance_f: float = 40.0, max_voltage: float = 3.8,
                 min_voltage: float = 2.2, leakage_resistance: float = 2e6,
                 initial_soc: float = 0.5, name: str = ""):
        if capacitance_f <= 0:
            raise ValueError("capacitance_f must be positive")
        if not 0.0 < min_voltage < max_voltage:
            raise ValueError("need 0 < min_voltage < max_voltage")
        if leakage_resistance <= 0:
            raise ValueError("leakage_resistance must be positive")
        self.capacitance_f = capacitance_f
        self.max_voltage = max_voltage
        self.min_voltage = min_voltage
        self.leakage_resistance = leakage_resistance
        usable = 0.5 * capacitance_f * (max_voltage ** 2 - min_voltage ** 2)
        super().__init__(capacity_j=usable, initial_soc=initial_soc,
                         charge_efficiency=0.99, discharge_efficiency=0.99,
                         name=name)

    def voltage(self) -> float:
        """Terminal voltage from stored energy: E = C/2 (V^2 - Vmin^2)."""
        v_sq = self.min_voltage ** 2 + 2.0 * self.energy_j / self.capacitance_f
        return min(self.max_voltage, math.sqrt(v_sq))

    def step_idle(self, dt: float) -> float:
        """RC self-discharge down to (but never below) the voltage floor."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        v = self.voltage()
        if v <= self.min_voltage or self.energy_j <= 0:
            return 0.0
        tau = self.leakage_resistance * self.capacitance_f
        v_new = max(self.min_voltage, v * math.exp(-dt / tau))
        # v_new * v_new, not v_new ** 2: libm pow and a product differ
        # by 1 ULP on a small fraction of inputs, and results keep the
        # product's bits.
        e_new = 0.5 * self.capacitance_f * (v_new * v_new -
                                            self.min_voltage ** 2)
        lost = max(0.0, self.energy_j - e_new)
        self.energy_j -= lost
        return lost
