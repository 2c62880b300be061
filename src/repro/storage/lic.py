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
        # v_new * v_new (not v_new ** 2): keeps this expression bitwise
        # reproducible by the numpy-batched sweep kernel (libm pow and a
        # product differ by 1 ULP on a small fraction of inputs).
        e_new = 0.5 * self.capacitance_f * (v_new * v_new -
                                            self.min_voltage ** 2)
        lost = max(0.0, self.energy_j - e_new)
        self.energy_j -= lost
        return lost

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def _kernel_voltage(self, dt: float):
        """Inlined :meth:`voltage`: E = C/2 (V^2 - Vmin^2) inverted."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, LithiumIonCapacitor, "voltage")
        store = self
        cap = self.capacitance_f
        min_v2 = self.min_voltage ** 2
        max_v = self.max_voltage
        sqrt = math.sqrt

        def voltage() -> float:
            v_sq = min_v2 + 2.0 * store.energy_j / cap
            v = sqrt(v_sq)
            return max_v if max_v <= v else v

        return voltage

    def _kernel_idle(self, dt: float):
        """Inlined :meth:`step_idle` with the RC decay factor hoisted."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, LithiumIonCapacitor, "step_idle", "voltage")
        store = self
        cap = self.capacitance_f
        half_cap = 0.5 * cap
        min_v = self.min_voltage
        min_v2 = min_v ** 2
        max_v = self.max_voltage
        decay = math.exp(-dt / (self.leakage_resistance * cap))
        sqrt = math.sqrt

        def idle() -> None:
            v_sq = min_v2 + 2.0 * store.energy_j / cap
            v = sqrt(v_sq)
            if v > max_v:
                v = max_v
            if v <= min_v or store.energy_j <= 0:
                return
            v_new = v * decay
            if v_new < min_v:
                v_new = min_v
            e_new = half_cap * (v_new * v_new - min_v2)
            lost = store.energy_j - e_new
            if lost > 0.0:
                store.energy_j -= lost

        return idle

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_init(self, dt: float, siblings, state) -> None:
        from ..simulation.kernel.batched import gather
        state.lic_cap = gather(siblings, lambda s: s.capacitance_f)
        state.lic_half_cap = gather(siblings, lambda s: 0.5 * s.capacitance_f)
        state.lic_min_v = gather(siblings, lambda s: s.min_voltage)
        state.lic_min_v2 = gather(siblings, lambda s: s.min_voltage ** 2)
        state.lic_max_v = gather(siblings, lambda s: s.max_voltage)
        state.lic_decay = gather(
            siblings,
            lambda s: math.exp(-dt / (s.leakage_resistance * s.capacitance_f)))

    def _batch_voltage(self, dt: float, siblings, state):
        import numpy as np
        cap, min_v2, max_v = state.lic_cap, state.lic_min_v2, state.lic_max_v

        def voltage():
            v_sq = min_v2 + 2.0 * state.energy / cap
            v = np.sqrt(v_sq)
            return np.where(max_v <= v, max_v, v)

        return voltage

    def _batch_idle(self, dt: float, siblings, state):
        import numpy as np
        cap = state.lic_cap
        half_cap = state.lic_half_cap
        min_v = state.lic_min_v
        min_v2 = state.lic_min_v2
        max_v = state.lic_max_v
        decay = state.lic_decay

        def idle() -> None:
            v_sq = min_v2 + 2.0 * state.energy / cap
            v = np.sqrt(v_sq)
            v = np.where(v > max_v, max_v, v)
            act = (v > min_v) & (state.energy > 0.0)
            v_new = v * decay
            v_new = np.where(v_new < min_v, min_v, v_new)
            e_new = half_cap * (v_new * v_new - min_v2)
            lost = state.energy - e_new
            state.energy = state.energy - np.where(act & (lost > 0.0),
                                                   lost, 0.0)

        return idle
