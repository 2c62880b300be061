"""Supercapacitor model with three-branch dynamics.

Supercapacitors buffer systems A, C and the survey's System B shared store.
The survey cites the authors' own modelling work (ref. [9], Weddell et al.,
"Accurate supercapacitor modeling for energy-harvesting wireless sensor
nodes", IEEE TCAS-II 2011), which shows that for EH workloads a supercap is
*not* an ideal capacitor: charge redistribution between a fast-access
branch and a slow bulk branch, plus a leakage resistance, dominate
multi-hour behaviour. This module implements that three-branch structure:

* **fast branch** ``C_fast`` — immediately accessible charge (terminal);
* **slow branch** ``C_slow`` — bulk charge exchanging with the fast branch
  through ``R_redistribution`` (time constant of minutes-hours);
* **leakage** ``R_leak`` across the terminals.

Terminal voltage is the fast-branch voltage; usable energy counts both
branches. The classic EH symptom reproduced: after a burst charge the
terminal voltage sags as charge redistributes into the bulk, and a "full"
cap left idle loses voltage steadily through leakage.
"""

from __future__ import annotations

from ..spec.registry import register

import math

from .base import EnergyStorage

__all__ = ["Supercapacitor"]


@register("storage", "supercapacitor")
class Supercapacitor(EnergyStorage):
    """Three-branch supercapacitor.

    Parameters
    ----------
    capacitance_f:
        Total nameplate capacitance, farads (fast + slow branches).
    rated_voltage:
        Maximum terminal voltage, V.
    fast_fraction:
        Fraction of the capacitance in the fast (terminal) branch.
    redistribution_tau:
        Time constant of fast<->slow charge exchange, seconds.
    leakage_resistance:
        Terminal leakage resistance, ohms (tens of kOhm for real parts).
    min_voltage:
        Usable-voltage floor (converter cut-off); energy below it is
        stranded and excluded from ``capacity_j``.
    initial_soc:
        Initial usable state of charge in [0, 1].
    name:
        Instance label.
    """

    table_label = "Supercap."

    def __init__(self, capacitance_f: float = 25.0, rated_voltage: float = 5.0,
                 fast_fraction: float = 0.8, redistribution_tau: float = 1800.0,
                 leakage_resistance: float = 40_000.0, min_voltage: float = 0.5,
                 initial_soc: float = 0.5, name: str = ""):
        if capacitance_f <= 0:
            raise ValueError("capacitance_f must be positive")
        if rated_voltage <= 0:
            raise ValueError("rated_voltage must be positive")
        if not 0.0 < fast_fraction <= 1.0:
            raise ValueError("fast_fraction must be in (0, 1]")
        if redistribution_tau <= 0:
            raise ValueError("redistribution_tau must be positive")
        if leakage_resistance <= 0:
            raise ValueError("leakage_resistance must be positive")
        if not 0.0 <= min_voltage < rated_voltage:
            raise ValueError("need 0 <= min_voltage < rated_voltage")

        self.capacitance_f = capacitance_f
        self.rated_voltage = rated_voltage
        self.min_voltage = min_voltage
        self.c_fast = capacitance_f * fast_fraction
        self.c_slow = capacitance_f * (1.0 - fast_fraction)
        self.redistribution_tau = redistribution_tau
        self.leakage_resistance = leakage_resistance

        # Usable capacity: energy between min_voltage and rated_voltage on
        # the full capacitance.
        usable = 0.5 * capacitance_f * (rated_voltage ** 2 - min_voltage ** 2)
        super().__init__(capacity_j=usable, initial_soc=initial_soc, name=name)

        # Distribute the initial energy at equal branch voltages.
        v0 = self._voltage_for_usable_energy(self.energy_j)
        self.v_fast = v0
        self.v_slow = v0
        self._sync_energy()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _voltage_for_usable_energy(self, usable_j: float) -> float:
        """Common branch voltage holding the given usable energy."""
        total = usable_j + 0.5 * self.capacitance_f * self.min_voltage ** 2
        return math.sqrt(max(0.0, 2.0 * total / self.capacitance_f))

    def _usable_energy(self) -> float:
        """Usable energy across both branches (J), floor at min_voltage.

        State squarings are written ``v * v`` (not ``v ** 2``): libm's
        ``pow`` and a plain product differ by 1 ULP on a small fraction
        of inputs, and the batched sweep kernel evaluates this expression
        with numpy (whose squaring is a product) — the product form keeps
        the legacy, kernel and batched paths bit-for-bit identical.
        """
        e_fast = 0.5 * self.c_fast * max(0.0, self.v_fast * self.v_fast -
                                         self.min_voltage ** 2)
        if self.c_slow > 0:
            e_slow = 0.5 * self.c_slow * max(0.0, self.v_slow * self.v_slow -
                                             self.min_voltage ** 2)
        else:
            e_slow = 0.0
        return e_fast + e_slow

    def _sync_energy(self) -> None:
        self.energy_j = min(self.capacity_j, self._usable_energy())

    # ------------------------------------------------------------------
    # EnergyStorage interface
    # ------------------------------------------------------------------
    def voltage(self) -> float:
        """Terminal voltage = fast-branch voltage."""
        return self.v_fast

    def charge(self, power_w: float, dt: float) -> float:
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if power_w == 0.0:
            return 0.0
        # Energy enters the fast branch; clamp at rated voltage.
        e_fast = 0.5 * self.c_fast * (self.v_fast * self.v_fast)
        room = 0.5 * self.c_fast * self.rated_voltage ** 2 - e_fast
        delivered = min(power_w * dt, max(0.0, room))
        e_fast += delivered
        self.v_fast = math.sqrt(2.0 * e_fast / self.c_fast)
        self._sync_energy()
        self.total_charged_j += delivered
        return delivered / dt

    def discharge(self, power_w: float, dt: float) -> float:
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if power_w == 0.0:
            return 0.0
        deliverable = min(power_w, self.max_discharge_w)
        e_fast = 0.5 * self.c_fast * (self.v_fast * self.v_fast)
        floor = 0.5 * self.c_fast * self.min_voltage ** 2
        available = max(0.0, e_fast - floor)
        drawn = min(deliverable * dt, available)
        e_fast -= drawn
        self.v_fast = math.sqrt(2.0 * e_fast / self.c_fast)
        self._sync_energy()
        self.total_discharged_j += drawn
        return drawn / dt

    def step_idle(self, dt: float) -> float:
        """Charge redistribution between branches + terminal leakage.

        Returns the energy lost to leakage (J). Redistribution conserves
        charge (not energy — the resistive exchange dissipates, which is
        the point of ref. [9]).
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        before = self._usable_energy()

        # Redistribution: exponential approach of both branch voltages to
        # the common charge-conserving voltage.
        if self.c_slow > 0:
            v_eq = (self.c_fast * self.v_fast + self.c_slow * self.v_slow) / \
                self.capacitance_f
            alpha = 1.0 - math.exp(-dt / self.redistribution_tau)
            self.v_fast += alpha * (v_eq - self.v_fast)
            self.v_slow += alpha * (v_eq - self.v_slow)

        # Leakage from the fast (terminal) branch: RC decay.
        tau_leak = self.leakage_resistance * self.c_fast
        self.v_fast *= math.exp(-dt / tau_leak)

        self._sync_energy()
        return max(0.0, before - self._usable_energy())

    def leakage_power(self) -> float:
        """Instantaneous terminal leakage power V^2/R (W), for reports."""
        return self.v_fast ** 2 / self.leakage_resistance

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def _kernel_consts(self, dt: float) -> tuple:
        """Hoisted three-branch run constants, shared by the hooks."""
        c_fast = self.c_fast
        half_cf = 0.5 * c_fast
        min_v2 = self.min_voltage ** 2
        return (
            c_fast,
            self.c_slow,
            0.5 * self.c_slow,
            self.capacitance_f,
            self.capacity_j,
            min_v2,
            half_cf * self.rated_voltage ** 2,   # fast-branch full energy
            half_cf * min_v2,                    # fast-branch energy floor
            half_cf,
            1.0 - math.exp(-dt / self.redistribution_tau),
            math.exp(-dt / (self.leakage_resistance * c_fast)),
        )

    def _kernel_guard(self) -> None:
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, Supercapacitor, "charge", "discharge",
                          "step_idle", "voltage", "_usable_energy",
                          "_sync_energy")

    def _kernel_sync(self, dt: float):
        """Inlined :meth:`_sync_energy` over both branches."""
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = self._kernel_consts(dt)
        store = self

        def sync() -> None:
            d_f = store.v_fast * store.v_fast - min_v2
            usable = half_cf * (d_f if d_f > 0.0 else 0.0)
            if c_slow > 0.0:
                d_s = store.v_slow * store.v_slow - min_v2
                usable += half_cs * (d_s if d_s > 0.0 else 0.0)
            store.energy_j = usable if usable < capacity_j else capacity_j

        return sync

    def _kernel_voltage(self, dt: float):
        self._kernel_guard()
        store = self

        def voltage() -> float:
            return store.v_fast

        return voltage

    def _kernel_charge(self, dt: float):
        self._kernel_guard()
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = self._kernel_consts(dt)
        store = self
        sync = self._kernel_sync(dt)
        sqrt = math.sqrt

        def charge(power_w: float) -> float:
            if power_w == 0.0:
                return 0.0
            e_fast = half_cf * (store.v_fast * store.v_fast)
            room = full_e - e_fast
            if room < 0.0:
                room = 0.0
            delivered = power_w * dt
            if delivered > room:
                delivered = room
            e_fast += delivered
            store.v_fast = sqrt(2.0 * e_fast / c_fast)
            sync()
            store.total_charged_j += delivered
            return delivered / dt

        return charge

    def _kernel_discharge(self, dt: float):
        self._kernel_guard()
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = self._kernel_consts(dt)
        store = self
        sync = self._kernel_sync(dt)
        sqrt = math.sqrt
        max_d = self.max_discharge_w

        def discharge(power_w: float) -> float:
            if power_w == 0.0:
                return 0.0
            deliverable = power_w if power_w <= max_d else max_d
            e_fast = half_cf * (store.v_fast * store.v_fast)
            available = e_fast - floor_e
            if available < 0.0:
                available = 0.0
            drawn = deliverable * dt
            if drawn > available:
                drawn = available
            e_fast -= drawn
            store.v_fast = sqrt(2.0 * e_fast / c_fast)
            sync()
            store.total_discharged_j += drawn
            return drawn / dt

        return discharge

    def _kernel_idle(self, dt: float):
        self._kernel_guard()
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = self._kernel_consts(dt)
        store = self
        sync = self._kernel_sync(dt)

        def idle() -> None:
            if c_slow > 0.0:
                v_eq = (c_fast * store.v_fast + c_slow * store.v_slow) / cap_f
                store.v_fast += alpha * (v_eq - store.v_fast)
                store.v_slow += alpha * (v_eq - store.v_slow)
            store.v_fast *= leak
            sync()

        return idle

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_init(self, dt: float, siblings, state) -> None:
        """Shared branch-voltage arrays + the hoisted run constants."""
        import numpy as np
        state.v_fast = np.array([s.v_fast for s in siblings])
        state.v_slow = np.array([s.v_slow for s in siblings])
        # Per-lane constants via the *scalar* helper: identical Python
        # arithmetic to what the scalar kernel hoists.
        consts = [s._kernel_consts(dt) for s in siblings]
        state.sc_consts = tuple(np.array(col, dtype=np.float64)
                                for col in zip(*consts))

    def _batch_writeback(self, siblings, state) -> None:
        super()._batch_writeback(siblings, state)
        for k, store in enumerate(siblings):
            store.v_fast = float(state.v_fast[k])
            store.v_slow = float(state.v_slow[k])

    def _batch_sync(self, state):
        """Vectorized :meth:`_kernel_sync`; ``act`` gates state writes."""
        import numpy as np
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = state.sc_consts
        has_slow = c_slow > 0.0

        def sync(act) -> None:
            d_f = state.v_fast * state.v_fast - min_v2
            usable = half_cf * np.where(d_f > 0.0, d_f, 0.0)
            d_s = state.v_slow * state.v_slow - min_v2
            usable = usable + np.where(
                has_slow, half_cs * np.where(d_s > 0.0, d_s, 0.0), 0.0)
            new_energy = np.where(usable < capacity_j, usable, capacity_j)
            if act is None:
                state.energy = new_energy
            else:
                state.energy = np.where(act, new_energy, state.energy)

        return sync

    def _batch_voltage(self, dt: float, siblings, state):
        def voltage():
            return state.v_fast

        return voltage

    def _batch_charge(self, dt: float, siblings, state):
        import numpy as np
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = state.sc_consts
        sync = self._batch_sync(state)

        def charge(power_w):
            act = power_w != 0.0
            e_fast = half_cf * (state.v_fast * state.v_fast)
            room = full_e - e_fast
            room = np.where(room < 0.0, 0.0, room)
            delivered = power_w * dt
            delivered = np.where(delivered > room, room, delivered)
            e_fast = e_fast + delivered
            state.v_fast = np.where(act, np.sqrt(2.0 * e_fast / c_fast),
                                    state.v_fast)
            sync(act)
            state.charged = state.charged + np.where(act, delivered, 0.0)
            return np.where(act, delivered / dt, 0.0)

        return charge

    def _batch_discharge(self, dt: float, siblings, state):
        import numpy as np
        from ..simulation.kernel.batched import gather
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = state.sc_consts
        max_d = gather(siblings, lambda s: s.max_discharge_w)
        sync = self._batch_sync(state)

        def discharge(power_w):
            act = power_w != 0.0
            deliverable = np.minimum(power_w, max_d)
            e_fast = half_cf * (state.v_fast * state.v_fast)
            available = e_fast - floor_e
            available = np.where(available < 0.0, 0.0, available)
            drawn = deliverable * dt
            drawn = np.where(drawn > available, available, drawn)
            e_fast = e_fast - drawn
            state.v_fast = np.where(act, np.sqrt(2.0 * e_fast / c_fast),
                                    state.v_fast)
            sync(act)
            state.discharged = state.discharged + np.where(act, drawn, 0.0)
            return np.where(act, drawn / dt, 0.0)

        return discharge

    def _batch_idle(self, dt: float, siblings, state):
        import numpy as np
        (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
         floor_e, half_cf, alpha, leak) = state.sc_consts
        has_slow = c_slow > 0.0
        sync = self._batch_sync(state)

        def idle() -> None:
            v_eq = (c_fast * state.v_fast + c_slow * state.v_slow) / cap_f
            state.v_fast = np.where(
                has_slow, state.v_fast + alpha * (v_eq - state.v_fast),
                state.v_fast)
            state.v_slow = np.where(
                has_slow, state.v_slow + alpha * (v_eq - state.v_slow),
                state.v_slow)
            state.v_fast = state.v_fast * leak
            sync(None)

        return idle
