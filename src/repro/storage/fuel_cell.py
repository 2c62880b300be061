"""Hydrogen fuel cell backup model.

System A (Smart Power Unit) "uses a hydrogen fuel cell which has a high
energy density compared with traditional battery and which starts to work
when the stored energy coming from the environmental sources is running
out" (survey Sec. II.1). Operationally it is a discharge-only reserve with
very high capacity, modest power, a start-up delay, and a finite fuel
inventory that cannot be refilled from the bus — the properties the
fuel-cell backup experiment (E10) probes.
"""

from __future__ import annotations

from ..spec.registry import register

from .base import EnergyStorage

__all__ = ["HydrogenFuelCell"]


@register("storage", "hydrogen_fuel_cell")
class HydrogenFuelCell(EnergyStorage):
    """Discharge-only hydrogen fuel cell with start-up latency.

    Parameters
    ----------
    fuel_energy_j:
        Usable energy in the fuel cartridge, joules (a few Wh for small
        PEM cells; default 5 Wh = 18 kJ).
    max_power_w:
        Rated electrical output power, W.
    output_voltage:
        Nominal stack output voltage, V.
    startup_time:
        Seconds of operation before full power is available; output ramps
        linearly from zero during this window after each cold start.
    conversion_efficiency:
        Fuel-to-electric conversion efficiency applied on top of the
        usable-energy figure (kept at 1.0 when ``fuel_energy_j`` already
        denotes electrical output energy).
    name:
        Instance label.
    """

    is_backup = True
    table_label = "Fuel cell"

    def __init__(self, fuel_energy_j: float = 18_000.0, max_power_w: float = 0.5,
                 output_voltage: float = 3.6, startup_time: float = 30.0,
                 conversion_efficiency: float = 1.0, name: str = ""):
        if max_power_w <= 0:
            raise ValueError("max_power_w must be positive")
        if output_voltage <= 0:
            raise ValueError("output_voltage must be positive")
        if startup_time < 0:
            raise ValueError("startup_time must be non-negative")
        super().__init__(
            capacity_j=fuel_energy_j,
            initial_soc=1.0,
            discharge_efficiency=conversion_efficiency,
            max_discharge_w=max_power_w,
            rechargeable=False,
            name=name,
        )
        self.output_voltage = output_voltage
        self.startup_time = startup_time
        self._warmup = 0.0   # seconds of continuous operation so far
        self.starts = 0      # cold-start count (reported by experiments)

    # ------------------------------------------------------------------
    def voltage(self) -> float:
        return self.output_voltage if self.energy_j > 0 else 0.0

    @property
    def is_warm(self) -> bool:
        return self._warmup >= self.startup_time

    def available_power(self) -> float:
        """Power currently available given warm-up state (W)."""
        if self.energy_j <= 0:
            return 0.0
        if self.startup_time == 0 or self.is_warm:
            return self.max_discharge_w
        return self.max_discharge_w * (self._warmup / self.startup_time)

    def discharge(self, power_w: float, dt: float) -> float:
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if power_w == 0.0:
            # Not being used this step: the stack cools down.
            self._cool(dt)
            return 0.0
        if self._warmup == 0.0 and self.energy_j > 0:
            self.starts += 1
        ceiling = self.available_power()
        delivered = super().discharge(min(power_w, ceiling), dt) if ceiling > 0 else 0.0
        self._warmup = min(self._warmup + dt, self.startup_time + dt)
        return delivered

    def step_idle(self, dt: float) -> float:
        lost = super().step_idle(dt)
        self._cool(dt)
        return lost

    def _cool(self, dt: float) -> None:
        # Cool-down at the same rate as warm-up.
        self._warmup = max(0.0, self._warmup - dt)

    @property
    def fuel_remaining_fraction(self) -> float:
        return self.soc

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def _kernel_voltage(self, dt: float):
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, HydrogenFuelCell, "voltage")
        store = self
        out_v = self.output_voltage

        def voltage() -> float:
            return out_v if store.energy_j > 0 else 0.0

        return voltage

    def _kernel_discharge(self, dt: float):
        """Inlined :meth:`discharge`: warm-up ramp + base discharge."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, HydrogenFuelCell, "discharge",
                          "available_power", "is_warm", "_cool")
        base_discharge = self._kernel_base_discharge(dt)
        store = self
        max_d = self.max_discharge_w
        startup = self.startup_time
        warm_cap = startup + dt

        def discharge(power_w: float) -> float:
            if power_w == 0.0:
                # Not being used this step: the stack cools down.
                store._warmup = max(0.0, store._warmup - dt)
                return 0.0
            if store._warmup == 0.0 and store.energy_j > 0:
                store.starts += 1
            # available_power(), inlined.
            if store.energy_j <= 0:
                ceiling = 0.0
            elif startup == 0 or store._warmup >= startup:
                ceiling = max_d
            else:
                ceiling = max_d * (store._warmup / startup)
            if ceiling > 0:
                delivered = base_discharge(
                    power_w if power_w <= ceiling else ceiling)
            else:
                delivered = 0.0
            warmed = store._warmup + dt
            store._warmup = warmed if warmed <= warm_cap else warm_cap
            return delivered

        return discharge

    def _kernel_idle(self, dt: float):
        """Base self-discharge (zero for a sealed cartridge) + cooling."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, HydrogenFuelCell, "step_idle", "_cool")
        base_idle = self._kernel_base_idle(dt)
        store = self

        def idle() -> None:
            base_idle()
            store._warmup = max(0.0, store._warmup - dt)

        return idle

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_init(self, dt: float, siblings, state) -> None:
        import numpy as np
        from ..simulation.kernel.batched import gather
        state.warmup = gather(siblings, lambda s: s._warmup)
        state.starts = np.array([s.starts for s in siblings], dtype=np.int64)

    def _batch_writeback(self, siblings, state) -> None:
        super()._batch_writeback(siblings, state)
        for k, store in enumerate(siblings):
            store._warmup = float(state.warmup[k])
            store.starts = int(state.starts[k])

    def _batch_voltage(self, dt: float, siblings, state):
        """Vectorized twin of :meth:`_kernel_voltage`."""
        import numpy as np
        from ..simulation.kernel.batched import gather
        out_v = gather(siblings, lambda s: s.output_voltage)

        def voltage():
            return np.where(state.energy > 0.0, out_v, 0.0)

        return voltage

    def _batch_discharge(self, dt: float, siblings, state):
        """Vectorized twin of :meth:`_kernel_discharge`.

        Lanes receiving zero power are complete no-ops: the bank's
        cascade only calls a backup store's discharge when the lane has
        residual demand, so the scalar cooling-on-unused branch never
        runs inside the kernel — cooling happens in :meth:`_batch_idle`
        every step, exactly like the scalar closures.
        """
        import numpy as np
        from ..simulation.kernel.batched import gather
        base_discharge = super()._batch_discharge(dt, siblings, state)
        max_d = gather(siblings, lambda s: s.max_discharge_w)
        startup = gather(siblings, lambda s: s.startup_time)
        warm_cap = gather(siblings, lambda s: s.startup_time + dt)

        def discharge(power_w):
            act = power_w != 0.0
            state.starts = state.starts + (
                act & (state.warmup == 0.0) & (state.energy > 0.0))
            # available_power(), vectorized.
            ceiling = np.where(
                state.energy <= 0.0, 0.0,
                np.where((startup == 0.0) | (state.warmup >= startup),
                         max_d, max_d * (state.warmup / startup)))
            request = np.where(act & (ceiling > 0.0),
                               np.minimum(power_w, ceiling), 0.0)
            delivered = base_discharge(request)
            warmed = state.warmup + dt
            state.warmup = np.where(act, np.minimum(warmed, warm_cap),
                                    state.warmup)
            return delivered

        return discharge

    def _batch_idle(self, dt: float, siblings, state):
        """Vectorized twin of :meth:`_kernel_idle` (base idle + cooling)."""
        import numpy as np
        base_idle = super()._batch_idle(dt, siblings, state)

        def idle() -> None:
            base_idle()
            cooled = state.warmup - dt
            state.warmup = np.where(cooled > 0.0, cooled, 0.0)

        return idle
