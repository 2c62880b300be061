"""Energy storage base class.

The survey treats the energy buffer as a first-class design axis: "it is
necessary to buffer the energy [harvesters] produce" (Sec. II.1), different
storage technologies "offer different characteristics well known in
literature" (Sec. II.2, refs [9]/[10]), and Table I's Storage row spans
fuel cells, Li-ion/poly and NiMH batteries, supercapacitors, thin-film
batteries and primary cells. The base class captures the characteristics
those claims rely on:

* state of charge and a chemistry-dependent terminal voltage curve,
* charge/discharge power limits and round-trip efficiency,
* self-discharge / leakage,
* rechargeability (primary cells and fuel cells refuse charge),
* an optional electronic datasheet for plug-and-play recognition.

Energy accounting convention: ``charge`` receives *bus-side* power and
returns how much was accepted; losses mean the stored energy rises by less
than the accepted power. ``discharge`` receives a *load-side* request and
returns how much was delivered; losses mean stored energy falls by more.
"""

from __future__ import annotations

import abc

__all__ = ["EnergyStorage"]


class EnergyStorage(abc.ABC):
    """Abstract energy buffer.

    Parameters
    ----------
    capacity_j:
        Usable energy capacity, joules.
    initial_soc:
        Initial state of charge in [0, 1].
    charge_efficiency / discharge_efficiency:
        One-way efficiencies in (0, 1]; round-trip = product.
    max_charge_w / max_discharge_w:
        Power acceptance/delivery limits (inf = unlimited).
    self_discharge_per_day:
        Fraction of *current* stored energy lost per day.
    rechargeable:
        Primary cells and fuel cells set this False; ``charge`` then
        accepts nothing.
    name:
        Instance label used in reports.
    """

    #: Storage-technology label used when regenerating Table I.
    table_label: str = "Storage"

    #: Marks discharge-only reserves (e.g. the fuel cell of System A) that
    #: managers hold back until ambient-fed stores are exhausted.
    is_backup: bool = False

    def __init__(self, capacity_j: float, initial_soc: float = 0.5,
                 charge_efficiency: float = 1.0, discharge_efficiency: float = 1.0,
                 max_charge_w: float = float("inf"),
                 max_discharge_w: float = float("inf"),
                 self_discharge_per_day: float = 0.0,
                 rechargeable: bool = True, name: str = ""):
        if capacity_j <= 0:
            raise ValueError(f"capacity_j must be positive, got {capacity_j}")
        if not 0.0 <= initial_soc <= 1.0:
            raise ValueError(f"initial_soc must be in [0, 1], got {initial_soc}")
        for label, eff in (("charge_efficiency", charge_efficiency),
                           ("discharge_efficiency", discharge_efficiency)):
            if not 0.0 < eff <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {eff}")
        if max_charge_w < 0 or max_discharge_w < 0:
            raise ValueError("power limits must be non-negative")
        if not 0.0 <= self_discharge_per_day < 1.0:
            raise ValueError("self_discharge_per_day must be in [0, 1)")
        self.capacity_j = capacity_j
        self.energy_j = capacity_j * initial_soc
        self.charge_efficiency = charge_efficiency
        self.discharge_efficiency = discharge_efficiency
        self.max_charge_w = max_charge_w
        self.max_discharge_w = max_discharge_w
        self.self_discharge_per_day = self_discharge_per_day
        self.rechargeable = rechargeable
        self.name = name or type(self).__name__
        self.datasheet = None
        # Lifetime counters (used by metrics and the fuel-cell experiment).
        self.total_charged_j = 0.0
        self.total_discharged_j = 0.0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def soc(self) -> float:
        """State of charge in [0, 1]."""
        return self.energy_j / self.capacity_j

    @property
    def headroom_j(self) -> float:
        """Energy that can still be stored, joules."""
        return max(0.0, self.capacity_j - self.energy_j)

    @abc.abstractmethod
    def voltage(self) -> float:
        """Terminal voltage (V) at the current state of charge."""

    def is_empty(self, threshold_soc: float = 1e-6) -> bool:
        return self.soc <= threshold_soc

    def is_full(self, threshold_soc: float = 1.0 - 1e-6) -> bool:
        return self.soc >= threshold_soc

    # ------------------------------------------------------------------
    # Power flow
    # ------------------------------------------------------------------
    def charge(self, power_w: float, dt: float) -> float:
        """Accept up to ``power_w`` (bus side) for ``dt`` seconds.

        Returns the bus-side power actually accepted (W). Stored energy
        rises by ``accepted * dt * charge_efficiency``.
        """
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not self.rechargeable or power_w == 0.0:
            return 0.0
        accepted = min(power_w, self.max_charge_w)
        stored = accepted * dt * self.charge_efficiency
        if stored > self.headroom_j:
            stored = self.headroom_j
            accepted = stored / (dt * self.charge_efficiency)
        self.energy_j += stored
        self.total_charged_j += stored
        return accepted

    def discharge(self, power_w: float, dt: float) -> float:
        """Deliver up to ``power_w`` (load side) for ``dt`` seconds.

        Returns the load-side power actually delivered (W). Stored energy
        falls by ``delivered * dt / discharge_efficiency``.
        """
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if power_w == 0.0:
            return 0.0
        deliverable = min(power_w, self.max_discharge_w)
        drawn = deliverable * dt / self.discharge_efficiency
        if drawn > self.energy_j:
            drawn = self.energy_j
            deliverable = drawn * self.discharge_efficiency / dt
        self.energy_j -= drawn
        self.total_discharged_j += drawn
        return deliverable

    def step_idle(self, dt: float) -> float:
        """Apply self-discharge for ``dt`` seconds; returns energy lost (J).

        Subclasses with structural leakage (supercapacitors) extend this.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if self.self_discharge_per_day <= 0.0 or self.energy_j <= 0.0:
            return 0.0
        keep = (1.0 - self.self_discharge_per_day) ** (dt / 86_400.0)
        lost = self.energy_j * (1.0 - keep)
        self.energy_j -= lost
        return lost

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Lower this store to kernel closures.

        Composed from four hooks — :meth:`_kernel_voltage`,
        :meth:`_kernel_charge`, :meth:`_kernel_discharge`,
        :meth:`_kernel_idle` — so a chemistry overrides only the physics
        it specializes. Each hook returns a closure bit-for-bit
        equivalent to the corresponding method, or raises
        :exc:`~repro.simulation.kernel.protocol.LoweringUnsupported` when
        the instance's class overrides the arithmetic it would inline.
        The whole store then lowers to its own methods instead —
        ``voltage()``, ``charge(p, dt)``, ``discharge(p, dt)`` and
        ``step_idle(dt)``, the calls :class:`~repro.core.system.
        StorageBank` makes on the legacy path — so any subclass (an
        :class:`~repro.storage.AgingStorage` wrapper, a user chemistry)
        runs on the kernel, exact by construction.
        """
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            StoreLowering,
        )
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        try:
            closures = self._kernel_closures(dt)
        except LoweringUnsupported:
            store = self

            def charge(power_w: float) -> float:
                return store.charge(power_w, dt)

            def discharge(power_w: float) -> float:
                return store.discharge(power_w, dt)

            def idle() -> None:
                store.step_idle(dt)

            closures = (self.voltage, charge, discharge, idle)
        return StoreLowering(self, *closures)

    def _kernel_closures(self, dt: float) -> tuple:
        """The four hooks' inlined closures; raises
        :exc:`LoweringUnsupported` when any hook refuses."""
        return (self._kernel_voltage(dt), self._kernel_charge(dt),
                self._kernel_discharge(dt), self._kernel_idle(dt))

    def _kernel_voltage(self, dt: float):
        """Terminal-voltage closure. The bound method is exact for any
        chemistry; subclasses may return an inlined specialization."""
        return self.voltage

    def _kernel_charge(self, dt: float):
        """Inlined :meth:`charge` with run constants hoisted."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, EnergyStorage, "charge", "headroom_j")
        store = self
        rechargeable = self.rechargeable
        max_c = self.max_charge_w
        eff_c = self.charge_efficiency
        eff_dt = dt * eff_c

        def charge(power_w: float) -> float:
            if not rechargeable or power_w == 0.0:
                return 0.0
            accepted = power_w if power_w <= max_c else max_c
            stored = accepted * dt * eff_c
            headroom = store.capacity_j - store.energy_j
            if headroom < 0.0:
                headroom = 0.0
            if stored > headroom:
                stored = headroom
                accepted = stored / eff_dt
            store.energy_j += stored
            store.total_charged_j += stored
            return accepted

        return charge

    def _kernel_discharge(self, dt: float):
        """Inlined :meth:`discharge` with run constants hoisted."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, EnergyStorage, "discharge")
        return self._kernel_base_discharge(dt)

    def _kernel_base_discharge(self, dt: float):
        """The base-class discharge closure, without the override guard.

        Chemistries whose ``discharge`` wraps ``super().discharge`` (the
        fuel cell's warm-up ramp) reuse this for the inner call — the
        ``super()`` call is lexically bound to this class, so the closure
        stays exact even though the subclass overrides ``discharge``.
        """
        store = self
        max_d = self.max_discharge_w
        eff_d = self.discharge_efficiency

        def discharge(power_w: float) -> float:
            if power_w == 0.0:
                return 0.0
            deliverable = power_w if power_w <= max_d else max_d
            drawn = deliverable * dt / eff_d
            if drawn > store.energy_j:
                drawn = store.energy_j
                deliverable = drawn * eff_d / dt
            store.energy_j -= drawn
            store.total_discharged_j += drawn
            return deliverable

        return discharge

    def _kernel_idle(self, dt: float):
        """Inlined :meth:`step_idle` with the decay factor hoisted."""
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, EnergyStorage, "step_idle")
        return self._kernel_base_idle(dt)

    def _kernel_base_idle(self, dt: float):
        """The base-class self-discharge closure, without the guard."""
        store = self
        sd = self.self_discharge_per_day
        keep = (1.0 - sd) ** (dt / 86_400.0)

        def idle() -> None:
            if sd <= 0.0 or store.energy_j <= 0.0:
                return
            store.energy_j -= store.energy_j * (1.0 - keep)

        return idle

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Lower a group of same-chemistry stores to lockstep closures.

        Mirrors :meth:`lower_kernel`'s hook structure: chemistry-specific
        ``_batch_{voltage,charge,discharge,idle}`` hooks operate on
        shared ``(n,)`` state arrays (``state.energy`` plus whatever the
        chemistry adds in ``_batch_init``). The scalar hooks are composed
        first for their override guards: a store class they refuse runs
        its own methods on the scalar kernel, which a lockstep lane
        cannot, so it raises :exc:`LoweringUnsupported` here and the
        scenario runs on the per-scenario path instead.
        """
        from ..simulation.kernel.batched import (
            BatchState,
            BatchedStoreLowering,
            gather,
            same_class,
        )
        from ..simulation.kernel.protocol import LoweringUnsupported
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        same_class(siblings, "store")
        # The guards test the class, which the group shares. Their
        # refusal speaks for the scalar kernel, where the store runs on
        # its own methods; here it is a lockstep refusal.
        try:
            self._kernel_closures(dt)
        except LoweringUnsupported as refusal:
            overrides = str(refusal).partition(" and defines")[0]
            raise LoweringUnsupported(
                f"{overrides}, so it has no lockstep lowering; it runs per "
                f"scenario, on the scalar kernel through its own methods",
                component=type(self).__name__,
                capability=refusal.capability) from refusal
        state = BatchState()
        state.energy = gather(siblings, lambda s: s.energy_j)
        state.charged = gather(siblings, lambda s: s.total_charged_j)
        state.discharged = gather(siblings, lambda s: s.total_discharged_j)
        self._batch_init(dt, siblings, state)

        def writeback() -> None:
            self._batch_writeback(siblings, state)

        return BatchedStoreLowering(
            tuple(siblings), state,
            self._batch_voltage(dt, siblings, state),
            self._batch_charge(dt, siblings, state),
            self._batch_discharge(dt, siblings, state),
            self._batch_idle(dt, siblings, state),
            writeback)

    def _batch_init(self, dt: float, siblings, state) -> None:
        """Chemistry hook: add extra shared state arrays (default none)."""

    def _batch_writeback(self, siblings, state) -> None:
        """Scatter final array state back onto the store objects."""
        for k, store in enumerate(siblings):
            store.energy_j = float(state.energy[k])
            store.total_charged_j = float(state.charged[k])
            store.total_discharged_j = float(state.discharged[k])

    def _batch_voltage(self, dt: float, siblings, state):
        """Terminal-voltage closure ``() -> (n,)``; chemistry-specific."""
        from ..simulation.kernel.protocol import LoweringUnsupported
        raise LoweringUnsupported(
            f"{type(self).__name__} has no batched voltage lowering")

    def _batch_charge(self, dt: float, siblings, state):
        """Vectorized twin of :meth:`_kernel_charge` (same expressions,
        with the early returns turned into state-write masks)."""
        import numpy as np
        rechargeable = np.array([s.rechargeable for s in siblings])
        from ..simulation.kernel.batched import gather
        max_c = gather(siblings, lambda s: s.max_charge_w)
        eff_c = gather(siblings, lambda s: s.charge_efficiency)
        eff_dt = gather(siblings, lambda s: dt * s.charge_efficiency)
        capacity = gather(siblings, lambda s: s.capacity_j)

        def charge(power_w):
            act = rechargeable & (power_w != 0.0)
            accepted = np.minimum(power_w, max_c)
            stored = accepted * dt * eff_c
            headroom = capacity - state.energy
            headroom = np.where(headroom < 0.0, 0.0, headroom)
            over = stored > headroom
            stored = np.where(over, headroom, stored)
            accepted = np.where(over, stored / eff_dt, accepted)
            stored = np.where(act, stored, 0.0)
            state.energy = state.energy + stored
            state.charged = state.charged + stored
            return np.where(act, accepted, 0.0)

        return charge

    def _batch_discharge(self, dt: float, siblings, state):
        """Vectorized twin of :meth:`_kernel_base_discharge`."""
        import numpy as np
        from ..simulation.kernel.batched import gather
        max_d = gather(siblings, lambda s: s.max_discharge_w)
        eff_d = gather(siblings, lambda s: s.discharge_efficiency)

        def discharge(power_w):
            act = power_w != 0.0
            deliverable = np.minimum(power_w, max_d)
            drawn = deliverable * dt / eff_d
            over = drawn > state.energy
            drawn = np.where(over, state.energy, drawn)
            deliverable = np.where(over, drawn * eff_d / dt, deliverable)
            drawn = np.where(act, drawn, 0.0)
            state.energy = state.energy - drawn
            state.discharged = state.discharged + drawn
            return np.where(act, deliverable, 0.0)

        return discharge

    def _batch_idle(self, dt: float, siblings, state):
        """Vectorized twin of :meth:`_kernel_base_idle`."""
        import numpy as np
        from ..simulation.kernel.batched import gather
        sd = gather(siblings, lambda s: s.self_discharge_per_day)
        one_minus_keep = gather(
            siblings,
            lambda s: 1.0 - (1.0 - s.self_discharge_per_day) ** (dt / 86_400.0))

        def idle() -> None:
            act = (sd > 0.0) & (state.energy > 0.0)
            lost = state.energy * one_minus_keep
            state.energy = state.energy - np.where(act, lost, 0.0)

        return idle

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"soc={self.soc:.3f}, capacity={self.capacity_j:.1f} J)")
