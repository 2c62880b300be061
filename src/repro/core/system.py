"""Multi-source system composition: channels, storage bank, monitor, system.

This is the paper's object of study made executable: "energy harvesters
and storage devices are connected via a power unit to an embedded device
(wireless sensor)" (survey Sec. II). A :class:`MultiSourceSystem` composes

* harvesting channels (transducer + input conditioning),
* a storage bank with charge/discharge routing and backup cascade,
* an output conditioner feeding a wireless sensor node,
* a capability-limited :class:`EnergyMonitor` (the survey's monitoring
  axis made concrete: what the intelligence can actually see),
* an energy manager (:mod:`repro.core.manager`),
* an :class:`~repro.core.taxonomy.ArchitectureDescriptor` for
  classification.

The per-step power flow implemented by :meth:`MultiSourceSystem.step` is
what every experiment in DESIGN.md runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..conditioning.base import HarvestStep, InputConditioner, OutputConditioner
from ..environment.ambient import AmbientSample
from ..harvesters.base import Harvester
from ..load.node import NodeStepResult, WirelessSensorNode
from ..storage.base import EnergyStorage
from .taxonomy import ArchitectureDescriptor, MonitoringCapability

__all__ = [
    "HarvestingChannel",
    "StorageBank",
    "StorageBelief",
    "EnergyMonitor",
    "SystemStepRecord",
    "MultiSourceSystem",
]


class HarvestingChannel:
    """One harvester behind its input conditioning."""

    def __init__(self, harvester: Harvester, conditioner: InputConditioner,
                 name: str = ""):
        if not isinstance(harvester, Harvester):
            raise TypeError("harvester must be a Harvester")
        self.harvester = harvester
        self.conditioner = conditioner
        self.name = name or harvester.name
        self.enabled = True
        self.last_step: HarvestStep | None = None

    @property
    def source_type(self):
        return self.harvester.source_type

    @property
    def quiescent_current_a(self) -> float:
        return self.conditioner.total_quiescent_a

    def step(self, ambient: AmbientSample, dt: float,
             bus_voltage: float) -> HarvestStep:
        if not self.enabled:
            self.last_step = HarvestStep(0.0, 0.0, 0.0, 0.0)
            return self.last_step
        value = ambient.get(self.source_type)
        self.last_step = self.conditioner.step(self.harvester, value, dt,
                                               bus_voltage)
        return self.last_step

    def swap_harvester(self, new_harvester: Harvester) -> Harvester:
        """Hot-swap the transducer; the tracker restarts from scratch."""
        if not isinstance(new_harvester, Harvester):
            raise TypeError("new_harvester must be a Harvester")
        old, self.harvester = self.harvester, new_harvester
        self.conditioner.reset()
        return old

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Lowered channel: ``step(ambient_value, bus_v) -> HarvestStep``.

        The harvester and the enabled flag are read per step (managers
        may disable channels mid-run); the conditioner chain is hoisted
        — it can only change through a scheduled event, which recompiles
        the plan.
        """
        from ..simulation.kernel.protocol import (
            ChannelLowering,
            LoweringUnsupported,
            ensure_unmodified,
        )
        ensure_unmodified(self, HarvestingChannel, "step", "swap_harvester")
        lower_cond = getattr(self.conditioner, "lower_kernel", None)
        if lower_cond is None:
            raise LoweringUnsupported(
                f"channel {self.name!r}: conditioner "
                f"{type(self.conditioner).__name__} has no kernel lowering")
        conditioner_step = lower_cond(dt)
        channel = self
        zero = HarvestStep(0.0, 0.0, 0.0, 0.0)

        def step(value: float, bus_v: float) -> HarvestStep:
            if channel.enabled:
                hs = conditioner_step(channel.harvester, value, bus_v)
            else:
                hs = zero
            channel.last_step = hs
            return hs

        return ChannelLowering(channel, self.source_type, step)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Lower one channel position across a scenario group.

        The conditioner chain validates and lowers at compile time; the
        ambient-dependent precompute runs in the returned lowering's
        ``prepare``. Lanes whose channel hardware pickles to identical
        bytes *and* see an identical ambient column collapse to one
        shared column (the common sweep shape: same environment,
        different storage/node knobs).
        """
        import pickle

        import numpy as np
        from ..simulation.kernel.batched import (
            BatchedChannelLowering,
            same_class,
        )
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        same_class(siblings, "channel")
        for channel in siblings:
            ensure_unmodified(channel, HarvestingChannel, "step",
                              "swap_harvester")
        conditioners = [c.conditioner for c in siblings]
        harvesters = [c.harvester for c in siblings]
        lower_cond = getattr(conditioners[0], "lower_batched", None)
        if lower_cond is None:
            raise LoweringUnsupported(
                f"channel {self.name!r}: conditioner "
                f"{type(conditioners[0]).__name__} has no batched lowering")
        tracker_prepare, surface_builder, converter_out = \
            lower_cond(dt, conditioners, harvesters)
        flags = [bool(c.enabled) for c in siblings]
        if all(flags):
            enabled = True
        elif not any(flags):
            enabled = False
        else:
            enabled = np.array(flags)
        compressible = False
        if enabled is True and len(siblings) > 1:
            try:
                blobs = {pickle.dumps((c.harvester, c.conditioner))
                         for c in siblings}
                compressible = len(blobs) == 1
            except Exception:
                compressible = False

        return BatchedChannelLowering(
            tuple(siblings), self.source_type, tracker_prepare,
            surface_builder, converter_out, enabled, compressible)

    def __repr__(self) -> str:
        return (f"HarvestingChannel(name={self.name!r}, "
                f"source={self.source_type.value}, enabled={self.enabled})")


@dataclass
class StorageBelief:
    """What the system's intelligence *believes* about one store.

    Captured at attach time as a frozen prototype of the device. After a
    hot-swap the belief stays stale unless the architecture auto-recognizes
    hardware (System B's datasheets) — the mechanism behind the survey's
    remark that swaps "will typically affect measurements as the software
    will not automatically be able to recognise any change in capacity"
    (Sec. III.2).
    """

    capacity_j: float
    prototype: EnergyStorage = field(repr=False)

    @classmethod
    def of(cls, store: EnergyStorage) -> "StorageBelief":
        return cls(capacity_j=store.capacity_j, prototype=copy.deepcopy(store))

    def estimate_energy(self, measured_voltage: float) -> float:
        """Estimated stored energy from a voltage reading (J)."""
        estimate = _energy_from_voltage(self.prototype, measured_voltage)
        if estimate is None:
            # Voltage uninformative for this believed chemistry: the best
            # blind estimate is half the believed capacity.
            return 0.5 * self.capacity_j
        return min(estimate, self.capacity_j)


def _energy_from_voltage(store: EnergyStorage, voltage: float) -> float | None:
    """Invert a store's voltage curve to energy, where physically possible."""
    # Capacitive stores: E = C/2 (v^2 - vmin^2).
    capacitance = getattr(store, "capacitance_f", None)
    if capacitance is not None:
        v_min = getattr(store, "min_voltage", 0.0)
        if voltage <= v_min:
            return 0.0
        return 0.5 * capacitance * (voltage ** 2 - v_min ** 2)
    # OCV-curve batteries: invert the piecewise-linear curve.
    socs = getattr(store, "_ocv_soc", None)
    volts = getattr(store, "_ocv_v", None)
    if socs is not None and volts is not None:
        if voltage <= volts[0]:
            return 0.0
        if voltage >= volts[-1]:
            return store.capacity_j
        for i in range(1, len(volts)):
            if voltage <= volts[i]:
                span = volts[i] - volts[i - 1]
                frac = 0.0 if span <= 0 else (voltage - volts[i - 1]) / span
                soc = socs[i - 1] + frac * (socs[i] - socs[i - 1])
                return soc * store.capacity_j
    return None  # constant-voltage stores (ideal, fuel cell)


class StorageBank:
    """Ordered collection of stores with routing and backup cascade.

    Charging fills non-backup stores in list order (overflow cascades);
    discharging drains them in order, then falls back to backup stores
    (fuel cell, primary cell) when ``backup_enabled`` — reproducing System
    A's "starts to work when the stored energy coming from the
    environmental sources is running out".
    """

    def __init__(self, stores):
        stores = list(stores)
        if not stores:
            raise ValueError("storage bank needs at least one store")
        for store in stores:
            if not isinstance(store, EnergyStorage):
                raise TypeError(f"not an EnergyStorage: {store!r}")
        self.stores = stores
        self.backup_enabled = True
        self.beliefs = [StorageBelief.of(s) for s in stores]
        self.spilled_j = 0.0  # harvested energy rejected by full stores

    # ------------------------------------------------------------------
    @property
    def ambient_stores(self) -> list:
        """Rechargeable, non-backup stores (fed from the environment)."""
        return [s for s in self.stores if not s.is_backup]

    @property
    def backup_stores(self) -> list:
        return [s for s in self.stores if s.is_backup]

    def voltage(self) -> float:
        """Bus voltage: diode-OR of the non-empty ambient stores.

        Multi-store platforms OR their stores onto the bus, so the highest
        non-empty store voltage wins; when every ambient store is flat the
        backup (if enabled) holds the bus up.
        """
        candidates = [s.voltage() for s in self.ambient_stores
                      if not s.is_empty()]
        if self.backup_enabled:
            candidates += [s.voltage() for s in self.backup_stores
                           if not s.is_empty()]
        if candidates:
            return max(candidates)
        ambient = self.ambient_stores
        return ambient[0].voltage() if ambient else self.stores[0].voltage()

    @property
    def total_energy_j(self) -> float:
        return sum(s.energy_j for s in self.stores)

    @property
    def ambient_energy_j(self) -> float:
        return sum(s.energy_j for s in self.ambient_stores)

    @property
    def total_capacity_j(self) -> float:
        return sum(s.capacity_j for s in self.stores)

    def soc(self) -> float:
        """Aggregate ambient-store state of charge."""
        capacity = sum(s.capacity_j for s in self.ambient_stores)
        if capacity <= 0:
            return 0.0
        return self.ambient_energy_j / capacity

    # ------------------------------------------------------------------
    def charge(self, power_w: float, dt: float) -> float:
        """Distribute harvested power; returns power accepted (W)."""
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        remaining = power_w
        accepted = 0.0
        for store in self.ambient_stores:
            if remaining <= 0:
                break
            taken = store.charge(remaining, dt)
            accepted += taken
            remaining -= taken
        self.spilled_j += max(0.0, remaining) * dt
        return accepted

    def discharge(self, power_w: float, dt: float) -> float:
        """Serve a load demand; returns power delivered (W).

        Ambient stores drain highest-voltage-first (the diode-OR order),
        then the backup cascade engages if enabled.
        """
        if power_w < 0:
            raise ValueError(f"power_w must be non-negative, got {power_w}")
        remaining = power_w
        delivered = 0.0
        for store in sorted(self.ambient_stores,
                            key=lambda s: s.voltage(), reverse=True):
            if remaining <= 0:
                break
            got = store.discharge(remaining, dt)
            delivered += got
            remaining -= got
        if remaining > 1e-15 and self.backup_enabled:
            for store in self.backup_stores:
                if remaining <= 0:
                    break
                got = store.discharge(remaining, dt)
                delivered += got
                remaining -= got
        return delivered

    def idle(self, dt: float) -> float:
        """Self-discharge every store; returns total energy lost (J)."""
        return sum(store.step_idle(dt) for store in self.stores)

    # ------------------------------------------------------------------
    def swap(self, index: int, new_store: EnergyStorage,
             recognized: bool) -> EnergyStorage:
        """Hot-swap a store.

        ``recognized`` models whether the platform can re-read the device's
        electronic datasheet: True updates the intelligence's belief, False
        leaves it stale (systems C-G).
        """
        if not 0 <= index < len(self.stores):
            raise IndexError(f"no store at index {index}")
        if not isinstance(new_store, EnergyStorage):
            raise TypeError("new_store must be an EnergyStorage")
        old = self.stores[index]
        self.stores[index] = new_store
        if recognized:
            self.beliefs[index] = StorageBelief.of(new_store)
        return old

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Lowered bank: routing composed over the stores' lowerings.

        Every store lowers (chemistry-specific hooks or its own
        methods, see :meth:`repro.storage.EnergyStorage.lower_kernel`),
        and the bank calls them in :meth:`charge`/:meth:`discharge`/
        :meth:`idle`'s order with their arguments; the charge
        cascade, diode-OR bus voltage, highest-voltage-first discharge
        and backup fallback are inlined here. The ambient/backup
        partition is hoisted — membership changes only through
        :meth:`swap`, which only scheduled events perform, and events
        recompile the plan. ``backup_enabled`` is read per call
        (managers toggle it mid-run).
        """
        from ..simulation.kernel.protocol import (
            BankLowering,
            LoweringUnsupported,
            ensure_unmodified,
        )
        ensure_unmodified(self, StorageBank, "charge", "discharge",
                          "voltage", "idle", "ambient_stores",
                          "backup_stores")
        bank = self
        lowered = []
        for store in self.stores:
            lower = getattr(store, "lower_kernel", None)
            if lower is None:
                raise LoweringUnsupported(
                    f"store {store.name!r} ({type(store).__name__}) has no "
                    f"kernel lowering")
            lowered.append(lower(dt))
        ambient = [lw for lw in lowered if not lw.store.is_backup]
        backup = [lw for lw in lowered if lw.store.is_backup]
        store_objects = tuple(lw.store for lw in lowered)
        store_voltages = tuple(lw.voltage for lw in lowered)

        def idle() -> None:
            for lw in lowered:
                lw.idle()

        if len(lowered) == 1 and not backup:
            # Single ambient store: the diode-OR, the cascade, and the
            # sort all collapse to the store's own closures.
            only = lowered[0]
            only_charge = only.charge

            def charge(power_w: float) -> float:
                accepted = only_charge(power_w)
                remaining = power_w - accepted
                if remaining > 0.0:
                    bank.spilled_j += remaining * dt
                return accepted

            return BankLowering(bank, only.voltage, charge, only.discharge,
                                idle, None, store_objects, store_voltages)

        ambient_pairs = [(lw, lw.store) for lw in ambient]
        backup_pairs = [(lw, lw.store) for lw in backup]
        backup_stores = [lw.store for lw in backup]
        fallback_voltage = (ambient[0] if ambient else lowered[0]).voltage

        def _voltage_key(lw) -> float:
            return lw.voltage()

        def voltage() -> float:
            candidates = [lw.voltage() for lw, store in ambient_pairs
                          if not store.is_empty()]
            if bank.backup_enabled:
                candidates += [lw.voltage() for lw, store in backup_pairs
                               if not store.is_empty()]
            if candidates:
                return max(candidates)
            return fallback_voltage()

        def charge(power_w: float) -> float:
            remaining = power_w
            accepted = 0.0
            for lw in ambient:
                if remaining <= 0:
                    break
                taken = lw.charge(remaining)
                accepted += taken
                remaining -= taken
            if remaining > 0.0:
                bank.spilled_j += remaining * dt
            return accepted

        def discharge(power_w: float) -> float:
            remaining = power_w
            delivered = 0.0
            for lw in sorted(ambient, key=_voltage_key, reverse=True):
                if remaining <= 0:
                    break
                got = lw.discharge(remaining)
                delivered += got
                remaining -= got
            if remaining > 1e-15 and bank.backup_enabled:
                for lw in backup:
                    if remaining <= 0:
                        break
                    got = lw.discharge(remaining)
                    delivered += got
                    remaining -= got
            return delivered

        if backup_stores:
            def backup_energy() -> float:
                return sum(store.energy_j for store in backup_stores)
        else:
            backup_energy = None

        return BankLowering(bank, voltage, charge, discharge, idle,
                            backup_energy, store_objects, store_voltages)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Lower a group of same-shape banks for lockstep stepping.

        Stores lower position by position (chemistry hooks over shared
        ``(n,)`` arrays); the charge cascade, diode-OR voltage, the
        stable highest-voltage-first discharge, *and* the backup cascade
        (fuel cells, primary cells) are vectorized here with per-lane
        rank selection and a per-lane ``backup_enabled`` mask that
        manager lowerings toggle mid-run, exactly like the scalar
        closures read ``bank.backup_enabled`` per call.
        """
        import numpy as np
        from ..simulation.kernel.batched import (
            BatchState,
            BatchedBankLowering,
            gather,
            same_class,
        )
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        same_class(siblings, "storage bank")
        n_stores = len(self.stores)
        n_lanes = len(siblings)
        for bank in siblings:
            ensure_unmodified(bank, StorageBank, "charge", "discharge",
                              "voltage", "idle", "ambient_stores",
                              "backup_stores")
            if len(bank.stores) != n_stores:
                raise LoweringUnsupported(
                    "banks in a batch must hold the same number of stores")
            for store in bank.stores:
                # The diode-OR inlines the base emptiness test.
                ensure_unmodified(store, EnergyStorage, "is_empty", "soc")
        lowered = []
        for position in range(n_stores):
            stores = [bank.stores[position] for bank in siblings]
            lower = getattr(stores[0], "lower_batched", None)
            if lower is None:
                raise LoweringUnsupported(
                    f"store {stores[0].name!r} "
                    f"({type(stores[0]).__name__}) has no batched lowering")
            lowered.append(lower(dt, stores))
        state = BatchState()
        state.spilled = gather(siblings, lambda b: b.spilled_j)
        state.backup_enabled = np.array(
            [bool(b.backup_enabled) for b in siblings])
        capacities = [gather(lw.stores, lambda s: s.capacity_j)
                      for lw in lowered]
        # is_backup is a class attribute and each position shares one
        # concrete class, so the partition is position-wise.
        ambient_pairs = [(lw, cap) for lw, cap in zip(lowered, capacities)
                         if not lw.stores[0].is_backup]
        backup_pairs = [(lw, cap) for lw, cap in zip(lowered, capacities)
                        if lw.stores[0].is_backup]
        ambient = [lw for lw, _ in ambient_pairs]
        backup = [lw for lw, _ in backup_pairs]

        def idle() -> None:
            for lw in lowered:
                lw.idle()

        def writeback() -> None:
            for lw in lowered:
                lw.writeback()
            for k, bank in enumerate(siblings):
                bank.spilled_j = float(state.spilled[k])
                bank.backup_enabled = bool(state.backup_enabled[k])

        if n_stores == 1 and not backup:
            # Single ambient store: the diode-OR, the cascade, and the
            # sort all collapse to the store's own closures.
            only = lowered[0]
            only_charge = only.charge

            def charge(power_w):
                accepted = only_charge(power_w)
                remaining = power_w - accepted
                spill = remaining > 0.0
                state.spilled = state.spilled + np.where(
                    spill, remaining * dt, 0.0)
                return accepted

            return BatchedBankLowering(
                tuple(siblings), state, only.voltage, charge,
                only.discharge, idle, None, tuple(lowered), writeback)

        neg_inf = float("-inf")
        fallback = (ambient[0] if ambient else lowered[0]).voltage

        def voltage():
            best = None
            for lw, capacity in ambient_pairs:
                v = lw.voltage()
                occupied = (lw.state.energy / capacity) > 1e-6
                candidate = np.where(occupied, v, neg_inf)
                best = candidate if best is None else \
                    np.maximum(best, candidate)
            for lw, capacity in backup_pairs:
                v = lw.voltage()
                occupied = ((lw.state.energy / capacity) > 1e-6) & \
                    state.backup_enabled
                candidate = np.where(occupied, v, neg_inf)
                best = candidate if best is None else \
                    np.maximum(best, candidate)
            return np.where(best == neg_inf, fallback(), best)

        def charge(power_w):
            remaining = power_w
            accepted = 0.0
            for lw in ambient:
                taken = lw.charge(np.where(remaining > 0.0, remaining, 0.0))
                accepted = accepted + taken
                remaining = remaining - taken
            spill = remaining > 0.0
            state.spilled = state.spilled + np.where(
                spill, remaining * dt, 0.0)
            return accepted

        def discharge(power_w):
            remaining = np.broadcast_to(
                np.asarray(power_w, dtype=np.float64), (n_lanes,)).copy()
            delivered = 0.0
            if ambient:
                voltages = np.vstack([lw.voltage() for lw in ambient])
                order = np.argsort(-voltages, axis=0, kind="stable")
                for rank in range(len(ambient)):
                    selected = order[rank]
                    for j, lw in enumerate(ambient):
                        got = lw.discharge(
                            np.where((selected == j) & (remaining > 0.0),
                                     remaining, 0.0))
                        delivered = delivered + got
                        remaining = remaining - got
            if backup:
                engage = (remaining > 1e-15) & state.backup_enabled
                for lw in backup:
                    got = lw.discharge(
                        np.where(engage & (remaining > 0.0),
                                 remaining, 0.0))
                    delivered = delivered + got
                    remaining = remaining - got
            return delivered

        if backup:
            def backup_energy():
                total = 0.0
                for lw in backup:
                    total = total + lw.state.energy
                return total
        else:
            backup_energy = None

        return BatchedBankLowering(
            tuple(siblings), state, voltage, charge, discharge, idle,
            backup_energy, tuple(lowered), writeback)


class EnergyMonitor:
    """Capability-limited view of the system's energy status.

    This is the survey's monitoring axis as an API: a manager can only act
    on what its architecture exposes. All readings return ``None`` when
    the capability does not cover them.
    """

    def __init__(self, system: "MultiSourceSystem",
                 capability: MonitoringCapability, adc_bits: int = 10):
        if adc_bits < 1:
            raise ValueError("adc_bits must be >= 1")
        self.system = system
        self.capability = capability
        self.adc_bits = adc_bits

    # -- STORE_VOLTAGE and above ---------------------------------------
    def store_voltage(self) -> float | None:
        """Quantised primary-store voltage (the analog sense line)."""
        if self.capability < MonitoringCapability.STORE_VOLTAGE:
            return None
        v = self.system.bank.voltage()
        full_scale = max(v, 1e-9) if v > 5.0 else 5.0
        lsb = full_scale / (2 ** self.adc_bits)
        return int(v / lsb) * lsb

    # -- DEVICE_ACTIVITY and above ---------------------------------------
    def active_channel_mask(self) -> int | None:
        """Bitmap of channels that delivered power last step (System F)."""
        if self.capability < MonitoringCapability.DEVICE_ACTIVITY:
            return None
        mask = 0
        for i, channel in enumerate(self.system.channels):
            if channel.last_step and channel.last_step.delivered_power > 1e-12:
                mask |= 1 << i
        return mask

    # -- FULL only -------------------------------------------------------
    def input_power(self) -> float | None:
        """Total harvested power delivered to the bus last step (W)."""
        if self.capability < MonitoringCapability.FULL:
            return None
        return sum(c.last_step.delivered_power for c in self.system.channels
                   if c.last_step is not None)

    def estimated_stored_energy(self) -> float | None:
        """Stored-energy estimate from voltage + *believed* device models.

        The estimate is exact while beliefs match reality and silently
        wrong after an unrecognized storage swap — experiment E8's metric.
        """
        if self.capability < MonitoringCapability.FULL:
            return None
        bank = self.system.bank
        total = 0.0
        for store, belief in zip(bank.stores, bank.beliefs):
            if store.is_backup:
                continue
            total += belief.estimate_energy(store.voltage())
        return total

    def soc_estimate(self) -> float | None:
        """Aggregate SoC from the capability the platform actually has.

        FULL platforms estimate energy/believed-capacity; STORE_VOLTAGE
        platforms fall back to a crude voltage-fraction proxy; blind
        platforms get ``None``.
        """
        if self.capability >= MonitoringCapability.FULL:
            energy = self.estimated_stored_energy()
            capacity = sum(b.capacity_j for s, b in
                           zip(self.system.bank.stores, self.system.bank.beliefs)
                           if not s.is_backup)
            if capacity <= 0:
                return None
            return min(1.0, energy / capacity)
        v = self.store_voltage()
        if v is None:
            return None
        # Crude proxy: fraction of the believed full-scale voltage.
        bank = self.system.bank
        believed_full = max(
            (_full_voltage(b.prototype) for s, b in
             zip(bank.stores, bank.beliefs) if not s.is_backup),
            default=None,
        )
        if not believed_full:
            return None
        return min(1.0, v / believed_full)


def _full_voltage(store: EnergyStorage) -> float | None:
    for attr in ("rated_voltage", "max_voltage"):
        v = getattr(store, attr, None)
        if v:
            return v
    volts = getattr(store, "_ocv_v", None)
    if volts:
        return volts[-1]
    return getattr(store, "nominal_voltage", None)


def lower_monitor_batched(systems, bank, channels):
    """Vectorized :class:`EnergyMonitor` telemetry over a scenario group.

    Returns ``(soc_estimate, input_power)`` closures reading the *live*
    batched state (store lowering voltages, channel last-step rows)
    instead of the stale component objects — the same point-in-time view
    the scalar manager gets from the real objects mid-step.
    ``soc_estimate() -> (values, none_mask)`` mirrors the scalar method's
    ``None`` returns per lane; ``input_power`` is ``None`` below FULL
    capability (capability is required uniform across the batch).
    """
    import numpy as np

    from ..simulation.kernel.batched import exact_pow, gather, same_class
    from ..simulation.kernel.protocol import LoweringUnsupported

    monitors = [s.monitor for s in systems]
    if len({m.capability for m in monitors}) > 1:
        raise LoweringUnsupported(
            "a batch cannot mix monitoring capabilities")
    capability = monitors[0].capability
    n = len(systems)

    if capability >= MonitoringCapability.FULL:
        # Per non-backup store position: a belief-based energy estimator
        # over that position's live lowered voltage.
        estimators = []
        for pos, store_lw in enumerate(bank.stores):
            if store_lw.stores[0].is_backup:
                continue
            beliefs = [s.bank.beliefs[pos] for s in systems]
            protos = [b.prototype for b in beliefs]
            same_class(protos, "storage belief")
            capacity = gather(beliefs, lambda b: b.capacity_j)
            proto = protos[0]
            if getattr(proto, "capacitance_f", None) is not None:
                cap_f = gather(protos, lambda p: p.capacitance_f)
                v_min = gather(protos,
                               lambda p: getattr(p, "min_voltage", 0.0))
                v_min_sq = gather(
                    protos, lambda p: getattr(p, "min_voltage", 0.0) ** 2)

                def estimate(v, cap_f=cap_f, v_min=v_min,
                             v_min_sq=v_min_sq, capacity=capacity):
                    e = 0.5 * cap_f * (exact_pow(v, 2.0) - v_min_sq)
                    e = np.where(v <= v_min, 0.0, e)
                    return np.minimum(e, capacity)
            elif getattr(proto, "_ocv_soc", None) is not None and \
                    getattr(proto, "_ocv_v", None) is not None:
                if len({(tuple(p._ocv_soc), tuple(p._ocv_v))
                        for p in protos}) > 1:
                    raise LoweringUnsupported(
                        "a batch cannot mix believed OCV curves at one "
                        "store position")
                socs = np.array(proto._ocv_soc, dtype=np.float64)
                volts = np.array(proto._ocv_v, dtype=np.float64)
                proto_cap = gather(protos, lambda p: p.capacity_j)

                def estimate(v, socs=socs, volts=volts,
                             proto_cap=proto_cap, capacity=capacity):
                    idx = np.clip(
                        np.searchsorted(volts, v, side="left"),
                        1, len(volts) - 1)
                    span = volts[idx] - volts[idx - 1]
                    frac = np.where(span <= 0.0, 0.0,
                                    (v - volts[idx - 1]) / span)
                    soc = socs[idx - 1] + frac * (socs[idx] - socs[idx - 1])
                    e = np.where(v <= volts[0], 0.0,
                                 np.where(v >= volts[-1], proto_cap,
                                          soc * proto_cap))
                    return np.minimum(e, capacity)
            else:
                # Voltage uninformative (ideal / fuel-cell chemistry):
                # the blind half-capacity estimate.
                def estimate(v, capacity=capacity):
                    return 0.5 * capacity

            estimators.append((store_lw, estimate))

        cap_total = gather(
            systems,
            lambda s: sum(b.capacity_j for st, b in
                          zip(s.bank.stores, s.bank.beliefs)
                          if not st.is_backup))
        soc_none = cap_total <= 0.0

        def soc_estimate():
            total = 0.0
            for store_lw, estimate in estimators:
                total = total + estimate(store_lw.voltage())
            return np.minimum(1.0, total / cap_total), soc_none

        # input_power: previous step's total delivered power, seeded
        # from the channels' pre-run last_step state before step 0.
        chan_info = []
        for ch_lw in channels:
            init_has = np.array(
                [c.last_step is not None for c in ch_lw.channels])
            init_del = gather(
                ch_lw.channels,
                lambda c: c.last_step.delivered_power
                if c.last_step is not None else 0.0)
            chan_info.append((ch_lw, init_has, init_del))

        def input_power():
            total = 0
            for ch_lw, init_has, init_del in chan_info:
                live = ch_lw.last_delivered()
                if live is None:
                    total = total + np.where(init_has, init_del, 0.0)
                else:
                    total = total + live
            return total

        return soc_estimate, input_power

    if capability >= MonitoringCapability.STORE_VOLTAGE:
        # Crude proxy: quantised bus voltage over the believed full
        # scale. Both the ADC scale and the believed-full voltage are
        # compile-time constants per lane.
        adc_scale = gather(monitors, lambda m: float(2 ** m.adc_bits))
        believed = [
            max((_full_voltage(b.prototype) for st, b in
                 zip(s.bank.stores, s.bank.beliefs) if not st.is_backup),
                default=None)
            for s in systems
        ]
        soc_none = np.array([not bf for bf in believed])
        full_v = np.array([bf if bf else 1.0 for bf in believed],
                          dtype=np.float64)
        bank_voltage = bank.voltage

        def soc_estimate():
            v = bank_voltage()
            full_scale = np.where(v > 5.0, np.maximum(v, 1e-9), 5.0)
            lsb = full_scale / adc_scale
            quantised = np.trunc(v / lsb) * lsb
            return np.minimum(1.0, quantised / full_v), soc_none

        return soc_estimate, None

    # Blind platform: soc always None, no input power.
    soc_none = np.ones(n, dtype=bool)
    zeros = np.zeros(n, dtype=np.float64)

    def soc_estimate():
        return zeros, soc_none

    return soc_estimate, None


@dataclass(frozen=True)
class SystemStepRecord:
    """Complete power-flow accounting for one simulation step."""

    t: float
    harvest_raw_w: float
    harvest_delivered_w: float
    harvest_mpp_w: float
    charge_accepted_w: float
    quiescent_w: float
    node_demand_w: float
    node_supplied_w: float
    node_result: NodeStepResult
    store_energies_j: tuple
    store_voltages: tuple
    backup_power_w: float
    per_channel: tuple  # HarvestStep per channel


class MultiSourceSystem:
    """A complete multi-source energy harvesting platform.

    Parameters
    ----------
    architecture:
        Static taxonomy metadata (used by the classifier).
    channels:
        Harvesting channels.
    bank:
        Storage bank.
    output:
        Output conditioning stage feeding the node.
    node:
        The embedded device (load).
    manager:
        Energy manager (:mod:`repro.core.manager`); may be None for
        unmanaged platforms.
    base_quiescent_a:
        Platform standing current *not* attributable to individual
        channels/stages (board leakage, supervisors). Calibrated so the
        platform total matches Table I.
    bus / slots / mcu:
        Optional digital-interface components (systems A, B, F).
    """

    def __init__(self, architecture: ArchitectureDescriptor, channels,
                 bank: StorageBank, output: OutputConditioner,
                 node: WirelessSensorNode, manager=None,
                 base_quiescent_a: float = 0.0, bus=None, slots=None,
                 mcu=None):
        channels = list(channels)
        if not channels:
            raise ValueError("a multi-source system needs at least one channel")
        if base_quiescent_a < 0:
            raise ValueError("base_quiescent_a must be non-negative")
        self.architecture = architecture
        self.channels = channels
        self.bank = bank
        self.output = output
        self.node = node
        self.manager = manager
        self.base_quiescent_a = base_quiescent_a
        self.bus = bus
        self.slots = slots
        self.mcu = mcu
        self.monitor = EnergyMonitor(self, architecture.monitoring)
        self._bus_energy_charged_j = 0.0

    # ------------------------------------------------------------------
    @property
    def total_quiescent_current_a(self) -> float:
        """Platform standing current (the Table I row)."""
        total = self.base_quiescent_a + self.output.quiescent_current_a
        total += sum(c.quiescent_current_a for c in self.channels)
        if self.mcu is not None:
            total += self.mcu.quiescent_current_a
        return total

    @property
    def harvester_types(self) -> tuple:
        return tuple(dict.fromkeys(c.source_type for c in self.channels))

    # ------------------------------------------------------------------
    def step(self, ambient: AmbientSample, dt: float, t: float = 0.0
             ) -> SystemStepRecord:
        """Advance the platform one simulation step."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")

        # 1. Management decisions (duty cycle, backup permission, ...).
        if self.manager is not None:
            self.manager.control(t, dt, self)

        # 2. Harvest into the storage bus.
        bus_voltage = self.bank.voltage()
        raw = delivered = mpp = 0.0
        per_channel = []
        for channel in self.channels:
            hs = channel.step(ambient, dt, bus_voltage)
            per_channel.append(hs)
            raw += hs.raw_power
            delivered += hs.delivered_power
            mpp += hs.mpp_power
        accepted = self.bank.charge(delivered, dt)

        # 3. Standing (quiescent) losses, including any bus transactions
        #    charged since the last step.
        iq_power = self.total_quiescent_current_a * max(bus_voltage, 0.0)
        if self.bus is not None:
            pending = self.bus.energy_spent_j - self._bus_energy_charged_j
            self._bus_energy_charged_j = self.bus.energy_spent_j
            iq_power += pending / dt
        quiescent_drawn = self.bank.discharge(iq_power, dt) if iq_power > 0 else 0.0

        # 4. Supply the node through the output stage.
        backup_before = sum(s.energy_j for s in self.bank.backup_stores)
        demand = self.node.demand_power()
        store_voltage = self.bank.voltage()
        needed = self.output.input_power_for(demand, store_voltage)
        if needed == float("inf") or demand <= 0:
            supplied = 0.0
            drawn = 0.0
        else:
            drawn = self.bank.discharge(needed, dt)
            supplied = demand * (drawn / needed) if needed > 0 else 0.0
        node_result = self.node.step(supplied, dt)
        # The output stage only passes what the load actually consumes;
        # return the unconsumed part of the draw to the bank (it re-enters
        # through the charge path, so routing/efficiency rules still apply).
        if supplied > 0 and node_result.consumed_w < supplied - 1e-15:
            unused_bus_side = drawn * (1.0 - node_result.consumed_w / supplied)
            self.bank.charge(unused_bus_side, dt)
        backup_power = max(
            0.0,
            backup_before - sum(s.energy_j for s in self.bank.backup_stores),
        ) / dt

        # 5. Storage self-discharge / redistribution.
        self.bank.idle(dt)

        return SystemStepRecord(
            t=t,
            harvest_raw_w=raw,
            harvest_delivered_w=delivered,
            harvest_mpp_w=mpp,
            charge_accepted_w=accepted,
            quiescent_w=quiescent_drawn,
            node_demand_w=demand,
            node_supplied_w=supplied,
            node_result=node_result,
            store_energies_j=tuple(s.energy_j for s in self.bank.stores),
            store_voltages=tuple(s.voltage() for s in self.bank.stores),
            backup_power_w=backup_power,
            per_channel=tuple(per_channel),
        )

    # ------------------------------------------------------------------
    # Hot-swap operations (the exchangeable-hardware axis)
    # ------------------------------------------------------------------
    def swap_storage(self, index: int, new_store: EnergyStorage) -> EnergyStorage:
        """Swap a store; recognition follows the architecture's capability."""
        recognized = self.architecture.auto_recognition and \
            getattr(new_store, "datasheet", None) is not None
        return self.bank.swap(index, new_store, recognized=recognized)

    def swap_harvester(self, channel_index: int, new_harvester: Harvester
                       ) -> Harvester:
        if not 0 <= channel_index < len(self.channels):
            raise IndexError(f"no channel at index {channel_index}")
        return self.channels[channel_index].swap_harvester(new_harvester)

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Lower every component of this platform for the kernel.

        Raises :exc:`~repro.simulation.kernel.protocol.
        LoweringUnsupported` only for orchestration the kernel replicates
        and a subclass overrides (this class's :meth:`step`, the bank's
        routing, a channel's or conditioner's step), in which case the
        engine runs the legacy per-step path. The platform's standing
        current is hoisted here: no manager can change it mid-run, and
        scheduled events (which can, via hot-swaps) recompile the plan.
        """
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            SystemLowering,
            ensure_unmodified,
        )
        ensure_unmodified(self, MultiSourceSystem, "step",
                          "total_quiescent_current_a")

        def lower_or_refuse(component, role: str):
            lower = getattr(component, "lower_kernel", None)
            if lower is None:
                raise LoweringUnsupported(
                    f"{role} {type(component).__name__} has no kernel "
                    f"lowering")
            return lower(dt)

        bank = lower_or_refuse(self.bank, "storage bank")
        output = lower_or_refuse(self.output, "output stage")
        channels = tuple(lower_or_refuse(channel, "channel")
                         for channel in self.channels)
        node = lower_or_refuse(self.node, "node")
        manager = self.manager
        if manager is None:
            control = None
        else:
            lower_manager = getattr(manager, "lower_kernel", None)
            control = lower_manager(dt) if lower_manager is not None \
                else manager.control
        return SystemLowering(self, bank, channels, output, node, control,
                              self.total_quiescent_current_a, self.bus)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Lower every component of a same-topology scenario group.

        Raises :exc:`~repro.simulation.kernel.protocol.
        LoweringUnsupported` when any component position has no batched
        lowering — the sweep runner then routes those scenarios through
        the per-scenario engine. Digital bus/MCU platforms are inside
        the envelope: bus devices only spend energy on explicit register
        transactions (never mid-run), so the energy any pre-run
        transactions left pending is hoisted here and drained on the
        first lockstep step, exactly where the scalar path charges it.
        """
        from ..simulation.kernel.batched import (
            BatchedManagerContext,
            BatchedSystemLowering,
            gather,
            same_class,
        )
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        same_class(siblings, "system")
        n_channels = len(self.channels)
        for system in siblings:
            ensure_unmodified(system, MultiSourceSystem, "step",
                              "total_quiescent_current_a")
            if len(system.channels) != n_channels:
                raise LoweringUnsupported(
                    "systems in a batch must share the channel count")

        def lower_or_refuse(group, role: str):
            lower = getattr(group[0], "lower_batched", None)
            if lower is None:
                raise LoweringUnsupported(
                    f"{role} {type(group[0]).__name__} has no batched "
                    f"lowering")
            return lower(dt, group)

        bank = lower_or_refuse([s.bank for s in siblings], "storage bank")
        output = lower_or_refuse([s.output for s in siblings],
                                 "output stage")
        channels = tuple(
            lower_or_refuse([s.channels[position] for s in siblings],
                            "channel")
            for position in range(n_channels))
        node = lower_or_refuse([s.node for s in siblings], "node")
        managers = [s.manager for s in siblings]
        if all(m is None for m in managers):
            manager = None
        elif any(m is None for m in managers):
            raise LoweringUnsupported(
                "a batch cannot mix managed and unmanaged systems")
        else:
            same_class(managers, "manager")
            context = BatchedManagerContext(tuple(siblings), bank,
                                            channels, node)
            manager = managers[0].lower_batched(dt, managers, context)
        quiescent = gather(siblings, lambda s: s.total_quiescent_current_a)
        # Bus transactions charged since the last step: the scalar path
        # adds ``pending / dt`` to the standing draw every step, but the
        # lockstep loop never executes transactions, so only the energy
        # already pending at compile time is ever non-zero — it drains on
        # step 0 and the per-step term is an exact ``+ 0.0`` afterwards.
        if any(s.bus is not None for s in siblings):
            bus_pending_w = gather(
                siblings,
                lambda s: 0.0 if s.bus is None
                else (s.bus.energy_spent_j - s._bus_energy_charged_j) / dt)
        else:
            bus_pending_w = None
        return BatchedSystemLowering(tuple(siblings), bank, channels,
                                     output, node, manager, quiescent,
                                     bus_pending_w)

    def __repr__(self) -> str:
        return (f"MultiSourceSystem(name={self.architecture.short_name!r}, "
                f"channels={len(self.channels)}, "
                f"stores={len(self.bank.stores)})")
