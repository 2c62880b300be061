"""Battery models for the chemistries listed in Table I.

Table I's Storage row spans: Li-ion and Li-polymer rechargeable batteries
(systems A, C), NiMH rechargeable cells (B, C), AA rechargeable packs
(C, D), non-rechargeable lithium primaries (B), and thin-film solid-state
batteries (E, F, G — e.g. Cymbet EnerChip, the storage of the MAX17710 and
EVAL-09 kits). All share a structure: capacity in mAh at a nominal voltage,
an open-circuit-voltage curve over state of charge, charge/discharge rate
limits expressed as C-rates, coulombic efficiency, and self-discharge.

:class:`ChemistryBattery` implements that structure; the chemistry classes
below are thin parameterisations with datasheet-typical constants.
"""

from __future__ import annotations

from ..spec.registry import register

import bisect

from .base import EnergyStorage

__all__ = [
    "ChemistryBattery",
    "LiIonBattery",
    "LiPolymerBattery",
    "NiMHBattery",
    "AABatteryPack",
    "LithiumPrimaryCell",
    "ThinFilmBattery",
]


class ChemistryBattery(EnergyStorage):
    """Battery with a piecewise-linear OCV(SoC) curve.

    Parameters
    ----------
    capacity_mah:
        Rated capacity, milliamp-hours.
    nominal_voltage:
        Voltage used to convert mAh to joules.
    ocv_curve:
        Sequence of ``(soc, volts)`` pairs, soc ascending over [0, 1].
    max_charge_c / max_discharge_c:
        Rate limits as C-rates (1 C = full capacity per hour).
    charge_efficiency / discharge_efficiency:
        One-way efficiencies.
    self_discharge_per_month:
        Fraction of charge lost per 30 days at rest.
    rechargeable:
        False for primary cells.
    cycle_life:
        Rated full-equivalent cycles (informational; tracked, not enforced).
    initial_soc, name:
        As in :class:`~repro.storage.base.EnergyStorage`.
    """

    def __init__(self, capacity_mah: float, nominal_voltage: float,
                 ocv_curve: tuple, max_charge_c: float = 0.5,
                 max_discharge_c: float = 2.0, charge_efficiency: float = 0.95,
                 discharge_efficiency: float = 0.95,
                 self_discharge_per_month: float = 0.03,
                 rechargeable: bool = True, cycle_life: int = 500,
                 initial_soc: float = 0.5, name: str = ""):
        if capacity_mah <= 0:
            raise ValueError("capacity_mah must be positive")
        if nominal_voltage <= 0:
            raise ValueError("nominal_voltage must be positive")
        if len(ocv_curve) < 2:
            raise ValueError("ocv_curve needs at least two points")
        socs = [p[0] for p in ocv_curve]
        if socs != sorted(socs) or socs[0] < 0 or socs[-1] > 1:
            raise ValueError("ocv_curve soc values must ascend within [0, 1]")
        if max_charge_c <= 0 or max_discharge_c <= 0:
            raise ValueError("C-rates must be positive")
        if not 0.0 <= self_discharge_per_month < 1.0:
            raise ValueError("self_discharge_per_month must be in [0, 1)")

        capacity_j = capacity_mah * 1e-3 * 3600.0 * nominal_voltage
        per_day = 1.0 - (1.0 - self_discharge_per_month) ** (1.0 / 30.0)
        super().__init__(
            capacity_j=capacity_j,
            initial_soc=initial_soc,
            charge_efficiency=charge_efficiency,
            discharge_efficiency=discharge_efficiency,
            max_charge_w=max_charge_c * capacity_j / 3600.0,
            max_discharge_w=max_discharge_c * capacity_j / 3600.0,
            self_discharge_per_day=per_day,
            rechargeable=rechargeable,
            name=name,
        )
        self.capacity_mah = capacity_mah
        self.nominal_voltage = nominal_voltage
        self.cycle_life = cycle_life
        self._ocv_soc = [float(p[0]) for p in ocv_curve]
        self._ocv_v = [float(p[1]) for p in ocv_curve]

    def voltage(self) -> float:
        """Open-circuit voltage interpolated on the chemistry curve."""
        s = self.soc
        socs, volts = self._ocv_soc, self._ocv_v
        if s <= socs[0]:
            return volts[0]
        if s >= socs[-1]:
            return volts[-1]
        i = bisect.bisect_right(socs, s)
        frac = (s - socs[i - 1]) / (socs[i] - socs[i - 1])
        return volts[i - 1] + frac * (volts[i] - volts[i - 1])

    @property
    def equivalent_cycles(self) -> float:
        """Full-equivalent cycles consumed so far."""
        return self.total_discharged_j / self.capacity_j

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def _kernel_voltage(self, dt: float):
        """Inlined :meth:`voltage` with the OCV polyline hoisted.

        Charge/discharge/idle lower through the
        :class:`~repro.storage.base.EnergyStorage` base hooks — battery
        chemistries parameterize the base physics, they do not override
        it.
        """
        from ..simulation.kernel.protocol import ensure_unmodified
        ensure_unmodified(self, ChemistryBattery, "voltage", "soc")
        store = self
        socs, volts = self._ocv_soc, self._ocv_v
        soc_lo, soc_hi = socs[0], socs[-1]
        v_lo, v_hi = volts[0], volts[-1]
        bisect_right = bisect.bisect_right

        def voltage() -> float:
            s = store.energy_j / store.capacity_j
            if s <= soc_lo:
                return v_lo
            if s >= soc_hi:
                return v_hi
            i = bisect_right(socs, s)
            frac = (s - socs[i - 1]) / (socs[i] - socs[i - 1])
            return volts[i - 1] + frac * (volts[i] - volts[i - 1])

        return voltage

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_voltage(self, dt: float, siblings, state):
        """Vectorized OCV polyline (``np.searchsorted`` == ``bisect``).

        The interpolation gathers curve points by per-lane index, which
        needs one shared curve across the group — scenarios with
        different OCV curves land in different sweep groups (the group
        signature includes the curve), so this only refuses hand-built
        mixed batches.
        """
        import numpy as np
        from ..simulation.kernel.protocol import LoweringUnsupported
        from ..simulation.kernel.batched import gather
        socs_list, volts_list = self._ocv_soc, self._ocv_v
        for store in siblings:
            if store._ocv_soc != socs_list or store._ocv_v != volts_list:
                raise LoweringUnsupported(
                    "batched battery lowering needs one OCV curve across "
                    "the group")
        capacity = gather(siblings, lambda s: s.capacity_j)
        socs = np.array(socs_list)
        volts = np.array(volts_list)
        soc_lo, soc_hi = socs_list[0], socs_list[-1]
        v_lo, v_hi = volts_list[0], volts_list[-1]
        top = len(socs_list) - 1

        def voltage():
            s = state.energy / capacity
            i = np.searchsorted(socs, s, side="right")
            np.clip(i, 1, top, out=i)
            frac = (s - socs[i - 1]) / (socs[i] - socs[i - 1])
            v = volts[i - 1] + frac * (volts[i] - volts[i - 1])
            return np.where(s <= soc_lo, v_lo,
                            np.where(s >= soc_hi, v_hi, v))

        return voltage


@register("storage", "li_ion")
class LiIonBattery(ChemistryBattery):
    """18650-class lithium-ion cell (3.7 V nominal)."""

    table_label = "Li-ion rech. batt."

    def __init__(self, capacity_mah: float = 2000.0, initial_soc: float = 0.5,
                 name: str = ""):
        super().__init__(
            capacity_mah=capacity_mah,
            nominal_voltage=3.7,
            ocv_curve=((0.0, 3.0), (0.1, 3.45), (0.3, 3.6), (0.6, 3.75),
                       (0.9, 4.0), (1.0, 4.2)),
            max_charge_c=0.5, max_discharge_c=2.0,
            charge_efficiency=0.97, discharge_efficiency=0.97,
            self_discharge_per_month=0.02, cycle_life=500,
            initial_soc=initial_soc, name=name,
        )


@register("storage", "li_polymer")
class LiPolymerBattery(ChemistryBattery):
    """Lithium-polymer pouch cell; Li-ion curve, lighter rate limits."""

    table_label = "Li-ion/poly"

    def __init__(self, capacity_mah: float = 1000.0, initial_soc: float = 0.5,
                 name: str = ""):
        super().__init__(
            capacity_mah=capacity_mah,
            nominal_voltage=3.7,
            ocv_curve=((0.0, 3.0), (0.1, 3.5), (0.4, 3.7), (0.8, 3.95),
                       (1.0, 4.2)),
            max_charge_c=1.0, max_discharge_c=5.0,
            charge_efficiency=0.97, discharge_efficiency=0.97,
            self_discharge_per_month=0.025, cycle_life=400,
            initial_soc=initial_soc, name=name,
        )


@register("storage", "nimh")
class NiMHBattery(ChemistryBattery):
    """Single NiMH cell (1.2 V nominal, flat discharge plateau)."""

    table_label = "NiMH rech. batt."

    def __init__(self, capacity_mah: float = 1800.0, initial_soc: float = 0.5,
                 name: str = ""):
        super().__init__(
            capacity_mah=capacity_mah,
            nominal_voltage=1.2,
            ocv_curve=((0.0, 1.0), (0.1, 1.18), (0.5, 1.25), (0.9, 1.33),
                       (1.0, 1.4)),
            max_charge_c=0.3, max_discharge_c=1.0,
            charge_efficiency=0.85, discharge_efficiency=0.92,
            self_discharge_per_month=0.20, cycle_life=800,
            initial_soc=initial_soc, name=name,
        )


@register("storage", "aa_pack")
class AABatteryPack(ChemistryBattery):
    """Series pack of AA NiMH cells (System C/D style '2xAA rech. batts.')."""

    table_label = "AA rech. batts."

    def __init__(self, cells: int = 2, capacity_mah: float = 2000.0,
                 initial_soc: float = 0.5, name: str = ""):
        if cells < 1:
            raise ValueError("cells must be >= 1")
        self.cells = cells
        super().__init__(
            capacity_mah=capacity_mah,
            nominal_voltage=1.2 * cells,
            ocv_curve=((0.0, 1.0 * cells), (0.1, 1.18 * cells),
                       (0.5, 1.25 * cells), (0.9, 1.33 * cells),
                       (1.0, 1.4 * cells)),
            max_charge_c=0.3, max_discharge_c=1.0,
            charge_efficiency=0.85, discharge_efficiency=0.92,
            self_discharge_per_month=0.20, cycle_life=800,
            initial_soc=initial_soc, name=name,
        )


@register("storage", "lithium_primary")
class LithiumPrimaryCell(ChemistryBattery):
    """Non-rechargeable lithium primary (System B's backup store).

    ``charge`` accepts nothing; the cell only drains. High energy density
    and very low self-discharge make it the survey's archetypal
    "energy backup" alongside System A's fuel cell.
    """

    is_backup = True
    table_label = "Li non-rech. batt."

    def __init__(self, capacity_mah: float = 2400.0, initial_soc: float = 1.0,
                 name: str = ""):
        super().__init__(
            capacity_mah=capacity_mah,
            nominal_voltage=3.6,
            ocv_curve=((0.0, 3.0), (0.05, 3.3), (0.5, 3.6), (1.0, 3.65)),
            max_charge_c=0.1, max_discharge_c=0.5,
            charge_efficiency=1.0, discharge_efficiency=0.98,
            self_discharge_per_month=0.001, rechargeable=False,
            cycle_life=1, initial_soc=initial_soc, name=name,
        )


@register("storage", "thin_film")
class ThinFilmBattery(ChemistryBattery):
    """Solid-state thin-film micro-battery (EnerChip class).

    Tiny capacity (tens-hundreds of uAh), negligible self-discharge, very
    limited current — but thousands of cycles; the storage of the
    commercial kits E, F and G in Table I.
    """

    table_label = "Thin-film battery"

    def __init__(self, capacity_uah: float = 100.0, initial_soc: float = 0.5,
                 name: str = ""):
        if capacity_uah <= 0:
            raise ValueError("capacity_uah must be positive")
        self.capacity_uah = capacity_uah
        super().__init__(
            capacity_mah=capacity_uah * 1e-3,
            nominal_voltage=3.8,
            ocv_curve=((0.0, 3.0), (0.1, 3.6), (0.5, 3.85), (1.0, 4.1)),
            max_charge_c=1.0, max_discharge_c=5.0,
            charge_efficiency=0.98, discharge_efficiency=0.98,
            self_discharge_per_month=0.025, cycle_life=5000,
            initial_soc=initial_soc, name=name,
        )
