"""Photovoltaic cell model (single-diode).

PV cells are "the most commonly-used harvester type" in the survey's
Table I — present in six of the seven systems. The model is the standard
single-diode equation without parasitic resistances:

    I(V) = Iph - I0 * (exp(V / (Ns * n * Vt)) - 1)

with the photocurrent ``Iph`` proportional to irradiance. This yields the
characteristic PV knee, a fill factor in the realistic 0.7-0.85 range, and
an MPP voltage near 80 % of Voc — the property exploited by the fractional
open-circuit-voltage MPPT method implemented in
:mod:`repro.conditioning.mppt`.
"""

from __future__ import annotations

from ..spec.registry import register

import math

from ..environment.ambient import SourceType
from .base import (
    Harvester,
    OperatingPoint,
    inlines_library_iv,
    lowered_power_at,
)

__all__ = ["PhotovoltaicCell"]

#: Thermal voltage kT/q at 25 degC, volts.
THERMAL_VOLTAGE = 0.02585

#: Standard test condition irradiance, W/m^2.
STC_IRRADIANCE = 1000.0

#: STC photocurrent scale per constructor-argument tuple. The
#: calibration is a pure function of those five arguments, and replicate
#: ensembles build the same cell hundreds of times; a hit returns the
#: float the loop computed, so it is bitwise by construction.
_IPH_PER_W_M2: dict = {}


@register("harvester", "photovoltaic")
class PhotovoltaicCell(Harvester):
    """Single-diode PV module.

    Parameters
    ----------
    area_cm2:
        Active cell area in cm^2.
    efficiency:
        Conversion efficiency at standard test conditions (mono-Si ~0.18,
        amorphous indoor cells ~0.06).
    cells_in_series:
        Number of series cells Ns (sets the voltage scale; a typical small
        outdoor module has 8-12, an indoor cell 4-6).
    ideality:
        Diode ideality factor n (1.0-2.0; default 1.3).
    dark_current_density:
        Diode saturation current per cm^2 of cell area, A/cm^2.
    name:
        Optional instance label.
    """

    source_type = SourceType.LIGHT
    table_label = "Light"

    def __init__(self, area_cm2: float = 50.0, efficiency: float = 0.15,
                 cells_in_series: int = 10, ideality: float = 1.3,
                 dark_current_density: float = 1e-9, name: str = ""):
        super().__init__(name=name)
        if area_cm2 <= 0:
            raise ValueError("area_cm2 must be positive")
        if not 0.0 < efficiency < 1.0:
            raise ValueError("efficiency must be in (0, 1)")
        if cells_in_series < 1:
            raise ValueError("cells_in_series must be >= 1")
        if ideality <= 0:
            raise ValueError("ideality must be positive")
        if dark_current_density <= 0:
            raise ValueError("dark_current_density must be positive")
        self.area_cm2 = area_cm2
        self.efficiency = efficiency
        self.cells_in_series = cells_in_series
        self.ideality = ideality
        self.i0 = dark_current_density * area_cm2

        # A subclass may override the I-V methods the calibration calls
        # (or count those calls), so only the exact class is memoized.
        key = (area_cm2, efficiency, cells_in_series, ideality,
               dark_current_density)
        memoized = type(self) is PhotovoltaicCell
        if memoized and key in _IPH_PER_W_M2:
            self._iph_per_w_m2 = _IPH_PER_W_M2[key]
            return

        # Calibrate photocurrent so that MPP power at STC equals
        # area * efficiency * 1000 W/m^2. MPP power is nearly linear in Iph
        # (the Voc log term varies slowly), so fixed-point iteration on the
        # scale converges in a handful of steps.
        self._iph_per_w_m2 = self.area_cm2 * 1e-4  # initial scale, A per (W/m^2)
        target = self.area_cm2 * 1e-4 * STC_IRRADIANCE * self.efficiency
        for _ in range(12):
            raw = super().mpp(STC_IRRADIANCE).power
            if raw <= 0:
                raise ValueError("degenerate PV calibration; check parameters")
            ratio = target / raw
            self._iph_per_w_m2 *= ratio
            if abs(ratio - 1.0) < 1e-10:
                break
        if memoized:
            _IPH_PER_W_M2[key] = self._iph_per_w_m2

    # ------------------------------------------------------------------
    @property
    def _nvt(self) -> float:
        """Aggregate diode thermal voltage Ns * n * Vt."""
        return self.cells_in_series * self.ideality * THERMAL_VOLTAGE

    def photocurrent(self, irradiance: float) -> float:
        """Light-generated current (A) at the given irradiance (W/m^2)."""
        if irradiance < 0:
            raise ValueError(f"irradiance must be non-negative, got {irradiance}")
        return self._iph_per_w_m2 * irradiance

    def open_circuit_voltage(self, ambient: float) -> float:
        iph = self.photocurrent(ambient)
        if iph <= 0:
            return 0.0
        return self._nvt * math.log1p(iph / self.i0)

    def current_at(self, voltage: float, ambient: float) -> float:
        if voltage < 0:
            raise ValueError(f"voltage must be non-negative, got {voltage}")
        iph = self.photocurrent(ambient)
        if iph <= 0:
            return 0.0
        arg = voltage / self._nvt
        # Guard exp overflow far above Voc: current is 0 there anyway.
        if arg > 500.0:
            return 0.0
        i = iph - self.i0 * math.expm1(arg)
        return max(0.0, i)

    def lower_iv(self, ambient: float) -> tuple:
        """Per-ambient closures with the photocurrent, ``_nvt`` and
        ``i0`` evaluated once.

        The closures repeat :meth:`current_at` and :meth:`power_at`
        expression for expression, raises included, so they are bitwise
        the methods at this ``ambient``; an irradiance the methods refuse
        raises here. A class that does not keep the library's I-V
        methods gets the bound ones (:func:`.base.inlines_library_iv`).
        """
        if not inlines_library_iv(self, _PV_CURRENT_AT):
            return self.power_at, self.current_at
        iph = self.photocurrent(ambient)
        nvt = self._nvt
        i0 = self.i0

        def current_at(voltage: float, ambient: float) -> float:
            if voltage < 0:
                raise ValueError(
                    f"voltage must be non-negative, got {voltage}")
            if iph <= 0:
                return 0.0
            arg = voltage / nvt
            if arg > 500.0:
                return 0.0
            i = iph - i0 * math.expm1(arg)
            return max(0.0, i)

        return lowered_power_at(current_at), current_at

    def mpp(self, ambient: float) -> OperatingPoint:
        """Analytic-ish MPP via Newton iteration on d(VI)/dV = 0.

        dP/dV = Iph + I0 - I0 * e^x * (1 + x) with x = V / nvt; solve for x
        by Newton from a log-based initial guess. Falls back to the base
        golden-section search if Newton fails to converge.
        """
        iph = self.photocurrent(ambient)
        if iph <= 0:
            return OperatingPoint(0.0, 0.0, 0.0)
        nvt = self._nvt
        k = (iph + self.i0) / self.i0
        # Solve e^x (1+x) = k. Initial guess from x ~ ln(k) - ln(1+ln(k)).
        x = max(1e-6, math.log(k) - math.log(1.0 + max(1e-9, math.log(k))))
        converged = False
        for _ in range(50):
            ex = math.exp(x)
            f = ex * (1.0 + x) - k
            fp = ex * (2.0 + x)
            step = f / fp
            x -= step
            if abs(step) < 1e-12 * max(1.0, abs(x)):
                converged = True
                break
        if not converged or x <= 0:
            return super().mpp(ambient)
        v = x * nvt
        i = self.current_at(v, ambient)
        return OperatingPoint(v, i, v * i)

    def fill_factor(self, ambient: float) -> float:
        """Fill factor FF = Pmpp / (Voc * Isc); realistic cells: 0.7-0.85."""
        voc = self.open_circuit_voltage(ambient)
        isc = self.short_circuit_current(ambient)
        if voc <= 0 or isc <= 0:
            return 0.0
        return self.mpp(ambient).power / (voc * isc)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, siblings):
        """Batched single-diode surface.

        Vectorizes the diode equation, Voc, and the Newton MPP solve
        over a stacked ambient tensor. Transcendental call sites go
        through the exact-libm maps (numpy's SIMD ``exp``/``log1p``/
        ``expm1`` round differently on ~0.1% of inputs), and each lane's
        Newton iteration freezes at *its* convergence step, reproducing
        the scalar iteration history bit for bit. The rare
        Newton-failure lanes fall back to the scalar golden-section
        method per lane, exactly like :meth:`mpp`.
        """
        from ..simulation.kernel.protocol import ensure_unmodified
        from ..simulation.kernel.batched import same_class
        same_class(siblings, "harvester")
        for harvester in siblings:
            ensure_unmodified(
                harvester, PhotovoltaicCell, "current_at", "power_at",
                "mpp", "max_power", "open_circuit_voltage", "photocurrent")
        return _PVSurfaceBuilder(siblings)


#: The ``current_at`` :meth:`PhotovoltaicCell.lower_iv` inlines.
_PV_CURRENT_AT = PhotovoltaicCell.current_at


class _PVSurfaceBuilder:
    __slots__ = ("siblings",)

    #: The surface supports per-row I-V queries (``current_at_row`` /
    #: ``power_at_row``) — required by hill-climbing tracker replays.
    provides_iv_rows = True

    def __init__(self, siblings):
        self.siblings = siblings

    def build(self, values, width: int):
        return _PVSurface(self.siblings[:width] if width == 1
                          else self.siblings, values)


class _PVSurface:
    __slots__ = ("lanes", "values", "nvt", "i0", "iph", "pos", "voc", "_mpp")

    def __init__(self, lanes, values):
        import numpy as np
        from ..simulation.kernel.batched import exact_log1p, gather
        self.lanes = lanes
        self.values = values
        self.nvt = gather(lanes, lambda h: h._nvt)
        self.i0 = gather(lanes, lambda h: h.i0)
        iph_per = gather(lanes, lambda h: h._iph_per_w_m2)
        self.iph = iph_per * values
        self.pos = self.iph > 0.0
        self.voc = np.where(self.pos,
                            self.nvt * exact_log1p(self.iph / self.i0), 0.0)
        self._mpp = None

    def _current_at(self, voltage):
        """Twin of :meth:`PhotovoltaicCell.current_at` (validation
        hoisted: tracker voltages are never negative)."""
        import numpy as np
        from ..simulation.kernel.batched import exact_expm1
        arg = voltage / self.nvt
        big = arg > 500.0
        i = self.iph - self.i0 * exact_expm1(np.where(big, 0.0, arg))
        i = np.where(i > 0.0, i, 0.0)
        return np.where(self.pos & ~big, i, 0.0)

    def power_at(self, voltage):
        return voltage * self._current_at(voltage)

    def current_at_row(self, i: int, voltage):
        """Step-``i`` twin of :meth:`PhotovoltaicCell.current_at` for
        per-lane tracker replay."""
        import numpy as np
        from ..simulation.kernel.batched import exact_expm1
        arg = voltage / self.nvt
        big = arg > 500.0
        cur = self.iph[i] - self.i0 * exact_expm1(np.where(big, 0.0, arg))
        cur = np.where(cur > 0.0, cur, 0.0)
        return np.where(self.pos[i] & ~big, cur, 0.0)

    def power_at_row(self, i: int, voltage):
        return voltage * self.current_at_row(i, voltage)

    def _compute_mpp(self):
        import numpy as np
        from ..simulation.kernel.batched import exact_exp, exact_log
        iph, i0, nvt = self.iph, self.i0, self.nvt
        shape = iph.shape
        k = ((iph + i0) / i0).ravel()
        # Initial guess x ~ ln(k) - ln(1 + ln(k)), clamped like the scalar.
        lk = exact_log(np.where(k > 0.0, k, 1.0))
        inner = np.where(lk > 1e-9, lk, 1e-9)
        x = lk - exact_log(1.0 + inner)
        x = np.where(x > 1e-6, x, 1e-6)
        converged = np.zeros(x.shape, dtype=bool)
        active = np.nonzero(k > 0.0)[0]
        for _ in range(50):
            if active.size == 0:
                break
            xa = x[active]
            ex = exact_exp(xa)
            f = ex * (1.0 + xa) - k[active]
            fp = ex * (2.0 + xa)
            xa = xa - f / fp
            x[active] = xa
            conv = np.abs(f / fp) < 1e-12 * np.where(np.abs(xa) > 1.0,
                                                     np.abs(xa), 1.0)
            converged[active] |= conv
            active = active[~conv]
        x = x.reshape(shape)
        converged = converged.reshape(shape)
        v = x * nvt
        i = self._current_at(v)
        p = v * i
        # Newton-failure lanes: the scalar method's golden-section
        # fallback, run through the scalar code itself (exact and rare).
        fallback = (~converged | (x <= 0.0)) & self.pos
        if fallback.any():
            width = shape[1]
            for row, col in zip(*np.nonzero(fallback)):
                lane = self.lanes[col if width > 1 else 0]
                op = lane.mpp(float(self.values[row, col]))
                v[row, col] = op.voltage
                p[row, col] = op.power
        dead = ~self.pos
        self._mpp = (np.where(dead, 0.0, v), np.where(dead, 0.0, p))

    def mpp_voltage(self):
        if self._mpp is None:
            self._compute_mpp()
        return self._mpp[0]

    def mpp_power(self):
        if self._mpp is None:
            self._compute_mpp()
        return self._mpp[1]
