"""Power converter efficiency models.

The survey's Sec. II.1 contrasts the two output stages of its reference
systems: System A "uses a Buck-Boost converter", System B "a low quiescent
current linear regulator, which again is a compromise between its
conversion efficiency and quiescent current draw". These models carry
exactly that trade-off:

* switching converters (buck-boost, boost) have high mid-load efficiency
  that collapses at light load as fixed switching losses dominate;
* linear regulators have efficiency pinned at ``v_out / v_in`` — poor when
  dropping a large voltage, but with almost no fixed overhead;
* diode rectifiers model the input-side backflow blocker ("to prevent the
  backflow of energy to the harvester") whose forward drop taxes
  low-voltage sources.

Quiescent *standby* current (drawn even at zero throughput) is accounted
separately by the system model; these classes model throughput-dependent
conversion loss only.
"""

from __future__ import annotations

from ..spec.registry import register

import abc
import math

__all__ = [
    "Converter",
    "BuckBoostConverter",
    "BoostConverter",
    "LinearRegulator",
    "DiodeRectifier",
    "IdealConverter",
]


#: How a converter class's forward stage (:meth:`Converter.output_power`)
#: reads ``v_out``: not at all, or only through ``v_out < v_in``. Each
#: library class states one as ``_forward_v_out`` beside its
#: ``efficiency``; :func:`forward_v_out` reads the statement.
V_OUT_UNREAD = "unread"
V_OUT_STEP_UP_TEST = "v_out < v_in"


def forward_v_out(converter):
    """How the forward stage of ``converter``'s exact class reads
    ``v_out``: :data:`V_OUT_UNREAD`, :data:`V_OUT_STEP_UP_TEST`, or
    ``None`` when the class states nothing (the LDO reads it in general).

    The statement is looked up in the class's own namespace, so a
    subclass never inherits one: its ``efficiency`` may read ``v_out``
    any way it likes. The kernel's channel memo keys a whole
    conditioning step on it (see
    :meth:`~repro.conditioning.base.InputConditioner.lower_kernel`).
    """
    return vars(type(converter)).get("_forward_v_out")


def _batch_guard(siblings, base: type, *names) -> None:
    """Refuse a batched converter lowering for overridden physics."""
    from ..simulation.kernel.protocol import (
        LoweringUnsupported,
        overridden_methods,
    )
    for conv in siblings:
        changed = overridden_methods(conv, base, *names)
        if changed:
            raise LoweringUnsupported(
                f"{type(conv).__name__} overrides {', '.join(changed)}() "
                f"of {base.__name__} and has no batched lowering of its own")


class Converter(abc.ABC):
    """Abstract DC-DC conversion stage."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A closed-form input_power inverts its own class's curve only,
        # so a class that redefines efficiency without an input_power of
        # its own inverts by the generic fixed point, on every tier.
        if "efficiency" in vars(cls) and "input_power" not in vars(cls):
            cls.input_power = Converter.input_power

    @abc.abstractmethod
    def efficiency(self, p_in: float, v_in: float, v_out: float) -> float:
        """Conversion efficiency in [0, 1] for the given operating point."""

    def output_power(self, p_in: float, v_in: float, v_out: float) -> float:
        """Output power (W) for a given input power."""
        if p_in < 0:
            raise ValueError(f"p_in must be non-negative, got {p_in}")
        if p_in == 0.0:
            return 0.0
        return p_in * self.efficiency(p_in, v_in, v_out)

    def input_power(self, p_out: float, v_in: float, v_out: float) -> float:
        """Input power (W) needed to deliver ``p_out`` (fixed-point solve).

        The generic inversion, for an efficiency curve the class does not
        invert in closed form: a few damped fixed-point iterations, which
        converge quickly on a curve monotone in ``p_in``. Every library
        class inverts its own curve exactly instead.
        """
        if p_out < 0:
            raise ValueError(f"p_out must be non-negative, got {p_out}")
        if p_out == 0.0:
            return 0.0
        p_in = p_out  # start from the lossless guess
        for _ in range(30):
            eff = self.efficiency(p_in, v_in, v_out)
            if eff <= 0:
                return float("inf")
            p_new = p_out / eff
            if abs(p_new - p_in) < 1e-12 * max(1.0, p_in):
                return p_new
            p_in = 0.5 * (p_in + p_new)
        return p_in

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_output_kernel(self, dt: float):
        """Forward-conversion closure ``(p_in, v_in, v_out) -> p_out``.

        The bound :meth:`output_power` is exact for every converter;
        a converter class whose efficiency curve is cheap to inline
        (buck-boost) returns a specialized closure instead.
        """
        return self.output_power

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_efficiency_hook(self, siblings):
        """``(p, v_in, v_out) -> eff`` over lanes, or None if the class
        has no vectorized efficiency (then the group cannot batch)."""
        from ..simulation.kernel.protocol import overridden_methods
        builder = getattr(type(self), "_batch_efficiency", None)
        if builder is None or overridden_methods(self, Converter,
                                                 "output_power"):
            return None
        return self._batch_efficiency(siblings)

    def lower_output_batched(self, dt: float, siblings):
        """Vectorized twin of the bound :meth:`output_power` path."""
        import numpy as np
        from ..simulation.kernel.protocol import LoweringUnsupported
        eff_fn = self._batch_efficiency_hook(siblings)
        if eff_fn is None:
            raise LoweringUnsupported(
                f"{type(self).__name__} has no batched output lowering")

        def output_power(p_in, v_in, v_out):
            eff = eff_fn(p_in, v_in, v_out)
            return np.where(p_in == 0.0, 0.0, p_in * eff)

        return output_power

    def lower_input_batched(self, dt: float, siblings):
        """Vectorized twin of the ideal, LDO and diode's ``p_out / eff``
        (:func:`_flat_input_power`); the knee classes lower their own
        root."""
        import numpy as np
        from ..simulation.kernel.protocol import LoweringUnsupported
        eff_fn = self._batch_efficiency_hook(siblings)
        if eff_fn is None or type(self).input_power is not _flat_input_power:
            raise LoweringUnsupported(
                f"{type(self).__name__} has no batched input lowering")
        inf = float("inf")

        def input_power(p_out, v_in, v_out):
            eff = eff_fn(p_out, v_in, v_out)
            return np.where(p_out == 0.0, 0.0,
                            np.where(eff <= 0.0, inf, p_out / eff))

        return input_power

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _flat_input_power(self, p_out: float, v_in: float,
                      v_out: float) -> float:
    """``input_power`` of a curve that reads ``p_in`` only through
    ``p_in <= 0`` (ideal, LDO, diode): every positive input sees one
    efficiency, so the inverse is ``p_out / eff``."""
    if p_out < 0:
        raise ValueError(f"p_out must be non-negative, got {p_out}")
    if p_out == 0.0:
        return 0.0
    eff = self.efficiency(p_out, v_in, v_out)
    if eff <= 0:
        return float("inf")
    return p_out / eff


@register("converter", "ideal")
class IdealConverter(Converter):
    """Lossless stage — the oracle reference for efficiency studies."""

    _forward_v_out = V_OUT_UNREAD

    def efficiency(self, p_in: float, v_in: float, v_out: float) -> float:
        return 1.0

    input_power = _flat_input_power

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_efficiency(self, siblings):
        import numpy as np
        _batch_guard(siblings, IdealConverter, "efficiency")

        def efficiency(p_in, v_in, v_out):
            return np.ones(np.broadcast(p_in, v_in, v_out).shape)

        return efficiency


@register("converter", "buck_boost")
class BuckBoostConverter(Converter):
    """Switching buck-boost (System A's output stage).

    Efficiency model: ``eta(P) = eta_peak * P / (P + P_overhead)`` — a
    single-knee curve capturing the light-load collapse of switchers.

    Parameters
    ----------
    peak_efficiency:
        Plateau efficiency at healthy load (0.85-0.95 for modern parts).
    overhead_power:
        Fixed switching loss, W; sets the light-load knee (its value is
        where efficiency is half the peak).
    min_input_voltage / max_input_voltage:
        Operating input-voltage window; outside it output is zero.
    """

    def __init__(self, peak_efficiency: float = 0.9, overhead_power: float = 100e-6,
                 min_input_voltage: float = 0.5, max_input_voltage: float = 20.0,
                 name: str = ""):
        super().__init__(name=name)
        if not 0.0 < peak_efficiency <= 1.0:
            raise ValueError("peak_efficiency must be in (0, 1]")
        if overhead_power < 0:
            raise ValueError("overhead_power must be non-negative")
        if not 0.0 <= min_input_voltage < max_input_voltage:
            raise ValueError("need 0 <= min_input_voltage < max_input_voltage")
        self.peak_efficiency = peak_efficiency
        self.overhead_power = overhead_power
        self.min_input_voltage = min_input_voltage
        self.max_input_voltage = max_input_voltage

    _forward_v_out = V_OUT_UNREAD

    def efficiency(self, p_in: float, v_in: float, v_out: float) -> float:
        if p_in <= 0:
            return 0.0
        if not self.min_input_voltage <= v_in <= self.max_input_voltage:
            return 0.0
        return self.peak_efficiency * p_in / (p_in + self.overhead_power)

    def input_power(self, p_out: float, v_in: float, v_out: float) -> float:
        """The knee inverted in closed form.

        ``p_out = peak * P**2 / (P + overhead)`` is a quadratic in the
        input power ``P``; its positive root is the inverse, inside the
        input window (a NaN ``v_in`` is outside it).
        """
        if p_out < 0:
            raise ValueError(f"p_out must be non-negative, got {p_out}")
        if p_out == 0.0:
            return 0.0
        if not self.min_input_voltage <= v_in <= self.max_input_voltage:
            return float("inf")
        peak = self.peak_efficiency
        return (p_out + math.sqrt(
            p_out * p_out + 4.0 * peak * self.overhead_power * p_out)) \
            / (2.0 * peak)

    def lower_output_kernel(self, dt: float):
        """Forward conversion with the knee curve and window inlined."""
        from ..simulation.kernel.protocol import overridden_methods
        if overridden_methods(self, BuckBoostConverter,
                              "efficiency", "output_power"):
            return self.output_power  # Boost subclass etc.: bound = exact
        peak = self.peak_efficiency
        overhead = self.overhead_power
        v_lo = self.min_input_voltage
        v_hi = self.max_input_voltage

        def output_power(p_in: float, v_in: float, v_out: float) -> float:
            if p_in == 0.0:
                return 0.0
            if v_lo <= v_in <= v_hi:
                return p_in * (peak * p_in / (p_in + overhead))
            return p_in * 0.0

        return output_power

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_output_batched(self, dt: float, siblings):
        """Vectorized twin of the inlined kernel closure."""
        import numpy as np
        from ..simulation.kernel.batched import gather
        _batch_guard(siblings, BuckBoostConverter,
                     "efficiency", "output_power")
        peak = gather(siblings, lambda c: c.peak_efficiency)
        overhead = gather(siblings, lambda c: c.overhead_power)
        v_lo = gather(siblings, lambda c: c.min_input_voltage)
        v_hi = gather(siblings, lambda c: c.max_input_voltage)

        def output_power(p_in, v_in, v_out):
            in_window = (v_lo <= v_in) & (v_in <= v_hi)
            res = np.where(in_window,
                           p_in * (peak * p_in / (p_in + overhead)),
                           p_in * 0.0)
            return np.where(p_in == 0.0, 0.0, res)

        return output_power

    def lower_input_batched(self, dt: float, siblings):
        """Vectorized twin of :meth:`input_power`."""
        _batch_guard(siblings, BuckBoostConverter,
                     "efficiency", "input_power")
        return self._batched_root(siblings)

    def _batched_root(self, siblings):
        """The knee's root over lanes, behind the window.

        ``4.0 * peak * overhead`` and ``2.0 * peak`` are hoisted per
        lane: they are the leading products of :meth:`input_power`'s
        expression, so no bit moves.
        """
        import numpy as np
        from ..simulation.kernel.batched import gather
        four_po = gather(siblings, lambda c: 4.0 * c.peak_efficiency *
                         c.overhead_power)
        two_peak = gather(siblings, lambda c: 2.0 * c.peak_efficiency)
        v_lo = gather(siblings, lambda c: c.min_input_voltage)
        v_hi = gather(siblings, lambda c: c.max_input_voltage)
        inf = float("inf")

        def input_power(p_out, v_in, v_out):
            dead = ~((v_lo <= v_in) & (v_in <= v_hi))
            root = (p_out + np.sqrt(p_out * p_out + four_po * p_out)) \
                / two_peak
            return np.where(p_out == 0.0, 0.0, np.where(dead, inf, root))

        return input_power


@register("converter", "boost")
class BoostConverter(BuckBoostConverter):
    """Step-up switcher: like buck-boost but requires ``v_out >= v_in``."""

    _forward_v_out = V_OUT_STEP_UP_TEST

    def efficiency(self, p_in: float, v_in: float, v_out: float) -> float:
        if v_out < v_in:
            return 0.0
        return super().efficiency(p_in, v_in, v_out)

    def input_power(self, p_out: float, v_in: float, v_out: float) -> float:
        """The buck-boost root, behind the step-up test."""
        if v_out < v_in and not p_out <= 0.0:
            return float("inf")
        return super().input_power(p_out, v_in, v_out)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    # The scalar kernel runs Boost's forward stage through its bound
    # method (the efficiency override defeats the buck-boost inlining),
    # so lockstep runs the generic forward stage over the efficiency
    # below.
    lower_output_batched = Converter.lower_output_batched

    def lower_input_batched(self, dt: float, siblings):
        """Vectorized twin of :meth:`input_power`."""
        import numpy as np
        _batch_guard(siblings, BoostConverter, "efficiency", "input_power")
        root = self._batched_root(siblings)
        inf = float("inf")

        def input_power(p_out, v_in, v_out):
            return np.where((v_out < v_in) & ~(p_out <= 0.0), inf,
                            root(p_out, v_in, v_out))

        return input_power

    def _batch_efficiency(self, siblings):
        import numpy as np
        from ..simulation.kernel.batched import gather
        _batch_guard(siblings, BoostConverter, "efficiency")
        peak = gather(siblings, lambda c: c.peak_efficiency)
        overhead = gather(siblings, lambda c: c.overhead_power)
        v_lo = gather(siblings, lambda c: c.min_input_voltage)
        v_hi = gather(siblings, lambda c: c.max_input_voltage)

        def efficiency(p_in, v_in, v_out):
            # The window test as the scalar writes it, so a NaN v_in
            # falls outside it.
            dead = (v_out < v_in) | (p_in <= 0.0) | \
                ~((v_lo <= v_in) & (v_in <= v_hi))
            return np.where(dead, 0.0, peak * p_in / (p_in + overhead))

        return efficiency


@register("converter", "linear_regulator")
class LinearRegulator(Converter):
    """LDO linear regulator (System B's output stage).

    Efficiency is structurally ``v_out / v_in`` (same current flows in and
    out); requires ``v_in >= v_out + dropout``. No load-dependent knee —
    the LDO's virtue is its tiny fixed overhead, accounted as quiescent
    current at the system level.
    """

    def __init__(self, dropout_voltage: float = 0.15, name: str = ""):
        super().__init__(name=name)
        if dropout_voltage < 0:
            raise ValueError("dropout_voltage must be non-negative")
        self.dropout_voltage = dropout_voltage

    # States no _forward_v_out: the efficiency reads v_out in general.
    def efficiency(self, p_in: float, v_in: float, v_out: float) -> float:
        if p_in <= 0 or v_in <= 0 or v_out <= 0:
            return 0.0
        if not v_in >= v_out + self.dropout_voltage:  # NaN included
            return 0.0
        return min(1.0, v_out / v_in)

    input_power = _flat_input_power

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_efficiency(self, siblings):
        import numpy as np
        from ..simulation.kernel.batched import gather
        _batch_guard(siblings, LinearRegulator, "efficiency")
        dropout = gather(siblings, lambda c: c.dropout_voltage)

        def efficiency(p_in, v_in, v_out):
            dead = (p_in <= 0.0) | (v_in <= 0.0) | (v_out <= 0.0) | \
                ~(v_in >= v_out + dropout)
            return np.where(dead, 0.0, np.minimum(1.0, v_out / v_in))

        return efficiency


@register("converter", "diode_rectifier")
class DiodeRectifier(Converter):
    """Series diode / bridge: backflow prevention with a forward-drop tax.

    Efficiency is ``(v_in - n*v_drop) / v_in`` — the voltage-proportional
    loss that makes diode front-ends punishing for low-voltage sources
    (TEGs, inductive harvesters), one of the input-conditioning constraints
    behind Table I's restrictive voltage windows.
    """

    def __init__(self, forward_drop: float = 0.3, diodes_in_path: int = 1,
                 name: str = ""):
        super().__init__(name=name)
        if forward_drop < 0:
            raise ValueError("forward_drop must be non-negative")
        if diodes_in_path < 1:
            raise ValueError("diodes_in_path must be >= 1")
        self.forward_drop = forward_drop
        self.diodes_in_path = diodes_in_path

    @property
    def total_drop(self) -> float:
        return self.forward_drop * self.diodes_in_path

    _forward_v_out = V_OUT_UNREAD

    def efficiency(self, p_in: float, v_in: float, v_out: float) -> float:
        if p_in <= 0 or v_in <= 0:
            return 0.0
        if not v_in > self.total_drop:  # NaN included
            return 0.0
        return (v_in - self.total_drop) / v_in

    input_power = _flat_input_power

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def _batch_efficiency(self, siblings):
        import numpy as np
        from ..simulation.kernel.batched import gather
        _batch_guard(siblings, DiodeRectifier, "efficiency")
        drop = gather(siblings, lambda c: c.total_drop)

        def efficiency(p_in, v_in, v_out):
            dead = (p_in <= 0.0) | (v_in <= 0.0) | ~(v_in > drop)
            return np.where(dead, 0.0, (v_in - drop) / v_in)

        return efficiency
