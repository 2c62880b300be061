"""Harvester base classes: the I-V operating-surface protocol.

The survey's power-conditioning taxonomy (Sec. II.1) revolves around where
on its current-voltage characteristic a harvester is operated: MPPT circuits
"work to ensure that the energy harvesters operate at their optimal point",
while System B's modules "operate at a fixed point which offers a compromise
between efficiency and quiescent current draw". To make that trade-off real,
every harvester model exposes a full I-V surface parameterised by the
ambient channel value, not just a power number:

* :meth:`Harvester.current_at` — terminal current at a terminal voltage;
* :meth:`Harvester.open_circuit_voltage` / :meth:`short_circuit_current`;
* :meth:`Harvester.mpp` — the true maximum power point (what a perfect
  MPPT would find);
* :meth:`Harvester.power_at` — power extracted at an arbitrary point (what
  a fixed-point conditioner actually gets).

Most non-photovoltaic transducers (TEG, wind/water generator, piezo after
rectification, inductive, rectenna) are well described near their operating
range by a Thevenin equivalent — an open-circuit voltage and a source
resistance, both functions of the ambient input — so
:class:`TheveninHarvester` implements the protocol once, analytically.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from ..environment.ambient import SourceType

__all__ = ["OperatingPoint", "Harvester", "TheveninHarvester"]


@dataclass(frozen=True)
class OperatingPoint:
    """One point on a harvester's I-V surface."""

    voltage: float  # V
    current: float  # A
    power: float    # W

    def __post_init__(self):
        if self.voltage < 0 or self.current < 0 or self.power < 0:
            raise ValueError(
                f"operating point must be non-negative, got "
                f"({self.voltage}, {self.current}, {self.power})"
            )


class Harvester(abc.ABC):
    """Abstract energy transducer.

    Subclasses declare which ambient channel they transduce via
    ``source_type`` and implement the I-V surface. An optional
    :class:`~repro.harvesters.datasheet.ElectronicDatasheet` may be attached
    for plug-and-play systems (survey Sec. II.3, System B).
    """

    #: The ambient channel this harvester transduces.
    source_type: SourceType = SourceType.LIGHT

    #: Harvester-technology label used when regenerating Table I.
    table_label: str = "Harvester"

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__
        self.datasheet = None  # attached by repro.harvesters.datasheet

    # ------------------------------------------------------------------
    # I-V surface protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def current_at(self, voltage: float, ambient: float) -> float:
        """Terminal current (A) at terminal voltage ``voltage`` (V) given
        the ambient channel value. Must be non-negative and non-increasing
        in ``voltage`` over [0, Voc]."""

    @abc.abstractmethod
    def open_circuit_voltage(self, ambient: float) -> float:
        """Voltage (V) at zero current for the given ambient value."""

    def short_circuit_current(self, ambient: float) -> float:
        """Current (A) at zero terminal voltage."""
        return self.current_at(0.0, ambient)

    def power_at(self, voltage: float, ambient: float) -> float:
        """Extracted power (W) when held at ``voltage``."""
        if voltage < 0:
            raise ValueError(f"voltage must be non-negative, got {voltage}")
        return voltage * self.current_at(voltage, ambient)

    def mpp(self, ambient: float) -> OperatingPoint:
        """Maximum power point, found by golden-section search on [0, Voc].

        Subclasses with analytic MPPs (e.g. Thevenin models) override this.
        The I-V surfaces used in this library are unimodal in power over
        [0, Voc], which golden-section search requires.
        """
        voc = self.open_circuit_voltage(ambient)
        if voc <= 0:
            return OperatingPoint(0.0, 0.0, 0.0)
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.0, voc
        a = hi - inv_phi * (hi - lo)
        b = lo + inv_phi * (hi - lo)
        pa, pb = self.power_at(a, ambient), self.power_at(b, ambient)
        for _ in range(60):
            if pa < pb:
                lo, a, pa = a, b, pb
                b = lo + inv_phi * (hi - lo)
                pb = self.power_at(b, ambient)
            else:
                hi, b, pb = b, a, pa
                a = hi - inv_phi * (hi - lo)
                pa = self.power_at(a, ambient)
            if hi - lo < 1e-9 * voc:
                break
        v = 0.5 * (lo + hi)
        i = self.current_at(v, ambient)
        return OperatingPoint(v, i, v * i)

    def max_power(self, ambient: float) -> float:
        """Power (W) at the maximum power point."""
        return self.mpp(ambient).power

    # ------------------------------------------------------------------
    # Per-ambient I-V lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_iv(self, ambient: float) -> tuple:
        """``(power_at, current_at)`` for one ambient value.

        Each is a ``(voltage, ambient) -> float`` callable equal to the
        method of that name at this ``ambient``. A hill climb queries
        one ambient value up to 64 times per step, so library models
        return closures that evaluate the ambient-only physics once (the
        closures ignore the ambient they are passed). The base class
        returns the bound methods, which are exact for every harvester.
        """
        return self.power_at, self.current_at

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, siblings):
        """Surface builder for a group of identical-class harvesters.

        Returns an object whose ``build(values, width)`` precomputes the
        I-V surface over a stacked ambient tensor (``voc``, ``power_at``,
        ``mpp_voltage``/``mpp_power``) bit-identically to the scalar
        methods. The base class has no batched surface — subclasses with
        vectorizable physics opt in.
        """
        from ..simulation.kernel.protocol import LoweringUnsupported
        raise LoweringUnsupported(
            f"{type(self).__name__} has no batched lowering")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, source={self.source_type.value})"


#: The ``power_at`` every library I-V lowering inlines.
_POWER_AT = Harvester.power_at


def retune_state(harvester):
    """The run-time state a library harvester's physics reads besides
    its arguments: ``current_frequency``, or ``None`` without one.

    Smart-harvester controllers retune resonant harvesters (piezo,
    electromagnetic) between steps; every other model parameter is fixed
    at construction. So a library harvester's I-V surface and MPP are
    pure in ``(voltage, ambient, retune state)``, and every memo over
    them keys on this: :meth:`TheveninHarvester._thevenin_cached` and
    the scalar kernel's channel memo
    (:meth:`~repro.conditioning.base.InputConditioner.lower_kernel`).
    """
    return getattr(harvester, "current_frequency", None)


def inlines_library_iv(harvester, current_at) -> bool:
    """Whether a :meth:`Harvester.lower_iv` may inline ``harvester``'s
    I-V methods.

    It may for a library harvester whose class resolves ``current_at``
    to the function ``current_at`` and ``power_at`` to
    :meth:`Harvester.power_at`, by identity. A subclass override, a user
    class, or a wrapper installed on a class (an instrumenting tracer,
    say) keeps every call. The module test is
    :func:`~repro.simulation.kernel.protocol.is_library_harvester`'s,
    written out: that module cannot be imported here at load time, and
    importing it per call costs more than the rest of the lowering.
    """
    cls = type(harvester)
    return (cls.current_at is current_at and cls.power_at is _POWER_AT
            and cls.__module__.startswith("repro.harvesters"))


def lowered_power_at(current_at):
    """:meth:`Harvester.power_at` over a lowered ``current_at``,
    expression for expression."""
    def power_at(voltage: float, ambient: float) -> float:
        if voltage < 0:
            raise ValueError(f"voltage must be non-negative, got {voltage}")
        return voltage * current_at(voltage, ambient)

    return power_at


class TheveninHarvester(Harvester):
    """Harvester modelled as a Thevenin source: Voc(ambient), Rint(ambient).

    The I-V curve is the straight line ``I = (Voc - V) / Rint`` clipped to
    the first quadrant, so the MPP is analytic: ``V* = Voc/2``,
    ``P* = Voc^2 / (4 Rint)`` — the classic matched-load result used
    throughout the energy-harvesting literature for TEGs, small generators
    and rectified piezo elements.

    Subclasses implement :meth:`thevenin` mapping the ambient value to a
    ``(voc, r_int)`` pair, and may override :meth:`power_ceiling` to impose
    a physical limit (e.g. aerodynamic Betz power for turbines) that caps
    extraction regardless of the electrical model.
    """

    @abc.abstractmethod
    def thevenin(self, ambient: float) -> tuple:
        """Return ``(voc, r_int)`` for the given ambient value (SI units).

        ``r_int`` must be positive whenever ``voc`` is positive.
        """

    def power_ceiling(self, ambient: float) -> float:
        """Physical upper bound on extractable power (W). Default: none."""
        return math.inf

    # ------------------------------------------------------------------
    def _thevenin_cached(self, ambient: float) -> tuple:
        """One-entry memo over :meth:`thevenin`.

        A simulation step queries the Thevenin pair several times (tracker
        Voc, MPP, operating-point current) with the same ambient value;
        ``thevenin`` is a pure function of that value and the
        harvester's :func:`retune_state`, so the repeats are free.
        """
        key = (ambient, retune_state(self))
        cached = getattr(self, "_thev_memo", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        pair = self.thevenin(ambient)
        self._thev_memo = (key, pair)
        return pair

    def open_circuit_voltage(self, ambient: float) -> float:
        voc, _ = self._thevenin_cached(ambient)
        return max(0.0, voc)

    def current_at(self, voltage: float, ambient: float) -> float:
        if voltage < 0:
            raise ValueError(f"voltage must be non-negative, got {voltage}")
        voc, r_int = self._thevenin_cached(ambient)
        if voc <= 0:
            return 0.0
        if r_int <= 0:
            raise ValueError(f"internal resistance must be positive, got {r_int}")
        i = (voc - voltage) / r_int
        if i <= 0:
            return 0.0
        # Apply the physical power ceiling by limiting current at this voltage.
        ceiling = self.power_ceiling(ambient)
        if voltage > 0 and voltage * i > ceiling:
            i = ceiling / voltage
        return i

    def mpp(self, ambient: float) -> OperatingPoint:
        voc, r_int = self._thevenin_cached(ambient)
        if voc <= 0:
            return OperatingPoint(0.0, 0.0, 0.0)
        v = voc / 2.0
        p_matched = voc * voc / (4.0 * r_int)
        ceiling = self.power_ceiling(ambient)
        if p_matched <= ceiling:
            return OperatingPoint(v, p_matched / v, p_matched)
        # Ceiling-limited: power plateau; report the matched voltage point
        # at the capped power.
        return OperatingPoint(v, ceiling / v, ceiling)

    def lower_iv(self, ambient: float) -> tuple:
        """Per-ambient closures with the Thevenin pair and the power
        ceiling evaluated once.

        The closures repeat :meth:`current_at` and :meth:`power_at`
        expression for expression, raises included, so they are bitwise
        the methods at this ``ambient``. The key of
        :meth:`_thevenin_cached` holds the :func:`retune_state`, so a
        retune takes effect at the next lowering. A class that does not
        keep the library's I-V methods gets the bound ones
        (:func:`inlines_library_iv`).
        """
        if not inlines_library_iv(self, _THEVENIN_CURRENT_AT):
            return self.power_at, self.current_at
        voc, r_int = self._thevenin_cached(ambient)
        ceiling = self.power_ceiling(ambient)

        def current_at(voltage: float, ambient: float) -> float:
            if voltage < 0:
                raise ValueError(
                    f"voltage must be non-negative, got {voltage}")
            if voc <= 0:
                return 0.0
            if r_int <= 0:
                raise ValueError(
                    f"internal resistance must be positive, got {r_int}")
            i = (voc - voltage) / r_int
            if i <= 0:
                return 0.0
            if voltage > 0 and voltage * i > ceiling:
                i = ceiling / voltage
            return i

        return lowered_power_at(current_at), current_at

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, siblings):
        """Generic batched Thevenin surface.

        A subclass opts in by providing ``_batch_thevenin(siblings,
        values) -> (voc, r_int)`` (and optionally
        ``_batch_power_ceiling(siblings, values) -> ceiling | None``),
        each the vectorized twin of its scalar method. The surface
        replicates :meth:`current_at`/:meth:`power_at`/:meth:`mpp`
        expression by expression over those tensors.
        """
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        from ..simulation.kernel.batched import same_class
        cls = same_class(siblings, "harvester")
        if getattr(cls, "_batch_thevenin", None) is None:
            raise LoweringUnsupported(
                f"{cls.__name__} has no batched lowering "
                f"(no _batch_thevenin hook)")
        for harvester in siblings:
            ensure_unmodified(
                harvester, TheveninHarvester, "current_at", "power_at",
                "mpp", "max_power", "open_circuit_voltage",
                "_thevenin_cached")
        return _TheveninSurfaceBuilder(siblings)

    def _batch_power_ceiling(self, siblings, values):
        """Vectorized :meth:`power_ceiling`; ``None`` = uncapped (inf)."""
        return None


#: The ``current_at`` :meth:`TheveninHarvester.lower_iv` inlines.
_THEVENIN_CURRENT_AT = TheveninHarvester.current_at


class _TheveninSurfaceBuilder:
    __slots__ = ("siblings",)

    #: The surface supports per-row I-V queries (``current_at_row`` /
    #: ``power_at_row``) — required by hill-climbing tracker replays.
    provides_iv_rows = True

    def __init__(self, siblings):
        self.siblings = siblings

    def build(self, values, width: int):
        lanes = self.siblings[:width] if width == 1 else self.siblings
        first = lanes[0]
        voc_raw, r_int = first._batch_thevenin(lanes, values)
        ceiling = first._batch_power_ceiling(lanes, values)
        return _TheveninSurface(voc_raw, r_int, ceiling)


class _TheveninSurface:
    """Vectorized Thevenin I-V surface over one ambient tensor."""

    __slots__ = ("voc_raw", "r_int", "ceiling", "voc", "_mpp")

    def __init__(self, voc_raw, r_int, ceiling):
        import numpy as np
        self.voc_raw = voc_raw
        self.r_int = r_int
        self.ceiling = ceiling  # None means "no physical cap" (inf)
        # open_circuit_voltage: max(0.0, voc)
        self.voc = np.where(voc_raw > 0.0, voc_raw, 0.0)
        self._mpp = None

    def power_at(self, voltage):
        """Twin of ``voltage * TheveninHarvester.current_at(voltage)``."""
        import numpy as np
        voc, r = self.voc_raw, self.r_int
        i = (voc - voltage) / r
        i = np.where((voc <= 0.0) | (i <= 0.0), 0.0, i)
        if self.ceiling is not None:
            over = (voltage > 0.0) & (voltage * i > self.ceiling)
            i = np.where(over, self.ceiling / voltage, i)
        return voltage * i

    @staticmethod
    def _row(tensor, i: int):
        return tensor[i] if getattr(tensor, "ndim", 0) == 2 else tensor

    def current_at_row(self, i: int, voltage):
        """Step-``i`` twin of :meth:`TheveninHarvester.current_at` for
        per-lane tracker replay (validation hoisted: tracker voltages
        are never negative)."""
        import numpy as np
        voc = self._row(self.voc_raw, i)
        r = self._row(self.r_int, i)
        cur = (voc - voltage) / r
        cur = np.where((voc <= 0.0) | (cur <= 0.0), 0.0, cur)
        if self.ceiling is not None:
            ceil = self._row(self.ceiling, i)
            over = (voltage > 0.0) & (voltage * cur > ceil)
            cur = np.where(over, ceil / voltage, cur)
        return cur

    def power_at_row(self, i: int, voltage):
        return voltage * self.current_at_row(i, voltage)

    def _compute_mpp(self):
        import numpy as np
        voc, r = self.voc_raw, self.r_int
        v = voc / 2.0
        p = voc * voc / (4.0 * r)
        if self.ceiling is not None:
            p = np.where(p <= self.ceiling, p, self.ceiling)
        dead = voc <= 0.0
        self._mpp = (np.where(dead, 0.0, v), np.where(dead, 0.0, p))

    def mpp_voltage(self):
        if self._mpp is None:
            self._compute_mpp()
        return self._mpp[0]

    def mpp_power(self):
        if self._mpp is None:
            self._compute_mpp()
        return self._mpp[1]
