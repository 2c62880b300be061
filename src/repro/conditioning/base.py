"""Input and output conditioning stages.

Survey Sec. II.1: "As a minimum, an input power conditioning circuit is
required to go between the harvester and the storage device — to prevent
the backflow of energy to the harvester, and in many cases to rectify and
regulate its output. ... Most devices also have an output conditioning
circuit between the storage device and the load, to supply a suitable
voltage to the embedded device."

:class:`InputConditioner` = operating-point tracker + conversion stage +
standing (quiescent) current. :class:`OutputConditioner` = conversion
stage + quiescent + an input-voltage window (the converter cut-off that
makes the node brown out when the store runs low).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..harvesters.base import Harvester, retune_state
from .converters import (
    V_OUT_STEP_UP_TEST,
    BuckBoostConverter,
    Converter,
    IdealConverter,
    forward_v_out,
)
from .mppt import _FIXED_VOLTAGE_STEP, FixedVoltage, MPPTracker, OracleMPPT

__all__ = ["HarvestStep", "InputConditioner", "OutputConditioner"]


@dataclass(frozen=True)
class HarvestStep:
    """Accounting record for one input-conditioning step."""

    raw_power: float        # W extracted from the transducer
    delivered_power: float  # W delivered to the storage bus
    operating_voltage: float
    mpp_power: float        # W a perfect tracker would have extracted

    @property
    def conversion_loss(self) -> float:
        return max(0.0, self.raw_power - self.delivered_power)

    @property
    def tracking_efficiency(self) -> float:
        """raw / mpp — how close the tracker got to the true MPP."""
        if self.mpp_power <= 0:
            return 1.0
        return min(1.0, self.raw_power / self.mpp_power)


class InputConditioner:
    """Harvester-side conditioning chain.

    Parameters
    ----------
    tracker:
        Operating-point strategy (:mod:`repro.conditioning.mppt`).
    converter:
        Conversion stage between harvester and storage bus.
    quiescent_current_a:
        Standing current of this channel's conditioning electronics
        (added to the tracker's own), drawn from the bus continuously.
    name:
        Channel label in reports.
    """

    def __init__(self, tracker: MPPTracker | None = None,
                 converter: Converter | None = None,
                 quiescent_current_a: float = 0.0, name: str = ""):
        if quiescent_current_a < 0:
            raise ValueError("quiescent_current_a must be non-negative")
        self.tracker = tracker if tracker is not None else OracleMPPT()
        self.converter = converter if converter is not None else IdealConverter()
        self.quiescent_current_a = quiescent_current_a
        self.name = name or type(self).__name__

    @property
    def total_quiescent_a(self) -> float:
        """Channel + tracker standing current, amps."""
        return self.quiescent_current_a + self.tracker.quiescent_current_a

    def step(self, harvester: Harvester, ambient: float, dt: float,
             bus_voltage: float) -> HarvestStep:
        """Run one conditioning step; returns the power accounting record."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        decision = self.tracker.step(harvester, ambient, dt)
        mpp_power = harvester.max_power(ambient)
        if not decision.harvesting or decision.voltage <= 0:
            return HarvestStep(0.0, 0.0, decision.voltage, mpp_power)
        raw = harvester.power_at(decision.voltage, ambient) * decision.duty
        delivered = self.converter.output_power(raw, decision.voltage, bus_voltage)
        if delivered == 0.0 and raw > 0.0:
            # Converter shut down (input outside its window, or boost asked
            # to step down): the input stage disconnects the harvester, so
            # nothing is actually extracted either.
            raw = 0.0
        return HarvestStep(raw, delivered, decision.voltage, mpp_power)

    def reset(self) -> None:
        """Clear tracker state (hot-swap of the attached harvester)."""
        self.tracker.reset()

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Closure ``(harvester, ambient_value, bus_v) -> HarvestStep``.

        Replicates :meth:`step` with the tracker/converter dispatch and
        validation hoisted; the tracker and converter contribute their
        own lowerings (bound methods by default, so any model in the
        library — or a user subclass — stays exact).

        A single-slot memo, keyed on the harvester object (a hot-swap
        resets it), the ambient value (``==``, so a NaN never hits) and
        the harvester's :func:`~repro.harvesters.base.retune_state`,
        skips what those determine. At fine steps the value repeats for
        many steps in a row (it changes only with the trace row). For
        every tracker the memo holds ``max_power``, whose Newton/golden
        solve would otherwise dominate. For the library's own
        :class:`~repro.conditioning.mppt.FixedVoltage` it holds the
        whole :class:`HarvestStep` when the converter's class states
        how its forward stage reads ``v_out``
        (:func:`~repro.conditioning.converters.forward_v_out`). The key
        then adds the tracker's live ``voltage``, and for Boost the
        step-up test ``bus_v < v_in``. Only library harvesters engage
        the memo (``is_library_harvester``), so a user harvester class
        keeps every call. A ``FixedVoltage`` subclass, a wrapper
        installed on ``FixedVoltage.step`` and a converter class that
        states nothing keep every tracker and converter call.
        """
        from ..simulation.kernel.protocol import (
            ensure_unmodified,
            is_library_harvester,
        )
        ensure_unmodified(self, InputConditioner, "step")
        tracker = self.tracker
        lower_tracker = getattr(tracker, "lower_kernel", None)
        tracker_step = lower_tracker(dt) if lower_tracker is not None \
            else tracker.step
        converter = self.converter
        lower_conv = getattr(converter, "lower_output_kernel", None)
        converter_out = lower_conv(dt) if lower_conv is not None \
            else converter.output_power
        reads_v_out = forward_v_out(converter)
        whole = reads_v_out is not None and \
            type(tracker) is FixedVoltage and \
            FixedVoltage.step is _FIXED_VOLTAGE_STEP
        step_up = reads_v_out == V_OUT_STEP_UP_TEST

        memo_harvester = None
        memo_pure = False
        memo_value = float("nan")
        memo_tune = None
        memo_mpp = 0.0
        # The whole step, with the tracker voltage it was taken at, its
        # operating voltage and its step-up test.
        memo_step = None
        memo_fixed = float("nan")
        memo_in = 0.0
        memo_below = False

        def step(harvester, value: float, bus_v: float) -> HarvestStep:
            nonlocal memo_harvester, memo_pure, memo_value, memo_tune, \
                memo_mpp, memo_step, memo_fixed, memo_in, memo_below
            if harvester is not memo_harvester:
                memo_harvester = harvester
                memo_pure = is_library_harvester(harvester)
                memo_value = float("nan")
            if not whole:
                # Every other tracker decides first, in step()'s order,
                # so the key sees any retune the decision makes.
                decision = tracker_step(harvester, value, dt)
            same = False
            if memo_pure:
                tune = retune_state(harvester)
                same = value == memo_value and tune == memo_tune
            if whole:
                fixed = tracker.voltage
                if same and fixed == memo_fixed and \
                        (not step_up or (bus_v < memo_in) == memo_below):
                    return memo_step
                decision = tracker_step(harvester, value, dt)
            mpp_power = memo_mpp if same else harvester.max_power(value)
            voltage = decision.voltage
            if not decision.harvesting or voltage <= 0:
                hs = HarvestStep(0.0, 0.0, voltage, mpp_power)
            else:
                raw = harvester.power_at(voltage, value) * decision.duty
                delivered = converter_out(raw, voltage, bus_v)
                if delivered == 0.0 and raw > 0.0:
                    # Converter shut down: the input stage disconnects
                    # the harvester, so nothing is actually extracted.
                    raw = 0.0
                hs = HarvestStep(raw, delivered, voltage, mpp_power)
            if memo_pure:
                memo_value, memo_tune, memo_mpp = value, tune, mpp_power
                if whole:
                    memo_step, memo_fixed = hs, fixed
                    memo_in, memo_below = voltage, bus_v < voltage
            return hs

        return step

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings, harvesters):
        """Validate and lower one channel position's conditioning chain.

        Returns ``(tracker_prepare, surface_builder, converter_out)``:
        the tracker's schedule builder, the harvester group's batched
        surface builder, and the vectorized forward-conversion closure.
        Compile-time only — the ambient-dependent precompute happens in
        the channel lowering's ``prepare``.
        """
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        from ..simulation.kernel.batched import same_class
        same_class(siblings, "conditioner")
        for conditioner in siblings:
            ensure_unmodified(conditioner, InputConditioner, "step")
        trackers = [c.tracker for c in siblings]
        same_class(trackers, "tracker")
        tracker_prepare = trackers[0].lower_batched(dt, trackers)
        surface_builder = harvesters[0].lower_batched(harvesters)
        if getattr(tracker_prepare, "needs_iv_rows", False) and \
                not getattr(surface_builder, "provides_iv_rows", False):
            raise LoweringUnsupported(
                f"{type(trackers[0]).__name__} replays its hill climb "
                f"against per-row I-V queries, which "
                f"{type(harvesters[0]).__name__}'s batched surface does "
                f"not provide")
        converters = [c.converter for c in siblings]
        same_class(converters, "converter")
        lower_out = getattr(converters[0], "lower_output_batched", None)
        if lower_out is None:
            raise LoweringUnsupported(
                f"{type(converters[0]).__name__} has no batched output "
                f"lowering")
        converter_out = lower_out(dt, converters)
        return tracker_prepare, surface_builder, converter_out

    def __repr__(self) -> str:
        return (f"InputConditioner(name={self.name!r}, tracker={self.tracker!r}, "
                f"converter={self.converter!r})")


class OutputConditioner:
    """Store-to-load conditioning stage.

    Parameters
    ----------
    converter:
        Conversion stage (buck-boost for System A, LDO for System B).
    output_voltage:
        Regulated supply voltage delivered to the embedded device, V.
    min_input_voltage:
        Store voltage below which the stage shuts down (brown-out).
    quiescent_current_a:
        Standing current of the output stage.
    name:
        Label in reports.
    """

    def __init__(self, converter: Converter | None = None,
                 output_voltage: float = 3.0, min_input_voltage: float = 0.8,
                 quiescent_current_a: float = 0.0, name: str = ""):
        if output_voltage <= 0:
            raise ValueError("output_voltage must be positive")
        if min_input_voltage < 0:
            raise ValueError("min_input_voltage must be non-negative")
        if quiescent_current_a < 0:
            raise ValueError("quiescent_current_a must be non-negative")
        self.converter = converter if converter is not None else IdealConverter()
        self.output_voltage = output_voltage
        self.min_input_voltage = min_input_voltage
        self.quiescent_current_a = quiescent_current_a
        self.name = name or type(self).__name__

    def can_supply(self, store_voltage: float) -> bool:
        """Whether the stage can run from the given store voltage."""
        if store_voltage < self.min_input_voltage:
            return False
        return self.converter.efficiency(1e-3, store_voltage,
                                         self.output_voltage) > 0.0

    def input_power_for(self, demand_w: float, store_voltage: float) -> float:
        """Store-side power needed to deliver ``demand_w`` at the output.

        Returns ``inf`` when the stage cannot supply at this store voltage
        (brown-out condition).
        """
        if demand_w < 0:
            raise ValueError(f"demand_w must be non-negative, got {demand_w}")
        if demand_w == 0.0:
            return 0.0
        if not self.can_supply(store_voltage):
            return float("inf")
        return self.converter.input_power(demand_w, store_voltage,
                                          self.output_voltage)

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Lowered output stage (see repro.simulation.kernel.protocol).

        The ``needed(demand_w, store_v)`` closure replicates
        :meth:`input_power_for` — brown-out window first, then the
        converter's inversion, which the converter itself lowers
        (inlined fixed point for a buck-boost, the bound method
        otherwise).
        """
        from ..simulation.kernel.protocol import OutputLowering, \
            ensure_unmodified
        ensure_unmodified(self, OutputConditioner,
                          "input_power_for", "can_supply")
        converter = self.converter
        min_v = self.min_input_voltage
        v_out = self.output_voltage
        inf = float("inf")
        probe = converter.efficiency
        lower_conv = getattr(converter, "lower_input_kernel", None)
        converter_in = lower_conv(dt) if lower_conv is not None \
            else converter.input_power
        if type(converter) is BuckBoostConverter:
            # The specialized inversion already tests the (run-constant)
            # voltage window, which is exactly can_supply's probe here.
            def needed(demand_w: float, store_v: float) -> float:
                if demand_w == 0.0:
                    return 0.0
                if store_v < min_v:
                    return inf
                return converter_in(demand_w, store_v, v_out)
        else:
            def needed(demand_w: float, store_v: float) -> float:
                if demand_w == 0.0:
                    return 0.0
                if store_v < min_v:
                    return inf
                if probe(1e-3, store_v, v_out) <= 0.0:
                    return inf
                return converter_in(demand_w, store_v, v_out)
        return OutputLowering(self, needed)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Vectorized output stage mirroring :meth:`lower_kernel`'s two
        converter specializations (buck-boost / generic probe)."""
        import numpy as np
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        from ..simulation.kernel.batched import (
            BatchedOutputLowering,
            gather,
            same_class,
        )
        same_class(siblings, "output stage")
        for output in siblings:
            ensure_unmodified(output, OutputConditioner,
                              "input_power_for", "can_supply")
        converters = [o.converter for o in siblings]
        conv_cls = same_class(converters, "output converter")
        min_v = gather(siblings, lambda o: o.min_input_voltage)
        v_out = gather(siblings, lambda o: o.output_voltage)
        inf = float("inf")
        lower_in = getattr(converters[0], "lower_input_batched", None)
        if lower_in is None:
            raise LoweringUnsupported(
                f"{conv_cls.__name__} has no batched input lowering")
        converter_in = lower_in(dt, converters)
        if conv_cls is BuckBoostConverter:
            def needed(demand_w, store_v):
                return np.where(
                    demand_w == 0.0, 0.0,
                    np.where(store_v < min_v, inf,
                             converter_in(demand_w, store_v, v_out)))
        else:
            probe_fn = converters[0]._batch_efficiency_hook(converters)
            if probe_fn is None:
                raise LoweringUnsupported(
                    f"{conv_cls.__name__} has no batched efficiency probe")

            def needed(demand_w, store_v):
                probe = probe_fn(1e-3, store_v, v_out)
                return np.where(
                    demand_w == 0.0, 0.0,
                    np.where((store_v < min_v) | (probe <= 0.0), inf,
                             converter_in(demand_w, store_v, v_out)))
        return BatchedOutputLowering(tuple(siblings), needed)

    def __repr__(self) -> str:
        return (f"OutputConditioner(name={self.name!r}, vout={self.output_voltage}, "
                f"converter={self.converter!r})")
