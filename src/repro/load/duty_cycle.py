"""Energy-aware duty-cycle controllers.

Survey Sec. II.3: intelligent features allow the system "to respond by,
for example, adjusting its duty cycle to conserve energy when resources
are limited"; Sec. IV calls the ability "to adapt its activity to its
energy status" essential. These controllers adjust the node's measurement
interval from whatever energy telemetry the architecture exposes:

* :class:`FixedDutyCycle` — no adaptation (what a non-energy-aware system
  is stuck with).
* :class:`ThresholdDutyCycle` — staircase of rates vs. state of charge;
  needs at least a store-voltage estimate.
* :class:`EnergyNeutralController` — Kansal-style: match long-run
  consumption to an exponentially-weighted estimate of harvested power;
  needs input-power telemetry, i.e. a fully monitored architecture.

Controllers degrade gracefully: given ``None`` telemetry they hold the
current rate, so wiring a smart controller to a blind platform simply
yields fixed-duty behaviour — the architectural point of experiment E7.
"""

from __future__ import annotations

import abc

from .node import WirelessSensorNode

__all__ = [
    "DutyCycleController",
    "FixedDutyCycle",
    "ThresholdDutyCycle",
    "EnergyNeutralController",
]


class DutyCycleController(abc.ABC):
    """Strategy adjusting a node's measurement interval from telemetry."""

    @abc.abstractmethod
    def update(self, node: WirelessSensorNode, soc: float | None,
               input_power_w: float | None, dt: float) -> None:
        """Adjust ``node``'s duty cycle given the visible energy status.

        ``soc`` and ``input_power_w`` are ``None`` when the architecture
        does not expose them (survey monitoring-capability axis).
        """


class _BatchedController:
    """A controller group lowered over lanes (see kernel.batched).

    ``update(fire, soc, soc_none, input_power)`` is the masked twin of
    :meth:`DutyCycleController.update`: ``fire`` marks the lanes whose
    manager fired this step, ``soc``/``soc_none`` carry the per-lane SoC
    estimate and its None-mask, and ``input_power`` is a per-lane row or
    ``None`` below FULL monitoring capability.
    """

    __slots__ = ("controllers", "update", "writeback")

    def __init__(self, controllers, update, writeback):
        self.controllers = controllers
        self.update = update
        self.writeback = writeback


class FixedDutyCycle(DutyCycleController):
    """Never adapts; the baseline for experiment E7."""

    def __init__(self, interval_s: float = 60.0):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s

    def update(self, node: WirelessSensorNode, soc, input_power_w, dt) -> None:
        node.set_measurement_interval(self.interval_s)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, controllers, node):
        """Set the fixed interval on every firing lane, like the scalar."""
        from ..simulation.kernel.protocol import ensure_unmodified
        from ..simulation.kernel.batched import gather
        for controller in controllers:
            ensure_unmodified(controller, FixedDutyCycle, "update")
        interval = gather(controllers, lambda c: c.interval_s)

        def update(fire, soc, soc_none, input_power):
            node.set_interval(fire, interval)

        def writeback() -> None:
            return None

        return _BatchedController(tuple(controllers), update, writeback)


class ThresholdDutyCycle(DutyCycleController):
    """Staircase adaptation on state of charge.

    Parameters
    ----------
    levels:
        Sequence of ``(soc_threshold, interval_s)`` pairs, thresholds
        descending; the first pair whose threshold the SoC meets or
        exceeds sets the interval. A final catch-all ``(0.0, hibernate)``
        is required.
    hysteresis:
        SoC margin required before switching to a *faster* level, to stop
        chatter around a threshold.
    """

    def __init__(self, levels: tuple = ((0.7, 30.0), (0.4, 120.0),
                                        (0.15, 600.0), (0.0, 3600.0)),
                 hysteresis: float = 0.03):
        if not levels:
            raise ValueError("levels must be non-empty")
        thresholds = [t for t, _ in levels]
        if thresholds != sorted(thresholds, reverse=True):
            raise ValueError("level thresholds must be descending")
        if thresholds[-1] != 0.0:
            raise ValueError("last level must have threshold 0.0 (catch-all)")
        for _, interval in levels:
            if interval <= 0:
                raise ValueError("intervals must be positive")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.levels = tuple((float(t), float(i)) for t, i in levels)
        self.hysteresis = hysteresis
        self._current_index = len(self.levels) - 1

    def update(self, node: WirelessSensorNode, soc, input_power_w, dt) -> None:
        if soc is None:
            return  # blind platform: hold the current rate
        index = next(i for i, (threshold, _) in enumerate(self.levels)
                     if soc >= threshold)
        if index < self._current_index:
            # Moving to a faster level: require the hysteresis margin.
            threshold = self.levels[index][0]
            if soc < threshold + self.hysteresis:
                index = self._current_index
        self._current_index = index
        node.set_measurement_interval(self.levels[index][1])

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, controllers, node):
        """Vectorized staircase: per-lane level index with hysteresis.

        Thresholds are descending, so the scalar ``next(...)`` search is
        the argmax of the first satisfied row; lanes differing only in
        level *values* share the ``(n, levels)`` arrays, but the level
        count must match across the batch.
        """
        import numpy as np

        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        from ..simulation.kernel.batched import gather

        n_levels = len(self.levels)
        for controller in controllers:
            ensure_unmodified(controller, ThresholdDutyCycle, "update")
            if len(controller.levels) != n_levels:
                raise LoweringUnsupported(
                    "threshold controllers in a batch must share the "
                    "level count", component=type(controller).__name__,
                    capability="level count shared across the group")
        thresholds = np.array([[t for t, _ in c.levels]
                               for c in controllers], dtype=np.float64)
        intervals = np.array([[i for _, i in c.levels]
                              for c in controllers], dtype=np.float64)
        hysteresis = gather(controllers, lambda c: c.hysteresis)
        index = np.array([c._current_index for c in controllers],
                         dtype=np.int64)

        def update(fire, soc, soc_none, input_power):
            nonlocal index
            act = fire & ~soc_none
            if not act.any():
                return
            # First level whose threshold the SoC meets (thresholds
            # descend and end at 0.0, so every non-negative SoC matches).
            first = np.argmax(soc[:, None] >= thresholds, axis=1)
            chosen_thr = np.take_along_axis(
                thresholds, first[:, None], axis=1)[:, 0]
            blocked = (first < index) & (soc < chosen_thr + hysteresis)
            new_index = np.where(blocked, index, first)
            index = np.where(act, new_index, index)
            node.set_interval(act, np.take_along_axis(
                intervals, index[:, None], axis=1)[:, 0])

        def writeback() -> None:
            for k, controller in enumerate(controllers):
                controller._current_index = int(index[k])

        return _BatchedController(tuple(controllers), update, writeback)


class EnergyNeutralController(DutyCycleController):
    """Energy-neutral operation: spend what you harvest, no more.

    Tracks an exponentially-weighted moving average of harvested power and
    sets the measurement rate so that node demand matches a ``margin``
    fraction of it, steering with a proportional SoC correction toward a
    target SoC (classic Kansal-style energy-neutral operation). Without
    input-power telemetry it falls back to SoC-only steering; without any
    telemetry it holds rate.

    Parameters
    ----------
    target_soc:
        SoC the controller regulates around.
    margin:
        Fraction of estimated harvest the node may spend (<1 leaves
        headroom for estimation error).
    ewma_tau_s:
        Time constant of the harvest estimator.
    min_interval_s / max_interval_s:
        Duty-cycle clamp.
    """

    def __init__(self, target_soc: float = 0.6, margin: float = 0.9,
                 ewma_tau_s: float = 6 * 3600.0, min_interval_s: float = 5.0,
                 max_interval_s: float = 3600.0):
        if not 0.0 < target_soc < 1.0:
            raise ValueError("target_soc must be in (0, 1)")
        if not 0.0 < margin <= 1.0:
            raise ValueError("margin must be in (0, 1]")
        if ewma_tau_s <= 0:
            raise ValueError("ewma_tau_s must be positive")
        if not 0.0 < min_interval_s < max_interval_s:
            raise ValueError("need 0 < min_interval_s < max_interval_s")
        self.target_soc = target_soc
        self.margin = margin
        self.ewma_tau_s = ewma_tau_s
        self.min_interval_s = min_interval_s
        self.max_interval_s = max_interval_s
        self._harvest_estimate_w = None

    @property
    def harvest_estimate_w(self) -> float | None:
        """Current EWMA of harvested power (None before first telemetry)."""
        return self._harvest_estimate_w

    def update(self, node: WirelessSensorNode, soc, input_power_w, dt) -> None:
        if input_power_w is not None:
            if self._harvest_estimate_w is None:
                self._harvest_estimate_w = input_power_w
            else:
                alpha = min(1.0, dt / self.ewma_tau_s)
                self._harvest_estimate_w += alpha * (
                    input_power_w - self._harvest_estimate_w)

        if self._harvest_estimate_w is None and soc is None:
            return  # blind platform

        budget = self._harvest_estimate_w or 0.0
        budget *= self.margin
        if soc is not None:
            # Proportional steering: above target spend more, below spend less.
            budget *= max(0.0, 1.0 + 2.0 * (soc - self.target_soc))

        spendable = budget - node.sleep_power_w
        if spendable <= 0:
            node.set_measurement_interval(self.max_interval_s)
            return
        interval = node.measurement_energy() / spendable
        interval = min(max(interval, self.min_interval_s), self.max_interval_s)
        node.set_measurement_interval(interval)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, controllers, node):
        """Vectorized energy-neutral law with a per-lane EWMA estimate.

        The estimator's None-before-first-telemetry state becomes a
        ``has_estimate`` mask; every arithmetic step copies the scalar
        expression order (seed, EWMA blend, margin, SoC steering, clamp).
        Lanes whose ``spendable`` margin is non-positive take the
        max-interval branch through a mask, so the division producing
        inf/nan on those lanes is discarded exactly where the scalar
        code returns early.
        """
        import numpy as np

        from ..simulation.kernel.protocol import ensure_unmodified
        from ..simulation.kernel.batched import gather

        for controller in controllers:
            ensure_unmodified(controller, EnergyNeutralController, "update")
        target = gather(controllers, lambda c: c.target_soc)
        margin = gather(controllers, lambda c: c.margin)
        alpha = gather(controllers, lambda c: min(1.0, dt / c.ewma_tau_s))
        min_interval = gather(controllers, lambda c: c.min_interval_s)
        max_interval = gather(controllers, lambda c: c.max_interval_s)
        sleep = gather(node.nodes, lambda n: n.sleep_power_w)
        measure_energy = gather(node.nodes, lambda n: n.measurement_energy())
        estimate = gather(
            controllers,
            lambda c: c._harvest_estimate_w
            if c._harvest_estimate_w is not None else 0.0)
        has_estimate = np.array(
            [c._harvest_estimate_w is not None for c in controllers])

        def update(fire, soc, soc_none, input_power):
            nonlocal estimate, has_estimate
            if input_power is not None:
                seed = fire & ~has_estimate
                blend = fire & has_estimate
                estimate = np.where(
                    blend,
                    estimate + alpha * (input_power - estimate),
                    np.where(seed, input_power, estimate))
                has_estimate = has_estimate | fire
            act = fire & ~(~has_estimate & soc_none)
            if not act.any():
                return
            budget = np.where(has_estimate, estimate, 0.0) * margin
            steer = 1.0 + 2.0 * (soc - target)
            steer = np.where(steer > 0.0, steer, 0.0)
            budget = np.where(soc_none, budget, budget * steer)
            spendable = budget - sleep
            starved = spendable <= 0.0
            interval = measure_energy / spendable
            interval = np.minimum(np.maximum(interval, min_interval),
                                  max_interval)
            node.set_interval(act, np.where(starved, max_interval, interval))

        def writeback() -> None:
            for k, controller in enumerate(controllers):
                controller._harvest_estimate_w = \
                    float(estimate[k]) if has_estimate[k] else None

        return _BatchedController(tuple(controllers), update, writeback)
