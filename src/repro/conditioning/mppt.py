"""Maximum power point tracking algorithms and fixed-point alternatives.

Survey Sec. II.1: "System A uses a maximum power point tracking (MPPT)
arrangement that works to ensure that the energy harvesters operate at
their optimal point. Conversely, System B ... operate[s] at a fixed point
which offers a compromise between efficiency and quiescent current draw."
And Sec. IV: "Many of the systems implement some form of MPPT, which is
important providing that the overhead of implementing it does not exceed
the delivered benefits. Often this is deployment-specific."

Each tracker is a strategy object consumed by
:class:`repro.conditioning.InputConditioner`. A tracker selects the
harvester's operating voltage each step and declares its costs:

* ``quiescent_current_a`` — standing current of the tracker electronics
  (an MPPT controller IC draws more than a resistor divider);
* a *sampling blackout*: fractional open-circuit-voltage trackers must
  periodically disconnect the harvester to sample Voc, losing harvest
  during the sample window.

Implemented trackers:

* :class:`OracleMPPT` — always at the true MPP; zero overhead. The upper
  bound used to normalise tracking efficiency in experiment E5.
* :class:`PerturbObserve` — classic hill climbing with direction memory.
* :class:`FractionalOpenCircuit` — ``V = k * Voc`` with periodic Voc
  sampling (k ~ 0.76 for PV; 0.5 exact for Thevenin sources).
* :class:`IncrementalConductance` — dI/dV vs -I/V comparison.
* :class:`FixedVoltage` — System-B-style static operating point.

The hill climbs (P&O, incremental conductance) apply up to 64 control
updates per simulation step against one ambient value. Their fast tiers
skip the updates that only repeat an exact limit cycle (see
:func:`perturb_observe_updates`, :func:`incremental_conductance_updates`
and ``docs/kernel.md``); the legacy ``step`` methods stay naive and are
the differential oracle.
"""

from __future__ import annotations

from ..spec.registry import register

import abc

from ..harvesters.base import Harvester

__all__ = [
    "MPPTracker",
    "TrackerStep",
    "OracleMPPT",
    "PerturbObserve",
    "FractionalOpenCircuit",
    "IncrementalConductance",
    "FixedVoltage",
]


#: Lag, in control updates, at which the hill-climb fast-forward compares
#: a state with an earlier one. A repeat at lag 4 means the state cycles
#: with period 1, 2 or 4; longer cycles run every update.
CYCLE_LAG = 4


def perturb_observe_updates(power_at, ambient: float, voc: float,
                            step_fraction: float, voltage: float,
                            last_power, direction: float, updates: int,
                            fast_forward: bool = True):
    """Apply ``updates`` P&O control updates against one ambient value.

    The loop body is :meth:`PerturbObserve.step`'s, operator for
    operator; ``last_power`` is ``None`` until a power has been observed.
    Returns the new ``(voltage, last_power, direction)``.

    With ``fast_forward``, every :data:`CYCLE_LAG` updates the state is
    compared, by float equality with no tolerance, with the state
    :data:`CYCLE_LAG` updates earlier. Within one step the update law is
    a deterministic function of that state, so after a repeat at update
    ``m`` the state cycles with a period dividing the lag and the
    remaining ``updates - m`` collapse to ``(updates - m) % CYCLE_LAG``:
    the result is the naive loop's, bit for bit. Sound only when
    ``power_at`` is pure (see
    :func:`~repro.simulation.kernel.protocol.is_library_harvester`);
    pass ``fast_forward=False`` to run every update.
    """
    mark_v, mark_p, mark_d = voltage, last_power, direction
    done = 0
    while done < updates:
        block = updates - done
        if block > CYCLE_LAG:
            block = CYCLE_LAG
        for _ in range(block):
            power = power_at(voltage, ambient)
            if last_power is not None and power < last_power:
                direction = -direction
            last_power = power
            voltage += direction * step_fraction * voc
            voltage = min(max(voltage, 0.0), voc)
        done += block
        if fast_forward and done < updates:
            if voltage == mark_v and last_power == mark_p and \
                    direction == mark_d:
                updates = done + (updates - done) % CYCLE_LAG
            else:
                mark_v, mark_p, mark_d = voltage, last_power, direction
    return voltage, last_power, direction


def incremental_conductance_updates(current_at, ambient: float, voc: float,
                                    step_fraction: float,
                                    probe_fraction: float, voltage: float,
                                    updates: int, fast_forward: bool = True):
    """Apply ``updates`` IncCond control updates against one ambient value.

    The loop body is :meth:`IncrementalConductance.step`'s, operator for
    operator, including the equality branch that keeps the stored
    (possibly unclamped) voltage. Returns the new stored voltage.

    The update law reads only the stored voltage, so with
    ``fast_forward`` the voltage is the whole cycle state: every
    :data:`CYCLE_LAG` updates it is compared, by float equality, with
    the voltage :data:`CYCLE_LAG` updates earlier, and on a repeat at
    update ``m`` the remaining ``updates - m`` collapse to
    ``(updates - m) % CYCLE_LAG`` (see :func:`perturb_observe_updates`).
    Sound only when ``current_at`` is pure; pass ``fast_forward=False``
    to run every update.
    """
    mark = voltage
    done = 0
    while done < updates:
        block = updates - done
        if block > CYCLE_LAG:
            block = CYCLE_LAG
        for _ in range(block):
            v = min(max(voltage, 1e-6), voc)
            dv = max(probe_fraction * voc, 1e-9)
            i0 = current_at(v, ambient)
            i1 = current_at(min(v + dv, voc), ambient)
            di_dv = (i1 - i0) / dv
            target_slope = -i0 / v
            if di_dv > target_slope:
                voltage = min(v + step_fraction * voc, voc)
            elif di_dv < target_slope:
                voltage = max(v - step_fraction * voc, 0.0)
        done += block
        if fast_forward and done < updates:
            if voltage == mark:
                updates = done + (updates - done) % CYCLE_LAG
            else:
                mark = voltage
    return voltage


def _cycle_budgets(budget, k: int, repeats):
    """The :func:`perturb_observe_updates` rule per lane, at update ``k``.

    ``budget`` holds each lane's update count for the step and
    ``repeats`` marks the lanes whose state equals their state
    :data:`CYCLE_LAG` updates earlier. A repeating lane with updates
    left keeps only ``(budget - k) % CYCLE_LAG`` of them.
    """
    import numpy as np
    cycling = (budget > k) & repeats
    if cycling.any():
        return np.where(cycling, k + (budget - k) % CYCLE_LAG, budget)
    return budget


class TrackerStep:
    """Result of one tracker decision.

    Attributes
    ----------
    voltage:
        Selected operating voltage, V.
    harvesting:
        False while the tracker has the harvester disconnected (Voc
        sampling blackout); no power is extracted in that state.
    duty:
        Fraction of the step during which harvesting actually occurs, in
        [0, 1]. Trackers whose sampling blackout is shorter than the
        simulation step express the average loss here instead of a full
        ``harvesting=False`` step.
    """

    __slots__ = ("voltage", "harvesting", "duty")

    def __init__(self, voltage: float, harvesting: bool = True, duty: float = 1.0):
        if voltage < 0:
            raise ValueError(f"voltage must be non-negative, got {voltage}")
        if not 0.0 <= duty <= 1.0:
            raise ValueError(f"duty must be in [0, 1], got {duty}")
        self.voltage = voltage
        self.harvesting = harvesting
        self.duty = duty


class MPPTracker(abc.ABC):
    """Operating-point selection strategy.

    Parameters
    ----------
    quiescent_current_a:
        Standing supply current of the tracker electronics, amps. The
        system model charges this against the storage continuously — the
        "overhead" side of the survey's MPPT trade-off.
    """

    def __init__(self, quiescent_current_a: float = 0.0):
        if quiescent_current_a < 0:
            raise ValueError("quiescent_current_a must be non-negative")
        self.quiescent_current_a = quiescent_current_a

    @abc.abstractmethod
    def step(self, harvester: Harvester, ambient: float, dt: float) -> TrackerStep:
        """Select the operating point for the coming ``dt`` seconds."""

    def lower_kernel(self, dt: float):
        """Kernel closure ``(harvester, ambient, dt) -> TrackerStep``.

        Trackers are stateful strategy objects whose decisions the kernel
        replays through their own code, so the bound :meth:`step` is the
        lowering — exact for every tracker, built-in or user-defined.
        Subclasses may override this to hoist run constants.
        """
        return self.step

    def lower_batched(self, dt: float, siblings):
        """Batched schedule builder (see kernel.batched.TrackerSchedule).

        A batched tracker precomputes its whole-run decisions as
        ``(n_steps, width)`` tensors from the ambient tensor. Trackers
        whose decisions depend only on ambient values and the step index
        vectorize in closed form; hill-climbing trackers (P&O,
        incremental conductance) feed harvested power back into the next
        decision and instead *replay* their update law row by row over
        per-lane state arrays, querying the batched I-V surface through
        its ``power_at_row``/``current_at_row`` hooks (declared via
        ``needs_iv_rows`` on the prepare object). The base hook refuses;
        subclasses opt in.
        """
        from ..simulation.kernel.protocol import LoweringUnsupported
        raise LoweringUnsupported(
            f"{type(self).__name__} has no batched lowering")

    def reset(self) -> None:
        """Clear internal state (called on hot-swap of the harvester)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(iq={self.quiescent_current_a * 1e6:.2f} uA)"


@register("tracker", "oracle")
class OracleMPPT(MPPTracker):
    """Perfect tracker: always at the true MPP, no overhead.

    Physically unrealisable; used as the normalising upper bound in the
    MPPT trade-off experiment (E5).
    """

    def step(self, harvester: Harvester, ambient: float, dt: float) -> TrackerStep:
        return TrackerStep(harvester.mpp(ambient).voltage)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        from ..simulation.kernel.batched import TrackerSchedule, same_class
        same_class(siblings, "tracker")

        class _OraclePrepare:
            @staticmethod
            def prepare(surface, values):
                return TrackerSchedule(surface.mpp_voltage())

        return _OraclePrepare()


@register("tracker", "perturb_observe")
class PerturbObserve(MPPTracker):
    """Classic perturb-and-observe hill climbing.

    Perturbs the operating voltage by ``step_fraction`` of Voc each cycle;
    keeps direction while power rises, reverses when it falls. Converges to
    a limit cycle around the MPP (the oscillation loss is the algorithm's
    intrinsic tracking deficit) and momentarily walks the wrong way when
    conditions change fast — both visible in experiment E5.

    Parameters
    ----------
    step_fraction:
        Perturbation size as a fraction of the current Voc.
    update_period:
        Seconds between perturbations (the algorithm's control rate).
    quiescent_current_a:
        Controller standing current (MPPT ICs: a few uA to tens of uA).
    """

    def __init__(self, step_fraction: float = 0.02, update_period: float = 1.0,
                 quiescent_current_a: float = 5e-6):
        super().__init__(quiescent_current_a)
        if not 0.0 < step_fraction < 0.5:
            raise ValueError("step_fraction must be in (0, 0.5)")
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self.step_fraction = step_fraction
        self.update_period = update_period
        self.reset()

    def reset(self) -> None:
        self._voltage = None
        self._last_power = None
        self._direction = 1.0
        self._elapsed = 0.0

    def step(self, harvester: Harvester, ambient: float, dt: float) -> TrackerStep:
        voc = harvester.open_circuit_voltage(ambient)
        if voc <= 0:
            # Source dead: hold position, re-seed on recovery.
            self._voltage = None
            self._last_power = None
            return TrackerStep(0.0)

        if self._voltage is None:
            # Seed at half Voc (safe for every curve shape in the library).
            self._voltage = 0.5 * voc

        self._elapsed += dt
        updates = int(self._elapsed / self.update_period)
        self._elapsed -= updates * self.update_period
        # At coarse simulation steps several control updates elapse per dt;
        # apply them sequentially against the same ambient value.
        for _ in range(min(updates, 64)):
            power = harvester.power_at(self._voltage, ambient)
            if self._last_power is not None and power < self._last_power:
                self._direction = -self._direction
            self._last_power = power
            self._voltage += self._direction * self.step_fraction * voc
            self._voltage = min(max(self._voltage, 0.0), voc)
        return TrackerStep(self._voltage)

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Kernel closure: :meth:`step` with the hill climb fast-forwarded.

        The closure reads and writes the tracker's own attributes, so it
        and :meth:`step` can take turns on one tracker. Its update loop
        is :func:`perturb_observe_updates`, which skips the repeats of an
        exact limit cycle for library harvesters only (pure ``power_at``);
        a user harvester gets every update. The loop queries the
        ``power_at`` of :meth:`~repro.harvesters.base.Harvester.lower_iv`,
        built once per step, so a library model evaluates its per-ambient
        physics once rather than once per update. The closure twins the
        :meth:`step` defined here, so when a subclass overrides it or a
        wrapper replaces it on the class (an instrumenting tracer, say),
        the lowering is the bound ``step`` that is actually installed.
        """
        from ..simulation.kernel.protocol import is_library_harvester
        if type(self).step is not _PERTURB_OBSERVE_STEP:
            return self.step
        tracker = self
        memo_harvester = None
        memo_pure = False

        def step(harvester: Harvester, ambient: float,
                 dt: float) -> TrackerStep:
            nonlocal memo_harvester, memo_pure
            voc = harvester.open_circuit_voltage(ambient)
            if voc <= 0:
                tracker._voltage = None
                tracker._last_power = None
                return TrackerStep(0.0)
            voltage = tracker._voltage
            if voltage is None:
                voltage = 0.5 * voc
            period = tracker.update_period
            elapsed = tracker._elapsed + dt
            updates = int(elapsed / period)
            tracker._elapsed = elapsed - updates * period
            if updates:
                if harvester is not memo_harvester:
                    memo_harvester = harvester
                    memo_pure = is_library_harvester(harvester)
                voltage, tracker._last_power, tracker._direction = \
                    perturb_observe_updates(
                        harvester.lower_iv(ambient)[0], ambient, voc,
                        tracker.step_fraction, voltage, tracker._last_power,
                        tracker._direction, min(updates, 64), memo_pure)
            tracker._voltage = voltage
            return TrackerStep(voltage)

        return step

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Batched P&O: per-lane replay of the hill climb.

        P&O feeds harvested power back into its next decision, so the
        schedule cannot be a closed-form tensor. Instead ``prepare``
        replays :meth:`step` row by row with per-lane state arrays
        (voltage, last power, direction, elapsed), evaluating power on
        the batched I-V surface's ``power_at_row``. Every mask mirrors
        a branch or early return of the scalar update law, and the
        ``None`` sentinels become explicit has-value masks, so each
        lane's voltage walk is bit-identical to its scalar run. The
        limit-cycle fast-forward of :func:`perturb_observe_updates` runs
        per lane: every :data:`CYCLE_LAG` updates, a lane whose state
        repeats the state one lag earlier cuts its remaining update
        budget to the remainder, and the row's update loop ends once no
        lane has budget left.
        """
        import numpy as np
        from ..simulation.kernel.batched import (
            TrackerSchedule,
            gather,
            same_class,
        )
        same_class(siblings, "tracker")

        class _PandOPrepare:
            #: Requires a surface with per-row I-V access (checked at
            #: compile time by InputConditioner.lower_batched).
            needs_iv_rows = True

            @staticmethod
            def prepare(surface, values):
                n_steps, width = values.shape
                lanes = siblings[:width] if width < len(siblings) \
                    else siblings
                period = gather(lanes, lambda t: t.update_period)
                step_frac = gather(lanes, lambda t: t.step_fraction)
                volt = gather(lanes, lambda t: t._voltage
                              if t._voltage is not None else 0.0)
                has_v = np.array([t._voltage is not None for t in lanes])
                last_p = gather(lanes, lambda t: t._last_power
                                if t._last_power is not None else 0.0)
                has_p = np.array([t._last_power is not None for t in lanes])
                direction = gather(lanes, lambda t: t._direction)
                elapsed = gather(lanes, lambda t: t._elapsed)
                voltage = np.empty((n_steps, width))
                for i in range(n_steps):
                    voc = surface.voc[i]
                    alive = voc > 0.0
                    # Dead source: drop state, re-seed on recovery.
                    has_v = has_v & alive
                    has_p = has_p & alive
                    volt = np.where(alive & ~has_v, 0.5 * voc, volt)
                    has_v = has_v | alive
                    # The scalar early-return precedes the accumulator.
                    elapsed = np.where(alive, elapsed + dt, elapsed)
                    updates = np.where(alive,
                                       np.trunc(elapsed / period), 0.0)
                    elapsed = elapsed - updates * period
                    budget = np.minimum(updates, 64.0)
                    n_upd = int(budget.max())
                    k = 0
                    while k < n_upd:
                        if k % CYCLE_LAG == 0:
                            if k:
                                budget = _cycle_budgets(
                                    budget, k, mark_hp & (volt == mark_v) &
                                    (last_p == mark_p) &
                                    (direction == mark_d))
                                n_upd = int(budget.max())
                                if k >= n_upd:
                                    break
                            mark_v, mark_p = volt, last_p
                            mark_d, mark_hp = direction, has_p
                        act = budget > k
                        k += 1
                        power = surface.power_at_row(i, volt)
                        flip = act & has_p & (power < last_p)
                        direction = np.where(flip, -direction, direction)
                        last_p = np.where(act, power, last_p)
                        has_p = has_p | act
                        stepped = volt + direction * step_frac * voc
                        volt = np.where(
                            act,
                            np.minimum(np.maximum(stepped, 0.0), voc),
                            volt)
                    voltage[i] = np.where(alive, volt, 0.0)

                def writeback() -> None:
                    n_all = (len(siblings),)
                    f_v = np.broadcast_to(volt, n_all)
                    f_hv = np.broadcast_to(has_v, n_all)
                    f_p = np.broadcast_to(last_p, n_all)
                    f_hp = np.broadcast_to(has_p, n_all)
                    f_dir = np.broadcast_to(direction, n_all)
                    f_el = np.broadcast_to(elapsed, n_all)
                    for k, tracker in enumerate(siblings):
                        tracker._voltage = float(f_v[k]) if f_hv[k] else None
                        tracker._last_power = \
                            float(f_p[k]) if f_hp[k] else None
                        tracker._direction = float(f_dir[k])
                        tracker._elapsed = float(f_el[k])

                return TrackerSchedule(voltage, writeback=writeback)

        return _PandOPrepare()


#: The update law :meth:`PerturbObserve.lower_kernel` twins.
_PERTURB_OBSERVE_STEP = PerturbObserve.step


@register("tracker", "fractional_voc")
class FractionalOpenCircuit(MPPTracker):
    """Fractional open-circuit-voltage tracking: ``V = k * Voc``.

    The cheapest MPPT in silicon: periodically disconnect the harvester,
    sample Voc, then regulate the operating point at a fixed fraction of
    it. For single-diode PV the MPP sits near 0.72-0.82 of Voc; for any
    Thevenin source exactly 0.5. The cost is the sampling blackout — no
    harvest during the sample window — plus a small standing current.

    Parameters
    ----------
    fraction:
        k in ``V = k * Voc``.
    sample_period:
        Seconds between Voc samples.
    sample_time:
        Blackout duration per sample, seconds.
    quiescent_current_a:
        Controller standing current.
    """

    def __init__(self, fraction: float = 0.76, sample_period: float = 60.0,
                 sample_time: float = 0.5, quiescent_current_a: float = 1e-6):
        super().__init__(quiescent_current_a)
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        if sample_period <= 0 or sample_time < 0:
            raise ValueError("sample_period must be positive, sample_time >= 0")
        if sample_time >= sample_period:
            raise ValueError("sample_time must be < sample_period")
        self.fraction = fraction
        self.sample_period = sample_period
        self.sample_time = sample_time
        self.reset()

    def reset(self) -> None:
        self._since_sample = float("inf")  # force an immediate first sample
        self._target = 0.0

    @property
    def blackout_fraction(self) -> float:
        """Fraction of time lost to Voc sampling."""
        return self.sample_time / self.sample_period

    def step(self, harvester: Harvester, ambient: float, dt: float) -> TrackerStep:
        self._since_sample += dt
        if self._since_sample >= self.sample_period:
            voc = harvester.open_circuit_voltage(ambient)
            self._target = self.fraction * voc
            if dt <= self.sample_time:
                # Blackout fully resolvable: this whole step is a sample.
                self._since_sample = 0.0
                return TrackerStep(self._target, harvesting=False)
            if dt < self.sample_period:
                # One sample inside this step: shave its duty.
                self._since_sample = 0.0
                return TrackerStep(self._target, duty=1.0 - self.sample_time / dt)
            # Coarse step spanning >= one sample period: charge the
            # long-run average blackout fraction.
            self._since_sample = 0.0
            return TrackerStep(self._target, duty=1.0 - self.blackout_fraction)
        return TrackerStep(self._target)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Batched fractional-Voc schedule.

        The sampling schedule depends only on the step index (the
        ``_since_sample`` accumulator advances by the run-constant
        ``dt``), so the whole-run decision tensor is precomputed by a
        lane-vectorized replay of :meth:`step` — including the exact
        float accumulation of ``_since_sample``.
        """
        import numpy as np
        from ..simulation.kernel.batched import (
            TrackerSchedule,
            gather,
            same_class,
        )
        same_class(siblings, "tracker")

        class _FracVocPrepare:
            @staticmethod
            def prepare(surface, values):
                n_steps, width = values.shape
                lanes = siblings[:width] if width < len(siblings) \
                    else siblings
                period = gather(lanes, lambda t: t.sample_period)
                fraction = gather(lanes, lambda t: t.fraction)
                # Per-lane branch selection is a run constant: which of
                # the three sampling regimes applies depends only on dt
                # vs sample_time/sample_period.
                blackout = np.array([dt <= t.sample_time for t in lanes])
                duty_fire = gather(
                    lanes,
                    lambda t: 1.0 if dt <= t.sample_time else
                    (1.0 - t.sample_time / dt if dt < t.sample_period
                     else 1.0 - t.blackout_fraction))
                since = gather(lanes, lambda t: t._since_sample)
                target = gather(lanes, lambda t: t._target)
                voc = surface.voc
                voltage = np.empty((n_steps, width))
                harvesting = np.ones((n_steps, width), dtype=bool)
                duty = np.ones((n_steps, width))
                for i in range(n_steps):
                    since = since + dt
                    fire = since >= period
                    target = np.where(fire, fraction * voc[i], target)
                    since = np.where(fire, 0.0, since)
                    voltage[i] = target
                    harvesting[i] = ~(fire & blackout)
                    duty[i] = np.where(fire, duty_fire, 1.0)

                def writeback() -> None:
                    final_since = np.broadcast_to(since, (len(siblings),))
                    final_target = np.broadcast_to(target, (len(siblings),))
                    for k, tracker in enumerate(siblings):
                        tracker._since_sample = float(final_since[k])
                        tracker._target = float(final_target[k])

                return TrackerSchedule(voltage, harvesting, duty, writeback)

        return _FracVocPrepare()


@register("tracker", "incremental_conductance")
class IncrementalConductance(MPPTracker):
    """Incremental conductance tracking.

    Compares dI/dV against -I/V: at the MPP they are equal, to the left
    of it dI/dV > -I/V, to the right dI/dV < -I/V. Probes the local slope
    with a small voltage delta and steps toward the MPP. More stable than
    P&O under fast irradiance ramps because the *sign* test does not
    confuse a condition change with a self-induced perturbation.

    Parameters
    ----------
    step_fraction:
        Correction step size as a fraction of Voc.
    probe_fraction:
        Voltage delta used to estimate dI/dV, as a fraction of Voc.
    update_period:
        Seconds between corrections.
    quiescent_current_a:
        Controller standing current (needs a multiplier: more than P&O).
    """

    def __init__(self, step_fraction: float = 0.02, probe_fraction: float = 0.005,
                 update_period: float = 1.0, quiescent_current_a: float = 8e-6):
        super().__init__(quiescent_current_a)
        if not 0.0 < step_fraction < 0.5:
            raise ValueError("step_fraction must be in (0, 0.5)")
        if not 0.0 < probe_fraction < step_fraction:
            raise ValueError("probe_fraction must be in (0, step_fraction)")
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self.step_fraction = step_fraction
        self.probe_fraction = probe_fraction
        self.update_period = update_period
        self.reset()

    def reset(self) -> None:
        self._voltage = None
        self._elapsed = 0.0

    def step(self, harvester: Harvester, ambient: float, dt: float) -> TrackerStep:
        voc = harvester.open_circuit_voltage(ambient)
        if voc <= 0:
            self._voltage = None
            return TrackerStep(0.0)
        if self._voltage is None:
            self._voltage = 0.5 * voc

        self._elapsed += dt
        updates = int(self._elapsed / self.update_period)
        self._elapsed -= updates * self.update_period
        for _ in range(min(updates, 64)):
            v = min(max(self._voltage, 1e-6), voc)
            dv = max(self.probe_fraction * voc, 1e-9)
            i0 = harvester.current_at(v, ambient)
            i1 = harvester.current_at(min(v + dv, voc), ambient)
            di_dv = (i1 - i0) / dv
            target_slope = -i0 / v
            if di_dv > target_slope:
                self._voltage = min(v + self.step_fraction * voc, voc)
            elif di_dv < target_slope:
                self._voltage = max(v - self.step_fraction * voc, 0.0)
        return TrackerStep(self._voltage)

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Kernel closure: :meth:`step` with the hill climb fast-forwarded.

        The IncCond twin of :meth:`PerturbObserve.lower_kernel`: the
        closure reads and writes the tracker's own attributes, its update
        loop is :func:`incremental_conductance_updates` over the
        per-step ``current_at`` of
        :meth:`~repro.harvesters.base.Harvester.lower_iv`, which skips
        the repeats of an exact limit cycle for library harvesters only,
        and a ``step`` that a subclass or a wrapper on the class installs in
        place of the one defined here is the lowering instead.
        """
        from ..simulation.kernel.protocol import is_library_harvester
        if type(self).step is not _INCREMENTAL_CONDUCTANCE_STEP:
            return self.step
        tracker = self
        memo_harvester = None
        memo_pure = False

        def step(harvester: Harvester, ambient: float,
                 dt: float) -> TrackerStep:
            nonlocal memo_harvester, memo_pure
            voc = harvester.open_circuit_voltage(ambient)
            if voc <= 0:
                tracker._voltage = None
                return TrackerStep(0.0)
            voltage = tracker._voltage
            if voltage is None:
                voltage = 0.5 * voc
            period = tracker.update_period
            elapsed = tracker._elapsed + dt
            updates = int(elapsed / period)
            tracker._elapsed = elapsed - updates * period
            if updates:
                if harvester is not memo_harvester:
                    memo_harvester = harvester
                    memo_pure = is_library_harvester(harvester)
                voltage = incremental_conductance_updates(
                    harvester.lower_iv(ambient)[1], ambient, voc,
                    tracker.step_fraction, tracker.probe_fraction, voltage,
                    min(updates, 64), memo_pure)
            tracker._voltage = voltage
            return TrackerStep(voltage)

        return step

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Batched incremental conductance: per-lane replay.

        Same structure as the P&O replay — per-lane state arrays stepped
        row by row — with the slope test evaluated through the surface's
        ``current_at_row``. The ``di_dv == target_slope`` equality branch
        keeps the *stored* (possibly unclamped) voltage, exactly like
        the scalar update law. The update law reads only the stored
        voltage, so the P&O replay's per-lane limit-cycle fast-forward
        applies with the voltage as the whole state.
        """
        import numpy as np
        from ..simulation.kernel.batched import (
            TrackerSchedule,
            gather,
            same_class,
        )
        same_class(siblings, "tracker")

        class _IncCondPrepare:
            #: Requires a surface with per-row I-V access (checked at
            #: compile time by InputConditioner.lower_batched).
            needs_iv_rows = True

            @staticmethod
            def prepare(surface, values):
                n_steps, width = values.shape
                lanes = siblings[:width] if width < len(siblings) \
                    else siblings
                period = gather(lanes, lambda t: t.update_period)
                step_frac = gather(lanes, lambda t: t.step_fraction)
                probe_frac = gather(lanes, lambda t: t.probe_fraction)
                volt = gather(lanes, lambda t: t._voltage
                              if t._voltage is not None else 0.0)
                has_v = np.array([t._voltage is not None for t in lanes])
                elapsed = gather(lanes, lambda t: t._elapsed)
                voltage = np.empty((n_steps, width))
                for i in range(n_steps):
                    voc = surface.voc[i]
                    alive = voc > 0.0
                    has_v = has_v & alive
                    volt = np.where(alive & ~has_v, 0.5 * voc, volt)
                    has_v = has_v | alive
                    elapsed = np.where(alive, elapsed + dt, elapsed)
                    updates = np.where(alive,
                                       np.trunc(elapsed / period), 0.0)
                    elapsed = elapsed - updates * period
                    budget = np.minimum(updates, 64.0)
                    n_upd = int(budget.max())
                    k = 0
                    while k < n_upd:
                        if k % CYCLE_LAG == 0:
                            if k:
                                budget = _cycle_budgets(budget, k,
                                                       volt == mark_v)
                                n_upd = int(budget.max())
                                if k >= n_upd:
                                    break
                            mark_v = volt
                        act = budget > k
                        k += 1
                        v = np.minimum(np.maximum(volt, 1e-6), voc)
                        dv = np.maximum(probe_frac * voc, 1e-9)
                        i0 = surface.current_at_row(i, v)
                        i1 = surface.current_at_row(
                            i, np.minimum(v + dv, voc))
                        di_dv = (i1 - i0) / dv
                        target_slope = -i0 / v
                        up = act & (di_dv > target_slope)
                        down = act & (di_dv < target_slope)
                        volt = np.where(
                            up, np.minimum(v + step_frac * voc, voc),
                            np.where(down,
                                     np.maximum(v - step_frac * voc, 0.0),
                                     volt))
                    voltage[i] = np.where(alive, volt, 0.0)

                def writeback() -> None:
                    n_all = (len(siblings),)
                    f_v = np.broadcast_to(volt, n_all)
                    f_hv = np.broadcast_to(has_v, n_all)
                    f_el = np.broadcast_to(elapsed, n_all)
                    for k, tracker in enumerate(siblings):
                        tracker._voltage = float(f_v[k]) if f_hv[k] else None
                        tracker._elapsed = float(f_el[k])

                return TrackerSchedule(voltage, writeback=writeback)

        return _IncCondPrepare()


#: The update law :meth:`IncrementalConductance.lower_kernel` twins.
_INCREMENTAL_CONDUCTANCE_STEP = IncrementalConductance.step


@register("tracker", "fixed_voltage")
class FixedVoltage(MPPTracker):
    """Static operating point — System B's per-module compromise.

    "The demonstration modules produced operate at a fixed point which
    offers a compromise between efficiency and quiescent current draw"
    (survey Sec. II.1). Near-zero standing current; efficiency depends on
    how well the chosen point matches the deployment.

    Parameters
    ----------
    voltage:
        The fixed operating voltage, V (clipped to Voc at runtime).
    quiescent_current_a:
        Standing current (a voltage reference + comparator: well under 1 uA).
    """

    def __init__(self, voltage: float, quiescent_current_a: float = 0.3e-6):
        super().__init__(quiescent_current_a)
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        self.voltage = voltage

    def step(self, harvester: Harvester, ambient: float, dt: float) -> TrackerStep:
        voc = harvester.open_circuit_voltage(ambient)
        return TrackerStep(min(self.voltage, voc))

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        import numpy as np
        from ..simulation.kernel.batched import (
            TrackerSchedule,
            gather,
            same_class,
        )
        same_class(siblings, "tracker")

        class _FixedPrepare:
            @staticmethod
            def prepare(surface, values):
                fixed = gather(siblings[:values.shape[1]]
                               if values.shape[1] < len(siblings)
                               else siblings, lambda t: t.voltage)
                voc = surface.voc
                return TrackerSchedule(np.where(fixed <= voc, fixed, voc))

        return _FixedPrepare()


#: The decision the kernel's channel memo takes whole
#: (:meth:`~repro.conditioning.base.InputConditioner.lower_kernel`): it
#: reads only the harvester's Voc and the live ``voltage``.
_FIXED_VOLTAGE_STEP = FixedVoltage.step
