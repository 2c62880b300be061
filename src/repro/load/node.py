"""Wireless sensor node load model.

The node is the "embedded device" of the survey's architecture diagrams:
a duty-cycled sensor that sleeps at microwatts, periodically wakes to
sense, and transmits measurements over the radio. Because the simulation
step (seconds to minutes) is much longer than individual sense/transmit
events (milliseconds), the node integrates its event energies into an
average demand per step; brown-out behaviour (what happens when the energy
hardware cannot supply) is modelled explicitly, since "the requirement for
the embedded device to adapt its activity to its energy status is
essential" (survey Sec. IV) is precisely about avoiding it.

Brown-out semantics: if the available supply cannot cover even sleep
power, the node dies, loses its pending work, and must reboot (a fixed
energy+time penalty) once supply returns — so dead time is *stickier* than
the outage itself, penalising designs that let the buffer empty.
"""

from __future__ import annotations

from ..spec.registry import register

import enum
from dataclasses import dataclass

from .radio import RadioModel

__all__ = ["NodeState", "NodeStepResult", "WirelessSensorNode"]


class NodeState(enum.Enum):
    RUNNING = "running"
    DEAD = "dead"        # browned out, waiting for supply
    REBOOTING = "rebooting"


@dataclass(frozen=True)
class NodeStepResult:
    """Accounting record for one node step."""

    state: NodeState
    demand_w: float       # what the node asked for
    consumed_w: float     # what it actually drew
    measurements: float   # measurements completed this step
    packets: float        # packets transmitted this step


@register("node", "wireless_sensor_node")
class WirelessSensorNode:
    """Duty-cycled sensing node.

    Parameters
    ----------
    sleep_power_w:
        Sleep-mode draw (RTC + RAM retention; a few uW).
    mcu_active_power_w:
        MCU+sensor draw while processing a measurement.
    sense_time_s:
        Active time per measurement (sensor warm-up + ADC + processing).
    payload_bytes:
        Packet payload per measurement report.
    measurement_interval_s:
        Seconds between measurements (the duty-cycle knob that
        energy-aware managers adjust).
    radio:
        Radio energy model.
    reboot_time_s / reboot_energy_j:
        Penalty paid after a brown-out before useful work resumes.
    """

    def __init__(self, sleep_power_w: float = 6e-6,
                 mcu_active_power_w: float = 9e-3, sense_time_s: float = 0.25,
                 payload_bytes: int = 24, measurement_interval_s: float = 60.0,
                 radio: RadioModel | None = None, reboot_time_s: float = 5.0,
                 reboot_energy_j: float = 0.05):
        if sleep_power_w < 0 or mcu_active_power_w <= 0:
            raise ValueError("invalid power parameters")
        if sense_time_s <= 0:
            raise ValueError("sense_time_s must be positive")
        if measurement_interval_s <= 0:
            raise ValueError("measurement_interval_s must be positive")
        if reboot_time_s < 0 or reboot_energy_j < 0:
            raise ValueError("reboot penalties must be non-negative")
        self.sleep_power_w = sleep_power_w
        self.mcu_active_power_w = mcu_active_power_w
        self.sense_time_s = sense_time_s
        self.payload_bytes = payload_bytes
        self.measurement_interval_s = measurement_interval_s
        self.radio = radio if radio is not None else RadioModel()
        self.reboot_time_s = reboot_time_s
        self.reboot_energy_j = reboot_energy_j

        self.state = NodeState.RUNNING
        self._reboot_remaining = 0.0
        # Lifetime counters.
        self.total_measurements = 0.0
        self.total_packets = 0.0
        self.total_energy_j = 0.0
        self.dead_seconds = 0.0
        self.brownouts = 0

    # ------------------------------------------------------------------
    # Demand model
    # ------------------------------------------------------------------
    def measurement_energy(self) -> float:
        """Energy per measure-and-report event (J).

        Memoized on its inputs: it is queried at least twice per
        simulation step (demand sizing and the step itself) and its
        inputs only change on explicit reconfiguration.
        """
        radio = self.radio
        key = (self.mcu_active_power_w, self.sense_time_s,
               self.payload_bytes, radio.tx_power_w, radio.rx_power_w,
               radio.data_rate_bps, radio.startup_energy_j)
        cached = getattr(self, "_me_memo", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        energy = (self.mcu_active_power_w * self.sense_time_s +
                  self.radio.packet_energy(self.payload_bytes))
        self._me_memo = (key, energy)
        return energy

    def _reboot_power(self) -> float:
        return max(self.sleep_power_w,
                   self.reboot_energy_j / max(self.reboot_time_s, 1e-9))

    def demand_power(self) -> float:
        """Supply power the node currently needs (W).

        While running this is the duty-cycle average; while dead or
        rebooting it is the reboot requirement — the supplier must see the
        true need or a browned-out node could never restart.
        """
        if self.state is not NodeState.RUNNING:
            return self._reboot_power()
        return self.sleep_power_w + \
            self.measurement_energy() / self.measurement_interval_s

    def set_measurement_interval(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.measurement_interval_s = interval_s

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, available_power_w: float, dt: float) -> NodeStepResult:
        """Advance ``dt`` seconds with at most ``available_power_w`` supply.

        The supplier (output conditioner + storage) reports what it can
        deliver; the node consumes up to its demand. Partial supply first
        sacrifices measurements, then — below sleep power — the node dies.
        """
        if available_power_w < 0:
            raise ValueError("available_power_w must be non-negative")
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")

        if self.state is NodeState.DEAD:
            if available_power_w >= self.sleep_power_w:
                self.state = NodeState.REBOOTING
                self._reboot_remaining = self.reboot_time_s
            else:
                self.dead_seconds += dt
                return NodeStepResult(NodeState.DEAD, 0.0, 0.0, 0.0, 0.0)

        if self.state is NodeState.REBOOTING:
            need = self._reboot_power()
            if available_power_w < need:
                self.state = NodeState.DEAD
                self.dead_seconds += dt
                return NodeStepResult(NodeState.DEAD, need, 0.0, 0.0, 0.0)
            reboot_spent = min(dt, max(self._reboot_remaining, 0.0))
            self._reboot_remaining -= dt
            # Bill reboot power only for the time actually spent rebooting;
            # the rest of a coarse step runs at sleep power. Without this a
            # multi-minute step would charge minutes of reboot-rate power
            # for a seconds-long boot and lock the node into a brownout
            # oscillation.
            consumed = (need * reboot_spent +
                        self.sleep_power_w * (dt - reboot_spent)) / dt
            self.total_energy_j += consumed * dt
            if self._reboot_remaining <= 0:
                self.state = NodeState.RUNNING
            self.dead_seconds += reboot_spent
            return NodeStepResult(NodeState.REBOOTING, need, consumed, 0.0, 0.0)

        # RUNNING
        demand = self.demand_power()
        if available_power_w < self.sleep_power_w:
            self.state = NodeState.DEAD
            self.brownouts += 1
            self.dead_seconds += dt
            return NodeStepResult(NodeState.DEAD, demand, 0.0, 0.0, 0.0)

        consumed = min(demand, available_power_w)
        # Work achieved: measurements funded by the margin above sleep.
        full_rate = dt / self.measurement_interval_s
        margin = consumed - self.sleep_power_w
        needed_margin = demand - self.sleep_power_w
        if needed_margin <= 0:
            done = 0.0
        else:
            done = full_rate * min(1.0, margin / needed_margin)
        self.total_measurements += done
        self.total_packets += done
        self.total_energy_j += consumed * dt
        return NodeStepResult(NodeState.RUNNING, demand, consumed, done, done)

    # ------------------------------------------------------------------
    # Kernel lowering (see repro.simulation.kernel)
    # ------------------------------------------------------------------
    def lower_kernel(self, dt: float):
        """Lowered node: the demand/step state machine, bound.

        The node's brown-out/reboot state machine runs through its own
        (already memoized) methods inside the kernel, so the bound
        methods are the lowering — exact for this class and for any
        subclass that overrides the state machine.
        """
        from ..simulation.kernel.protocol import NodeLowering
        return NodeLowering(self, self.demand_power, self.step)

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings):
        """Lockstep brown-out state machine over ``(n,)`` lanes.

        Replicates :meth:`step` branch by branch with masks: each lane
        takes exactly one of {stay-dead, reboot-fail, rebooting,
        brown-out, running} per step, and every counter receives the
        single addition the scalar branch would perform. The demand
        model hangs off the per-lane ``state.interval`` array: manager
        lowerings retune it mid-run through ``set_interval``, which
        rebinds the interval-derived arrays with the same elementwise
        expressions the scalar :meth:`demand_power` evaluates fresh on
        every call.
        """
        import numpy as np
        from ..simulation.kernel.protocol import ensure_unmodified
        from ..simulation.kernel.batched import (
            STATE_DEAD,
            STATE_REBOOTING,
            STATE_RUNNING,
            BatchState,
            BatchedNodeLowering,
            gather,
            node_state_from_code,
            same_class,
        )
        same_class(siblings, "node")
        for node in siblings:
            ensure_unmodified(node, WirelessSensorNode, "demand_power",
                              "step", "measurement_energy", "_reboot_power")
        sleep = gather(siblings, lambda n: n.sleep_power_w)
        measure_energy = gather(siblings, lambda n: n.measurement_energy())
        reboot_power = gather(siblings, lambda n: n._reboot_power())
        reboot_time = gather(siblings, lambda n: n.reboot_time_s)

        from ..simulation.kernel.batched import _STATE_CODE
        state = BatchState()
        # Demand model, per lane. The initial arrays are Python-hoisted
        # (exact scalar bits); set_interval rebinds them with IEEE-exact
        # elementwise twins of the same expressions.
        state.interval = gather(siblings, lambda n: n.measurement_interval_s)
        state.run_demand = gather(
            siblings,
            lambda n: n.sleep_power_w +
            n.measurement_energy() / n.measurement_interval_s)
        state.full_rate = gather(siblings,
                                 lambda n: dt / n.measurement_interval_s)
        state.needed_margin = gather(
            siblings,
            lambda n: (n.sleep_power_w + n.measurement_energy() /
                       n.measurement_interval_s) - n.sleep_power_w)
        state.no_margin = state.needed_margin <= 0.0
        state.code = np.array([_STATE_CODE[n.state] for n in siblings],
                              dtype=np.int8)
        state.reboot_remaining = gather(siblings,
                                        lambda n: n._reboot_remaining)
        state.measurements = gather(siblings, lambda n: n.total_measurements)
        state.packets = gather(siblings, lambda n: n.total_packets)
        state.energy = gather(siblings, lambda n: n.total_energy_j)
        state.dead_seconds = gather(siblings, lambda n: n.dead_seconds)
        state.brownouts = np.array([n.brownouts for n in siblings],
                                   dtype=np.int64)

        def demand():
            return np.where(state.code == STATE_RUNNING, state.run_demand,
                            reboot_power)

        def set_interval(mask, interval_s):
            """Masked :meth:`set_measurement_interval` over lanes."""
            interval = np.where(mask, interval_s, state.interval)
            state.interval = interval
            run_demand = sleep + measure_energy / interval
            state.run_demand = run_demand
            state.full_rate = dt / interval
            state.needed_margin = run_demand - sleep
            state.no_margin = state.needed_margin <= 0.0

        def step(supplied):
            code = state.code
            was_dead = code == STATE_DEAD
            revive = was_dead & (supplied >= sleep)
            stay_dead = was_dead & ~revive
            rebooting = revive | (code == STATE_REBOOTING)
            fail = rebooting & (supplied < reboot_power)
            ok = rebooting & ~fail
            rr = np.where(revive, reboot_time, state.reboot_remaining)
            reboot_spent = np.minimum(dt, np.maximum(rr, 0.0))
            rr_new = rr - dt
            consumed_reb = (reboot_power * reboot_spent +
                           sleep * (dt - reboot_spent)) / dt
            finish = ok & (rr_new <= 0.0)
            running = code == STATE_RUNNING
            brown = running & (supplied < sleep)
            alive = running & ~brown
            consumed_run = np.minimum(state.run_demand, supplied)
            margin = consumed_run - sleep
            done = state.full_rate * np.minimum(
                1.0, margin / state.needed_margin)
            done = np.where(alive & ~state.no_margin, done, 0.0)

            state.code = np.where(
                stay_dead | fail | brown, STATE_DEAD,
                np.where(finish, STATE_RUNNING,
                         np.where(ok, STATE_REBOOTING,
                                  code))).astype(np.int8)
            state.reboot_remaining = np.where(ok, rr_new, rr)
            state.dead_seconds = state.dead_seconds + np.where(
                stay_dead | fail | brown, dt,
                np.where(ok, reboot_spent, 0.0))
            state.brownouts = state.brownouts + brown
            state.energy = state.energy + np.where(
                ok, consumed_reb * dt,
                np.where(alive, consumed_run * dt, 0.0))
            state.measurements = state.measurements + done
            state.packets = state.packets + done

            result_code = np.where(
                stay_dead | fail | brown, STATE_DEAD,
                np.where(ok, STATE_REBOOTING, STATE_RUNNING)).astype(np.int8)
            consumed = np.where(ok, consumed_reb,
                                np.where(alive, consumed_run, 0.0))
            # (The scalar result's demand_w is not returned: the
            # recorder's node_demand column is the pre-step demand().)
            return result_code, consumed, done

        def writeback() -> None:
            for k, node in enumerate(siblings):
                node.state = node_state_from_code(state.code[k])
                node._reboot_remaining = float(state.reboot_remaining[k])
                node.measurement_interval_s = float(state.interval[k])
                node.total_measurements = float(state.measurements[k])
                node.total_packets = float(state.packets[k])
                node.total_energy_j = float(state.energy[k])
                node.dead_seconds = float(state.dead_seconds[k])
                node.brownouts = int(state.brownouts[k])

        return BatchedNodeLowering(tuple(siblings), state, demand, step,
                                   set_interval, writeback)

    def __repr__(self) -> str:
        return (f"WirelessSensorNode(state={self.state.value}, "
                f"interval={self.measurement_interval_s:.0f}s, "
                f"demand={self.demand_power() * 1e3:.3f} mW)")
