"""Energy managers: the intelligence of the platform.

Survey Sec. II.4 asks *where* the intelligence lives; this module provides
*what* it computes. A manager runs periodically, reads whatever the
platform's :class:`~repro.core.system.EnergyMonitor` exposes, and acts
through the controls the architecture allows: the node's duty cycle and
the storage bank's backup permission.

* :class:`StaticManager` — no management (systems C, D, E, G: "no
  'intelligence' on board").
* :class:`ThresholdManager` — staircase duty-cycle adaptation + SoC-gated
  backup activation; what System A's SPU firmware implements.
* :class:`EnergyNeutralManager` — harvest-tracking energy-neutral
  operation; needs FULL monitoring.

Managers also account their own execution overhead: each control pass
costs ``wakeup_energy_j``, charged against the storage bank, so "the
complexity and loss of efficiency by adding the extra functionality"
(Sec. II.3) is measurable.
"""

from __future__ import annotations

from ..spec.registry import register

import abc

from ..load.duty_cycle import (
    DutyCycleController,
    EnergyNeutralController,
    ThresholdDutyCycle,
)

__all__ = [
    "EnergyManager",
    "StaticManager",
    "ThresholdManager",
    "EnergyNeutralManager",
]


class EnergyManager(abc.ABC):
    """Base: periodic control with execution-cost accounting.

    Parameters
    ----------
    control_period:
        Seconds between control passes.
    wakeup_energy_j:
        Energy per control pass (MCU wake + measurements + decisions).
    """

    def __init__(self, control_period: float = 60.0,
                 wakeup_energy_j: float = 20e-6):
        if control_period <= 0:
            raise ValueError("control_period must be positive")
        if wakeup_energy_j < 0:
            raise ValueError("wakeup_energy_j must be non-negative")
        self.control_period = control_period
        self.wakeup_energy_j = wakeup_energy_j
        self._since_control = float("inf")  # run on the first step
        self.control_passes = 0
        self.energy_spent_j = 0.0

    def control(self, t: float, dt: float, system) -> None:
        """Called by the system every step; runs the policy on schedule."""
        self._since_control += dt
        if self._since_control < self.control_period:
            return
        self._since_control = 0.0
        self.control_passes += 1
        self.energy_spent_j += self.wakeup_energy_j
        if self.wakeup_energy_j > 0:
            system.bank.discharge(self.wakeup_energy_j / dt, dt)
        self._policy(t, dt, system)

    @abc.abstractmethod
    def _policy(self, t: float, dt: float, system) -> None:
        """The actual decision logic, run once per control period."""

    def lower_kernel(self, dt: float):
        """Kernel closure ``(t, dt, system) -> None``.

        Managers run their own policy code inside the kernel (it fires
        once per control period, not per step), so the bound
        :meth:`control` is the lowering — exact for every manager.
        """
        return self.control

    def lower_batched(self, dt: float, siblings, context=None):
        """Batched lowering: a custom policy reads monitors and steers
        the bank in ways the lockstep loop cannot replay generically —
        only managers with a vectorized policy (the concrete classes in
        this module) batch; everything else routes the scenario to the
        per-scenario path."""
        from ..simulation.kernel.protocol import LoweringUnsupported
        raise LoweringUnsupported(
            f"{type(self).__name__} has no batched lowering")


@register("manager", "static")
class StaticManager(EnergyManager):
    """No adaptation; zero execution cost. The blind-platform baseline."""

    def __init__(self):
        super().__init__(control_period=3600.0, wakeup_energy_j=0.0)

    def _policy(self, t, dt, system) -> None:
        return None

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings, context=None):
        """Static managers never touch the simulation (no policy, zero
        wake-up energy), so the hot loop skips them entirely and the
        bookkeeping counters are replayed exactly at writeback."""
        from ..simulation.kernel.protocol import (
            LoweringUnsupported,
            ensure_unmodified,
        )
        from ..simulation.kernel.batched import (
            BatchedManagerLowering,
            same_class,
        )
        same_class(siblings, "manager")
        for manager in siblings:
            ensure_unmodified(manager, EnergyManager, "control")
            ensure_unmodified(manager, StaticManager, "_policy")
            if manager.wakeup_energy_j != 0.0:
                raise LoweringUnsupported(
                    "a manager with non-zero wake-up energy discharges "
                    "the bank and has no batched lowering",
                    component=type(manager).__name__,
                    capability="zero wake-up energy")

        def writeback(n_steps: int) -> None:
            # Exact replay of control()'s accumulator per distinct
            # (initial counter, period) pair, shared across lanes.
            replayed: dict = {}
            for manager in siblings:
                key = (manager._since_control, manager.control_period)
                if key not in replayed:
                    since, period = key
                    passes = 0
                    for _ in range(n_steps):
                        since += dt
                        if since < period:
                            continue
                        since = 0.0
                        passes += 1
                    replayed[key] = (since, passes)
                since, passes = replayed[key]
                manager._since_control = since
                manager.control_passes += passes

        return BatchedManagerLowering(tuple(siblings), None, writeback)


def _lower_gated_manager_batched(manager_cls, dt: float, siblings, context):
    """Shared batched lowering for the SoC-gated periodic managers.

    :class:`ThresholdManager` and :class:`EnergyNeutralManager` run the
    same policy shape — duty-cycle controller update + backup hysteresis
    — so one vectorized counter machine serves both. The generic
    :meth:`EnergyManager.control` accumulator becomes per-lane arrays;
    the wake-up discharge routes through the batched bank (masked to
    firing lanes, zeros elsewhere — a proven-exact no-op); monitor
    telemetry comes from :func:`~repro.core.system.lower_monitor_batched`
    so policies see the live state arrays mid-step.
    """
    import numpy as np

    from ..simulation.kernel.batched import (
        BatchedManagerLowering,
        gather,
        same_class,
    )
    from ..simulation.kernel.protocol import (
        LoweringUnsupported,
        ensure_unmodified,
    )
    from .system import lower_monitor_batched

    same_class(siblings, "manager")
    if context is None:
        raise LoweringUnsupported(
            f"{type(siblings[0]).__name__} needs the lowered system "
            f"context to batch")
    for manager in siblings:
        ensure_unmodified(manager, EnergyManager, "control")
        ensure_unmodified(manager, manager_cls, "_policy")

    controllers = [m.controller for m in siblings]
    same_class(controllers, "duty-cycle controller")
    lower_controller = getattr(controllers[0], "lower_batched", None)
    if lower_controller is None:
        raise LoweringUnsupported(
            f"{type(controllers[0]).__name__} has no batched lowering")
    controller = lower_controller(dt, controllers, context.node)
    soc_estimate, input_power = lower_monitor_batched(
        context.systems, context.bank, context.channels)

    period = gather(siblings, lambda m: m.control_period)
    wakeup = gather(siblings, lambda m: m.wakeup_energy_j)
    wake_power = gather(siblings, lambda m: m.wakeup_energy_j / dt)
    wake_mask = wakeup > 0.0
    any_wakeup = bool(wake_mask.any())
    backup_on = gather(siblings, lambda m: m.backup_on_soc)
    backup_off = gather(siblings, lambda m: m.backup_off_soc)

    since = gather(siblings, lambda m: m._since_control)
    passes = np.array([m.control_passes for m in siblings], dtype=np.int64)
    spent = gather(siblings, lambda m: m.energy_spent_j)

    bank_discharge = context.bank.discharge
    bank_state = context.bank.state

    def control():
        nonlocal since, passes, spent
        since = since + dt
        fire = since >= period
        if not fire.any():
            return
        since = np.where(fire, 0.0, since)
        passes = passes + fire
        spent = spent + np.where(fire, wakeup, 0.0)
        if any_wakeup:
            bank_discharge(np.where(fire & wake_mask, wake_power, 0.0))
        # _policy over the firing lanes.
        soc, soc_none = soc_estimate()
        inp = input_power() if input_power is not None else None
        controller.update(fire, soc, soc_none, inp)
        gate = fire & ~soc_none
        turn_on = gate & (soc <= backup_on)
        turn_off = gate & ~(soc <= backup_on) & (soc >= backup_off)
        bank_state.backup_enabled = np.where(
            turn_on, True, np.where(turn_off, False,
                                    bank_state.backup_enabled))

    def writeback(n_steps: int) -> None:
        for k, manager in enumerate(siblings):
            manager._since_control = float(since[k])
            manager.control_passes = int(passes[k])
            manager.energy_spent_j = float(spent[k])
        controller.writeback()

    return BatchedManagerLowering(tuple(siblings), control, writeback)


@register("manager", "threshold")
class ThresholdManager(EnergyManager):
    """SoC-staircase duty adaptation with gated backup activation.

    Parameters
    ----------
    controller:
        Duty-cycle controller driven with the visible SoC (defaults to
        :class:`~repro.load.ThresholdDutyCycle`).
    backup_on_soc / backup_off_soc:
        Hysteresis band for enabling the backup store: enable when the
        ambient-store SoC estimate falls below ``backup_on_soc``, disable
        above ``backup_off_soc``.
    """

    def __init__(self, controller: DutyCycleController | None = None,
                 backup_on_soc: float = 0.1, backup_off_soc: float = 0.3,
                 control_period: float = 60.0, wakeup_energy_j: float = 20e-6):
        super().__init__(control_period=control_period,
                         wakeup_energy_j=wakeup_energy_j)
        if not 0.0 <= backup_on_soc < backup_off_soc <= 1.0:
            raise ValueError("need 0 <= backup_on_soc < backup_off_soc <= 1")
        self.controller = controller if controller is not None else \
            ThresholdDutyCycle()
        self.backup_on_soc = backup_on_soc
        self.backup_off_soc = backup_off_soc

    def _policy(self, t, dt, system) -> None:
        soc = system.monitor.soc_estimate()
        input_power = system.monitor.input_power()
        self.controller.update(system.node, soc, input_power, dt)
        if soc is not None:
            if soc <= self.backup_on_soc:
                system.bank.backup_enabled = True
            elif soc >= self.backup_off_soc:
                system.bank.backup_enabled = False

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings, context=None):
        """Vectorized counter machine + SoC-gated policy over lanes."""
        return _lower_gated_manager_batched(ThresholdManager, dt, siblings,
                                            context)


@register("manager", "energy_neutral")
class EnergyNeutralManager(EnergyManager):
    """Energy-neutral operation from full telemetry.

    Wraps :class:`~repro.load.EnergyNeutralController`; also gates the
    backup like :class:`ThresholdManager`, since energy-neutral operation
    still wants a reserve for estimation error.
    """

    def __init__(self, controller: EnergyNeutralController | None = None,
                 backup_on_soc: float = 0.08, backup_off_soc: float = 0.25,
                 control_period: float = 60.0, wakeup_energy_j: float = 25e-6):
        super().__init__(control_period=control_period,
                         wakeup_energy_j=wakeup_energy_j)
        if not 0.0 <= backup_on_soc < backup_off_soc <= 1.0:
            raise ValueError("need 0 <= backup_on_soc < backup_off_soc <= 1")
        self.controller = controller if controller is not None else \
            EnergyNeutralController()
        self.backup_on_soc = backup_on_soc
        self.backup_off_soc = backup_off_soc

    def _policy(self, t, dt, system) -> None:
        soc = system.monitor.soc_estimate()
        input_power = system.monitor.input_power()
        self.controller.update(system.node, soc, input_power, dt)
        if soc is not None:
            if soc <= self.backup_on_soc:
                system.bank.backup_enabled = True
            elif soc >= self.backup_off_soc:
                system.bank.backup_enabled = False

    # ------------------------------------------------------------------
    # Batched lowering (see repro.simulation.kernel.batched)
    # ------------------------------------------------------------------
    def lower_batched(self, dt: float, siblings, context=None):
        """Vectorized counter machine + SoC-gated policy over lanes."""
        return _lower_gated_manager_batched(EnergyNeutralManager, dt,
                                            siblings, context)
