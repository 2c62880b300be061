"""Kernel plan: compose per-component lowerings and drive the hot loop.

:meth:`KernelPlan.compile` asks the system to lower itself (see
:meth:`repro.core.MultiSourceSystem.lower_kernel`); each component
returns specialized closures — inlined arithmetic for library classes,
its own bound methods for subclasses — so speed is a property of the
architecture, not of one special-cased platform shape. Only an
orchestration subclass (a system, bank, channel or conditioner
overriding what :func:`run_plan` replicates) raises
:exc:`~repro.simulation.kernel.protocol.LoweringUnsupported`; the engine
decides that before step 0.

:func:`run_plan` is the hot loop. It replicates
:meth:`repro.core.MultiSourceSystem.step`'s orchestration expression by
expression (same phase order, same ``min``/``max`` tie behaviour, same
accumulation order), calling the lowered closures instead of the
component methods, and writes the recorder's preallocated columnar
arrays directly — no per-step objects at all. Scheduled events are
re-validated when they fire: the plan recompiles, and an event that
installs an orchestration subclass raises the recompile's
:exc:`~repro.simulation.kernel.protocol.LoweringUnsupported`, naming it.
"""

from __future__ import annotations

from ...load.node import NodeState
from ..recorder import STATE_DEAD, STATE_REBOOTING, STATE_RUNNING
from .protocol import LoweringUnsupported

__all__ = ["KernelPlan", "eligible", "why_ineligible", "run_plan"]

_INF = float("inf")


class KernelPlan:
    """A system lowered at one ``dt``, ready to execute.

    Plans are cheap to build (microseconds: closure creation and constant
    hoisting only) and are recompiled whenever a scheduled event mutates
    the system mid-run.
    """

    __slots__ = ("system", "dt", "lowering")

    def __init__(self, system, dt: float, lowering):
        self.system = system
        self.dt = dt
        self.lowering = lowering

    @classmethod
    def compile(cls, system, dt: float) -> "KernelPlan":
        """Lower ``system``; raises :exc:`LoweringUnsupported` if any
        component genuinely has no lowering."""
        lower = getattr(system, "lower_kernel", None)
        if lower is None:
            raise LoweringUnsupported(
                f"{type(system).__name__} has no kernel lowering")
        return cls(system, dt, lower(dt))


def eligible(system, dt: float = 1.0) -> bool:
    """Whether every component of ``system`` composes into a full plan."""
    return why_ineligible(system, dt) is None


def why_ineligible(system, dt: float = 1.0) -> str | None:
    """Human-readable reason the system cannot lower (None if it can)."""
    try:
        KernelPlan.compile(system, dt)
    except LoweringUnsupported as exc:
        return str(exc)
    return None


def run_plan(plan: KernelPlan, compiled, schedule, recorder, n_steps: int,
             dt: float) -> int:
    """Run steps ``0 .. n_steps - 1``; returns ``n_steps``.

    Raises :exc:`LoweringUnsupported` when a fired event leaves a system
    that no longer lowers (an orchestration subclass swapped in).
    """
    system = plan.system
    times = compiled.times_list()

    def values_for(source):
        j = compiled.column_of(source)
        if j is None:
            return None
        return compiled.column_list(j)

    def bind(lowering):
        """Hoist the lowering's closures (refreshed after events)."""
        bank = lowering.bank
        chans = tuple((lw.step, values_for(lw.source_type))
                      for lw in lowering.channels)
        stores = tuple(zip(bank.store_objects, bank.store_voltages))
        return (bank.voltage, bank.charge, bank.discharge, bank.idle,
                bank.backup_energy, chans, lowering.output.needed,
                lowering.node.demand, lowering.node.step,
                lowering.manager_control, lowering.quiescent_a,
                lowering.bus, stores)

    (bank_voltage, bank_charge, bank_discharge, bank_idle, backup_energy,
     chans, out_needed, node_demand, node_step, control, tq, bus,
     stores) = bind(plan.lowering)

    (scalars, state_arr, store_e, store_v, chan_p, base) = \
        recorder.columns_for_writing()
    col_t = scalars["t"]
    col_raw = scalars["harvest_raw"]
    col_del = scalars["harvest_delivered"]
    col_mpp = scalars["harvest_mpp"]
    col_acc = scalars["charge_accepted"]
    col_qsc = scalars["quiescent"]
    col_dem = scalars["node_demand"]
    col_sup = scalars["node_supplied"]
    col_con = scalars["node_consumed"]
    col_bak = scalars["backup_power"]
    col_mea = scalars["measurements"]

    next_event_t = schedule.next_time()
    RUNNING, DEAD = NodeState.RUNNING, NodeState.DEAD

    for i in range(n_steps):
        t = times[i]

        # 0. Scheduled events, then revalidate the envelope by
        #    recompiling the plan against the mutated system.
        if next_event_t <= t:
            for event in schedule.due(t):
                event.action(system)
            next_event_t = schedule.next_time()
            plan = KernelPlan.compile(system, dt)
            (bank_voltage, bank_charge, bank_discharge, bank_idle,
             backup_energy, chans, out_needed, node_demand, node_step,
             control, tq, bus, stores) = bind(plan.lowering)

        # 1. Management decisions (may charge/discharge the bank).
        if control is not None:
            control(t, dt, system)

        # 2. Harvest into the storage bus.
        bus_v = bank_voltage()
        row = base + i
        raw = 0.0
        delivered = 0.0
        mpp = 0.0
        k = 0
        for chan_step, values in chans:
            hs = chan_step(values[i] if values is not None else 0.0, bus_v)
            raw += hs.raw_power
            hs_delivered = hs.delivered_power
            delivered += hs_delivered
            mpp += hs.mpp_power
            chan_p[row, k] = hs_delivered
            k += 1
        accepted = bank_charge(delivered) if delivered > 0.0 else 0.0

        # 3. Standing (quiescent) losses, including any bus transactions
        #    charged since the last step.
        iq = tq * (bus_v if bus_v > 0.0 else 0.0)
        if bus is not None:
            pending = bus.energy_spent_j - system._bus_energy_charged_j
            system._bus_energy_charged_j = bus.energy_spent_j
            iq += pending / dt
        quiescent_drawn = bank_discharge(iq) if iq > 0.0 else 0.0

        # 4. Supply the node through the output stage.
        backup_before = backup_energy() if backup_energy is not None else 0.0
        demand = node_demand()
        sv = bank_voltage()
        needed = out_needed(demand, sv)
        if needed == _INF or demand <= 0.0:
            supplied = 0.0
            drawn = 0.0
        else:
            drawn = bank_discharge(needed)
            supplied = demand * (drawn / needed) if needed > 0.0 else 0.0
        node_result = node_step(supplied, dt)
        consumed = node_result.consumed_w
        if supplied > 0.0 and consumed < supplied - 1e-15:
            # Return the unconsumed part of the draw to the bank.
            bank_charge(drawn * (1.0 - consumed / supplied))
        if backup_energy is not None:
            dropped = backup_before - backup_energy()
            backup_power = (dropped if dropped > 0.0 else 0.0) / dt
        else:
            backup_power = 0.0

        # 5. Storage self-discharge / charge redistribution.
        bank_idle()

        # 6. Record the step.
        col_t[row] = t
        col_raw[row] = raw
        col_del[row] = delivered
        col_mpp[row] = mpp
        col_acc[row] = accepted
        col_qsc[row] = quiescent_drawn
        col_dem[row] = demand
        col_sup[row] = supplied
        col_con[row] = consumed
        col_bak[row] = backup_power
        col_mea[row] = node_result.measurements
        state = node_result.state
        state_arr[row] = STATE_RUNNING if state is RUNNING else \
            (STATE_DEAD if state is DEAD else STATE_REBOOTING)
        k = 0
        for store, store_voltage in stores:
            store_e[row, k] = store.energy_j
            store_v[row, k] = store_voltage()
            k += 1

    recorder.commit(n_steps)
    return n_steps
