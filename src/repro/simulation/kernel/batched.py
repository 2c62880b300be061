"""Batched sweep kernel: step whole scenario grids in lockstep.

A sweep runs dozens-to-thousands of *near-identical* scenarios — same
system topology, different knob values or environment seeds. The scalar
kernel (:mod:`.plan`) pays the full Python-closure loop once per
scenario; this module pays it once per *grid*: every piece of
per-scenario state (store energies and branch voltages, node state,
manager counters) becomes an ``(n_scenarios,)`` float64 array, every
per-step closure becomes a vectorized expression over those arrays, and
the ambient inputs become a stacked ``(n_steps, n_scenarios)`` tensor
per channel built from each scenario's
:class:`~repro.environment.CompiledEnvironment`.

Results are **bit-for-bit identical per scenario** to the scalar kernel
(and therefore to the legacy path). Three rules make that possible:

* **Same elementwise expressions.** Every vectorized expression copies
  the scalar kernel's operator tree — same association order, same
  ``min``/``max`` tie behaviour (``np.minimum(a, b)`` matches
  ``a if a <= b else b`` for non-NaN floats), with data-dependent
  branches turned into ``np.where`` masks that gate *every* state write
  exactly where the scalar code early-returns.
* **Python-computed constants.** Hoisted run constants are gathered with
  scalar Python arithmetic (:func:`gather`), never recomputed with
  numpy, so they carry the exact bits the scalar kernel hoists.
* **Exact libm transcendentals.** numpy's SIMD ``exp``/``log``/
  ``log1p``/``expm1`` and ``**`` differ from CPython's libm calls by
  1 ULP on a small fraction of inputs; :func:`exact_unary` /
  :func:`exact_pow` route those call sites through the *scalar* libm
  functions elementwise. Plain arithmetic, ``np.sqrt``, and
  ``np.searchsorted`` are exact matches and stay vectorized.

Eligibility is per component: a component without a batched lowering
(``lower_batched`` hooks raising :exc:`LoweringUnsupported`, as they do
for every subclass that overrides the physics they vectorize) drops the
*scenario* back to the per-scenario path — never the whole sweep. The
envelope covers all seven Table I systems: bus/MCU platforms (pre-run
transaction energy is hoisted and drained on the first step),
backup-store cascades (fuel cells, primary cells — per-lane
``backup_enabled`` masks), stateful hill-climbing trackers (P&O,
incremental conductance — replayed as per-lane schedule columns), and
the periodic managers (vectorized counter machine + SoC-gated policy).

Scheduled events stay off this tier: the sweep runner refuses a
scenario that carries them, and the engine runs it per scenario, firing
each event between steps (:mod:`repro.simulation.batched_sweep`).
"""

from __future__ import annotations

import math

import numpy as np

from ...load.node import NodeState
from ..recorder import (
    SCALAR_COLUMNS,
    STATE_DEAD,
    STATE_REBOOTING,
    STATE_RUNNING,
)
from .protocol import LoweringUnsupported

__all__ = [
    "BatchedPlan",
    "BatchState",
    "BatchedStoreLowering",
    "BatchedBankLowering",
    "BatchedChannelLowering",
    "BatchedOutputLowering",
    "BatchedNodeLowering",
    "BatchedManagerLowering",
    "BatchedManagerContext",
    "BatchedSystemLowering",
    "TrackerSchedule",
    "batch_capability_report",
    "batch_eligible",
    "why_batch_ineligible",
    "group_signature",
    "run_batched",
    "gather",
    "exact_unary",
    "exact_exp",
    "exact_log",
    "exact_log1p",
    "exact_expm1",
    "exact_pow",
]

_INF = float("inf")

_STATE_CODE = {
    NodeState.RUNNING: STATE_RUNNING,
    NodeState.DEAD: STATE_DEAD,
    NodeState.REBOOTING: STATE_REBOOTING,
}
_CODE_STATE = {code: state for state, code in _STATE_CODE.items()}


# ----------------------------------------------------------------------
# Exactness helpers
# ----------------------------------------------------------------------
def gather(objs, fn) -> np.ndarray:
    """Per-scenario run constants as a float64 array.

    ``fn`` runs in plain Python, so hoisted constants (e.g.
    ``dt * charge_efficiency``) carry exactly the bits the scalar
    kernel's closures hoist.
    """
    return np.array([fn(o) for o in objs], dtype=np.float64)


def same_class(objs, role: str) -> type:
    """The common concrete class of a component group.

    Batched lowerings inline per-class arithmetic across the whole
    group, so mixing classes (or subclasses — their physics may differ)
    has no batched lowering.
    """
    cls = type(objs[0])
    for obj in objs:
        if type(obj) is not cls:
            raise LoweringUnsupported(
                f"{role} group mixes {cls.__name__} and "
                f"{type(obj).__name__}; a batch must share one concrete "
                f"class per component position",
                component=role,
                capability="homogeneous component class across the group")
    return cls


def exact_unary(fn):
    """Vectorize a scalar libm function *exactly*.

    numpy's SIMD transcendentals round differently from libm on ~0.1-4%
    of inputs; mapping the scalar function keeps batched results
    bit-identical to the scalar kernel at ~100 ns/element.
    """
    def apply(arr):
        a = np.asarray(arr, dtype=np.float64)
        flat = a.ravel()
        out = np.fromiter(map(fn, flat.tolist()), dtype=np.float64,
                          count=flat.size)
        return out.reshape(a.shape)
    return apply


exact_exp = exact_unary(math.exp)
exact_log = exact_unary(math.log)
exact_log1p = exact_unary(math.log1p)
exact_expm1 = exact_unary(math.expm1)


def exact_pow(arr, exponent: float) -> np.ndarray:
    """CPython ``x ** e`` elementwise (libm ``pow``, not numpy's)."""
    a = np.asarray(arr, dtype=np.float64)
    flat = a.ravel()
    out = np.fromiter((x ** exponent for x in flat.tolist()),
                      dtype=np.float64, count=flat.size)
    return out.reshape(a.shape)


class BatchState:
    """Mutable bag of one component group's ``(n,)`` state arrays.

    Closures rebind attributes (``state.energy = state.energy - drawn``)
    instead of mutating in place, so every reader — recorder writes,
    sibling closures, the final :meth:`writeback` — always sees the
    latest arrays.
    """


# ----------------------------------------------------------------------
# Lowering records (the batched twins of kernel/protocol.py)
# ----------------------------------------------------------------------
class BatchedStoreLowering:
    """Lowered store group: closures over shared ``(n,)`` state arrays."""

    __slots__ = ("stores", "state", "voltage", "charge", "discharge",
                 "idle", "writeback")

    def __init__(self, stores, state, voltage, charge, discharge, idle,
                 writeback):
        self.stores = stores
        self.state = state
        self.voltage = voltage
        self.charge = charge
        self.discharge = discharge
        self.idle = idle
        self.writeback = writeback


class BatchedBankLowering:
    """Lowered bank group: routing composed over store lowerings."""

    __slots__ = ("banks", "state", "voltage", "charge", "discharge",
                 "idle", "backup_energy", "stores", "writeback")

    def __init__(self, banks, state, voltage, charge, discharge, idle,
                 backup_energy, stores, writeback):
        self.banks = banks
        self.state = state
        self.voltage = voltage
        self.charge = charge
        self.discharge = discharge
        self.idle = idle
        #: ``() -> (n,)`` total backup energy, or None without backups.
        self.backup_energy = backup_energy
        self.stores = stores
        self.writeback = writeback


class TrackerSchedule:
    """A tracker group's precomputed per-step decisions.

    ``voltage`` is ``(n_steps, w)``; ``harvesting``/``duty`` are the
    same shape or ``None`` when trivially True / 1.0 (so the channel
    skips the gate / the ``* duty`` multiply — ``x * 1.0`` is exact, but
    skipping is cheaper).
    """

    __slots__ = ("voltage", "harvesting", "duty", "writeback")

    def __init__(self, voltage, harvesting=None, duty=None, writeback=None):
        self.voltage = voltage
        self.harvesting = harvesting
        self.duty = duty
        self.writeback = writeback


class BatchedChannelLowering:
    """Lowered channel group with two-phase construction.

    Compile time validates classes/hooks and gathers constants;
    :meth:`prepare` receives the stacked ambient tensor and precomputes
    the tracker schedule and the harvest-side power tensors (the parts
    that depend only on ambient values, never on runtime bus state);
    :meth:`step` does the remaining bus-coupled work per step.
    """

    __slots__ = ("channels", "source_type", "_tracker", "_surface",
                 "_conv_out", "_compressible", "_volt_pre", "_raw_pre",
                 "_mpp_pre", "_last", "_tracker_writeback")

    def __init__(self, channels, source_type, tracker, surface, conv_out,
                 compressible):
        self.channels = channels
        self.source_type = source_type
        self._tracker = tracker
        self._surface = surface
        self._conv_out = conv_out
        self._compressible = compressible
        self._volt_pre = None
        self._raw_pre = None
        self._mpp_pre = None
        self._last = None
        self._tracker_writeback = None

    def prepare(self, values: np.ndarray) -> None:
        """Precompute the harvest pipeline over the ambient tensor.

        When every scenario shares identical channel hardware *and* an
        identical ambient column, the tensors collapse to one column and
        broadcast over the grid for free.
        """
        if self._compressible and values.shape[1] > 1 and \
                (values == values[:, :1]).all():
            values = values[:, :1]
            width = 1
        else:
            width = values.shape[1]
        surface = self._surface.build(values, width)
        schedule = self._tracker.prepare(surface, values)
        self._tracker_writeback = schedule.writeback
        voltage = schedule.voltage
        mpp = surface.mpp_power()
        raw = surface.power_at(voltage)
        if schedule.duty is not None:
            raw = raw * schedule.duty
        gate = voltage <= 0.0
        if schedule.harvesting is not None:
            gate = gate | ~schedule.harvesting
        self._raw_pre = np.where(gate, 0.0, raw)
        self._volt_pre = voltage
        self._mpp_pre = mpp

    def step(self, i: int, bus_v: np.ndarray):
        """One lockstep harvest step: ``(raw, delivered, mpp)`` rows."""
        raw = self._raw_pre[i]
        volt = self._volt_pre[i]
        delivered = self._conv_out(raw, volt, bus_v)
        raw = np.where((delivered == 0.0) & (raw > 0.0), 0.0, raw)
        self._last = (raw, delivered, volt, self._mpp_pre[i])
        return raw, delivered, self._mpp_pre[i]

    def last_delivered(self):
        """Previous step's delivered-power row, or None before step 0.

        What a FULL-capability monitor's ``input_power`` reads: the
        manager control pass runs *before* the harvest phase, so at step
        ``i`` it sees step ``i - 1``'s delivery (and, before the first
        step, the channels' pre-run ``last_step`` state).
        """
        return self._last[1] if self._last is not None else None

    def writeback(self) -> None:
        """Final object state: tracker internals + the last HarvestStep."""
        from ...conditioning.base import HarvestStep
        if self._tracker_writeback is not None:
            self._tracker_writeback()
        if self._last is None:
            return
        raw, delivered, volt, mpp = (np.broadcast_to(a, (len(self.channels),))
                                     for a in self._last)
        for k, channel in enumerate(self.channels):
            channel.last_step = HarvestStep(float(raw[k]), float(delivered[k]),
                                            float(volt[k]), float(mpp[k]))


class BatchedOutputLowering:
    """Lowered output stage: ``needed(demand, store_v)`` over lanes."""

    __slots__ = ("outputs", "needed")

    def __init__(self, outputs, needed):
        self.outputs = outputs
        self.needed = needed


class BatchedNodeLowering:
    """Lowered node group: the brown-out state machine over lanes."""

    __slots__ = ("nodes", "state", "demand", "step", "set_interval",
                 "writeback")

    def __init__(self, nodes, state, demand, step, set_interval, writeback):
        self.nodes = nodes
        self.state = state
        self.demand = demand
        self.step = step
        #: ``(mask, interval_s) -> None`` masked per-lane duty-cycle
        #: update (what manager lowerings drive).
        self.set_interval = set_interval
        self.writeback = writeback


class BatchedManagerLowering:
    """Lowered manager group.

    ``control`` is ``None`` for managers whose control pass cannot touch
    the simulation (StaticManager: zero wake-up energy, no policy) — the
    hot loop skips them entirely and :meth:`writeback` replays the
    bookkeeping counters exactly. Periodic managers supply a live
    ``control()`` that the hot loop invokes at the top of every step,
    mirroring the scalar kernel's phase order.
    """

    __slots__ = ("managers", "control", "writeback")

    def __init__(self, managers, control, writeback):
        self.managers = managers
        self.control = control
        self.writeback = writeback


class BatchedManagerContext:
    """What a manager lowering may touch: the rest of the lowered system.

    Passed by :meth:`MultiSourceSystem.lower_batched` so manager
    lowerings can drive the batched bank (wake-up discharge, backup
    gating), retune the node's duty cycle, and read monitor telemetry
    from the live state arrays instead of the stale component objects.
    """

    __slots__ = ("systems", "bank", "channels", "node")

    def __init__(self, systems, bank, channels, node):
        self.systems = systems
        self.bank = bank
        self.channels = channels
        self.node = node


class BatchedSystemLowering:
    """Every lowered piece of one scenario group."""

    __slots__ = ("systems", "bank", "channels", "output", "node",
                 "manager", "quiescent_a", "bus_pending_w")

    def __init__(self, systems, bank, channels, output, node, manager,
                 quiescent_a, bus_pending_w=None):
        self.systems = systems
        self.bank = bank
        self.channels = channels
        self.output = output
        self.node = node
        self.manager = manager
        #: Hoisted per-scenario standing current, ``(n,)``.
        self.quiescent_a = quiescent_a
        #: Bus-transaction energy pending at compile time, as a power
        #: term drained on the first step, ``(n,)`` — or None when no
        #: lane carries a register bus.
        self.bus_pending_w = bus_pending_w


# ----------------------------------------------------------------------
# Plan, eligibility, grouping
# ----------------------------------------------------------------------
class BatchedPlan:
    """A scenario group lowered at one ``dt``, ready to execute."""

    __slots__ = ("systems", "dt", "lowering")

    def __init__(self, systems, dt: float, lowering):
        self.systems = systems
        self.dt = dt
        self.lowering = lowering

    @classmethod
    def compile(cls, systems, dt: float) -> "BatchedPlan":
        """Lower a group of same-topology systems for lockstep stepping.

        Raises :exc:`LoweringUnsupported` when any component has no
        batched lowering — including every subclass the scalar kernel
        runs through its own methods (each batched lowering carries its
        component's override guards) — and the sweep runner then routes
        the group through the per-scenario path.
        """
        systems = list(systems)
        if not systems:
            raise ValueError("cannot compile an empty scenario group")
        lower = getattr(systems[0], "lower_batched", None)
        if lower is None:
            raise LoweringUnsupported(
                f"{type(systems[0]).__name__} has no batched lowering",
                component=type(systems[0]).__name__,
                capability="batched lowering hook")
        return cls(systems, dt, lower(dt, systems))


def batch_eligible(system, dt: float = 1.0) -> bool:
    """Whether a single scenario's system is inside the batched envelope."""
    return batch_capability_report(system, dt) is None


def batch_capability_report(system, dt: float = 1.0):
    """The system's batched-eligibility verdict as capability negotiation.

    Returns ``None`` when every component lowers (the scenario can ride
    the lockstep tier), else the refusing component's
    :class:`~repro.simulation.kernel.protocol.CapabilityReport` — which
    component refused and which capability it lacks. The sweep runner
    attaches this to fallback rows; ``batch=True`` errors and ``repro mc
    --tier batched`` print it verbatim.
    """
    try:
        BatchedPlan.compile([system], dt)
    except LoweringUnsupported as exc:
        return exc.capability_report()
    return None


def why_batch_ineligible(system, dt: float = 1.0) -> str | None:
    """Human-readable reason the system cannot batch (None if it can).

    String facade over :func:`batch_capability_report`, kept for callers
    that only need prose.
    """
    report = batch_capability_report(system, dt)
    return None if report is None else report.detail


def _store_signature(store) -> tuple:
    socs = getattr(store, "_ocv_soc", None)
    volts = getattr(store, "_ocv_v", None)
    curve = (tuple(socs), tuple(volts)) if socs is not None else None
    return (type(store), store.is_backup, curve)


def group_signature(system, dt: float, n_steps: int) -> tuple:
    """Hashable topology key: scenarios sharing it can share a plan.

    Conservative on purpose: equal keys make
    :meth:`BatchedPlan.compile` *likely* to succeed for the group (the
    compile itself stays authoritative); unequal keys merely split
    groups.
    """
    return (
        dt,
        n_steps,
        type(system),
        tuple(
            (type(ch), ch.source_type, type(ch.harvester),
             type(ch.conditioner), type(ch.conditioner.tracker),
             type(ch.conditioner.converter), bool(ch.enabled))
            for ch in system.channels
        ),
        tuple(_store_signature(s) for s in system.bank.stores),
        (type(system.output), type(system.output.converter)),
        type(system.node),
        (type(system.manager),
         type(getattr(system.manager, "controller", None)))
        if system.manager is not None else None,
        system.monitor.capability,
        (system.bus is not None, system.mcu is not None,
         system.slots is not None),
    )


# ----------------------------------------------------------------------
# The lockstep hot loop
# ----------------------------------------------------------------------
def _run_lockstep(lowering, buffers, state_buf, store_e_buf, store_v_buf,
                  chan_buf, n_steps: int, dt: float) -> None:
    """Steps ``0 .. n_steps - 1`` of the whole group, into the buffers."""
    bank = lowering.bank
    node = lowering.node
    output_needed = lowering.output.needed
    channels = lowering.channels
    tq = lowering.quiescent_a

    b_raw = buffers["harvest_raw"]
    b_del = buffers["harvest_delivered"]
    b_mpp = buffers["harvest_mpp"]
    b_acc = buffers["charge_accepted"]
    b_qsc = buffers["quiescent"]
    b_dem = buffers["node_demand"]
    b_sup = buffers["node_supplied"]
    b_con = buffers["node_consumed"]
    b_bak = buffers["backup_power"]
    b_mea = buffers["measurements"]

    bank_voltage = bank.voltage
    bank_charge = bank.charge
    bank_discharge = bank.discharge
    bank_idle = bank.idle
    backup_energy = bank.backup_energy
    node_demand = node.demand
    node_step = node.step
    store_lowerings = bank.stores
    manager_control = (lowering.manager.control
                       if lowering.manager is not None else None)
    bus_pending = lowering.bus_pending_w

    with np.errstate(all="ignore"):
        for i in range(n_steps):
            # 1. Management decisions. No-op managers (StaticManager)
            #    lower control to None and replay their counters at
            #    writeback; periodic managers run their vectorized
            #    counter machine + policy here, before harvest, exactly
            #    like the scalar phase order.
            if manager_control is not None:
                manager_control()

            # 2. Harvest into the storage bus.
            bus_v = bank_voltage()
            raw = 0.0
            delivered = 0.0
            mpp = 0.0
            k = 0
            for channel in channels:
                ch_raw, ch_del, ch_mpp = channel.step(i, bus_v)
                raw = raw + ch_raw
                delivered = delivered + ch_del
                mpp = mpp + ch_mpp
                chan_buf[i, :, k] = ch_del
                k += 1
            accepted = bank_charge(np.where(delivered > 0.0, delivered, 0.0))

            # 3. Standing (quiescent) losses, including any bus
            #    transactions charged before the run (transactions
            #    never happen mid-run, so the pending term is zero —
            #    an exact no-op addition — after the first step).
            iq = tq * np.where(bus_v > 0.0, bus_v, 0.0)
            if i == 0 and bus_pending is not None:
                iq = iq + bus_pending
            quiescent = bank_discharge(np.where(iq > 0.0, iq, 0.0))

            # 4. Supply the node through the output stage.
            if backup_energy is not None:
                backup_before = backup_energy()
            demand = node_demand()
            sv = bank_voltage()
            needed = output_needed(demand, sv)
            active = (needed != _INF) & (demand > 0.0)
            drawn = bank_discharge(np.where(active, needed, 0.0))
            supplied = np.where(active & (needed > 0.0),
                                demand * (drawn / needed), 0.0)
            node_state, consumed, measured = node_step(supplied)
            refund = (supplied > 0.0) & (consumed < supplied - 1e-15)
            if refund.any():
                bank_charge(np.where(
                    refund, drawn * (1.0 - consumed / supplied), 0.0))
            if backup_energy is not None:
                dropped = backup_before - backup_energy()
                b_bak[i] = np.where(dropped > 0.0, dropped, 0.0) / dt
            else:
                b_bak[i] = 0.0

            # 5. Storage self-discharge / charge redistribution.
            bank_idle()

            # 6. Record the step.
            b_raw[i] = raw
            b_del[i] = delivered
            b_mpp[i] = mpp
            b_acc[i] = accepted
            b_qsc[i] = quiescent
            b_dem[i] = demand
            b_sup[i] = supplied
            b_con[i] = consumed
            b_mea[i] = measured
            state_buf[i] = node_state
            k = 0
            for st in store_lowerings:
                store_e_buf[i, :, k] = st.state.energy
                store_v_buf[i, :, k] = st.voltage()
                k += 1


def _writeback(lowering, n_steps: int) -> None:
    """Final in-flight state back onto the real component objects."""
    if lowering.bus_pending_w is not None:
        # Mirror the scalar path's bus accounting: everything spent on
        # the bus so far has now been charged against the bank.
        for system in lowering.systems:
            if system.bus is not None:
                system._bus_energy_charged_j = system.bus.energy_spent_j
    lowering.bank.writeback()
    lowering.node.writeback()
    if lowering.manager is not None:
        lowering.manager.writeback(n_steps)
    for channel in lowering.channels:
        channel.writeback()


def run_batched(plan: BatchedPlan, compileds, recorders, n_steps: int,
                dt: float) -> list:
    """Run a scenario group in lockstep and fill one recorder each.

    ``compileds`` are the scenarios' :class:`CompiledEnvironment`
    windows (same ``n_steps``/``dt``, ``t0 = 0``); ``recorders`` are
    fresh :class:`~repro.simulation.Recorder` instances. Each channel's
    harvest side is prepared once over the whole window, the group
    steps ``0 .. n_steps - 1`` in lockstep, and the final state is
    written back once. On return each recorder holds exactly the
    columns the scalar kernel would have written, and every component
    object carries its final state.

    Returns one execution-path string per lane (``"batched"``).
    """
    n = len(plan.systems)
    if not (len(compileds) == len(recorders) == n):
        raise ValueError("one compiled environment and recorder per scenario")

    lowering = plan.lowering
    n_stores = len(lowering.bank.stores)
    n_channels = len(lowering.channels)

    # Batched recorder buffers, (n_steps, n) per column; sliced back into
    # per-scenario recorders at the end.
    buffers = {name: np.empty((n_steps, n), dtype=np.float64)
               for name in SCALAR_COLUMNS if name != "t"}
    state_buf = np.empty((n_steps, n), dtype=np.int8)
    store_e_buf = np.empty((n_steps, n, n_stores), dtype=np.float64)
    store_v_buf = np.empty((n_steps, n, n_stores), dtype=np.float64)
    chan_buf = np.empty((n_steps, n, n_channels), dtype=np.float64)

    with np.errstate(all="ignore"):
        for channel in lowering.channels:
            values = np.zeros((n_steps, n), dtype=np.float64)
            for lane, compiled in enumerate(compileds):
                col = compiled.column_of(channel.source_type)
                if col is not None:
                    values[:, lane] = compiled.matrix[:, col]
            channel.prepare(values)
    _run_lockstep(lowering, buffers, state_buf, store_e_buf, store_v_buf,
                  chan_buf, n_steps, dt)
    _writeback(lowering, n_steps)

    times = compileds[0].times
    for s, recorder in enumerate(recorders):
        recorder.reserve(n_steps, n_stores, n_channels)
        scalars, state_arr, store_e, store_v, chan_p, base = \
            recorder.columns_for_writing()
        end = base + n_steps
        scalars["t"][base:end] = times
        for name, buf in buffers.items():
            scalars[name][base:end] = buf[:, s]
        state_arr[base:end] = state_buf[:, s]
        store_e[base:end] = store_e_buf[:, s, :]
        store_v[base:end] = store_v_buf[:, s, :]
        chan_p[base:end] = chan_buf[:, s, :]
        recorder.commit(n_steps)
    return ["batched"] * n


def node_state_from_code(code: int) -> NodeState:
    """Recorder state code back to the :class:`NodeState` enum."""
    return _CODE_STATE[int(code)]
