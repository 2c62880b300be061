"""Codegen tier: fuse a kernel plan into one compiled step function.

Third lowering target beside the scalar kernel (:mod:`.plan`) and the
batched tier (:mod:`.batched`). For one platform shape — a single
:class:`~repro.storage.Supercapacitor` behind a plain bank, buck-boost
output, P&O + buck-boost channels over library harvesters, a plain node
and at most a zero-wakeup :class:`~repro.core.manager.StaticManager` —
this module emits the whole step as straight-line Python over plain
float locals: the supercapacitor three-branch physics, the buck-boost
knee and its closed-form inverse, the P&O bookkeeping and the node
brown-out state machine, with the hoisted run constants unpacked into
locals once per segment (no attribute access, no call dispatch in the
hot loop). The leaf harvester physics (``open_circuit_voltage`` /
``power_at`` / ``max_power``) remains as bound-method calls, behind
pure single-slot memos keyed on the ambient value, and the P&O control
updates go through the scalar kernel's limit-cycle fast-forward,
:func:`~repro.conditioning.mppt.perturb_observe_updates`, over the
``power_at`` of the harvester's per-step
:meth:`~repro.harvesters.base.Harvester.lower_iv`.

The engine offers every compiled plan to :func:`prepare_codegen` under
``fast="auto"`` and runs the fused step function when it accepts the
plan. A plan outside the envelope makes it raise
:exc:`~.protocol.LoweringUnsupported` naming the first component the
emitter cannot fuse, and the engine runs the plan on the scalar kernel.

Numerics contract (PR 4): the emitted code performs the same
floating-point operations in the same order as the scalar kernel —
state squarings stay ``v * v``, exact-libm call sites (``math.sqrt``,
the hoisted ``math.exp`` constants) are preserved, run constants are
the very floats the kernel hoists, and every branch / early return /
accumulator of the component code is replicated. The fused path is
bitwise identical to the legacy and scalar-kernel paths; the
differential and determinism suites enforce it.

Scheduled events never fire inside generated code: the engine offers
the fused tier only a segment that no event falls in, and runs every
other segment on the scalar kernel, which fires events between steps.

Compile cache: the emitted source depends only on the fused structure
— the emission branches, the channel count and which channels have an
ambient column — while the run constants arrive as a tuple of floats
the generated prologue unpacks. Compiled step functions are cached
in-process on that structure, so every configuration of one shape
shares one compilation and a second run of it performs none.
"""

from __future__ import annotations

import math
import time as _time

from ...conditioning.base import HarvestStep
from ...conditioning.mppt import perturb_observe_updates
from ...load.node import NodeState
from .protocol import LoweringUnsupported, is_library_harvester

__all__ = ["prepare_codegen", "codegen_stats", "clear_codegen_cache"]

_INF = float("inf")

#: Compiled step functions keyed on the fused structure's ``sig``.
_COMPILED: dict = {}

_STATS = {
    "hits": 0,          # compile-cache hits (no compilation performed)
    "compiles": 0,      # step functions emitted and compiled
    "compile_s": 0.0,   # cumulative wall time spent emitting + compiling
}


def codegen_stats() -> dict:
    """Snapshot of the cache/compile counters (copies; safe to keep)."""
    return dict(_STATS)


def clear_codegen_cache() -> None:
    """Drop the compiled step functions (the counters keep counting)."""
    _COMPILED.clear()


def _compiled_step(cfg):
    """The step function for the structure ``cfg`` describes, emitted
    and compiled once per process.

    The hit counter only increments here: one warm ``simulate`` is one
    hit and zero compilations, which the warm-cache tests assert.
    """
    step = _COMPILED.get(cfg["sig"])
    if step is not None:
        _STATS["hits"] += 1
        return step
    t0 = _time.perf_counter()
    namespace: dict = {}
    exec(compile(_emit_fused(cfg), "<repro-codegen>", "exec"), namespace)
    step = _COMPILED[cfg["sig"]] = namespace["_codegen_run"]
    _STATS["compiles"] += 1
    _STATS["compile_s"] += _time.perf_counter() - t0
    return step


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
_SIGNATURE = ("def _codegen_run(system, times, avs, scalars, state_arr, "
              "store_e, store_v, chan_p, base, n_steps, ctx, consts):")

_SCALAR_COLS = (
    ("col_t", "t"), ("col_raw", "harvest_raw"),
    ("col_del", "harvest_delivered"), ("col_mpp", "harvest_mpp"),
    ("col_acc", "charge_accepted"), ("col_qsc", "quiescent"),
    ("col_dem", "node_demand"), ("col_sup", "node_supplied"),
    ("col_con", "node_consumed"), ("col_bak", "backup_power"),
    ("col_mea", "measurements"),
)

_CTX = {
    "RUNNING": NodeState.RUNNING,
    "DEAD": NodeState.DEAD,
    "REBOOTING": NodeState.REBOOTING,
    "HarvestStep": HarvestStep,
    "sqrt": math.sqrt,
    "po_updates": perturb_observe_updates,
}


class CodegenRunner:
    """A compiled step function bound to one plan + environment segment.

    Calling it runs steps ``0 .. n_steps - 1`` and commits the recorder.
    """

    __slots__ = ("system", "step_fn", "consts", "_avs", "_times")

    def __init__(self, plan, compiled, step_fn, consts):
        self.system = plan.system
        self.step_fn = step_fn
        self.consts = consts
        self._times = compiled.times_list()

        def values_for(source):
            j = compiled.column_of(source)
            if j is None:
                return None
            return compiled.column_list(j)

        self._avs = tuple(values_for(lw.source_type)
                          for lw in plan.lowering.channels)

    def __call__(self, recorder, n_steps: int) -> None:
        (scalars, state_arr, store_e, store_v, chan_p, base) = \
            recorder.columns_for_writing()
        self.step_fn(self.system, self._times, self._avs, scalars,
                     state_arr, store_e, store_v, chan_p, base, n_steps,
                     _CTX, self.consts)
        recorder.commit(n_steps)


def prepare_codegen(plan, compiled) -> CodegenRunner:
    """Lower ``plan`` onto the fused codegen tier.

    Raises :exc:`LoweringUnsupported` naming the first component outside
    the fused envelope (see :func:`_fused_config`); the engine then runs
    the plan on the scalar kernel, which produces the same bits.
    """
    has_cols = tuple(compiled.column_of(lw.source_type) is not None
                     for lw in plan.lowering.channels)
    cfg, consts = _fused_config(plan, has_cols)
    return CodegenRunner(plan, compiled, _compiled_step(cfg), consts)


# ----------------------------------------------------------------------
# Fused-mode gate
# ----------------------------------------------------------------------
def _outside(obj, reason: str) -> LoweringUnsupported:
    """The refusal naming ``obj`` as outside the fused envelope."""
    name = type(obj).__name__
    return LoweringUnsupported(f"{name} {reason}", component=name,
                               capability="fused codegen emission")


def _require(obj, cls: type) -> None:
    if type(obj) is not cls:
        raise _outside(obj, f"is not a plain {cls.__name__}, the only "
                            f"class the fused emission inlines there")


def _fused_config(plan, has_cols) -> tuple:
    """The fused emission's structure and run constants for ``plan``.

    The fused emitter inlines exact twins of specific component
    classes, so it engages only when every component *is* (not merely
    derives from) the class whose arithmetic it inlines: one
    :class:`Supercapacitor` behind a plain bank, buck-boost output,
    P&O + buck-boost channels over library harvesters with the
    library's own ``PerturbObserve.step`` on the class (the rule
    :meth:`PerturbObserve.lower_kernel` uses), a plain node, and at most
    a zero-wakeup :class:`StaticManager`. Anything else raises
    :exc:`LoweringUnsupported` naming the first component that falls
    outside.

    Returns ``(cfg, consts)``. ``cfg`` is everything the emitted source
    depends on: the emission branches, the channel count, which
    channels have an ambient column, and the local name of each run
    constant; ``cfg["sig"]`` keys the compile cache on it. ``consts``
    holds the run constants as floats, in the order of
    ``cfg["names"]``, which the generated prologue unpacks.
    """
    from ...conditioning.base import InputConditioner, OutputConditioner
    from ...conditioning.converters import BuckBoostConverter
    from ...conditioning.mppt import _PERTURB_OBSERVE_STEP, PerturbObserve
    from ...core.manager import StaticManager
    from ...core.system import (
        HarvestingChannel,
        MultiSourceSystem,
        StorageBank,
    )
    from ...load.node import WirelessSensorNode
    from ...storage.supercapacitor import Supercapacitor

    lowering = plan.lowering
    system = plan.system
    dt = plan.dt
    _require(system, MultiSourceSystem)
    if lowering.bus is not None:
        raise _outside(lowering.bus, "drives a bus; the fused loop has no "
                                     "bus phase")
    bank = system.bank
    _require(bank, StorageBank)
    if len(bank.stores) != 1:
        raise _outside(bank, f"holds {len(bank.stores)} stores; the fused "
                             f"emission inlines exactly one")
    store = bank.stores[0]
    _require(store, Supercapacitor)
    if store.is_backup:
        raise _outside(store, "is a backup store; the fused emission has "
                              "no backup cascade")
    mgr = system.manager
    if mgr is not None:
        _require(mgr, StaticManager)
        if mgr.wakeup_energy_j != 0.0:
            raise _outside(mgr, "spends wakeup energy; the fused emission "
                                "inlines only its scheduling counters")
    output = system.output
    _require(output, OutputConditioner)
    oconv = output.converter
    _require(oconv, BuckBoostConverter)
    node = system.node
    _require(node, WirelessSensorNode)
    consts: dict = {}

    def const(name: str, value) -> str:
        """Register a run constant; its local name in the emitted code."""
        consts[name] = float(value)
        return name

    channels = []
    for k, ch in enumerate(system.channels):
        _require(ch, HarvestingChannel)
        if not ch.enabled:
            raise _outside(ch, f"{ch.name!r} is disabled")
        cond = ch.conditioner
        _require(cond, InputConditioner)
        tracker = cond.tracker
        _require(tracker, PerturbObserve)
        if type(tracker).step is not _PERTURB_OBSERVE_STEP:
            raise _outside(tracker, "has a step installed on its class; "
                                    "the fused emission inlines the "
                                    "library's own")
        cconv = cond.converter
        _require(cconv, BuckBoostConverter)
        if not is_library_harvester(ch.harvester):
            raise _outside(ch.harvester, "is not a library harvester, "
                                         "whose physics the fused memos "
                                         "assume pure")
        channels.append({
            "has_col": bool(has_cols[k]),
            "period": const(f"PERIOD_{k}", tracker.update_period),
            "frac": const(f"FRAC_{k}", tracker.step_fraction),
            "cvlo": const(f"CVLO_{k}", cconv.min_input_voltage),
            "cvhi": const(f"CVHI_{k}", cconv.max_input_voltage),
            "cpeak": const(f"CPEAK_{k}", cconv.peak_efficiency),
            "cover": const(f"COVER_{k}", cconv.overhead_power),
        })
    demand_run = (node.sleep_power_w +
                  node.measurement_energy() / node.measurement_interval_s)
    reboot_power = node._reboot_power()
    if demand_run <= 0.0 or reboot_power <= 0.0:
        # The §4 emission elides run_plan's ``demand <= 0.0`` test.
        raise _outside(node, "has a non-positive demand; the fused "
                             "emission elides the zero-demand branch")
    needed_margin = demand_run - node.sleep_power_w
    (c_fast, c_slow, half_cs, cap_f, capacity_j, min_v2, full_e,
     floor_e, half_cf, alpha, leak) = store._kernel_consts(dt)
    cfg = {
        "dt": const("DT", dt),
        "tq": const("TQ", lowering.quiescent_a),
        "c_fast": const("C_FAST", c_fast), "c_slow": const("C_SLOW", c_slow),
        "half_cs": const("HALF_CS", half_cs), "cap_f": const("CAP_F", cap_f),
        "capacity": const("CAPACITY", capacity_j),
        "min_v2": const("MIN_V2", min_v2),
        "full_e": const("FULL_E", full_e),
        "floor_e": const("FLOOR_E", floor_e),
        "half_cf": const("HALF_CF", half_cf), "alpha": const("ALPHA", alpha),
        "leak": const("LEAK", leak),
        "has_slow": c_slow > 0.0,
        "max_d": (None if store.max_discharge_w == _INF
                  else const("MAX_D", store.max_discharge_w)),
        "sleep": const("SLEEP", node.sleep_power_w),
        "reboot_power": const("REBOOT_POWER", reboot_power),
        "reboot_time": const("REBOOT_TIME", node.reboot_time_s),
        "demand_run": const("DEMAND_RUN", demand_run),
        "full_rate": const("FULL_RATE", dt / node.measurement_interval_s),
        "needed_margin": const("NEEDED_MARGIN", needed_margin),
        "no_margin": needed_margin <= 0.0,
        "out_min_v": const("OUT_MIN_V", output.min_input_voltage),
        # BuckBoostConverter.input_power's leading products, hoisted.
        "ofour": const("OFOUR", 4.0 * oconv.peak_efficiency *
                       oconv.overhead_power),
        "otwo": const("OTWO", 2.0 * oconv.peak_efficiency),
        "ovlo": const("OVLO", oconv.min_input_voltage),
        "ovhi": const("OVHI", oconv.max_input_voltage),
        "manager": mgr is not None,
        "mgr_period": (const("MGR_PERIOD", mgr.control_period)
                       if mgr is not None else None),
        "channels": channels,
        "names": tuple(consts),
    }
    cfg["sig"] = repr([(key, cfg[key]) for key in sorted(cfg)])
    return cfg, tuple(consts.values())


# ----------------------------------------------------------------------
# Fused-mode emitter
# ----------------------------------------------------------------------
def _sync_lines(ind: str, c) -> list:
    """Inlined ``Supercapacitor._kernel_sync`` over the float locals."""
    lines = [
        f"{ind}d_f = v_fast * v_fast - {c['min_v2']}",
        f"{ind}usable = {c['half_cf']} * (d_f if d_f > 0.0 else 0.0)",
    ]
    if c["has_slow"]:
        lines += [
            f"{ind}d_s = v_slow * v_slow - {c['min_v2']}",
            f"{ind}usable += {c['half_cs']} * (d_s if d_s > 0.0 else 0.0)",
        ]
    lines.append(f"{ind}sc_energy = usable if usable < {c['capacity']} "
                 f"else {c['capacity']}")
    return lines


def _charge_lines(ind: str, c, pvar: str, accvar: str) -> list:
    """Inlined bank charge (store charge + single-store spill wrapper).

    Caller guarantees ``pvar != 0.0`` (run_plan's ``delivered > 0.0``
    gate / the return-to-bank nonzero check subsume the closure's
    zero-power early return).
    """
    lines = [
        f"{ind}e_fast = {c['half_cf']} * (v_fast * v_fast)",
        f"{ind}room = {c['full_e']} - e_fast",
        f"{ind}if room < 0.0:",
        f"{ind}    room = 0.0",
        f"{ind}dj = {pvar} * {c['dt']}",
        f"{ind}if dj > room:",
        f"{ind}    dj = room",
        f"{ind}e_fast += dj",
        f"{ind}v_fast = sqrt(2.0 * e_fast / {c['c_fast']})",
    ]
    lines += _sync_lines(ind, c)
    lines += [
        f"{ind}sc_charged += dj",
        f"{ind}{accvar} = dj / {c['dt']}",
        f"{ind}remaining = {pvar} - {accvar}",
        f"{ind}if remaining > 0.0:",
        f"{ind}    spilled += remaining * {c['dt']}",
    ]
    return lines


def _discharge_lines(ind: str, c, pvar: str, outvar: str) -> list:
    """Inlined store discharge; caller guarantees ``pvar != 0.0``."""
    if c["max_d"] is None:
        deliverable = pvar  # max_discharge_w == inf: min() is identity
    else:
        deliverable = (f"({pvar} if {pvar} <= {c['max_d']} "
                       f"else {c['max_d']})")
    lines = [
        f"{ind}e_fast = {c['half_cf']} * (v_fast * v_fast)",
        f"{ind}available = e_fast - {c['floor_e']}",
        f"{ind}if available < 0.0:",
        f"{ind}    available = 0.0",
        f"{ind}dj = {deliverable} * {c['dt']}",
        f"{ind}if dj > available:",
        f"{ind}    dj = available",
        f"{ind}e_fast -= dj",
        f"{ind}v_fast = sqrt(2.0 * e_fast / {c['c_fast']})",
    ]
    lines += _sync_lines(ind, c)
    lines += [
        f"{ind}sc_discharged += dj",
        f"{ind}{outvar} = dj / {c['dt']}",
    ]
    return lines


def _emit_fused(c) -> str:
    """Emit the fully-fused loop for the qualifying platform shape.

    All mutable state lives in plain Python locals for the whole
    segment; component objects are read once in the prologue and
    written back once after the loop. Only the leaf harvester physics
    (``open_circuit_voltage`` / ``power_at`` / ``max_power``, and the
    P&O updates' per-step ``lower_iv``) stays as calls, behind
    single-slot memos that are sound because
    library harvesters are pure in ``(voltage, ambient)`` — the same
    purity assumption the scalar kernel's MPP memo and the batched
    tier's I-V surfaces already rely on. The buck-boost forward curve
    ignores its output voltage and P&O's duty is exactly 1.0, so the
    per-channel ``(raw, delivered)`` pair is pure in (tracker voltage,
    ambient value) and memoizes on that key bit-exactly.
    """
    DT = c["dt"]
    L: list[str] = [_SIGNATURE]
    A = L.append
    E = L.extend
    A("    RUNNING = ctx['RUNNING']")
    A("    DEAD = ctx['DEAD']")
    A("    REBOOTING = ctx['REBOOTING']")
    A("    HarvestStep = ctx['HarvestStep']")
    A("    sqrt = ctx['sqrt']")
    A("    po_updates = ctx['po_updates']")
    A("    _int = int")
    A("    _min = min")
    A("    _max = max")
    A("    INF = float('inf')")
    A(f"    ({', '.join(c['names'])},) = consts")
    A("    node = system.node")
    A("    bank = system.bank")
    A("    store = bank.stores[0]")
    if c["manager"]:
        A("    mgr = system.manager")
    for k, ch in enumerate(c["channels"]):
        A(f"    ch_{k} = system.channels[{k}]")
        A(f"    h_voc_{k} = ch_{k}.harvester.open_circuit_voltage")
        A(f"    h_pat_{k} = ch_{k}.harvester.power_at")
        A(f"    h_iv_{k} = ch_{k}.harvester.lower_iv")
        A(f"    h_max_{k} = ch_{k}.harvester.max_power")
        A(f"    tr_{k} = ch_{k}.conditioner.tracker")
        if ch["has_col"]:
            A(f"    av_{k} = avs[{k}]")
    for name, col in _SCALAR_COLS:
        A(f"    {name} = scalars['{col}']")
    # -- state unpack: objects -> locals --------------------------------
    A("    v_fast = store.v_fast")
    A("    v_slow = store.v_slow")
    A("    sc_energy = store.energy_j")
    A("    sc_charged = store.total_charged_j")
    A("    sc_discharged = store.total_discharged_j")
    A("    spilled = bank.spilled_j")
    A("    nstate = 0 if node.state is RUNNING else "
      "(1 if node.state is DEAD else 2)")
    A("    nreboot = node._reboot_remaining")
    A("    nmeas = node.total_measurements")
    A("    npack = node.total_packets")
    A("    nenergy = node.total_energy_j")
    A("    ndead = node.dead_seconds")
    A("    nbrown = node.brownouts")
    if c["manager"]:
        A("    mgr_since = mgr._since_control")
        A("    mgr_passes = mgr.control_passes")
        A("    mgr_spent = mgr.energy_spent_j")
    for k in range(len(c["channels"])):
        A(f"    tv_{k} = tr_{k}._voltage")
        A(f"    tlp_{k} = tr_{k}._last_power")
        A(f"    tdir_{k} = tr_{k}._direction")
        A(f"    tel_{k} = tr_{k}._elapsed")
        A(f"    vochas_{k} = False")
        A(f"    vockey_{k} = 0.0")
        A(f"    vocval_{k} = 0.0")
        A(f"    mhas_{k} = False")
        A(f"    mkey_{k} = 0.0")
        A(f"    mval_{k} = 0.0")
        A(f"    chas_{k} = False")
        A(f"    ckv_{k} = 0.0")
        A(f"    cka_{k} = 0.0")
        A(f"    cmraw_{k} = 0.0")
        A(f"    cmdel_{k} = 0.0")
    A("    for i in range(n_steps):")
    A("        t = times[i]")
    if c["manager"]:
        # StaticManager.control with wakeup_energy_j == 0 and a no-op
        # policy: only the scheduling counters remain.
        A(f"        mgr_since += {DT}")
        A(f"        if mgr_since >= {c['mgr_period']}:")
        A("            mgr_since = 0.0")
        A("            mgr_passes += 1")
        A("            mgr_spent += 0.0")
    A("        bus_v = v_fast")
    A("        row = base + i")
    A("        raw = 0.0")
    A("        delivered = 0.0")
    A("        mpp = 0.0")
    for k, ch in enumerate(c["channels"]):
        value = f"av_{k}[i]" if ch["has_col"] else "0.0"
        A(f"        av = {value}")
        # P&O step bookkeeping, inlined; Voc behind a pure single-slot
        # memo; the control updates fast-forward exact limit cycles.
        A(f"        if vochas_{k} and av == vockey_{k}:")
        A(f"            voc = vocval_{k}")
        A("        else:")
        A(f"            voc = h_voc_{k}(av)")
        A(f"            vockey_{k} = av")
        A(f"            vocval_{k} = voc")
        A(f"            vochas_{k} = True")
        A("        if voc <= 0.0:")
        A(f"            tv_{k} = None")
        A(f"            tlp_{k} = None")
        A(f"            tvolt_{k} = 0.0")
        A("        else:")
        A(f"            if tv_{k} is None:")
        A(f"                tv_{k} = 0.5 * voc")
        A(f"            tel_{k} += {DT}")
        A(f"            updates = _int(tel_{k} / {ch['period']})")
        A(f"            tel_{k} -= updates * {ch['period']}")
        A("            if updates:")
        A("                if updates > 64:")
        A("                    updates = 64")
        A(f"                tv_{k}, tlp_{k}, tdir_{k} = po_updates(")
        A(f"                    h_iv_{k}(av)[0], av, voc, {ch['frac']}, "
          f"tv_{k}, tlp_{k}, tdir_{k}, updates)")
        A(f"            tvolt_{k} = tv_{k}")
        # Single-slot MPP memo (the scalar kernel's, flag-based).
        A(f"        if mhas_{k} and av == mkey_{k}:")
        A(f"            mpp_{k} = mval_{k}")
        A("        else:")
        A(f"            mpp_{k} = h_max_{k}(av)")
        A(f"            mkey_{k} = av")
        A(f"            mval_{k} = mpp_{k}")
        A(f"            mhas_{k} = True")
        # Conditioner chain: P&O always harvests at duty 1.0 (x * 1.0
        # is x for every float, so the multiply is omitted), and the
        # buck-boost forward curve ignores bus_v — (raw, delivered) is
        # pure in (tracker voltage, ambient) and memoizes exactly.
        A(f"        if tvolt_{k} <= 0.0:")
        A(f"            raw_{k} = 0.0")
        A(f"            del_{k} = 0.0")
        A(f"        elif chas_{k} and tvolt_{k} == ckv_{k} "
          f"and av == cka_{k}:")
        A(f"            raw_{k} = cmraw_{k}")
        A(f"            del_{k} = cmdel_{k}")
        A("        else:")
        A(f"            raw_{k} = h_pat_{k}(tvolt_{k}, av)")
        A(f"            if raw_{k} == 0.0:")
        A(f"                del_{k} = 0.0")
        A(f"            elif {ch['cvlo']} <= tvolt_{k} <= {ch['cvhi']}:")
        A(f"                del_{k} = raw_{k} * ({ch['cpeak']} * raw_{k} "
          f"/ (raw_{k} + {ch['cover']}))")
        A("            else:")
        A(f"                del_{k} = raw_{k} * 0.0")
        A(f"            if del_{k} == 0.0 and raw_{k} > 0.0:")
        A(f"                raw_{k} = 0.0")
        A(f"            ckv_{k} = tvolt_{k}")
        A(f"            cka_{k} = av")
        A(f"            cmraw_{k} = raw_{k}")
        A(f"            cmdel_{k} = del_{k}")
        A(f"            chas_{k} = True")
        A(f"        raw += raw_{k}")
        A(f"        delivered += del_{k}")
        A(f"        mpp += mpp_{k}")
        A(f"        chan_p[row, {k}] = del_{k}")
    # §2 tail: charge the bank with the harvested power.
    A("        if delivered > 0.0:")
    E(_charge_lines("            ", c, "delivered", "accepted"))
    A("        else:")
    A("            accepted = 0.0")
    # §3 quiescent losses (no bus in the fused envelope).
    A(f"        iq = {c['tq']} * (bus_v if bus_v > 0.0 else 0.0)")
    A("        if iq > 0.0:")
    E(_discharge_lines("            ", c, "iq", "quiescent_drawn"))
    A("        else:")
    A("            quiescent_drawn = 0.0")
    # §4 supply the node through the output stage.
    A(f"        demand = {c['demand_run']} if nstate == 0 "
      f"else {c['reboot_power']}")
    A("        sv = v_fast")
    # Brown-out window + converter window (a NaN store voltage fails
    # it); past them the buck-boost's closed-form root.
    A(f"        if sv < {c['out_min_v']} or "
      f"not {c['ovlo']} <= sv <= {c['ovhi']}:")
    A("            needed = INF")
    A("        else:")
    A(f"            needed = (demand + sqrt(demand * demand + {c['ofour']} "
      f"* demand)) / {c['otwo']}")
    A("        if needed == INF:")
    A("            supplied = 0.0")
    A("            drawn = 0.0")
    A("        else:")
    E(_discharge_lines("            ", c, "needed", "drawn"))
    A("            supplied = demand * (drawn / needed) "
      "if needed > 0.0 else 0.0")
    # Node brown-out state machine, states as recorder codes 0/1/2.
    A(f"        if nstate == 1 and supplied < {c['sleep']}:")
    A(f"            ndead += {DT}")
    A("            res_state = 1")
    A("            consumed = 0.0")
    A("            meas = 0.0")
    A("        else:")
    A("            if nstate == 1:")
    A("                nstate = 2")
    A(f"                nreboot = {c['reboot_time']}")
    A("            if nstate == 2:")
    A(f"                if supplied < {c['reboot_power']}:")
    A("                    nstate = 1")
    A(f"                    ndead += {DT}")
    A("                    res_state = 1")
    A("                    consumed = 0.0")
    A("                    meas = 0.0")
    A("                else:")
    A(f"                    reboot_spent = _min({DT}, "
      f"_max(nreboot, 0.0))")
    A(f"                    nreboot -= {DT}")
    A(f"                    consumed = ({c['reboot_power']} * reboot_spent"
      f" + {c['sleep']} * ({DT} - reboot_spent)) / {DT}")
    A(f"                    nenergy += consumed * {DT}")
    A("                    if nreboot <= 0.0:")
    A("                        nstate = 0")
    A("                    ndead += reboot_spent")
    A("                    res_state = 2")
    A("                    meas = 0.0")
    A(f"            elif supplied < {c['sleep']}:")
    A("                nstate = 1")
    A("                nbrown += 1")
    A(f"                ndead += {DT}")
    A("                res_state = 1")
    A("                consumed = 0.0")
    A("                meas = 0.0")
    A("            else:")
    A(f"                consumed = {c['demand_run']} "
      f"if {c['demand_run']} <= supplied else supplied")
    if c["no_margin"]:
        A("                meas = 0.0")
    else:
        A(f"                margin = consumed - {c['sleep']}")
        A(f"                _fr = margin / {c['needed_margin']}")
        A(f"                meas = {c['full_rate']} * "
          f"(1.0 if 1.0 <= _fr else _fr)")
    A("                nmeas += meas")
    A("                npack += meas")
    A(f"                nenergy += consumed * {DT}")
    A("                res_state = 0")
    # Return the unconsumed part of the draw to the bank.
    A("        if supplied > 0.0 and consumed < supplied - 1e-15:")
    A("            _rp = drawn * (1.0 - consumed / supplied)")
    A("            if _rp != 0.0:")
    E(_charge_lines("                ", c, "_rp", "_racc"))
    # §5 idle: redistribution + leakage.
    if c["has_slow"]:
        A(f"        v_eq = ({c['c_fast']} * v_fast + {c['c_slow']} * "
          f"v_slow) / {c['cap_f']}")
        A(f"        v_fast += {c['alpha']} * (v_eq - v_fast)")
        A(f"        v_slow += {c['alpha']} * (v_eq - v_slow)")
    A(f"        v_fast *= {c['leak']}")
    E(_sync_lines("        ", c))
    # §6 record.
    A("        col_t[row] = t")
    A("        col_raw[row] = raw")
    A("        col_del[row] = delivered")
    A("        col_mpp[row] = mpp")
    A("        col_acc[row] = accepted")
    A("        col_qsc[row] = quiescent_drawn")
    A("        col_dem[row] = demand")
    A("        col_sup[row] = supplied")
    A("        col_con[row] = consumed")
    A("        col_bak[row] = 0.0")
    A("        col_mea[row] = meas")
    A("        state_arr[row] = res_state")
    A("        store_e[row, 0] = sc_energy")
    A("        store_v[row, 0] = v_fast")
    # -- write-back: locals -> objects ----------------------------------
    A("    store.v_fast = v_fast")
    A("    store.v_slow = v_slow")
    A("    store.energy_j = sc_energy")
    A("    store.total_charged_j = sc_charged")
    A("    store.total_discharged_j = sc_discharged")
    A("    bank.spilled_j = spilled")
    A("    node.state = RUNNING if nstate == 0 else "
      "(DEAD if nstate == 1 else REBOOTING)")
    A("    node._reboot_remaining = nreboot")
    A("    node.total_measurements = nmeas")
    A("    node.total_packets = npack")
    A("    node.total_energy_j = nenergy")
    A("    node.dead_seconds = ndead")
    A("    node.brownouts = nbrown")
    if c["manager"]:
        A("    mgr._since_control = mgr_since")
        A("    mgr.control_passes = mgr_passes")
        A("    mgr.energy_spent_j = mgr_spent")
    for k in range(len(c["channels"])):
        A(f"    tr_{k}._voltage = tv_{k}")
        A(f"    tr_{k}._last_power = tlp_{k}")
        A(f"    tr_{k}._direction = tdir_{k}")
        A(f"    tr_{k}._elapsed = tel_{k}")
        A(f"    ch_{k}.last_step = HarvestStep(raw_{k}, del_{k}, "
          f"tvolt_{k}, mpp_{k})")
    A("")
    return "\n".join(L)

