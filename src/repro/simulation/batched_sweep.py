"""The sweep runner's batched execution tier.

Bridges :class:`~repro.simulation.sweep.SweepRunner` and the batched
kernel (:mod:`repro.simulation.kernel.batched`): scenarios are probed
cheaply (one probe per *topology group*, memoized on the group
signature), grouped by system topology, compiled into one
:class:`BatchedPlan` per group, and stepped in lockstep. Scenarios with
scheduled events ride along: the masked-lane model segments the run at
event horizons and peels diverging lanes into a scalar side-channel
(see :func:`~repro.simulation.kernel.batched.run_batched`). Scenarios
the envelope excludes — forced ``fast=False``, or built from components
without a batched lowering — are handed back with a capability report
so the runner can route them through the per-scenario tiers.

Lockstep pays only for wide groups: each lockstep step costs a fixed
number of numpy calls whatever the width, more than a whole scalar-kernel
step at a few lanes. Under ``batch="auto"`` a group narrower than
:data:`LOCKSTEP_MIN_LANES` is handed back too, without a report (width
routing is a choice, not a refusal), and runs per scenario on the scalar
kernel (``docs/batched.md``, "When lockstep pays").

Determinism: a batched scenario's rows are bit-for-bit what the
per-scenario kernel would have produced, so tier selection never changes
results — only throughput.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

from ..environment.compiled import CompiledEnvironment
from .engine import SimulationResult
from .events import EventSchedule, SimEvent
from .kernel.batched import BatchedPlan, group_signature, run_batched
from .kernel.protocol import CapabilityReport, LoweringUnsupported
from .metrics import compute_metrics
from .recorder import Recorder

__all__ = ["LOCKSTEP_MIN_LANES", "run_batched_tier"]

#: Fewest lanes a group needs before ``batch="auto"`` steps it in
#: lockstep; the measured crossover against the scalar kernel (the
#: "When lockstep pays" table in ``docs/batched.md``).
LOCKSTEP_MIN_LANES = 16

_UNPROBED = object()


def _build_schedule(spec) -> EventSchedule | None:
    """The spec's events as a fresh :class:`EventSchedule` (None if none).

    Mirrors the engine's normalization: callables are invoked (schedules
    are consumed by a run, so factories are how specs share them), bare
    tuples become :class:`SimEvent`.
    """
    events = spec.events() if callable(spec.events) else spec.events
    if events is None:
        return None
    if isinstance(events, EventSchedule):
        return events if len(events) else None
    events = [e if isinstance(e, SimEvent) else SimEvent(*e)
              for e in events]
    return EventSchedule(events) if events else None


def run_batched_tier(specs, default_fast, on_result=None,
                     route_narrow=False):
    """Try to run each spec on the batched kernel.

    Returns ``(results, remainder, reasons)``: a dict mapping spec index
    to its :class:`ScenarioResult`, a dict mapping each index that must
    run on the per-scenario tiers (in input order) to the spec to run
    there, and each refused index's
    :class:`~repro.simulation.kernel.protocol.CapabilityReport` (for
    fallback-row extras, ``batch=True`` errors, and ``--explain``).

    With ``route_narrow`` (``SweepRunner(batch="auto")``), every group
    of fewer than :data:`LOCKSTEP_MIN_LANES` lanes joins the remainder
    with no report. A topology with fewer lanes than that never builds
    its environments here; a wider one that ``dt`` or duration splits
    into narrow groups hands back specs carrying the environments
    already built, so no scenario synthesizes its traces twice.

    ``on_result(index, result, wall_time_s)``, when given, fires for
    each scenario as its topology group completes (lockstep groups
    finish whole, so per-scenario completion *is* per-group completion;
    the reported wall time is the group's divided across its lanes).
    The catalog uses this to checkpoint batched sweeps incrementally.
    """
    from .sweep import ScenarioResult, _build_environment, _build_system

    results: dict = {}
    remainder: dict = {}
    reasons: dict = {}
    groups: dict = {}
    # Eligibility probes are memoized per topology signature: every
    # scenario of one group shares component classes and capabilities,
    # so one compile probe answers for all of them. The group compile
    # below stays authoritative — a member refusing on instance state
    # the signature cannot see is re-probed individually there.
    probe_cache: dict = {}
    eligible: list = []

    def refuse(index, spec, report) -> None:
        remainder[index] = spec
        reasons[index] = report

    for index, spec in enumerate(specs):
        scenario_fast = spec.fast if spec.fast != "auto" else default_fast
        if scenario_fast is False:
            refuse(index, spec, CapabilityReport(
                component="scenario", capability="compiled execution",
                detail="fast=False forces the per-scenario legacy path"))
            continue
        system = _build_system(spec)
        probe_dt = spec.dt if spec.dt is not None else 1.0
        try:
            topology = group_signature(system, None, 0)
        except Exception:
            refuse(index, spec, CapabilityReport(
                component=type(system).__name__,
                capability="recognizable topology signature",
                detail="unrecognized system shape"))
            continue
        # Probe eligibility on the system alone before paying for the
        # environment (stochastic trace synthesis dwarfs system
        # construction): ineligible scenarios fall back without ever
        # building their environment here. Compile validity is
        # independent of dt, so a placeholder works when the spec
        # leaves dt to the environment.
        reason = probe_cache.get((probe_dt, topology), _UNPROBED)
        if reason is _UNPROBED:
            try:
                BatchedPlan.compile([system], probe_dt)
                reason = None
            except LoweringUnsupported as exc:
                reason = exc.capability_report()
            probe_cache[probe_dt, topology] = reason
        if reason is not None:
            refuse(index, spec, reason)
            continue
        eligible.append((index, spec, system, topology))

    lanes = Counter(topology for _, _, _, topology in eligible)
    for index, spec, system, topology in eligible:
        if route_narrow and lanes[topology] < LOCKSTEP_MIN_LANES:
            remainder[index] = spec
            continue
        environment = _build_environment(spec)
        dt = spec.dt if spec.dt is not None else environment.dt
        duration = spec.duration if spec.duration is not None \
            else environment.duration
        if dt <= 0 or duration <= 0:
            # Hand invalid geometry to the per-scenario path so the
            # canonical Simulator errors are raised.
            refuse(index, spec, CapabilityReport(
                component="scenario", capability="valid run geometry",
                detail="invalid dt/duration"))
            continue
        n_steps = max(1, int(round(duration / dt)))
        key = group_signature(system, dt, n_steps)
        groups.setdefault(key, []).append(
            (index, spec, system, environment, n_steps, dt))

    for entries in groups.values():
        if route_narrow and len(entries) < LOCKSTEP_MIN_LANES:
            for index, spec, _, environment, _, _ in entries:
                remainder[index] = dataclasses.replace(
                    spec, environment=environment)
            continue
        n_steps = entries[0][4]
        dt = entries[0][5]
        systems = [e[2] for e in entries]
        try:
            plan = BatchedPlan.compile(systems, dt)
        except LoweringUnsupported:
            # The memoized probe vouched for the topology, but a member
            # refuses on instance state the signature cannot see (e.g.
            # a replaced method). Re-probe individually, hand refusers
            # back, and retry with the survivors once.
            kept = []
            for entry in entries:
                try:
                    BatchedPlan.compile([entry[2]], dt)
                    kept.append(entry)
                except LoweringUnsupported as exc:
                    refuse(entry[0], entry[1], exc.capability_report())
            plan = None
            if kept:
                try:
                    plan = BatchedPlan.compile([e[2] for e in kept], dt)
                except LoweringUnsupported as exc:
                    for entry in kept:
                        refuse(entry[0], entry[1], exc.capability_report())
                    kept = []
            entries = kept
            if plan is None:
                continue
        compileds = [CompiledEnvironment(env, 0.0, n_steps, dt)
                     for _, _, _, env, _, _ in entries]
        recorders = [Recorder(dt, keep_records=False) for _ in entries]
        schedules = [_build_schedule(spec) for _, spec, _, _, _, _ in entries]
        t0 = time.perf_counter()
        paths = run_batched(plan, compileds, recorders, n_steps, dt,
                            schedules)
        lane_seconds = (time.perf_counter() - t0) / max(1, len(entries))
        for (index, spec, system, _, _, _), recorder, path in zip(
                entries, recorders, paths):
            metrics = compute_metrics(recorder)
            extras = {}
            if spec.collect is not None:
                extras = spec.collect(SimulationResult(
                    system, recorder, metrics, execution_path=path))
            results[index] = ScenarioResult(
                name=spec.name,
                params=dict(spec.params),
                metrics=metrics,
                n_steps=len(recorder),
                extras=extras,
                execution_path=path,
            )
            if on_result is not None:
                on_result(index, results[index], lane_seconds)

    return results, dict(sorted(remainder.items())), reasons
