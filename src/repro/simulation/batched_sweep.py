"""The sweep runner's batched execution tier.

Bridges :class:`~repro.simulation.sweep.SweepRunner` and the batched
kernel (:mod:`repro.simulation.kernel.batched`): scenarios are probed
cheaply (one probe per *topology group*, memoized on the group
signature), grouped by system topology, compiled into one
:class:`BatchedPlan` per group, and stepped in lockstep. Scenarios the
envelope excludes — forced ``fast=False``, carrying scheduled events,
or built from components without a batched lowering — are handed back
with a capability report so the runner can route them through the
per-scenario tiers, where the engine fires events between steps.

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
from .engine import SimulationResult, check_fast
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


def run_batched_tier(specs, default_fast, on_result=None,
                     route_narrow=False):
    """Try to run each spec on the batched kernel.

    Returns ``(results, remainder, reasons, built)``: a dict mapping
    spec index to its :class:`ScenarioResult`, a dict mapping each index
    that must run on the per-scenario tiers (in input order) to the spec
    to run there, each refused index's
    :class:`~repro.simulation.kernel.protocol.CapabilityReport` (for
    fallback-row extras, ``batch=True`` errors, and ``--explain``), and
    ``(system, build_s)`` for each remainder index whose system was
    built here, so the in-process tier need not build it again
    (``build_s`` also counts any environment the remainder spec
    carries). A group :meth:`BatchedPlan.compile` refuses is refused
    whole.

    With ``route_narrow`` (``SweepRunner(batch="auto")``), every group
    of fewer than :data:`LOCKSTEP_MIN_LANES` lanes joins the remainder
    with no report. A topology with fewer lanes than that never builds
    its environments here; a wider one that ``dt`` or duration splits
    into narrow groups hands back specs carrying the environments
    already built, so no scenario synthesizes its traces twice.

    ``on_result(index, result, wall_time_s)``, when given, fires for
    each scenario once its topology group's metrics are in (lockstep
    groups finish whole, so per-scenario completion *is* per-group
    completion). The wall time is the scenario's own system and
    environment build plus an equal share of its group's compile, run,
    metrics and ``collect`` time, the same work the per-scenario tiers
    time. The catalog uses this to checkpoint batched sweeps
    incrementally.
    """
    from .sweep import ScenarioResult, _build_environment, _build_system

    results: dict = {}
    remainder: dict = {}
    reasons: dict = {}
    groups: dict = {}
    built: dict = {}
    # Eligibility probes are memoized per topology signature: every
    # scenario of one group shares component classes and capabilities,
    # so one compile probe answers for all of them. The group compile
    # below stays authoritative for instance state the signature cannot
    # see.
    probe_cache: dict = {}
    eligible: list = []

    def hand_back(index, spec, report=None, system=None, build_s=0.0):
        remainder[index] = spec
        if report is not None:
            reasons[index] = report
        if system is not None:
            built[index] = (system, build_s)

    def hand_back_group(entries, report=None) -> None:
        # The environments built here ride along in the specs, so no
        # scenario synthesizes its traces twice.
        for index, spec, system, environment, build_s in entries:
            hand_back(index, dataclasses.replace(
                spec, environment=environment), report, system, build_s)

    for index, spec in enumerate(specs):
        t0 = time.perf_counter()
        scenario_fast = check_fast(
            spec.fast if spec.fast != "auto" else default_fast)
        if scenario_fast is False:
            hand_back(index, spec, CapabilityReport(
                component="scenario", capability="compiled execution",
                detail="fast=False forces the per-scenario legacy path"))
            continue
        if spec.events is not None:
            hand_back(index, spec, CapabilityReport(
                component="scenario", capability="event-free run",
                detail="scheduled events run per scenario on the engine"))
            continue
        system = _build_system(spec)
        probe_dt = spec.dt if spec.dt is not None else 1.0
        try:
            topology = group_signature(system, None, 0)
        except Exception:
            hand_back(index, spec, CapabilityReport(
                component=type(system).__name__,
                capability="recognizable topology signature",
                detail="unrecognized system shape"),
                system, time.perf_counter() - t0)
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
            hand_back(index, spec, reason, system, time.perf_counter() - t0)
            continue
        eligible.append((index, spec, system, topology,
                         time.perf_counter() - t0))

    lanes = Counter(topology for _, _, _, topology, _ in eligible)
    for index, spec, system, topology, build_s in eligible:
        if route_narrow and lanes[topology] < LOCKSTEP_MIN_LANES:
            hand_back(index, spec, system=system, build_s=build_s)
            continue
        t0 = time.perf_counter()
        environment = _build_environment(spec)
        build_s += time.perf_counter() - t0
        dt = spec.dt if spec.dt is not None else environment.dt
        duration = spec.duration if spec.duration is not None \
            else environment.duration
        if dt <= 0 or duration <= 0:
            # Hand invalid geometry to the per-scenario path so the
            # canonical Simulator errors are raised.
            hand_back(index, spec, CapabilityReport(
                component="scenario", capability="valid run geometry",
                detail="invalid dt/duration"), system, build_s)
            continue
        n_steps = max(1, int(round(duration / dt)))
        key = group_signature(system, dt, n_steps)
        groups.setdefault(key, []).append(
            (index, spec, system, environment, build_s))

    # A group signature leads with the group's dt and step count.
    for (dt, n_steps, *_), entries in groups.items():
        if route_narrow and len(entries) < LOCKSTEP_MIN_LANES:
            hand_back_group(entries)
            continue
        t0 = time.perf_counter()
        try:
            plan = BatchedPlan.compile([e[2] for e in entries], dt)
        except LoweringUnsupported as exc:
            # The memoized probe vouched for the topology, but the group
            # refuses on instance state the signature cannot see (a
            # wake-up energy, a level count): it runs per scenario.
            hand_back_group(entries, exc.capability_report())
            continue
        compileds = [CompiledEnvironment(env, 0.0, n_steps, dt)
                     for _, _, _, env, _ in entries]
        recorders = [Recorder(dt) for _ in entries]
        paths = run_batched(plan, compileds, recorders, n_steps, dt)
        for (index, spec, system, _, _), recorder, path in zip(
                entries, recorders, paths):
            metrics = compute_metrics(recorder)
            extras = {}
            if spec.collect is not None:
                extras = dict(spec.collect(SimulationResult(
                    system, recorder, metrics, execution_path=path)) or {})
            results[index] = ScenarioResult(
                name=spec.name,
                params=dict(spec.params),
                metrics=metrics,
                n_steps=len(recorder),
                extras=extras,
                execution_path=path,
            )
        if on_result is not None:
            share = (time.perf_counter() - t0) / len(entries)
            for index, _, _, _, build_s in entries:
                on_result(index, results[index], build_s + share)

    return results, dict(sorted(remainder.items())), reasons, built
