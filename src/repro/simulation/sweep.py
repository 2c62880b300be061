"""Multi-scenario sweep execution.

Every comparative claim in the survey — multi-source gain, buffer sizing,
MPPT trade-offs — is answered by running *many* simulations that differ
in one or two knobs. This module turns that pattern into data:

* :class:`ScenarioSpec` — one fully-described simulation: a system (a
  declarative :class:`~repro.spec.SystemSpec` or a zero-argument
  factory), an environment (an :class:`~repro.spec.EnvironmentSpec`, a
  ready :class:`Environment`, or a factory seeded deterministically per
  scenario), optional events, duration, and a ``params`` dict of the
  knob values the scenario represents;
* :class:`SweepRunner` — fans a list of specs across ``multiprocessing``
  workers (falling back to in-process execution for non-picklable specs
  or ``processes=1``) and returns a :class:`SweepResult`;
* :class:`SweepResult` — an ordered, tidy results table: one row per
  scenario carrying its params, its :class:`~repro.simulation.RunMetrics`,
  and any extras gathered by the spec's ``collect`` hook.

Determinism guarantee: scenario results depend only on the spec (specs or
factories plus the explicit per-scenario ``seed``), never on worker
scheduling, so a parallel sweep is row-for-row identical to running the
same specs sequentially through :func:`~repro.simulation.simulate`.
Declarative specs are plain data and always pickle, so they parallelize
unconditionally; callable factories must be top-level callables (e.g.
``functools.partial`` over module-level functions) to cross process
boundaries — closures still work, they just run in-process.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field

from ..environment.ambient import Environment
from ..spec.specs import EnvironmentSpec, SystemSpec
from .engine import check_fast, simulate
from .metrics import RunMetrics

__all__ = ["ScenarioSpec", "ScenarioResult", "SweepResult", "SweepRunner"]


@dataclass
class ScenarioSpec:
    """One scenario of a sweep.

    Parameters
    ----------
    name:
        Row label, unique within a sweep.
    system:
        A declarative :class:`~repro.spec.SystemSpec` (plain data, built
        fresh in the worker — the preferred, always-picklable form) or a
        zero-argument factory building a fresh
        :class:`~repro.core.MultiSourceSystem`. Never an instance:
        systems are stateful and each scenario must start pristine.
    environment:
        An :class:`~repro.spec.EnvironmentSpec` (built in the worker,
        with ``spec.seed`` overriding its seed when set), a ready
        :class:`Environment`, or a callable producing one; callables
        receive ``seed=<spec.seed>`` when a seed is set, so every
        scenario's stochastic traces are reproducible in isolation.
    duration:
        Simulated seconds (default: environment length).
    dt:
        Simulation step override, seconds.
    events:
        Scheduled interventions — a sequence, or a zero-argument callable
        returning one (schedules are consumed by a run, so sharing a
        sequence object across scenarios is only safe via a callable).
        A scenario with events never runs in lockstep: the batched tier
        refuses it and the engine runs it per scenario.
    seed:
        Per-scenario RNG seed handed to a callable ``environment``.
    params:
        Knob values this scenario represents; copied verbatim into the
        result row (the sweep's "tidy table" identity columns).
    collect:
        Optional hook ``(SimulationResult) -> dict`` run in the worker to
        extract extra per-scenario values (e.g. a coverage fraction from
        the recorder) that plain metrics do not carry.
    fast:
        Engine path selection for this scenario: ``"auto"`` (compiled,
        the engine picks the tier) or ``False`` (legacy per-step loop);
        see :func:`~repro.simulation.simulate`.
    """

    name: str
    system: object
    environment: object
    duration: float | None = None
    dt: float | None = None
    events: object = None
    seed: int | None = None
    params: dict = field(default_factory=dict)
    collect: object = None
    fast: object = "auto"


@dataclass(frozen=True)
class ScenarioResult:
    """One row of a sweep's results."""

    name: str
    params: dict
    metrics: RunMetrics
    n_steps: int
    extras: dict
    #: Engine path that actually ran this scenario: the engine's
    #: ("codegen", "kernel", "legacy") or the batched tier's
    #: ("batched").
    execution_path: str = "legacy"

    def row(self) -> dict:
        """Flat tidy-table row: name, params, metric fields, extras."""
        row = {"name": self.name}
        row.update(self.params)
        row.update(dataclasses.asdict(self.metrics))
        row.update(self.extras)
        row["execution_path"] = self.execution_path
        return row


class SweepResult:
    """Ordered results of one sweep (same order as the input specs).

    When the sweep ran against a catalog, ``catalog_report`` carries the
    session's hit/miss/archive counts (else it is None).
    """

    def __init__(self, results, catalog_report=None):
        self.results = tuple(results)
        self._by_name = {r.name: r for r in self.results}
        self.catalog_report = catalog_report

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index) -> ScenarioResult:
        if isinstance(index, str):
            return self._by_name[index]
        return self.results[index]

    def rows(self) -> list:
        """The sweep as a tidy table: one flat dict per scenario."""
        return [r.row() for r in self.results]

    def column(self, key: str) -> list:
        """One tidy-table column across all scenarios."""
        return [r.row().get(key) for r in self.results]

    def report(self, columns=("uptime_fraction", "harvested_delivered_j",
                              "measurements"),
               title: str = "sweep results") -> str:
        """Quick textual table of selected columns (name column implied)."""
        from ..analysis.reporting import render_table
        body = []
        for result in self.results:
            row = result.row()
            body.append((result.name,) + tuple(
                f"{row[c]:.4g}" if isinstance(row.get(c), float)
                else str(row.get(c, "-")) for c in columns))
        return render_table(("name",) + tuple(columns), body, title=title)

    def __repr__(self) -> str:
        return f"SweepResult({len(self.results)} scenarios)"


def _build_environment(spec: ScenarioSpec) -> Environment:
    env = spec.environment
    if isinstance(env, EnvironmentSpec):
        from ..spec.build import build_environment
        return build_environment(env, seed=spec.seed)
    if isinstance(env, Environment):
        return env
    if callable(env):
        if spec.seed is not None:
            return env(seed=spec.seed)
        return env()
    raise TypeError(
        f"scenario {spec.name!r}: environment must be an EnvironmentSpec, "
        f"an Environment, or a callable producing one, got {env!r}")


def _build_system(spec: ScenarioSpec):
    system = spec.system
    if isinstance(system, SystemSpec):
        from ..spec.build import build
        return build(system)
    if callable(system):
        return system()
    raise TypeError(
        f"scenario {spec.name!r}: system must be a SystemSpec or a "
        f"zero-argument factory, got {system!r}")


def _execute(payload) -> ScenarioResult:
    """Run one scenario to a picklable result row.

    ``payload`` is ``(spec, fast, batch_fallback_reason)``: the runner's
    default ``fast`` and the batched tier's capability report for a row
    it refused (None otherwise), which the row carries in its extras —
    so an archived row keeps it too. An in-process payload may end with
    the system the batched tier already built for the scenario.
    """
    spec, fast, batch_fallback_reason, *built = payload
    system = built[0] if built else _build_system(spec)
    environment = _build_environment(spec)
    events = spec.events() if callable(spec.events) else spec.events
    scenario_fast = spec.fast if spec.fast != "auto" else fast
    result = simulate(system, environment, duration=spec.duration,
                      events=events, dt=spec.dt, fast=scenario_fast)
    extras = {}
    if spec.collect is not None:
        extras = dict(spec.collect(result) or {})
    if batch_fallback_reason is not None:
        extras.setdefault("batch_fallback_reason", batch_fallback_reason)
    return ScenarioResult(
        name=spec.name,
        params=dict(spec.params),
        metrics=result.metrics,
        n_steps=len(result.recorder),
        extras=extras,
        execution_path=result.execution_path,
    )


def _timed_execute(payload) -> tuple:
    """Worker entry point: :func:`_execute` and its wall seconds, timed
    where it runs (the catalog archives that time with the row)."""
    t0 = time.perf_counter()
    result = _execute(payload)
    return result, time.perf_counter() - t0


class SweepRunner:
    """Tiered sweep executor; deterministic regardless of layout.

    Execution tiers, per scenario:

    1. **Batched** (``batch="auto"``, the default) — event-free
       scenarios whose system topology is inside the batched-kernel
       envelope (see :mod:`repro.simulation.kernel.batched`) are grouped
       by topology and stepped *in lockstep* as numpy state vectors,
       bit-for-bit identical to running them one by one. Only groups
       of at least
       :data:`~repro.simulation.batched_sweep.LOCKSTEP_MIN_LANES` lanes
       run there: a narrower group is faster on the scalar kernel, so
       its scenarios go on to the per-scenario tiers below.
    2. **Multiprocessing** — remaining picklable scenarios fan out
       across worker processes.
    3. **In-process** — everything else.

    Rows keep the input order whatever tier ran them, and
    ``execution_path`` reports which one did (``"batched"``,
    ``"codegen"``, ``"kernel"`` or ``"legacy"``). Per-scenario rows
    run the scenario's ``fast`` setting like a plain
    :func:`~repro.simulation.simulate` call, so under ``"auto"`` the
    engine picks the fused codegen tier or the scalar kernel from the
    plan. Rows the batched envelope refused carry its
    ``batch_fallback_reason`` in their extras (rows routed off it for
    width carry none), archived and restored rows included.

    Parameters
    ----------
    processes:
        Worker count for the multiprocessing tier. ``None`` (default)
        uses ``min(cpu_count, n_scenarios)``; ``0`` or ``1`` runs
        in-process.
    fast:
        Default engine path for scenarios whose spec says ``"auto"``:
        ``"auto"`` or ``False`` (``ValueError`` otherwise).
    batch:
        ``"auto"`` uses the batched tier for eligible groups of at least
        ``LOCKSTEP_MIN_LANES`` lanes and runs the rest per scenario;
        ``True`` *requires* it for every scenario at any width (raising
        ``ValueError`` naming the first ineligible scenario); ``False``
        disables it.
    catalog:
        Optional :class:`~repro.catalog.Catalog`. Before anything runs,
        every cacheable scenario is looked up by its
        ``(spec_hash, seed, code_version)`` key and archived rows are
        restored bitwise (zero simulations on a full hit). Misses
        execute normally and are archived *as each scenario completes*
        — on every tier — so an interrupted sweep resumes with only the
        missing remainder: checkpoint/resume is the same mechanism as
        dedup. The result's ``catalog_report`` carries the counts.
    """

    def __init__(self, processes: int | None = None, fast="auto",
                 batch="auto", catalog=None):
        if processes is not None and processes < 0:
            raise ValueError("processes must be non-negative")
        if batch not in ("auto", True, False):
            raise ValueError(
                f"batch must be 'auto', True or False, got {batch!r}")
        self.processes = processes
        self.fast = check_fast(fast)
        self.batch = batch
        self.catalog = catalog

    def run(self, specs) -> SweepResult:
        """Execute every spec; results keep the input order."""
        specs = list(specs)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("scenario names must be unique within a sweep")
        results: list = [None] * len(specs)
        keys: list = [None] * len(specs)
        report = None
        pending = list(range(len(specs)))
        if self.catalog is not None:
            from ..catalog.store import CatalogReport
            report = CatalogReport()
            pending = self._restore_hits(specs, results, keys, report)
        remainder = {index: specs[index] for index in pending}
        reasons: dict = {}
        built: dict = {}
        if self.batch in ("auto", True) and pending:
            from .batched_sweep import run_batched_tier
            pending_specs = [specs[i] for i in pending]
            on_result = None
            if self.catalog is not None:
                def on_result(local_index, result, wall_time_s):
                    self._archive(keys[pending[local_index]], result,
                                  report, wall_time_s)
            batched, local_remainder, local_reasons, local_built = \
                run_batched_tier(pending_specs, self.fast,
                                 on_result=on_result,
                                 route_narrow=self.batch == "auto")
            if self.batch is True and local_remainder:
                first = next(iter(local_remainder))
                raise ValueError(
                    f"batch=True but scenario {specs[pending[first]].name!r} "
                    f"is outside the batched envelope: "
                    f"{local_reasons.get(first, 'no batched lowering')}")
            for local_index, result in batched.items():
                results[pending[local_index]] = result
            remainder = {pending[i]: spec
                         for i, spec in local_remainder.items()}
            reasons = {pending[i]: r for i, r in local_reasons.items()}
            built = {pending[i]: b for i, b in local_built.items()}
        indices = list(remainder)
        # Refused rows carry the batched tier's capability report, so a
        # mixed sweep explains *why* each row missed the tier (``repro
        # sweep --batch on --explain`` renders these); rows routed off
        # it for their group's width carry none.
        payloads = [(remainder[i], self.fast, reasons.get(i))
                    for i in indices]
        n_proc = self.processes
        if n_proc is None:
            n_proc = min(len(payloads), os.cpu_count() or 1) if payloads \
                else 1
        if n_proc > 1 and len(payloads) > 1 and \
                all(self._picklable(p) for p in payloads):
            rest = self._run_pool(payloads, n_proc, indices, keys, report)
        else:
            rest = self._run_inprocess(payloads, indices, keys, report,
                                       built)
        for index, result in zip(indices, rest):
            results[index] = result
        return SweepResult(results, catalog_report=report)

    # ------------------------------------------------------------------
    # Catalog integration
    # ------------------------------------------------------------------
    def _restore_hits(self, specs, results, keys, report) -> list:
        """Fill ``results`` with archived rows; return the miss indices.

        The restore path reads only the in-memory manifest (its rows
        carry the full result), which is what keeps a full-hit sweep
        orders of magnitude faster than simulating.
        """
        from ..catalog.hashing import scenario_cache_key
        from ..catalog.store import CatalogError
        pending = []
        hit_ids = []
        for index, spec in enumerate(specs):
            key = scenario_cache_key(spec)
            keys[index] = key
            if key is None:
                report.uncacheable += 1
                pending.append(index)
                continue
            record = self.catalog.lookup(key)
            restored = None
            if record is not None:
                try:
                    restored = self.catalog.restore(
                        record, name=spec.name, params=dict(spec.params))
                except CatalogError:
                    restored = None  # unreadable record == miss
            if restored is None:
                report.misses += 1
                pending.append(index)
            else:
                report.hits += 1
                hit_ids.append(record.run_id)
                results[index] = restored
        self.catalog.record_hits(hit_ids)
        return pending

    def _archive(self, key, result, report, wall_time_s: float) -> None:
        """Checkpoint one completed scenario (no-op without a catalog or
        when uncacheable)."""
        if key is None or report is None:
            return
        if self.catalog.archive(key, result, wall_time_s) is not None:
            report.archived += 1

    def _run_inprocess(self, payloads, indices, keys, report,
                       built) -> list:
        """Run each payload here, on the system the batched tier built
        for it if any (counting that build in the archived wall time);
        the pool tier ships specs, as a built system need not pickle."""
        rest = []
        for payload, index in zip(payloads, indices):
            system, build_s = built.pop(index, (None, 0.0))
            if system is not None:
                payload += (system,)
            result, wall_time_s = _timed_execute(payload)
            self._archive(keys[index], result, report, wall_time_s + build_s)
            rest.append(result)
        return rest

    @staticmethod
    def _picklable(payload) -> bool:
        """Probe one payload (not the whole list: probing spec by spec
        keeps peak memory at one serialized scenario, not the grid)."""
        try:
            pickle.dumps(payload)
            return True
        except Exception:
            return False

    def _run_pool(self, payloads, n_proc: int, indices, keys, report):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        # Batch work into chunks so pool IPC amortizes over ~4 chunks
        # per worker instead of one round-trip per scenario.
        chunksize = max(1, len(payloads) // (4 * n_proc))
        with ctx.Pool(n_proc) as pool:
            # Stream results back (imap keeps input order); with a
            # catalog attached, each scenario is checkpointed as it
            # lands — a crash loses at most the in-flight chunk, and
            # archiving stays in the parent (the store is single-writer).
            rest = []
            for (result, wall_time_s), index in zip(
                    pool.imap(_timed_execute, payloads, chunksize=chunksize),
                    indices):
                self._archive(keys[index], result, report, wall_time_s)
                rest.append(result)
            return rest
