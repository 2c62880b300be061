"""Fixed-step simulation engine.

Drives a :class:`~repro.core.MultiSourceSystem` against an
:class:`~repro.environment.Environment`, applying scheduled events
(hot-swaps) and recording every step. This is the loop every experiment
in DESIGN.md runs; determinism comes from the environment's seeded traces
and the engine's fixed step order.

Time is tracked as an integer step counter with ``time = t0 + i * dt``,
never by accumulating ``time += dt``: over millions of steps the
accumulated form drifts by many ULPs, silently shifting which trace
sample and which scheduled event a step sees. The integer form is exact
for any run length and makes segmented runs (repeated :meth:`Simulator.
run` calls) identical to one long run.

Two execution paths produce bit-for-bit identical results:

* the **legacy per-step path** — ``environment.sample`` + ``system.step``
  per step, retaining full :class:`SystemStepRecord` objects;
* the **compiled kernel** (``fast="auto"``/``True``) — ambient channels
  pre-materialized into a dense matrix by
  :class:`~repro.environment.CompiledEnvironment`, every component
  lowered to specialized per-step closures
  (:mod:`repro.simulation.kernel`), and the hot loop writing the
  recorder's columnar arrays directly. Every store, harvester, tracker,
  node and manager lowers — subclasses through their own methods — so
  only an orchestration subclass (a system, bank, channel or
  conditioner overriding the step phases the kernel replicates) stays
  on the legacy path: chosen before step 0 under ``fast="auto"``, a
  ``ValueError`` under ``fast=True``.

A third tier, ``fast="codegen"``, compiles the *same* kernel plan one
step further for one platform shape: :mod:`repro.simulation.kernel.codegen`
emits the fused step-function source for a single-supercapacitor / P&O /
buck-boost system and caches the compiled function in-process,
eliminating per-component closure dispatch entirely. It honours the
kernel's numerics contract, so its recorded columns are bit-for-bit
identical to both other paths. Any other shape runs the scalar kernel
(or legacy, outside the kernel envelope) and the refusal is reported on
:attr:`SimulationResult.codegen_fallback`.
"""

from __future__ import annotations

from ..core.system import MultiSourceSystem
from ..environment.ambient import Environment
from ..environment.compiled import CompiledEnvironment
from .events import EventSchedule, SimEvent
from .kernel.codegen import prepare_codegen
from .kernel.plan import KernelPlan, run_plan, why_ineligible
from .kernel.protocol import LoweringUnsupported
from .metrics import RunMetrics, compute_metrics
from .recorder import Recorder

__all__ = ["Simulator", "SimulationResult", "simulate"]


class SimulationResult:
    """Bundle of a run's recorder, metrics, and final system state."""

    def __init__(self, system: MultiSourceSystem, recorder: Recorder,
                 metrics: RunMetrics, execution_path: str = "legacy",
                 codegen_fallback=None):
        self.system = system
        self.recorder = recorder
        self.metrics = metrics
        #: Which engine path actually ran: ``"kernel"``, ``"legacy"``,
        #: or — under ``fast="codegen"`` on the fused shape —
        #: ``"codegen"`` / ``"codegen+kernel"`` (an event handed the
        #: rest of the segment to the scalar kernel).
        self.execution_path = execution_path
        #: Under ``fast="codegen"``, the :class:`~repro.simulation.
        #: kernel.protocol.CapabilityReport` naming the first component
        #: outside the fused envelope (or outside the kernel, when the
        #: run fell to legacy); ``None`` when codegen ran.
        self.codegen_fallback = codegen_fallback

    def __repr__(self) -> str:
        m = self.metrics
        return (f"SimulationResult(uptime={m.uptime_fraction:.3f}, "
                f"harvested={m.harvested_delivered_j:.1f} J, "
                f"measurements={m.measurements:.0f}, "
                f"path={self.execution_path})")


class Simulator:
    """Fixed-step driver.

    Parameters
    ----------
    system:
        The platform under test.
    environment:
        Ambient channel traces; the simulation step defaults to the
        environment's trace step.
    events:
        Optional scheduled interventions.
    dt:
        Override simulation step, seconds.
    fast:
        ``"auto"`` (default) compiles the system onto the kernel
        (:mod:`repro.simulation.kernel`) and runs the legacy per-step
        path only for a system with an orchestration subclass, decided
        before step 0. ``True`` *requires* the kernel: construction
        raises ``ValueError`` for such a system. ``False`` forces the
        legacy path.
        ``"codegen"`` prefers the fused compiled tier
        (:mod:`repro.simulation.kernel.codegen`): on the fused platform
        shape the kernel plan is emitted as one flat step function and
        compiled once per process, and a mid-run event hands off to the
        scalar kernel (``"codegen+kernel"``); any other system runs as
        under ``"auto"`` with the refusal reported on
        :attr:`SimulationResult.codegen_fallback`. All
        paths produce bit-for-bit identical recorded columns; the path
        that actually ran is reported as :attr:`SimulationResult.
        execution_path` / :attr:`last_execution_path`. On every
        compiled path, a scheduled event that installs an orchestration
        subclass mid-run raises :exc:`~repro.simulation.kernel.
        protocol.LoweringUnsupported` naming it.
    """

    def __init__(self, system: MultiSourceSystem, environment: Environment,
                 events=None, dt: float | None = None, fast="auto"):
        self.system = system
        self.environment = environment
        self.dt = dt if dt is not None else environment.dt
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if fast not in ("auto", True, False, "codegen"):
            raise ValueError(
                f"fast must be 'auto', 'codegen', True or False, "
                f"got {fast!r}")
        if fast is True:
            reason = why_ineligible(system, self.dt)
            if reason is not None:
                raise ValueError(
                    f"fast=True but the system is outside the kernel "
                    f"envelope: {reason}")
        self.fast = fast
        if isinstance(events, EventSchedule):
            self.events = events
        else:
            self.events = EventSchedule(
                [e if isinstance(e, SimEvent) else SimEvent(*e)
                 for e in (events or ())]
            )
        self._t0 = 0.0
        self._steps_done = 0  # integer step counter; exact for any length
        #: Execution path of the most recent :meth:`run` (None before).
        self.last_execution_path: str | None = None

    @property
    def time(self) -> float:
        """Absolute simulation time; persists across :meth:`run` calls.

        Read-only and derived as ``t0 + steps_done * dt`` — the engine's
        clock is the integer step counter, so it cannot be nudged by
        assignment (the seed engine's accumulated ``time`` could be).
        """
        return self._t0 + self._steps_done * self.dt

    def run(self, duration: float | None = None) -> SimulationResult:
        """Simulate for ``duration`` seconds (default: environment length).

        Repeated calls continue from where the previous run stopped —
        experiments use this to take measurements between segments (e.g.
        before and after a scheduled hot-swap). Each call returns the
        recorder/metrics of its own segment.
        """
        if duration is None:
            duration = self.environment.duration
        if duration <= 0:
            raise ValueError("duration must be positive")
        n_steps = max(1, int(round(duration / self.dt)))
        system, dt, t0 = self.system, self.dt, self._t0
        plan = None
        codegen_fallback = None
        if self.fast in ("auto", True, "codegen"):
            try:
                plan = KernelPlan.compile(system, dt)
            except LoweringUnsupported as exc:
                if self.fast is True:
                    raise ValueError(
                        f"fast=True but the system is outside the kernel "
                        f"envelope: {exc}") from exc
                if self.fast == "codegen":
                    codegen_fallback = exc.capability_report()
        recorder = Recorder(dt, keep_records=plan is None)
        recorder.reserve(n_steps, len(system.bank.stores),
                         len(system.channels))
        if plan is not None:
            compiled = CompiledEnvironment(
                self.environment, t0, n_steps, dt,
                step_offset=self._steps_done)
            runner = None
            if self.fast == "codegen":
                try:
                    runner = prepare_codegen(plan, compiled)
                except LoweringUnsupported as exc:
                    codegen_fallback = exc.capability_report()
            i = 0
            if runner is not None:
                # Fused tier first; an event boundary hands the
                # remainder of the segment to the scalar kernel, which
                # fires the event and carries on.
                i = runner(self.events, recorder, n_steps)
            if i == n_steps:
                path = "codegen"
            else:
                run_plan(plan, compiled, self.events, recorder, n_steps,
                         dt, start=i)
                path = "kernel" if runner is None else "codegen+kernel"
        else:
            path = "legacy"
            environment, events = self.environment, self.events
            for i in range(n_steps):
                t = t0 + (self._steps_done + i) * dt
                for event in events.due(t):
                    event.action(system)
                ambient = environment.sample(t)
                record = system.step(ambient, dt, t)
                recorder.append(record)
        self._steps_done += n_steps
        self.last_execution_path = path
        return SimulationResult(system, recorder, compute_metrics(recorder),
                                execution_path=path,
                                codegen_fallback=codegen_fallback)


def simulate(system: MultiSourceSystem, environment: Environment,
             duration: float | None = None, events=None,
             dt: float | None = None, fast="auto") -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(system, environment, events=events, dt=dt,
                     fast=fast).run(duration)
