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

* the **legacy per-step path** (``fast=False``) — ``environment.sample``
  + ``system.step`` per step, retaining full :class:`SystemStepRecord`
  objects;
* the **compiled path** (``fast="auto"``, the default) — ambient
  channels pre-materialized into a dense matrix by
  :class:`~repro.environment.CompiledEnvironment`, every component
  lowered to specialized per-step closures
  (:mod:`repro.simulation.kernel`), and the hot loop writing the
  recorder's columnar arrays directly. Every store, harvester, tracker,
  node and manager lowers — subclasses through their own methods — so
  only an orchestration subclass (a system, bank, channel or
  conditioner overriding the step phases the kernel replicates) stays
  on the legacy path, chosen before step 0.

The compiled path picks its tier per segment. A segment no scheduled
event fires in is offered to :func:`~repro.simulation.kernel.codegen.
prepare_codegen`, which accepts one platform shape — a
single-supercapacitor / P&O / buck-boost system — and runs the segment
as one fused step function (``"codegen"``), compiled once per process
per structure. Every other segment runs on the scalar kernel
(``"kernel"``), which fires events between steps.
:attr:`SimulationResult.execution_path` reports the tier that ran.
"""

from __future__ import annotations

from ..core.system import MultiSourceSystem
from ..environment.ambient import Environment
from ..environment.compiled import CompiledEnvironment
from .events import EventSchedule, SimEvent
from .kernel.codegen import prepare_codegen
from .kernel.plan import KernelPlan, run_plan
from .kernel.protocol import LoweringUnsupported
from .metrics import RunMetrics, compute_metrics
from .recorder import Recorder

__all__ = ["Simulator", "SimulationResult", "simulate"]


def check_fast(fast):
    """``fast`` itself when it is an engine-path selector, else ValueError.

    ``"auto"`` runs the compiled path, ``False`` the legacy loop. Every
    layer that takes or forwards a ``fast`` checks it here, so no value
    is accepted on one tier and refused on another.
    """
    if fast != "auto" and fast is not False:
        raise ValueError(f"fast must be 'auto' or False, got {fast!r}")
    return fast


class SimulationResult:
    """Bundle of a run's recorder, metrics, and final system state."""

    def __init__(self, system: MultiSourceSystem, recorder: Recorder,
                 metrics: RunMetrics, execution_path: str = "legacy"):
        self.system = system
        self.recorder = recorder
        self.metrics = metrics
        #: Which engine path ran the segment: ``"codegen"`` (the fused
        #: shape, no event firing), ``"kernel"`` or ``"legacy"``.
        self.execution_path = execution_path

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
        (:mod:`repro.simulation.kernel`) and runs the fused codegen step
        function where :func:`~repro.simulation.kernel.codegen.
        prepare_codegen` accepts the plan, the scalar kernel otherwise;
        a system with an orchestration subclass runs the legacy
        per-step path, decided before step 0. ``False`` forces the
        legacy path. A segment in which a scheduled event fires runs on
        the scalar kernel. All paths produce bit-for-bit identical
        recorded columns; the path that actually ran is reported as
        :attr:`SimulationResult.execution_path`. On the compiled path, a
        scheduled event that installs an orchestration subclass mid-run
        raises :exc:`~repro.simulation.kernel.protocol.
        LoweringUnsupported` naming it.
    """

    def __init__(self, system: MultiSourceSystem, environment: Environment,
                 events=None, dt: float | None = None, fast="auto"):
        self.system = system
        self.environment = environment
        self.dt = dt if dt is not None else environment.dt
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.fast = check_fast(fast)
        if isinstance(events, EventSchedule):
            self.events = events
        else:
            self.events = EventSchedule(
                [e if isinstance(e, SimEvent) else SimEvent(*e)
                 for e in (events or ())]
            )
        self._t0 = 0.0
        self._steps_done = 0  # integer step counter; exact for any length

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
        if self.fast == "auto":
            try:
                plan = KernelPlan.compile(system, dt)
            except LoweringUnsupported:
                pass  # an orchestration subclass: the legacy loop runs it
        recorder = Recorder(dt)
        recorder.reserve(n_steps, len(system.bank.stores),
                         len(system.channels))
        if plan is not None:
            compiled = CompiledEnvironment(
                self.environment, t0, n_steps, dt,
                step_offset=self._steps_done)
            runner = None
            # The fused loop fires no events: it takes only a segment
            # that no scheduled event falls in (run_plan's own test).
            if self.events.next_time() > compiled.times_list()[-1]:
                try:
                    runner = prepare_codegen(plan, compiled)
                except LoweringUnsupported:
                    pass  # outside the fused shape: the scalar kernel
            if runner is not None:
                runner(recorder, n_steps)
                path = "codegen"
            else:
                run_plan(plan, compiled, self.events, recorder, n_steps, dt)
                path = "kernel"
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
        return SimulationResult(system, recorder, compute_metrics(recorder),
                                execution_path=path)


def simulate(system: MultiSourceSystem, environment: Environment,
             duration: float | None = None, events=None,
             dt: float | None = None, fast="auto") -> SimulationResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(system, environment, events=events, dt=dt,
                     fast=fast).run(duration)
