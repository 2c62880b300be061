"""Fixed-step power-flow simulation: engine, events, recording, metrics.

Execution paths
---------------
``simulate()`` / :class:`Simulator` drive one system against one
environment; by default (``fast="auto"``) the composable kernel
(:mod:`repro.simulation.kernel`) lowers every component to specialized
per-step closures and executes with bit-for-bit identical results —
every system whose orchestration classes (system, bank, channels,
conditioners) are the library's own is inside its envelope, whatever
its stores, harvesters, node or manager. The single-supercapacitor /
P&O platform runs an event-free segment there as one fused codegen step
function, every other segment on the scalar kernel. ``fast=False``
forces the legacy per-step path, and
:attr:`SimulationResult.execution_path` reports which path actually
ran. :class:`SweepRunner` fans whole grids of :class:`ScenarioSpec`
across worker processes for the comparative studies.
"""

from .engine import SimulationResult, Simulator, simulate
from .events import EventSchedule, SimEvent, swap_harvester_event, swap_storage_event
from .kernel import (
    CapabilityReport,
    KernelPlan,
    LoweringUnsupported,
    batch_capability_report,
    batch_eligible,
    why_batch_ineligible,
)
from .metrics import RunMetrics, compute_metrics
from .montecarlo import (
    EnsembleResult,
    MetricSummary,
    replicate_seeds,
    replicate_sweep,
    run_ensemble,
)
from .recorder import Recorder
from .sweep import ScenarioResult, ScenarioSpec, SweepResult, SweepRunner

__all__ = [
    "CapabilityReport",
    "batch_capability_report",
    "batch_eligible",
    "why_batch_ineligible",
    "Simulator",
    "SimulationResult",
    "simulate",
    "SimEvent",
    "EventSchedule",
    "swap_storage_event",
    "swap_harvester_event",
    "Recorder",
    "RunMetrics",
    "compute_metrics",
    "ScenarioSpec",
    "ScenarioResult",
    "SweepResult",
    "SweepRunner",
    "EnsembleResult",
    "MetricSummary",
    "replicate_seeds",
    "replicate_sweep",
    "run_ensemble",
    "KernelPlan",
    "LoweringUnsupported",
]
