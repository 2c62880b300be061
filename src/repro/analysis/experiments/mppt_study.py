"""Experiment E5 — MPPT benefit versus overhead across deployments.

Survey Sec. IV: "Many of the systems implement some form of MPPT, which is
important providing that the overhead of implementing it does not exceed
the delivered benefits. Often this is deployment-specific."

The experiment runs one PV platform under every tracker in the library
across three deployments — bright outdoor, dim indoor office, and a windy
site (turbine instead of PV) — and reports *net* energy: delivered to the
bus minus the tracker's own standing draw. Expected shape: trackers win
comfortably outdoors (harvest is large, overhead negligible); in the dim
indoor deployment the harvest is microwatts and the cheap fixed point
closes the gap or wins, reproducing the survey's deployment-specificity.

The 3 deployments x 5 trackers grid runs as one
:class:`~repro.simulation.SweepRunner` sweep of 15 scenarios built from
picklable module-level factories, so the study fans across worker
processes with numbers identical to the sequential run. The scenarios
form 10 topology groups of one or two lanes, far below the lockstep
width (:data:`~repro.simulation.batched_sweep.LOCKSTEP_MIN_LANES`), so
each runs on the scalar kernel, where the P&O and IncCond hill climbs
skip the updates that only repeat an exact limit cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ...conditioning.mppt import (
    FixedVoltage,
    FractionalOpenCircuit,
    IncrementalConductance,
    OracleMPPT,
    PerturbObserve,
)
from ...environment.composite import (
    indoor_industrial_environment,
    outdoor_environment,
)
from ...harvesters.photovoltaic import PhotovoltaicCell
from ...harvesters.wind_turbine import MicroWindTurbine
from ...simulation.sweep import ScenarioSpec, SweepRunner
from ..reporting import render_table
from .common import DAY, make_reference_system

__all__ = ["MPPTStudyResult", "run_mppt_study", "TRACKER_FACTORIES"]

#: Nominal tracker supply voltage used to cost its standing draw.
TRACKER_SUPPLY_V = 3.3


def _oracle(fixed_v: float) -> OracleMPPT:
    return OracleMPPT()


def _perturb_observe(fixed_v: float) -> PerturbObserve:
    return PerturbObserve(quiescent_current_a=5e-6)


def _fractional_voc(fixed_v: float) -> FractionalOpenCircuit:
    return FractionalOpenCircuit(quiescent_current_a=1e-6)


def _incremental_cond(fixed_v: float) -> IncrementalConductance:
    return IncrementalConductance(quiescent_current_a=8e-6)


def _fixed_point(fixed_v: float) -> FixedVoltage:
    return FixedVoltage(fixed_v, quiescent_current_a=0.3e-6)


#: label -> factory(fixed-point setting) producing one tracker.
TRACKER_FACTORIES = {
    "oracle": _oracle,
    "perturb-observe": _perturb_observe,
    "fractional-voc": _fractional_voc,
    "incremental-cond": _incremental_cond,
    "fixed-point": _fixed_point,
}


def _pv_outdoor() -> PhotovoltaicCell:
    return PhotovoltaicCell(area_cm2=40.0, efficiency=0.16, name="pv")


def _pv_indoor() -> PhotovoltaicCell:
    return PhotovoltaicCell(area_cm2=20.0, efficiency=0.07,
                            cells_in_series=6, name="pv-indoor")


def _wind_turbine() -> MicroWindTurbine:
    return MicroWindTurbine(rotor_diameter_m=0.12, name="wind")


#: deployment -> (environment factory kwargs-free of duration/dt/seed,
#:                harvester factory, fixed-point voltage for that site).
_DEPLOYMENTS = {
    "bright-outdoor": (
        partial(outdoor_environment, cloudiness=0.15),
        _pv_outdoor,
        3.7,  # fixed point tuned for bright sun on this cell
    ),
    "dim-indoor": (
        partial(indoor_industrial_environment, work_lux=300.0),
        _pv_indoor,
        1.4,  # a sane indoor point: slightly below the dim-light MPP
    ),
    "windy-site": (
        partial(outdoor_environment, mean_wind=6.0, cloudiness=0.8),
        _wind_turbine,
        2.5,
    ),
}


@dataclass(frozen=True)
class TrackerResult:
    deployment: str
    tracker: str
    delivered_j: float
    tracker_overhead_j: float
    net_j: float
    tracking_efficiency: float


@dataclass(frozen=True)
class MPPTStudyResult:
    results: tuple
    days: float

    def deployment(self, name: str) -> tuple:
        return tuple(r for r in self.results if r.deployment == name)

    def winner(self, deployment: str) -> TrackerResult:
        """Best *realisable* tracker by net energy (oracle excluded)."""
        candidates = [r for r in self.deployment(deployment)
                      if r.tracker != "oracle"]
        return max(candidates, key=lambda r: r.net_j)

    def mppt_advantage(self, deployment: str) -> float:
        """Best tracking tracker's net over the fixed point's net."""
        fixed = next(r for r in self.deployment(deployment)
                     if r.tracker == "fixed-point")
        tracking = max((r for r in self.deployment(deployment)
                        if r.tracker not in ("oracle", "fixed-point")),
                       key=lambda r: r.net_j)
        if fixed.net_j <= 0:
            return float("inf") if tracking.net_j > 0 else 1.0
        return tracking.net_j / fixed.net_j

    def report(self) -> str:
        rows = [(r.deployment, r.tracker, f"{r.delivered_j:.2f}",
                 f"{r.tracker_overhead_j:.3f}", f"{r.net_j:.2f}",
                 f"{r.tracking_efficiency * 100:.1f} %")
                for r in self.results]
        table = render_table(
            ["deployment", "tracker", "delivered J", "overhead J", "net J",
             "tracking eff"],
            rows, title=f"E5 MPPT trade-off ({self.days:.0f} days)")
        lines = [table]
        for deployment in dict.fromkeys(r.deployment for r in self.results):
            lines.append(
                f"  {deployment}: winner={self.winner(deployment).tracker}, "
                f"MPPT advantage over fixed point = "
                f"{self.mppt_advantage(deployment):.3f}x")
        return "\n".join(lines)


def _build_system(deployment: str, label: str):
    _, harvester_factory, fixed_v = _DEPLOYMENTS[deployment]
    return make_reference_system(
        [harvester_factory()],
        tracker_factory=partial(TRACKER_FACTORIES[label], fixed_v),
        capacitance_f=100.0, initial_soc=0.5,
        measurement_interval_s=600.0,
        channel_quiescent_a=0.0,
        name=f"{deployment}:{label}")


def _collect_tracker_overhead(result) -> dict:
    tracker = result.system.channels[0].conditioner.tracker
    overhead = tracker.quiescent_current_a * TRACKER_SUPPLY_V * \
        result.metrics.duration_s
    return {"tracker_overhead_j": overhead}


def run_mppt_study(days: float = 3.0, dt: float = 60.0, seed: int = 31,
                   processes: int | None = None) -> MPPTStudyResult:
    """Run E5 across bright-outdoor / dim-indoor / windy deployments."""
    duration = days * DAY
    specs = []
    for deployment, (env_factory, _, _) in _DEPLOYMENTS.items():
        for label in TRACKER_FACTORIES:
            specs.append(ScenarioSpec(
                name=f"{deployment}:{label}",
                system=partial(_build_system, deployment, label),
                environment=partial(env_factory, duration=duration, dt=dt),
                duration=duration,
                seed=seed,
                params={"deployment": deployment, "tracker": label},
                collect=_collect_tracker_overhead,
            ))
    sweep = SweepRunner(processes=processes).run(specs)

    results = []
    for scenario in sweep:
        m = scenario.metrics
        overhead = scenario.extras["tracker_overhead_j"]
        results.append(TrackerResult(
            deployment=scenario.params["deployment"],
            tracker=scenario.params["tracker"],
            delivered_j=m.harvested_delivered_j,
            tracker_overhead_j=overhead,
            net_j=m.harvested_delivered_j - overhead,
            tracking_efficiency=m.tracking_efficiency,
        ))
    return MPPTStudyResult(results=tuple(results), days=days)
