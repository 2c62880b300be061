"""Spec-fuzzing differential suite: legacy == kernel == batched.

A seeded generator draws random valid ``SystemSpec``/``RunSpec``
combinations from the ``repro.spec`` registry catalog (random Table I
platform + initial SoC, random registered environment + jittered knobs,
random geometry and seed). Every fuzzed case is executed on the legacy
per-step engine and then differentially on the other two execution
paths:

* inside the kernel envelope, ``fast=True`` must reproduce the legacy
  recorder bit for bit; outside it, ``why_ineligible`` must name a
  reason (non-empty) and ``fast="auto"`` must land on ``"legacy"``;
* inside the batched envelope, a ``batch=True`` single-scenario sweep
  must reproduce the legacy recorder bit for bit; outside it,
  ``why_batch_ineligible`` must name a reason and a ``batch="auto"``
  sweep must fall back off the batched tier;
* under ``fast="codegen"`` a case runs the fused emission where its
  shape allows and the scalar kernel, with a report naming the refusing
  component, otherwise. Registry platforms never fuse, so a small
  fused-shape generator (PV channel count and areas, supercap size and
  SoC) makes every run reach the fused emission too.

The masked-lane envelope covers every registry platform — fuel-cell
backup cascades, P&O/IncCond hill-climbing trackers, bus/MCU
platforms — so the registry corpus exercises all of them on the
batched tier. A second seeded generator draws *event schedules*
(same-class and cross-class storage swaps, harvester swaps, t=0
events) over fuzzed reference platforms, pinning the divergence
buckets: rejoining lanes and peeled lanes must both reproduce a
per-scenario run bit for bit. Shapes with genuinely no lowering
(replaced physics) keep the fallback contract honest.

The corpus is deterministic (fixed per-case seeds), so a failure here
is a reproducible counterexample, not a flake.
"""

import dataclasses
import random
from functools import partial

import numpy as np
import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.conditioning.mppt import (
    FixedVoltage,
    IncrementalConductance,
    PerturbObserve,
)
from repro.core.manager import ThresholdManager
from repro.environment.composite import outdoor_environment
from repro.harvesters import MicroWindTurbine, PhotovoltaicCell
from repro.simulation import (
    ScenarioSpec,
    SweepRunner,
    simulate,
    swap_harvester_event,
    swap_storage_event,
    why_batch_ineligible,
)
from repro.simulation import batched_sweep
from repro.simulation.kernel import LoweringUnsupported
from repro.simulation.kernel.codegen import _fused_config
from repro.simulation.kernel.plan import KernelPlan, why_ineligible
from repro.spec import (
    REGISTRY,
    EnvironmentSpec,
    RunSpec,
    SystemSpec,
    build,
    run as run_spec,
    to_scenario,
)
from repro.storage import Supercapacitor
from repro.storage.batteries import LiIonBattery
from repro.storage.fuel_cell import HydrogenFuelCell

DAY = 86_400.0

#: Number of fuzzed cases; each is fully determined by its index.
CASES = 16

#: Valid jitter ranges for registered environment knobs. Every float
#: knob of every registered environment factory that appears here may be
#: fuzzed; knobs not listed keep their catalog defaults.
ENV_PARAM_RANGES = {
    "cloudiness": (0.0, 0.9),
    "mean_wind": (1.0, 8.0),
    "day_fraction": (0.3, 0.7),
    "flow_speed": (0.2, 2.0),
    "work_lux": (100.0, 800.0),
    "accel_rms": (0.5, 4.0),
    "delta_t_running": (5.0, 40.0),
    "broadcast_density": (0.002, 0.05),
    "winter_wind_boost": (0.0, 0.5),
    "start_day_of_year": (0.0, 365.0),
}

#: Recorder columns compared bitwise (incl. the derived ones).
COLUMNS = ("harvest_raw", "harvest_delivered", "harvest_mpp",
           "charge_accepted", "quiescent", "node_demand", "node_supplied",
           "node_consumed", "backup_power", "measurements", "stored_energy",
           "bus_voltage", "alive")


def fuzz_spec(index: int) -> RunSpec:
    """The fuzzed RunSpec of one case — a pure function of the index."""
    rng = random.Random(0xD1F5 * 1000 + index)
    system_name = rng.choice(REGISTRY.names("system"))
    system = SystemSpec(system_name,
                        {"initial_soc": round(rng.uniform(0.05, 0.95), 3)})
    env_name = rng.choice(REGISTRY.names("environment"))
    env_params = {}
    for param in REGISTRY.parameters("environment", env_name):
        if param in ENV_PARAM_RANGES and rng.random() < 0.5:
            lo, hi = ENV_PARAM_RANGES[param]
            env_params[param] = round(rng.uniform(lo, hi), 4)
    dt = rng.choice((300.0, 600.0, 900.0))
    duration = rng.choice((0.05, 0.1)) * DAY
    return RunSpec(
        system=system,
        environment=EnvironmentSpec(env_name, duration=duration, dt=dt,
                                    params=env_params),
        name=f"fuzz{index}-{system_name}@{env_name}",
        duration=duration,
        dt=dt,
        seed=rng.randrange(1 << 20),
    )


class _RetunedSupercap(Supercapacitor):
    """Replaced physics — no batched lowering can vouch for it."""

    def charge(self, power_w, dt):
        return super().charge(power_w * 0.9, dt)


class _NoisyPV(PhotovoltaicCell):
    """Replaced transducer physics — same refusal, different layer."""

    def power_at(self, ambient, voltage):
        return super().power_at(ambient, voltage) * 1.01


#: Shapes that genuinely have no batched lowering: the capability
#: negotiation must refuse them (and explain itself), never guess.
INELIGIBLE_SYSTEMS = {
    "retuned-store": lambda: make_reference_system(
        [PhotovoltaicCell(area_cm2=40.0, name="pv")],
        tracker_factory=lambda: FixedVoltage(2.0),
        stores=[_RetunedSupercap(capacitance_f=50.0, name="odd")]),
    "noisy-harvester": lambda: make_reference_system(
        [_NoisyPV(area_cm2=40.0, name="noisy")],
        tracker_factory=lambda: FixedVoltage(2.0)),
}


def fuzz_event_case(index: int):
    """One fuzzed (system builder, event factory) pair — pure in index.

    Draws the shapes the masked-lane model exists for: hill-climbing
    trackers (P&O / IncCond), optional fuel-cell backup cascades, and a
    random schedule of storage/harvester swaps whose targets force
    different divergence buckets (same-class rejoin, cross-class peel,
    t=0 peel).
    """
    rng = random.Random(0xE1E7 * 1000 + index)
    tracker = rng.choice((None,  # make_reference_system default: P&O
                          lambda: PerturbObserve(step_fraction=0.05),
                          lambda: IncrementalConductance(step_fraction=0.05),
                          lambda: FixedVoltage(2.0)))
    cap = round(rng.uniform(6.0, 60.0), 2)
    with_backup = rng.random() < 0.4
    with_manager = rng.random() < 0.5
    area = round(rng.uniform(4.0, 30.0), 2)
    soc = round(rng.uniform(0.2, 0.8), 3)

    def build_system():
        # Everything constructed fresh per call: the sweep run and the
        # per-scenario reference must not share mutable component state.
        stores = [Supercapacitor(capacitance_f=cap, initial_soc=soc,
                                 name="buf")]
        if with_backup:
            stores.append(HydrogenFuelCell(name="fc"))
        return make_reference_system(
            [PhotovoltaicCell(area_cm2=area, efficiency=0.12, name="pv")],
            tracker_factory=tracker, initial_soc=soc, stores=stores,
            manager=ThresholdManager() if with_manager else None)

    n_events = rng.randrange(0, 3)
    drawn = []
    for _ in range(n_events):
        t = rng.choice((0.0, round(rng.uniform(0.0, DAY), 0)))
        kind = rng.choice(("same-store", "cross-store", "harvester"))
        drawn.append((t, kind, round(rng.uniform(5.0, 50.0), 2),
                      round(rng.uniform(0.2, 0.8), 3)))

    def make_events():
        events = []
        for t, kind, size, esoc in drawn:
            if kind == "same-store":
                events.append(swap_storage_event(
                    t, 0, Supercapacitor(capacitance_f=size,
                                         initial_soc=esoc, name="swap")))
            elif kind == "cross-store":
                events.append(swap_storage_event(
                    t, 0, LiIonBattery(capacity_mah=10.0 * size,
                                       initial_soc=esoc, name="cell")))
            else:
                events.append(swap_harvester_event(
                    t, 0, PhotovoltaicCell(area_cm2=size, efficiency=0.12,
                                           name="new-pv")))
        return sorted(events, key=lambda e: e.time)

    return build_system, (make_events if drawn else None), rng.randrange(64)


#: Number of fuzzed fused-shape cases (see :func:`fuzz_fused_case`).
FUSED_CASES = 6


def fuzz_fused_case(index: int):
    """One fuzzed platform inside the fused codegen envelope — pure in
    index: PV channel count and areas, supercap size and initial SoC."""
    rng = random.Random(0xF05E * 1000 + index)
    areas = [round(rng.uniform(4.0, 60.0), 2)
             for _ in range(rng.randint(1, 3))]
    cap = round(rng.uniform(5.0, 80.0), 2)
    soc = round(rng.uniform(0.05, 0.95), 3)

    def build_system():
        return make_reference_system(
            [PhotovoltaicCell(area_cm2=area, efficiency=0.12, name=f"pv{k}")
             for k, area in enumerate(areas)],
            capacitance_f=cap, initial_soc=soc)

    return build_system, rng.randrange(1 << 20)


def fused_refusal(system, dt: float):
    """The component the fused envelope refuses first, or None."""
    plan = KernelPlan.compile(system, dt)
    try:
        _fused_config(plan, (True,) * len(plan.lowering.channels))
    except LoweringUnsupported as exc:
        return exc.capability_report().component
    return None


def assert_bitwise_equal(recorder, reference, label: str) -> None:
    assert len(recorder) == len(reference), f"{label}: step count diverged"
    for column in COLUMNS:
        assert np.array_equal(recorder.column(column),
                              reference.column(column)), \
            f"{label}: column {column!r} diverged"
    assert np.array_equal(recorder.state_codes(),
                          reference.state_codes()), \
        f"{label}: node state history diverged"
    for index in range(recorder.n_stores):
        assert np.array_equal(recorder.store_energy_trace(index).values,
                              reference.store_energy_trace(index).values), \
            f"{label}: store {index} energy diverged"
    for index in range(recorder.n_channels):
        assert np.array_equal(
            recorder.channel_delivered_trace(index).values,
            reference.channel_delivered_trace(index).values), \
            f"{label}: channel {index} power diverged"


def _batched_recorder(spec: RunSpec, batch):
    """Run one spec as a single-scenario sweep on the given batch tier,
    returning the (sweep row, captured SimulationResult)."""
    captured = []
    scenario = dataclasses.replace(to_scenario(spec),
                                   collect=captured.append)
    sweep = SweepRunner(processes=1, batch=batch).run([scenario])
    return sweep[0], captured[0] if captured else None


class TestFuzzedDifferential:
    def test_corpus_is_deterministic(self):
        assert [fuzz_spec(i) for i in range(CASES)] == \
            [fuzz_spec(i) for i in range(CASES)]

    def test_corpus_exercises_both_batch_outcomes(self):
        """The registry corpus all batches now (the masked-lane envelope
        covers every Table I platform); the False side of the envelope
        is covered by explicitly-ineligible shapes, so the differential
        below cannot degenerate to one branch."""
        eligibility = {
            why_batch_ineligible(build(fuzz_spec(i).system),
                                 fuzz_spec(i).dt) is None
            for i in range(CASES)
        }
        assert eligibility == {True}
        for build_ineligible in INELIGIBLE_SYSTEMS.values():
            assert why_batch_ineligible(build_ineligible(), 600.0) \
                is not None

    @pytest.mark.parametrize("shape", sorted(INELIGIBLE_SYSTEMS))
    def test_ineligible_shapes_keep_the_fallback_contract(self, shape,
                                                         monkeypatch):
        """Genuinely un-lowerable shapes: the reason is non-empty, a
        batch="auto" sweep falls off the tier, and the fallback row
        matches a tier-disabled run."""
        # One lane is too narrow for lockstep under "auto"; lower the
        # width floor so only the envelope's refusal keeps it off.
        monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
        build_ineligible = INELIGIBLE_SYSTEMS[shape]
        reason = why_batch_ineligible(build_ineligible(), 600.0)
        assert isinstance(reason, str) and reason.strip()
        env = partial(outdoor_environment, duration=0.05 * DAY, dt=600.0)
        spec = ScenarioSpec(name=shape, system=build_ineligible,
                            environment=env, seed=9)
        auto = SweepRunner(processes=1, batch="auto").run([spec])
        off = SweepRunner(processes=1, batch=False).run(
            [ScenarioSpec(name=shape, system=build_ineligible,
                          environment=env, seed=9)])
        assert auto[0].execution_path != "batched"
        assert auto[0].metrics == off[0].metrics

    def test_codegen_fallback_surfaces_capability_report(self,
                                                         monkeypatch):
        """Replaced storage physics is outside the fused envelope, so a
        ``fast="codegen"`` sweep lane runs the scalar kernel (through the
        subclass's own methods): the row must carry a non-empty
        structured CapabilityReport naming the subclass in its extras,
        and ``sweep --explain`` must render it."""
        from repro.cli import _explain_batch
        monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
        shape = "retuned-store"
        build_ineligible = INELIGIBLE_SYSTEMS[shape]
        env = partial(outdoor_environment, duration=0.05 * DAY, dt=600.0)
        spec = ScenarioSpec(name=shape, system=build_ineligible,
                            environment=env, seed=9)
        sweep = SweepRunner(processes=1, batch="auto",
                            fast="codegen").run([spec])
        row = sweep[0]
        assert row.execution_path == "kernel"
        report = row.extras.get("codegen_fallback_reason")
        assert report is not None
        assert report.component == "_RetunedSupercap"
        assert report.capability and report.detail
        rendered = _explain_batch(sweep)
        assert report.component in rendered
        assert "codegen" in rendered

    @pytest.mark.parametrize("index", range(CASES))
    def test_legacy_kernel_batched_agree(self, index, monkeypatch):
        spec = fuzz_spec(index)
        legacy = run_spec(spec, fast=False)
        assert legacy.execution_path == "legacy"

        # Kernel differential.
        kernel_reason = why_ineligible(build(spec.system), spec.dt)
        if kernel_reason is None:
            kernel = run_spec(spec, fast=True)
            assert kernel.execution_path == "kernel"
            assert_bitwise_equal(kernel.recorder, legacy.recorder,
                                 f"{spec.name} kernel")
            assert kernel.metrics == legacy.metrics
        else:
            assert isinstance(kernel_reason, str) and kernel_reason.strip(), \
                f"{spec.name}: fallback must carry a reason"
            auto = run_spec(spec, fast="auto")
            assert auto.execution_path == "legacy"
            assert auto.metrics == legacy.metrics

        # Codegen differential: inside the kernel envelope a case runs
        # fused where the fused envelope accepts it and on the kernel
        # (naming the refusing component) otherwise — bitwise either
        # way; outside it, codegen degrades to legacy with a report.
        codegen = run_spec(spec, fast="codegen")
        if kernel_reason is None:
            refusal = fused_refusal(build(spec.system), spec.dt)
            if refusal is None:
                assert codegen.execution_path == "codegen"
                assert codegen.codegen_fallback is None
            else:
                assert codegen.execution_path == "kernel"
                assert codegen.codegen_fallback.component == refusal
            assert_bitwise_equal(codegen.recorder, legacy.recorder,
                                 f"{spec.name} codegen")
            assert codegen.metrics == legacy.metrics
        else:
            assert codegen.execution_path == "legacy"
            report = codegen.codegen_fallback
            assert report is not None, \
                f"{spec.name}: codegen fallback must carry a report"
            assert report.component and report.capability and report.detail
            assert codegen.metrics == legacy.metrics

        # Batched differential.
        batch_reason = why_batch_ineligible(build(spec.system), spec.dt)
        if batch_reason is None:
            row, result = _batched_recorder(spec, batch=True)
            assert row.execution_path == "batched"
            assert_bitwise_equal(result.recorder, legacy.recorder,
                                 f"{spec.name} batched")
            assert row.metrics == legacy.metrics
        else:
            assert isinstance(batch_reason, str) and batch_reason.strip(), \
                f"{spec.name}: batched fallback must carry a reason"
            monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
            row, _ = _batched_recorder(spec, batch="auto")
            assert row.execution_path != "batched"
            assert row.metrics == legacy.metrics

    @pytest.mark.parametrize("index", range(FUSED_CASES))
    def test_fused_codegen_matches_legacy(self, index):
        """Fuzzed platforms inside the fused envelope: every case runs
        the fused emission, bit for bit equal to the legacy path."""
        build_system, seed = fuzz_fused_case(index)
        env = outdoor_environment(duration=DAY, dt=300.0, seed=seed)
        legacy = simulate(build_system(), env, dt=300.0, fast=False)
        codegen = simulate(build_system(), env, dt=300.0, fast="codegen")
        assert codegen.execution_path == "codegen"
        assert codegen.codegen_fallback is None
        assert_bitwise_equal(codegen.recorder, legacy.recorder,
                             f"fused{index}")
        assert codegen.metrics == legacy.metrics


#: Number of fuzzed event-schedule cases (see :func:`fuzz_event_case`).
EVENT_CASES = 10


class TestFuzzedEventDifferential:
    """Masked-lane differential: fuzzed event schedules over fuzzed
    platforms (hill-climbing trackers, fuel-cell backups), batched tier
    vs per-scenario engine, bit for bit."""

    def test_event_corpus_is_deterministic(self):
        a = [fuzz_event_case(i)[2] for i in range(EVENT_CASES)]
        b = [fuzz_event_case(i)[2] for i in range(EVENT_CASES)]
        assert a == b

    @pytest.mark.parametrize("index", range(EVENT_CASES))
    def test_batched_matches_per_scenario_run(self, index):
        build_system, make_events, seed = fuzz_event_case(index)
        envf = partial(outdoor_environment, duration=DAY, dt=600.0)
        captured = []
        scenario = ScenarioSpec(
            name=f"event-fuzz{index}", system=build_system,
            environment=envf, duration=DAY, seed=seed,
            events=make_events, collect=captured.append)
        row = SweepRunner(processes=1, batch=True).run([scenario])[0]
        # Event-carrying lanes ride the batched tier: they rejoin
        # lockstep or peel into the scalar side-channel, never refuse.
        assert row.execution_path.startswith("batched"), row.execution_path

        reference = simulate(
            build_system(), envf(seed=seed), duration=DAY, dt=600.0,
            events=make_events() if make_events is not None else None)
        result = captured[0]
        assert_bitwise_equal(result.recorder, reference.recorder,
                             scenario.name)
        assert row.metrics == reference.metrics
        # Write-back: the lane's component objects end bit-identical to
        # the per-scenario system, whatever bucket the lane took.
        for store, ref_store in zip(result.system.bank.stores,
                                    reference.system.bank.stores):
            assert type(store) is type(ref_store)
            assert store.energy_j == ref_store.energy_j
        assert result.system.node.total_measurements == \
            reference.system.node.total_measurements


#: Number of fuzzed plateau-harvester cases (see :func:`fuzz_plateau_case`).
PLATEAU_CASES = 6

#: Seeds per plateau case; they run as the lanes of one batched group.
PLATEAU_LANES = 4


def fuzz_plateau_case(index: int):
    """One fuzzed wind-turbine platform under a hill climb — pure in index.

    The turbine's power ceiling flattens the top of its P-V curve into a
    plateau, so a hill climb on it may cycle with a long period or never
    repeat, where on a PV hill it settles into a short cycle. The tracker
    (P&O or IncCond) runs at dt >= 300 s, so every live step's budget
    hits the 64-update cap, and the case's seeds run as the lanes of one
    batched group, whose wind traces make each lane cycle, or not, at its
    own update.
    """
    rng = random.Random(0x91A7 * 1000 + index)
    hill_climb = rng.choice(("perturb-observe", "incremental-cond"))
    step = round(rng.uniform(0.005, 0.1), 4)
    turbine = {"rotor_diameter_m": round(rng.uniform(0.08, 0.3), 3),
               "power_coefficient": round(rng.uniform(0.03, 0.15), 3),
               "kv": round(rng.uniform(0.5, 2.0), 3),
               "internal_resistance": round(rng.uniform(10.0, 60.0), 2)}
    mean_wind = round(rng.uniform(3.0, 8.0), 2)
    dt = rng.choice((300.0, 600.0, 900.0))
    seeds = [rng.randrange(1 << 20) for _ in range(PLATEAU_LANES)]

    def make_tracker():
        if hill_climb == "perturb-observe":
            return PerturbObserve(step_fraction=step)
        return IncrementalConductance(step_fraction=step,
                                      probe_fraction=step / 4.0)

    def build_system():
        return make_reference_system([MicroWindTurbine(**turbine)],
                                     tracker_factory=make_tracker)

    envf = partial(outdoor_environment, duration=DAY, dt=300.0,
                   mean_wind=mean_wind)
    return build_system, envf, dt, seeds


class TestFuzzedPlateauDifferential:
    """Hill climbs on a plateau harvester: legacy == kernel == batched,
    and == codegen where the shape is fused (P&O), bit for bit."""

    def test_plateau_corpus_is_deterministic(self):
        a = [fuzz_plateau_case(i)[2:] for i in range(PLATEAU_CASES)]
        b = [fuzz_plateau_case(i)[2:] for i in range(PLATEAU_CASES)]
        assert a == b

    @pytest.mark.parametrize("index", range(PLATEAU_CASES))
    def test_plateau_lanes_agree_across_tiers(self, index):
        build_system, envf, dt, seeds = fuzz_plateau_case(index)
        captured = {}
        scenarios = [ScenarioSpec(
            name=f"plateau{index}-{seed}", system=build_system,
            environment=envf, dt=dt, seed=seed,
            collect=partial(captured.__setitem__, seed)) for seed in seeds]
        rows = SweepRunner(processes=1, batch=True).run(scenarios)
        assert [row.execution_path for row in rows] == \
            ["batched"] * len(seeds)
        fused = fused_refusal(build_system(), dt) is None
        for seed, row in zip(seeds, rows):
            env = envf(seed=seed)
            legacy = simulate(build_system(), env, dt=dt, fast=False)
            kernel = simulate(build_system(), env, dt=dt, fast=True)
            codegen = simulate(build_system(), env, dt=dt, fast="codegen")
            assert kernel.execution_path == "kernel"
            assert codegen.execution_path == \
                ("codegen" if fused else "kernel")
            label = f"plateau{index} seed {seed}"
            for other, tier in ((kernel, "kernel"), (codegen, "codegen"),
                                (captured[seed], "batched")):
                assert_bitwise_equal(other.recorder, legacy.recorder,
                                     f"{label} {tier}")
                assert other.metrics == legacy.metrics
            assert row.metrics == legacy.metrics


# ---------------------------------------------------------------------------
# Catalog round-trip arm
# ---------------------------------------------------------------------------
class TestCatalogRoundTripDifferential:
    """Catalog arm of the differential contract.

    A fuzzed spec, once archived, must restore bitwise — from the
    manifest record and from the columnar artifact alike — and a dedup
    hit must be row-for-row identical to a fresh simulation on every
    execution tier. Anything less would make the cache a source of
    silent numeric drift.
    """

    #: Per-scenario tier layouts a cached row must agree with (the pool
    #: tier is exercised corpus-wide below: one scenario never pools).
    TIERS = ({"batch": True, "processes": 1},
             {"batch": False, "processes": 1})

    @pytest.mark.parametrize("index", range(CASES))
    def test_archived_rows_restore_bitwise(self, index, tmp_path):
        from repro.catalog import Catalog
        spec = fuzz_spec(index)
        catalog = Catalog(tmp_path / "store")
        first = SweepRunner(processes=1, batch=True, catalog=catalog).run(
            [to_scenario(spec)])
        assert first.catalog_report.archived == 1
        (record,) = catalog.manifest
        row = first[0]
        restored = catalog.restore(record)
        (from_artifact,) = catalog.load_rows(record)
        for clone in (restored, from_artifact):
            assert clone.metrics == row.metrics, spec.name
            assert clone.n_steps == row.n_steps
            assert clone.name == row.name
            assert clone.params == row.params

    @pytest.mark.parametrize("index", range(CASES))
    def test_dedup_hit_equals_fresh_run_on_every_tier(self, index,
                                                      tmp_path):
        from repro.catalog import Catalog
        spec = fuzz_spec(index)
        store = tmp_path / "store"
        SweepRunner(processes=1, batch=True,
                    catalog=Catalog(store)).run([to_scenario(spec)])
        for kwargs in self.TIERS:
            fresh = SweepRunner(**kwargs).run([to_scenario(spec)])[0]
            cached = SweepRunner(catalog=Catalog(store),
                                 **kwargs).run([to_scenario(spec)])
            assert cached.catalog_report.hits == 1
            assert cached[0].metrics == fresh.metrics, spec.name
            assert cached[0].n_steps == fresh.n_steps

    def test_corpus_round_trips_through_the_pool_tier(self, tmp_path):
        from repro.catalog import Catalog
        store = tmp_path / "store"
        scenarios = [to_scenario(fuzz_spec(i)) for i in range(CASES)]
        first = SweepRunner(processes=4, batch=False,
                            catalog=Catalog(store)).run(scenarios)
        assert first.catalog_report.archived == CASES
        again = SweepRunner(processes=4, batch=False,
                            catalog=Catalog(store)).run(
            [to_scenario(fuzz_spec(i)) for i in range(CASES)])
        assert again.catalog_report.hits == CASES
        assert again.catalog_report.simulated == 0
        reference = SweepRunner(processes=1, batch=False).run(
            [to_scenario(fuzz_spec(i)) for i in range(CASES)])
        for cached, fresh in zip(again, reference):
            assert cached.metrics == fresh.metrics, fresh.name
            assert cached.n_steps == fresh.n_steps
            assert cached.params == fresh.params


# ---------------------------------------------------------------------------
# Fleet cross-tier determinism
# ---------------------------------------------------------------------------
class TestFleetTierDifferential:
    """A same-hardware fleet must report execution_path="batched" on the
    batched tier and produce bitwise-identical per-node rows and fleet
    metrics on all three execution tiers."""

    NODES = 6

    def _spec(self):
        from repro.fleet import homogeneous_fleet
        from repro.spec import EnvironmentSpec, spec_for
        environment = EnvironmentSpec("outdoor", duration=86_400.0,
                                      dt=300.0, seed=17)
        return homogeneous_fleet(spec_for("C"), environment, self.NODES,
                                 topology="ring", spread=0.3, seed=17,
                                 name="diff-fleet")

    def test_fleet_rows_bitwise_identical_across_tiers(self):
        from repro.fleet import run_fleet
        spec = self._spec()
        batched = run_fleet(spec, tier="batched")
        assert batched.execution_paths() == {"batched": self.NODES}
        for tier in ("multiprocessing", "in-process"):
            other = run_fleet(spec, tier=tier, processes=2)
            for batched_row, other_row in zip(batched.results,
                                              other.results):
                assert batched_row.metrics == other_row.metrics, \
                    (tier, batched_row.name)
                assert batched_row.n_steps == other_row.n_steps
                assert batched_row.params == other_row.params
            assert other.metrics == batched.metrics, tier

    def test_fleet_ensemble_bitwise_identical_across_tiers(self):
        from repro.fleet import run_fleet_ensemble
        spec = self._spec()
        batched = run_fleet_ensemble(spec, replicates=2, root_seed=23,
                                     tier="batched")
        assert set(batched.execution_paths()) == {"batched"}
        for tier in ("multiprocessing", "in-process"):
            other = run_fleet_ensemble(spec, replicates=2, root_seed=23,
                                       tier=tier, processes=2)
            assert [fleet.metrics for fleet in other] == \
                [fleet.metrics for fleet in batched], tier
