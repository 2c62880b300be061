"""Batched sweep kernel: bit-exactness, eligibility, and masked lanes.

The batched kernel's contract is that grouping scenarios and stepping
them in lockstep changes *throughput only*: every recorder column, every
metric, and the final component state must be bit-for-bit what the
per-scenario kernel produces. These tests enforce that for all seven
Table I systems (the masked-lane model batches hill-climbing trackers,
fuel-cell backup cascades, bus/MCU platforms, and scheduled events),
exercise divergence buckets — lanes that peel into the scalar
side-channel and lanes that rejoin lockstep after an event horizon —
and pin the capability-negotiation behaviour for shapes that genuinely
have no batched lowering (replaced physics).
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.conditioning.mppt import FixedVoltage
from repro.environment.composite import (
    indoor_industrial_environment,
    outdoor_environment,
)
from repro.harvesters import PhotovoltaicCell
from repro.simulation import (
    CapabilityReport,
    ScenarioSpec,
    SweepRunner,
    batch_capability_report,
    batch_eligible,
    simulate,
    swap_harvester_event,
    swap_storage_event,
    why_batch_ineligible,
)
from repro.simulation import batched_sweep
from repro.simulation.kernel.plan import eligible as kernel_eligible
from repro.storage import Supercapacitor
from repro.storage.batteries import LiIonBattery
from repro.systems import SYSTEM_BUILDERS, build_system

DAY = 86_400.0

#: Every Table I letter is inside the batched envelope now that the
#: masked-lane model batches trackers, backups, and bus platforms.
BATCH_ELIGIBLE = ("A", "B", "C", "D", "E", "F", "G")

#: Every scalar recorder column, including the derived ones.
COLUMNS = ("harvest_raw", "harvest_delivered", "harvest_mpp",
           "charge_accepted", "quiescent", "node_demand", "node_supplied",
           "node_consumed", "backup_power", "measurements", "stored_energy",
           "bus_voltage", "alive")

ENV_FOR = {"A": outdoor_environment, "B": indoor_industrial_environment,
           "C": outdoor_environment, "D": outdoor_environment,
           "E": indoor_industrial_environment,
           "F": indoor_industrial_environment,
           "G": indoor_industrial_environment}


class TunedSupercap(Supercapacitor):
    """Replaced physics: outside the batched envelope (the scalar kernel
    runs its own methods)."""

    def charge(self, power_w, dt):
        return super().charge(power_w * 0.5, dt)


def build_tuned():
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=40.0, name="pv")],
        tracker_factory=lambda: FixedVoltage(2.0),
        stores=[TunedSupercap(capacitance_f=50.0, name="tuned")])


def build_fixed_pv(capacitance_f: float = 50.0):
    """A batch-eligible reference platform (FixedVoltage conditioning)."""
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=40.0, efficiency=0.16, name="pv")],
        tracker_factory=lambda: FixedVoltage(2.0),
        capacitance_f=capacitance_f, measurement_interval_s=120.0)


def _grab_recorders():
    """A collect hook capturing each scenario's recorder and system."""
    captured = []

    def collect(result):
        captured.append(result)
        return {}

    return captured, collect


def assert_bitwise_equal(recorder, reference, label: str) -> None:
    for column in COLUMNS:
        assert np.array_equal(recorder.column(column),
                              reference.column(column)), \
            f"{label}: column {column!r} diverged"
    assert np.array_equal(recorder.state_codes(), reference.state_codes()), \
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


class TestEligibility:
    def test_table1_envelope(self):
        """All seven survey platforms batch — including A (P&O trackers,
        fuel-cell backup, bus/MCU), B (module slots), and F (windowed
        converters, bus), which the pre-masked-lane kernel refused."""
        for letter in BATCH_ELIGIBLE:
            assert batch_eligible(build_system(letter), 300.0), letter

    def test_capability_report_names_the_component(self):
        report = batch_capability_report(build_tuned(), 300.0)
        assert isinstance(report, CapabilityReport)
        assert report.component == "TunedSupercap"
        assert "Supercapacitor physics" in report.capability
        assert report.divergence == "every step"
        assert "charge" in report.detail
        # The string facade stays in sync with the structured report.
        assert why_batch_ineligible(build_tuned(), 300.0) == report.detail
        # And an eligible system negotiates to "no refusal".
        assert batch_capability_report(build_system("A"), 300.0) is None

    def test_batched_envelope_is_inside_kernel_envelope(self):
        """Anything the batched kernel accepts, the scalar kernel must
        accept too (peeled lanes finish on it)."""
        for letter in SYSTEM_BUILDERS:
            system = build_system(letter)
            if batch_eligible(system, 300.0):
                assert kernel_eligible(build_system(letter), 300.0), letter

    def test_subclassed_physics_refused(self):
        class TunedSupercap(Supercapacitor):
            def charge(self, power_w, dt):
                return super().charge(power_w, dt) * 0.5

        system = make_reference_system(
            [PhotovoltaicCell(area_cm2=40.0, name="pv")],
            tracker_factory=lambda: FixedVoltage(2.0),
            stores=[TunedSupercap(capacitance_f=50.0, name="tuned")])
        reason = why_batch_ineligible(system, 300.0)
        assert reason is not None and "TunedSupercap" in reason

    @pytest.mark.parametrize("role", ["bank", "output", "node",
                                      "conditioner"])
    def test_component_without_a_lowering_hook_is_refused(self, role):
        """A component object with no lowering hooks at all is a
        refusal with a report, not an AttributeError."""
        system = build_fixed_pv()
        hookless = SimpleNamespace()
        if role == "conditioner":
            system.channels[0].conditioner = hookless
        else:
            setattr(system, role, hookless)
        reason = why_batch_ineligible(system, 300.0)
        assert reason is not None and "SimpleNamespace" in reason


class TestBitExactness:
    @pytest.mark.parametrize("letter", BATCH_ELIGIBLE)
    def test_table1_system_matches_scalar_kernel(self, letter):
        """Each eligible Table I platform: a small grid over initial SoC
        and environment seed, every recorded bit equal to per-scenario
        kernel runs."""
        envf = ENV_FOR[letter]
        captured, collect = _grab_recorders()
        specs = [
            ScenarioSpec(
                name=f"{letter}-{k}",
                system=partial(build_system, letter,
                               initial_soc=0.25 + 0.15 * k),
                environment=partial(envf, duration=DAY, dt=300.0),
                duration=DAY, seed=40 + k, params={"k": k},
                collect=collect)
            for k in range(3)
        ]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        assert [r.execution_path for r in sweep] == ["batched"] * 3
        for k, (row, result) in enumerate(zip(sweep, captured)):
            reference = simulate(
                build_system(letter, initial_soc=0.25 + 0.15 * k),
                envf(duration=DAY, dt=300.0, seed=40 + k),
                duration=DAY, fast=True)
            assert reference.execution_path == "kernel"
            assert_bitwise_equal(result.recorder, reference.recorder,
                                 row.name)
            assert row.metrics == reference.metrics, row.name

    def test_seeded_stochastic_grid(self):
        """Param x seed grid (distinct stochastic environments per lane,
        so no column compression): still bit-identical."""
        captured, collect = _grab_recorders()
        cases = [(cap, seed) for cap in (15.0, 60.0) for seed in (1, 2, 3)]
        specs = [
            ScenarioSpec(
                name=f"c{cap:g}-s{seed}",
                system=partial(build_fixed_pv, cap),
                environment=partial(outdoor_environment, duration=DAY,
                                    dt=300.0),
                duration=DAY, seed=seed, params={"cap": cap, "seed": seed},
                collect=collect)
            for cap, seed in cases
        ]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        assert all(r.execution_path == "batched" for r in sweep)
        for (cap, seed), row, result in zip(cases, sweep, captured):
            reference = simulate(
                build_fixed_pv(cap),
                outdoor_environment(duration=DAY, dt=300.0, seed=seed),
                duration=DAY, fast=True)
            assert_bitwise_equal(result.recorder, reference.recorder,
                                 row.name)
            assert row.metrics == reference.metrics

    def test_shared_environment_grid(self):
        """One shared environment across the grid (the compressed-column
        fast path): still bit-identical."""
        env = outdoor_environment(duration=DAY, dt=300.0, seed=9)
        captured, collect = _grab_recorders()
        specs = [
            ScenarioSpec(name=f"c{cap:g}", system=partial(build_fixed_pv, cap),
                         environment=env, duration=DAY,
                         params={"cap": cap}, collect=collect)
            for cap in (10.0, 25.0, 50.0, 100.0)
        ]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        assert all(r.execution_path == "batched" for r in sweep)
        for row, result in zip(sweep, captured):
            reference = simulate(build_fixed_pv(row.params["cap"]), env,
                                 duration=DAY, fast=True)
            assert_bitwise_equal(result.recorder, reference.recorder,
                                 row.name)
            assert row.metrics == reference.metrics

    def test_final_component_state_written_back(self):
        """After a batched run the component objects hold exactly the
        state a per-scenario run leaves behind."""
        captured, collect = _grab_recorders()
        specs = [
            ScenarioSpec(name=f"soc{k}",
                         system=partial(build_system, "D",
                                        initial_soc=0.2 + 0.2 * k),
                         environment=partial(outdoor_environment,
                                             duration=DAY, dt=300.0),
                         duration=DAY, seed=5, params={"k": k},
                         collect=collect)
            for k in range(3)
        ]
        SweepRunner(processes=1, batch=True).run(specs)
        for k, result in enumerate(captured):
            reference = simulate(
                build_system("D", initial_soc=0.2 + 0.2 * k),
                outdoor_environment(duration=DAY, dt=300.0, seed=5),
                duration=DAY, fast=True)
            system, ref = result.system, reference.system
            assert system.node.state == ref.node.state
            assert system.node.total_measurements == \
                ref.node.total_measurements
            assert system.node.total_energy_j == ref.node.total_energy_j
            assert system.node.dead_seconds == ref.node.dead_seconds
            assert system.node.brownouts == ref.node.brownouts
            assert system.bank.spilled_j == ref.bank.spilled_j
            for store, ref_store in zip(system.bank.stores, ref.bank.stores):
                assert store.energy_j == ref_store.energy_j
                assert store.total_charged_j == ref_store.total_charged_j
                assert store.total_discharged_j == ref_store.total_discharged_j
            assert system.manager.control_passes == \
                ref.manager.control_passes
            assert system.manager._since_control == \
                ref.manager._since_control
            for channel, ref_channel in zip(system.channels, ref.channels):
                assert channel.last_step == ref_channel.last_step


class TestFallback:
    def _mixed_specs(self):
        env = partial(outdoor_environment, duration=DAY, dt=600.0)

        def make_events():
            return [swap_storage_event(
                0.5 * DAY, 0, Supercapacitor(capacitance_f=20.0))]

        return [
            ScenarioSpec(name="tuned", system=build_tuned,
                         environment=env, seed=1),
            ScenarioSpec(name="pando",
                         system=lambda: make_reference_system(
                             [PhotovoltaicCell(area_cm2=40.0, name="pv")]),
                         environment=env, seed=1),
            ScenarioSpec(name="events", system=partial(build_system, "D"),
                         environment=env, seed=1,
                         events=make_events),
            ScenarioSpec(name="eligible", system=partial(build_system, "D"),
                         environment=env, seed=1),
        ]

    def test_mixed_sweep_routes_and_preserves_order(self, monkeypatch):
        # batch=True refuses the mixed grid, so lockstep is reached
        # through "auto" with every group wide enough for it.
        monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
        sweep = SweepRunner(processes=1, batch="auto").run(
            self._mixed_specs())
        assert [r.name for r in sweep] == ["tuned", "pando", "events",
                                           "eligible"]
        paths = {r.name: r.execution_path for r in sweep}
        # P&O trackers and scheduled events batch now; only replaced
        # physics falls off the tier, onto the scalar kernel (which runs
        # the subclass's own methods).
        assert paths["eligible"] == "batched"
        assert paths["pando"] == "batched"
        # The swap changes the store class, so the lane peels into the
        # scalar side-channel mid-run — still the batched tier (the
        # per-bucket path contract is pinned in TestMaskedLane).
        assert paths["events"] == "batched+kernel"
        assert paths["tuned"] == "kernel"

    def test_fallback_rows_carry_the_capability_report(self):
        sweep = SweepRunner(processes=1, batch="auto").run(
            self._mixed_specs())
        report = sweep["tuned"].extras["batch_fallback_reason"]
        assert isinstance(report, CapabilityReport)
        assert report.component == "TunedSupercap"
        assert report.divergence == "every step"
        for name in ("pando", "events", "eligible"):
            assert "batch_fallback_reason" not in sweep[name].extras, name

    def test_event_scenario_rows_match_per_scenario_run(self,
                                                         monkeypatch):
        """An event-carrying scenario in a batched sweep produces the
        same row as running it alone."""
        monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
        specs = self._mixed_specs()
        mixed = SweepRunner(processes=1, batch="auto").run(specs)
        solo = SweepRunner(processes=1, batch=False).run(
            self._mixed_specs())
        for a, b in zip(mixed, solo):
            assert a.metrics == b.metrics, a.name

    def test_batch_true_requires_the_envelope(self):
        with pytest.raises(ValueError, match="TunedSupercap"):
            SweepRunner(processes=1, batch=True).run(self._mixed_specs())

    def test_batch_true_accepts_event_grids(self):
        """batch=True admits event-carrying scenarios: events are inside
        the masked-lane envelope, not a refusal."""
        env = partial(outdoor_environment, duration=DAY, dt=600.0)
        specs = [ScenarioSpec(
            name=f"ev{k}", system=partial(build_system, "D"),
            environment=env, seed=k,
            events=lambda: [swap_storage_event(
                0.25 * DAY, 0, Supercapacitor(capacitance_f=30.0))])
            for k in range(2)]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        assert all(r.execution_path.startswith("batched") for r in sweep)

    def test_batch_true_accepts_eligible_grids(self):
        env = partial(outdoor_environment, duration=DAY, dt=600.0)
        specs = [ScenarioSpec(name=f"d{k}",
                              system=partial(build_system, "D"),
                              environment=env, seed=k)
                 for k in range(2)]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        assert all(r.execution_path == "batched" for r in sweep)

    def test_batch_off_disables_the_tier(self):
        env = partial(outdoor_environment, duration=DAY, dt=600.0)
        specs = [ScenarioSpec(name="d0", system=partial(build_system, "D"),
                              environment=env, seed=0)]
        sweep = SweepRunner(processes=1, batch=False).run(specs)
        # batch=False lanes run fast="auto" like a plain simulate().
        assert sweep["d0"].execution_path == "kernel"

    def test_invalid_batch_value_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            SweepRunner(batch="yes")


class TestMaskedLane:
    """Divergence buckets: events segment the lockstep run at horizons;
    lanes whose mutated topology still matches the group rejoin (with
    write-back equality enforced), lanes that leave the envelope peel
    into the scalar side-channel — every shape bit-for-bit equal to a
    per-scenario run with the same schedule."""

    DT = 300.0

    @staticmethod
    def _pv(area=6.0):
        return PhotovoltaicCell(area_cm2=area, efficiency=0.12, name="pv")

    @classmethod
    def _build(cls, cap):
        from repro.core.manager import ThresholdManager
        return make_reference_system([cls._pv()], capacitance_f=cap,
                                     initial_soc=0.4,
                                     manager=ThresholdManager())

    # Event shapes and the execution path each must land on. Same-class
    # swaps keep the topology signature and REJOIN lockstep; cross-class
    # swaps (and t=0 swaps) peel to the scalar kernel side-channel — so
    # does a swap to a store subclass with no batched lowering, which
    # the scalar kernel runs through its own methods.
    @staticmethod
    def _same_class():
        return [swap_storage_event(6 * 3600.0, 0,
                                   Supercapacitor(capacitance_f=40.0,
                                                  rated_voltage=5.0,
                                                  initial_soc=0.6,
                                                  name="spare"))]

    @staticmethod
    def _cross_class():
        return [swap_storage_event(6 * 3600.0, 0,
                                   LiIonBattery(capacity_mah=150.0,
                                                initial_soc=0.5,
                                                name="cell"))]

    @classmethod
    def _harvester(cls):
        return [swap_harvester_event(4 * 3600.0, 0, cls._pv(area=20.0))]

    @classmethod
    def _double(cls):
        return [swap_harvester_event(3 * 3600.0, 0, cls._pv(area=2.0)),
                swap_storage_event(15 * 3600.0, 0,
                                   Supercapacitor(capacitance_f=10.0,
                                                  rated_voltage=5.0,
                                                  initial_soc=0.3,
                                                  name="late"))]

    @staticmethod
    def _t0():
        return [swap_storage_event(0.0, 0,
                                   LiIonBattery(capacity_mah=80.0,
                                                initial_soc=0.7,
                                                name="zero"))]

    @staticmethod
    def _subclass():
        return [swap_storage_event(6 * 3600.0, 0,
                                   TunedSupercap(capacitance_f=20.0,
                                                 rated_voltage=5.0,
                                                 initial_soc=0.5,
                                                 name="odd"))]

    def _cases(self):
        return [
            ("none", None, "batched"),
            ("same-class", self._same_class, "batched"),
            ("cross-class", self._cross_class, "batched+kernel"),
            ("harvester", self._harvester, "batched"),
            ("double", self._double, "batched"),
            ("t0", self._t0, "batched+kernel"),
            ("subclass", self._subclass, "batched+kernel"),
        ]

    def test_event_shapes_bitwise_and_write_back(self):
        """Every divergence bucket in one mixed grid: expected path,
        bitwise recorders, metrics, and final component state all equal
        to per-scenario ``simulate(..., events=...)`` runs."""
        captured, collect = _grab_recorders()
        cases = self._cases()
        caps = (8.0, 25.0)
        specs = [
            ScenarioSpec(name=f"{label}-{k}",
                         system=partial(self._build, cap),
                         environment=partial(outdoor_environment,
                                             duration=DAY, dt=self.DT),
                         duration=DAY, seed=40 + k, events=events,
                         params={}, collect=collect)
            for label, events, _ in cases
            for k, cap in enumerate(caps)
        ]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        i = 0
        for label, events, want_path in cases:
            for k, cap in enumerate(caps):
                row, result = sweep[i], captured[i]
                assert row.execution_path == want_path, \
                    (row.name, row.execution_path, want_path)
                ref = simulate(self._build(cap),
                               outdoor_environment(duration=DAY, dt=self.DT,
                                                   seed=40 + k),
                               duration=DAY, dt=self.DT,
                               events=events() if events else None)
                assert_bitwise_equal(result.recorder, ref.recorder,
                                     row.name)
                assert row.metrics == ref.metrics, row.name
                rs, bs = ref.system, result.system
                assert type(bs.bank.stores[0]) is type(rs.bank.stores[0])
                assert bs.bank.stores[0].energy_j == \
                    rs.bank.stores[0].energy_j, row.name
                assert bs.node.measurement_interval_s == \
                    rs.node.measurement_interval_s, row.name
                assert bs.manager.control_passes == \
                    rs.manager.control_passes, row.name
                i += 1

    def test_table1_event_scenarios_stay_batched(self):
        """A System A grid where one lane hot-swaps a harvester: the
        swapped lane rejoins lockstep (same topology signature) and the
        untouched lanes' write-back is unaffected — all bitwise."""
        from repro.harvesters import PhotovoltaicCell as PV
        captured, collect = _grab_recorders()

        def events_for(k):
            if k != 1:
                return None
            return lambda: [swap_harvester_event(
                6 * 3600.0, 0, PV(area_cm2=30.0, efficiency=0.2,
                                  name="swapped"))]

        specs = [
            ScenarioSpec(name=f"A-{k}", system=partial(build_system, "A"),
                         environment=partial(outdoor_environment,
                                             duration=DAY, dt=self.DT),
                         duration=DAY, seed=70 + k, events=events_for(k),
                         params={}, collect=collect)
            for k in range(3)
        ]
        sweep = SweepRunner(processes=1, batch=True).run(specs)
        assert [r.execution_path for r in sweep] == ["batched"] * 3
        for k, (row, result) in enumerate(zip(sweep, captured)):
            events = events_for(k)
            ref = simulate(build_system("A"),
                           outdoor_environment(duration=DAY, dt=self.DT,
                                               seed=70 + k),
                           duration=DAY, dt=self.DT,
                           events=events() if events else None)
            assert_bitwise_equal(result.recorder, ref.recorder, row.name)
            assert row.metrics == ref.metrics, row.name
