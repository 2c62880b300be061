"""Determinism suite: exact long-run event timing, segmented-run
equivalence, and fast-path/legacy bit-for-bit equality.

These tests pin the engine's time-indexing contract: simulation time is
``t0 + i * dt`` on an integer step counter (never accumulated), so which
trace sample and which scheduled event a step sees is exact for any run
length, and the vectorized fast path reproduces the legacy per-step path
bit for bit.
"""

import numpy as np
import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.conditioning.mppt import FixedVoltage
from repro.core.manager import ThresholdManager
from repro.core.system import MultiSourceSystem, StorageBank
from repro.environment import Environment, SourceType, Trace
from repro.environment.composite import (
    indoor_industrial_environment,
    outdoor_environment,
)
from repro.harvesters import (
    MicroWindTurbine,
    PhotovoltaicCell,
    ThermoelectricGenerator,
)
from repro.simulation import (
    LoweringUnsupported,
    SimEvent,
    Simulator,
    simulate,
    swap_storage_event,
)
from repro.storage import AgingStorage, LiPolymerBattery, Supercapacitor
from repro.systems import SYSTEM_BUILDERS, build_system

DAY = 86_400.0

ALL_COLUMNS = (
    "t", "harvest_raw", "harvest_delivered", "harvest_mpp",
    "charge_accepted", "quiescent", "node_demand", "node_supplied",
    "node_consumed", "backup_power", "measurements", "stored_energy",
    "bus_voltage", "alive",
)


def _mixed_system(manager=None):
    """Solar + wind + TEG on one reference platform (fast-path eligible)."""
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=40.0, efficiency=0.16, name="pv"),
         MicroWindTurbine(rotor_diameter_m=0.12, name="wind"),
         ThermoelectricGenerator(name="teg")],
        capacitance_f=50.0, initial_soc=0.5, measurement_interval_s=120.0,
        manager=manager)


class _SteppedSystem(MultiSourceSystem):
    """Overrides the step orchestration the kernel replicates."""

    def step(self, ambient, dt, t=0.0):
        return super().step(ambient, dt, t)


class _ChargingBank(StorageBank):
    """Overrides the bank routing the kernel replicates."""

    def charge(self, power_w, dt):
        return super().charge(power_w, dt)


def _unmanaged_system():
    system = _mixed_system()
    system.manager = None
    return system


#: Reference platforms that reach fused emission, one per optional
#: emission branch: (system factory, environment factory).
FUSED_SHAPES = {
    "no-manager": (_unmanaged_system, outdoor_environment),
    "single-branch-supercap": (
        lambda: make_reference_system(
            [PhotovoltaicCell(area_cm2=30.0, name="pv")],
            stores=[Supercapacitor(capacitance_f=40.0, fast_fraction=1.0,
                                   initial_soc=0.5, name="buf")]),
        outdoor_environment),
    "no-ambient-column": (
        lambda: make_reference_system(
            [PhotovoltaicCell(area_cm2=30.0, name="pv"),
             MicroWindTurbine(rotor_diameter_m=0.12, name="wind")]),
        indoor_industrial_environment),
}

#: First component outside the fused envelope on each Table I letter.
TABLE1_FUSED_REFUSALS = {
    "A": "RegisterBus", "B": "RegisterBus", "F": "RegisterBus",
    "C": "StorageBank",
    "D": "AABatteryPack", "E": "ThinFilmBattery", "G": "ThinFilmBattery",
}


def _assert_recorders_identical(a, b):
    assert len(a) == len(b)
    for column in ALL_COLUMNS:
        assert np.array_equal(a.column(column), b.column(column)), column
    assert np.array_equal(a.state_codes(), b.state_codes())
    for k in range(a.n_channels):
        assert np.array_equal(a.channel_delivered_trace(k).values,
                              b.channel_delivered_trace(k).values), k
    for k in range(a.n_stores):
        assert np.array_equal(a.store_energy_trace(k).values,
                              b.store_energy_trace(k).values), k


class TestMillionStepDeterminism:
    def test_event_fires_at_exact_step_and_time_does_not_drift(self):
        """A 1e6-step run at dt=0.01 s must fire an event at the exact
        intended step. With the seed's ``time += dt`` accumulation the
        clock is off by ULPs long before step 1e6; with integer-step time
        it is exact for any run length."""
        dt = 0.01
        n_steps = 1_000_000
        fire_step = n_steps - 3
        duration = n_steps * dt

        env = Environment(
            {SourceType.THERMAL: Trace.constant(60.0, duration, dt=10.0)})
        system = make_reference_system(
            [ThermoelectricGenerator(name="teg")],
            tracker_factory=lambda: FixedVoltage(0.6),
            capacitance_f=25.0, measurement_interval_s=60.0)

        def disable_channel(sys):
            sys.channels[0].enabled = False

        sim = Simulator(system, env,
                        events=[SimEvent(fire_step * dt, disable_channel)],
                        dt=dt)
        result = sim.run(duration=duration)

        delivered = result.recorder.column("harvest_delivered")
        assert len(delivered) == n_steps
        # Harvest is continuous until the event and zero from it onward.
        zero_steps = np.nonzero(delivered == 0.0)[0]
        assert zero_steps[0] == fire_step
        assert np.all(delivered[:fire_step] > 0.0)
        assert np.all(delivered[fire_step:] == 0.0)
        # The engine clock lands exactly on n * dt.
        assert sim.time == duration
        # The recorded time column is the exact i * dt grid.
        t = result.recorder.column("t")
        assert t[-1] == (n_steps - 1) * dt
        assert t[fire_step] == fire_step * dt

    def test_segmented_runs_equal_single_run(self):
        """simulate() in one call == the same steps split across
        Simulator.run() segments, bit for bit."""
        dt = 120.0
        duration = 2 * DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=17)

        single = simulate(_mixed_system(), env, duration=duration, dt=dt)

        sim = Simulator(_mixed_system(), env, dt=dt)
        segments = [sim.run(duration=piece)
                    for piece in (0.3 * DAY, 0.7 * DAY, DAY)]
        assert sim.time == single.recorder.column("t")[-1] + dt

        whole = {c: np.concatenate([s.recorder.column(c) for s in segments])
                 for c in ALL_COLUMNS}
        for column in ALL_COLUMNS:
            assert np.array_equal(whole[column], single.recorder.column(column)), column


class TestFastPathEquivalence:
    def test_mixed_source_bitwise(self):
        """Fast path == legacy path, bit for bit, on a mixed
        solar+wind+TEG platform with an adaptive manager."""
        dt = 120.0
        duration = 2 * DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=23)
        legacy = simulate(_mixed_system(ThresholdManager()), env,
                          duration=duration, dt=dt, fast=False)
        fast = simulate(_mixed_system(ThresholdManager()), env,
                        duration=duration, dt=dt, fast=True)
        _assert_recorders_identical(legacy.recorder, fast.recorder)
        assert legacy.metrics == fast.metrics
        assert legacy.execution_path == "legacy"
        assert fast.execution_path == "kernel"

    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_table1_system_bitwise(self, letter):
        """Every Table I platform (A-G) — multi-store banks, batteries,
        LIC-class stores, fuel-cell backup, bus/MCU systems included —
        runs on the compiled kernel bit-for-bit identical to the legacy
        per-step path."""
        dt = 120.0
        duration = 2 * DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=23)
        legacy = simulate(build_system(letter), env, duration=duration,
                          dt=dt, fast=False)
        fast = simulate(build_system(letter), env, duration=duration,
                        dt=dt, fast=True)
        assert fast.execution_path == "kernel"
        _assert_recorders_identical(legacy.recorder, fast.recorder)
        assert legacy.metrics == fast.metrics

    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_table1_system_codegen_bitwise(self, letter):
        """No Table I platform (A-G) has the fused shape: under
        ``fast="codegen"`` each runs the scalar kernel, bit-for-bit
        identical to the legacy per-step path, and reports the first
        component outside the fused envelope."""
        dt = 120.0
        duration = 2 * DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=23)
        legacy = simulate(build_system(letter), env, duration=duration,
                          dt=dt, fast=False)
        codegen = simulate(build_system(letter), env, duration=duration,
                           dt=dt, fast="codegen")
        assert codegen.execution_path == "kernel"
        assert codegen.codegen_fallback.component == \
            TABLE1_FUSED_REFUSALS[letter]
        _assert_recorders_identical(legacy.recorder, codegen.recorder)
        assert legacy.metrics == codegen.metrics

    @pytest.mark.parametrize("shape", sorted(FUSED_SHAPES))
    def test_fused_emission_branches_bitwise(self, shape):
        """The fused emitter's optional branches — no manager, a
        single-branch supercap, a channel without an ambient column —
        each run on codegen bit-for-bit identical to legacy."""
        build, make_env = FUSED_SHAPES[shape]
        dt = 120.0
        env = make_env(duration=DAY, dt=dt, seed=41)
        legacy = simulate(build(), env, duration=DAY, dt=dt, fast=False)
        codegen = simulate(build(), env, duration=DAY, dt=dt,
                           fast="codegen")
        assert codegen.execution_path == "codegen"
        assert codegen.codegen_fallback is None
        _assert_recorders_identical(legacy.recorder, codegen.recorder)
        assert legacy.metrics == codegen.metrics

    def test_codegen_event_hands_off_to_scalar_kernel(self):
        """A mid-run event stops the fused loop at the step boundary;
        the scalar kernel fires the event and finishes the segment.
        The codegen prefix + scalar remainder must equal a pure scalar
        run — and the legacy run — bitwise."""
        dt = 120.0
        env = outdoor_environment(duration=DAY, dt=dt, seed=29)

        def events():
            return [swap_storage_event(
                0.4 * DAY, 0, Supercapacitor(capacitance_f=10.0,
                                             initial_soc=0.2))]

        legacy = simulate(_mixed_system(), env, duration=DAY, dt=dt,
                          events=events(), fast=False)
        scalar = simulate(_mixed_system(), env, duration=DAY, dt=dt,
                          events=events(), fast=True)
        codegen = simulate(_mixed_system(), env, duration=DAY, dt=dt,
                           events=events(), fast="codegen")
        assert scalar.execution_path == "kernel"
        assert codegen.execution_path == "codegen+kernel"
        _assert_recorders_identical(scalar.recorder, codegen.recorder)
        _assert_recorders_identical(legacy.recorder, codegen.recorder)
        assert legacy.metrics == codegen.metrics

    def test_event_rebind_keeps_equivalence(self):
        """A mid-run supercap hot-swap keeps the kernel eligible; its
        rebind must not perturb a single bit."""
        dt = 120.0
        duration = DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=29)

        def events():
            return [swap_storage_event(
                0.4 * DAY, 0, Supercapacitor(capacitance_f=10.0,
                                             initial_soc=0.2))]

        legacy = simulate(_mixed_system(), env, duration=duration, dt=dt,
                          events=events(), fast=False)
        fast = simulate(_mixed_system(), env, duration=duration, dt=dt,
                        events=events(), fast=True)
        assert fast.execution_path == "kernel"
        _assert_recorders_identical(legacy.recorder, fast.recorder)

    def test_non_supercap_hot_swap_stays_on_kernel(self):
        """A mid-run battery hot-swap on a battery-buffered platform
        (System D-style) rebinds the kernel without leaving it — battery
        chemistries carry their own lowering now."""
        dt = 120.0
        duration = DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=37)

        def events():
            return [swap_storage_event(
                0.4 * DAY, 0, LiPolymerBattery(capacity_mah=150.0,
                                               initial_soc=0.3))]

        legacy = simulate(build_system("D"), env, duration=duration, dt=dt,
                          events=events(), fast=False)
        fast = simulate(build_system("D"), env, duration=duration, dt=dt,
                        events=events(), fast=True)
        assert fast.execution_path == "kernel"
        _assert_recorders_identical(legacy.recorder, fast.recorder)

    def test_mid_run_fallback_keeps_equivalence(self):
        """An event that swaps in an AgingStorage wrapper (it overrides
        the storage physics) keeps the run on the kernel: the wrapper
        lowers to its own methods and the recorded run stays identical
        to the pure legacy path."""
        dt = 120.0
        duration = DAY
        env = outdoor_environment(duration=duration, dt=dt, seed=31)

        def events():
            return [swap_storage_event(
                0.5 * DAY, 0,
                AgingStorage(LiPolymerBattery(capacity_mah=50.0,
                                              initial_soc=0.5)))]

        legacy = simulate(_mixed_system(), env, duration=duration, dt=dt,
                          events=events(), fast=False)
        fast = simulate(_mixed_system(), env, duration=duration, dt=dt,
                        events=events(), fast="auto")
        assert fast.execution_path == "kernel"
        _assert_recorders_identical(legacy.recorder, fast.recorder)

    def test_mid_run_orchestration_swap_raises(self):
        """An event that installs an orchestration subclass (a bank
        overriding ``charge``) leaves nothing the kernel can run: the
        recompile's LoweringUnsupported, naming the class, propagates in
        every mode instead of switching loops mid-run."""
        dt = 120.0
        env = outdoor_environment(duration=DAY, dt=dt, seed=31)

        def install_bank(system):
            system.bank = _ChargingBank(system.bank.stores)

        for fast in ("auto", True, "codegen"):
            events = [SimEvent(0.5 * DAY, install_bank)]
            with pytest.raises(LoweringUnsupported, match="_ChargingBank"):
                simulate(_mixed_system(), env, duration=DAY, dt=dt,
                         events=events, fast=fast)

    def test_fast_true_rejects_ineligible_system(self):
        """A system subclass overriding the step orchestration has no
        lowering, so the whole system is outside the kernel envelope."""
        system = make_reference_system([PhotovoltaicCell(area_cm2=20.0)])
        system.__class__ = _SteppedSystem
        env = outdoor_environment(duration=3600.0, dt=60.0, seed=1)
        with pytest.raises(ValueError, match="fast=True"):
            simulate(system, env, dt=60.0, fast=True)

    def test_fast_false_keeps_records(self):
        env = outdoor_environment(duration=3600.0, dt=60.0, seed=1)
        legacy = simulate(_mixed_system(), env, dt=60.0, fast=False)
        assert len(legacy.recorder.records) == len(legacy.recorder)
        fast = simulate(_mixed_system(), env, dt=60.0, fast=True)
        with pytest.raises(AttributeError, match="fast-path"):
            fast.recorder.records
