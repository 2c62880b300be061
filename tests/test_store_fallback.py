"""Stores outside the inlined lowerings: method-call closures on the
scalar kernel, refusals on the batched tier.

A store whose class overrides the physics a ``_kernel_*`` hook would
inline lowers, as a whole, to its own ``voltage()``, ``charge(p, dt)``,
``discharge(p, dt)`` and ``step_idle(dt)`` — the calls the legacy
:class:`~repro.core.system.StorageBank` makes — so it runs on the kernel
bit for bit. The batched tier cannot call per-lane methods, so the same
hook guards must keep refusing it there.

These tests pin both halves: guard parity over every concrete store
class and each overridable method, the ``AgingStorage`` fade wrapper
across Table I and E11, and the store call sequence itself. The call
log leaves ``voltage()`` out: the kernel reads a single store's voltage
fewer times than the legacy bank does, which is exact only because
``voltage()`` must be free of side effects.
"""

from functools import partial

import numpy as np
import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.analysis.experiments.lifetime_study import _buffers
from repro.environment.composite import (
    indoor_industrial_environment,
    outdoor_environment,
)
from repro.harvesters import MicroWindTurbine, PhotovoltaicCell
from repro.simulation import (
    ScenarioSpec,
    SweepRunner,
    batch_capability_report,
    simulate,
    why_batch_ineligible,
)
from repro.simulation import batched_sweep
from repro.simulation.kernel import why_ineligible
from repro.simulation.recorder import SCALAR_COLUMNS
from repro.storage import (
    AABatteryPack,
    AgingStorage,
    HydrogenFuelCell,
    IdealStorage,
    LiIonBattery,
    LiPolymerBattery,
    LithiumIonCapacitor,
    LithiumPrimaryCell,
    NiMHBattery,
    Supercapacitor,
    ThinFilmBattery,
)
from repro.systems import SYSTEM_BUILDERS, build_system

DAY = 86_400.0

#: Every concrete store class in :mod:`repro.storage`.
STORE_CLASSES = (AABatteryPack, HydrogenFuelCell, IdealStorage,
                 LiIonBattery, LiPolymerBattery, LithiumIonCapacitor,
                 LithiumPrimaryCell, NiMHBattery, Supercapacitor,
                 ThinFilmBattery)

#: Store classes with no lockstep lowering: no workload batches them, so
#: they run per scenario on the scalar kernel.
PER_SCENARIO_STORE_CLASSES = (IdealStorage, LithiumIonCapacitor)

#: The store methods the bank calls, each overridable on its own.
METHODS = ("charge", "discharge", "step_idle", "voltage")

ENV_FOR = {"A": outdoor_environment, "B": indoor_industrial_environment,
           "C": outdoor_environment, "D": outdoor_environment,
           "E": indoor_industrial_environment,
           "F": indoor_industrial_environment,
           "G": indoor_industrial_environment}


def _recorded(recorder) -> dict:
    """Every column a run records, by name."""
    n = len(recorder)
    columns = {name: recorder.column(name) for name in SCALAR_COLUMNS}
    for name in ("stored_energy", "bus_voltage", "alive"):
        columns[name] = recorder.column(name)
    columns["state"] = recorder.state_codes()
    columns["store_energy"] = recorder._store_energy[:n]
    columns["store_voltage"] = recorder._store_voltage[:n]
    columns["channel_power"] = recorder._channel_power[:n]
    return columns


def assert_recorded_equal(run, reference, label: str) -> None:
    assert len(run.recorder) == len(reference.recorder), label
    ours, theirs = _recorded(run.recorder), _recorded(reference.recorder)
    for name, values in theirs.items():
        assert np.array_equal(ours[name], values), \
            f"{label}: column {name!r} diverged"
    assert run.metrics == reference.metrics, label


def _kernel_and_legacy(build, env, dt: float):
    kernel = simulate(build(), env, dt=dt, fast="auto")
    legacy = simulate(build(), env, dt=dt, fast=False)
    return kernel, legacy


def _delegating(cls: type, method: str) -> type:
    """A subclass of ``cls`` overriding ``method`` by calling the base."""
    def delegate(self, *args):
        return getattr(super(subclass, self), method)(*args)

    subclass = type(f"{cls.__name__}_{method}", (cls,), {method: delegate})
    return subclass


def _single_store_system(store_cls: type):
    """A reference platform around one instance of ``store_cls``.

    Backup classes sit behind a small supercapacitor that runs flat, so
    the backup cascade draws on them.
    """
    store = store_cls()
    if store.is_backup:
        stores = [Supercapacitor(capacitance_f=5.0, initial_soc=0.1,
                                 name="front"), store]
    else:
        stores = [store]
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=20.0, efficiency=0.16, name="pv")],
        stores=stores)


OVERRIDES = [(cls, method) for cls in STORE_CLASSES for method in METHODS]


def _override_id(case) -> str:
    cls, method = case
    return f"{cls.__name__}.{method}"


class TestGuardParity:
    """Each single-method override: the batched tier still refuses it,
    the scalar kernel runs it through its own methods bit for bit."""

    @pytest.mark.parametrize(
        "store_cls",
        [c for c in STORE_CLASSES if c not in PER_SCENARIO_STORE_CLASSES],
        ids=lambda c: c.__name__)
    def test_base_classes_batch(self, store_cls):
        """The refusals below are the overrides', not the shape's."""
        assert why_batch_ineligible(_single_store_system(store_cls),
                                    300.0) is None

    @pytest.mark.parametrize("store_cls", PER_SCENARIO_STORE_CLASSES,
                             ids=lambda c: c.__name__)
    def test_refused_runs_per_scenario(self, store_cls):
        """Lockstep refuses the class with a report naming it, worded as
        a lockstep refusal, and a day on the scalar kernel is bitwise
        the legacy loop."""
        build = partial(_single_store_system, store_cls)
        report = batch_capability_report(build(), 300.0)
        assert report is not None
        assert report.component == store_cls.__name__
        assert "kernel lowering" not in report.detail
        assert "no batched" in report.detail or \
            "no lockstep lowering" in report.detail
        assert why_ineligible(build(), 300.0) is None
        env = outdoor_environment(duration=DAY, dt=300.0, seed=5)
        kernel, legacy = _kernel_and_legacy(build, env, 300.0)
        assert kernel.execution_path == "kernel"
        assert_recorded_equal(kernel, legacy, store_cls.__name__)

    @pytest.mark.parametrize("case", OVERRIDES, ids=_override_id)
    def test_batched_tier_refuses_the_override(self, case):
        subclass = _delegating(*case)
        reason = why_batch_ineligible(_single_store_system(subclass), 300.0)
        assert reason is not None and subclass.__name__ in reason

    @pytest.mark.parametrize("case", OVERRIDES, ids=_override_id)
    def test_kernel_runs_the_override_bitwise(self, case):
        subclass = _delegating(*case)
        build = partial(_single_store_system, subclass)
        assert why_ineligible(build(), 300.0) is None
        env = outdoor_environment(duration=DAY, dt=300.0, seed=5)
        kernel, legacy = _kernel_and_legacy(build, env, 300.0)
        assert kernel.execution_path == "kernel"
        assert_recorded_equal(kernel, legacy, subclass.__name__)

    def test_sweep_routes_the_override_off_the_batched_tier(
            self, monkeypatch):
        """A charge override batched with base physics would change the
        metrics; the sweep must run it per scenario and match legacy."""
        # Three lanes would run per scenario for their width alone; make
        # every width lockstep-worthy so only the refusal keeps them off.
        monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
        subclass = _delegating(LiIonBattery, "charge")

        def build():
            return make_reference_system(
                [PhotovoltaicCell(area_cm2=40.0, efficiency=0.16,
                                  name="pv")],
                stores=[subclass(capacity_mah=20.0, initial_soc=0.3)])

        env = partial(outdoor_environment, duration=DAY, dt=300.0)
        specs = [ScenarioSpec(name=f"li-{seed}", system=build,
                              environment=env, seed=seed)
                 for seed in (1, 2, 3)]
        sweep = SweepRunner(processes=1, batch="auto").run(specs)
        for seed, row in zip((1, 2, 3), sweep):
            assert row.execution_path == "kernel", row.name
            legacy = simulate(build(), env(seed=seed), dt=300.0,
                              fast=False)
            assert row.metrics == legacy.metrics, row.name


class _TunedCharge(Supercapacitor):
    def charge(self, power_w, dt):
        return super().charge(power_w * 0.5, dt)


class _ScaledAccept(Supercapacitor):
    def charge(self, power_w, dt):
        return super().charge(power_w, dt) * 0.5


class _WarpedCharge(Supercapacitor):
    def charge(self, power_w, dt):
        return super().charge(power_w * 0.7, dt)


class _RetunedCharge(Supercapacitor):
    def charge(self, power_w, dt):
        return super().charge(power_w * 0.9, dt)


class TestReplacedPhysics:
    """The store subclasses the other suites define (replaced charge
    physics: input scaled by 0.5, 0.7 or 0.9, or acceptance halved)."""

    @pytest.mark.parametrize("store_cls", [_TunedCharge, _ScaledAccept,
                                           _WarpedCharge, _RetunedCharge],
                             ids=lambda c: c.__name__)
    def test_runs_on_the_kernel_bitwise(self, store_cls):
        def build():
            return make_reference_system(
                [PhotovoltaicCell(area_cm2=40.0, name="pv")],
                stores=[store_cls(capacitance_f=25.0, name="odd")])

        assert why_ineligible(build(), 300.0) is None
        env = outdoor_environment(duration=DAY, dt=300.0, seed=9)
        kernel, legacy = _kernel_and_legacy(build, env, 300.0)
        assert kernel.execution_path == "kernel"
        assert_recorded_equal(kernel, legacy, store_cls.__name__)


def _aged(letter: str):
    system = build_system(letter)
    bank = system.bank
    bank.stores = [
        AgingStorage(store,
                     cycle_life=getattr(store, "cycle_life", None) or 500_000)
        for store in bank.stores]
    return system


class TestAgingStorage:
    @pytest.mark.parametrize("dt", [30.0, 120.0, 300.0])
    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_table1_with_every_store_aged(self, letter, dt):
        """Every store of A-G wrapped in the fade model: kernel == legacy
        on every recorded column, and the wrappers age identically."""
        build = partial(_aged, letter)
        assert why_ineligible(build(), dt) is None
        env = ENV_FOR[letter](duration=DAY, dt=dt, seed=17)
        kernel, legacy = _kernel_and_legacy(build, env, dt)
        assert kernel.execution_path == "kernel"
        assert_recorded_equal(kernel, legacy, f"{letter}@{dt:g}")
        for ours, theirs in zip(kernel.system.bank.stores,
                                legacy.system.bank.stores):
            assert ours.health == theirs.health
            assert ours.equivalent_cycles == theirs.equivalent_cycles

    def test_lifetime_study_chemistries(self):
        """E11's five buffers, built as the study builds them."""
        env = outdoor_environment(duration=DAY, dt=300.0, seed=91)
        for k, (label, _, _) in enumerate(_buffers()):
            def build(k=k):
                _, store, cycle_life = _buffers()[k]
                aged = AgingStorage(store, cycle_life=cycle_life,
                                    calendar_fade_per_year=0.02)
                return make_reference_system(
                    [PhotovoltaicCell(area_cm2=20.0, efficiency=0.16),
                     MicroWindTurbine(rotor_diameter_m=0.08)],
                    stores=[aged], measurement_interval_s=2.0)

            assert why_ineligible(build(), 300.0) is None
            kernel, legacy = _kernel_and_legacy(build, env, 300.0)
            assert kernel.execution_path == "kernel", label
            assert_recorded_equal(kernel, legacy, label)
            aged_k = kernel.system.bank.stores[0]
            aged_l = legacy.system.bank.stores[0]
            assert aged_k.health == aged_l.health, label
            assert aged_k.equivalent_cycles == aged_l.equivalent_cycles


def _logged(letter: str, log: list):
    """System ``letter`` with every store's class swapped for one that
    records its charge/discharge/step_idle calls into ``log``."""
    system = build_system(letter)
    for k, store in enumerate(system.bank.stores):
        base = type(store)

        def charge(self, power_w, dt, k=k, base=base):
            log.append(("charge", k, power_w, dt))
            return base.charge(self, power_w, dt)

        def discharge(self, power_w, dt, k=k, base=base):
            log.append(("discharge", k, power_w, dt))
            return base.discharge(self, power_w, dt)

        def step_idle(self, dt, k=k, base=base):
            log.append(("step_idle", k, dt))
            return base.step_idle(self, dt)

        store.__class__ = type(f"Logged{base.__name__}", (base,), {
            "charge": charge, "discharge": discharge,
            "step_idle": step_idle})
    return system


class TestCallLog:
    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_kernel_makes_the_legacy_store_calls(self, letter):
        """The kernel calls each store's charge/discharge/step_idle in
        the legacy order with the legacy arguments (voltage() is exempt:
        see the module docstring)."""
        env = ENV_FOR[letter](duration=DAY, dt=300.0, seed=23)
        kernel_log, legacy_log = [], []
        kernel = simulate(_logged(letter, kernel_log), env, dt=300.0,
                          fast="auto")
        legacy = simulate(_logged(letter, legacy_log), env, dt=300.0,
                          fast=False)
        assert kernel.execution_path == "kernel"
        assert kernel_log and kernel_log == legacy_log
        assert_recorded_equal(kernel, legacy, letter)
