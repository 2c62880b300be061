"""Kernel coverage gate and lowering-protocol behaviour.

The gate: every system in ``SYSTEM_BUILDERS`` must compose a *full*
:class:`~repro.simulation.KernelPlan` — no component may silently drop
the surveyed population to the legacy path. CI runs this file as its own
step so a lowering regression fails loudly, not as a perf mystery.
"""

import math

import numpy as np
import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.core.system import MultiSourceSystem
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.load.node import WirelessSensorNode
from repro.simulation import (
    EventSchedule,
    KernelPlan,
    LoweringUnsupported,
    SimEvent,
    simulate,
)
from repro.simulation.kernel import eligible, why_ineligible
from repro.storage import (
    AgingStorage,
    HydrogenFuelCell,
    LiIonBattery,
    LiPolymerBattery,
    LithiumIonCapacitor,
    Supercapacitor,
)
from repro.systems import SYSTEM_BUILDERS, build_system

DAY = 86_400.0


class SteppedSystem(MultiSourceSystem):
    """Overrides the step orchestration the kernel replicates."""

    def step(self, ambient, dt, t=0.0):
        return super().step(ambient, dt, t)


def _assert_kernel_matches_legacy(build) -> None:
    env = outdoor_environment(duration=DAY, dt=60.0, seed=3)
    legacy = simulate(build(), env, dt=60.0, fast=False)
    kernel = simulate(build(), env, dt=60.0, fast="auto")
    assert kernel.execution_path == "kernel"
    for column in ("harvest_delivered", "charge_accepted", "quiescent",
                   "node_supplied", "measurements", "stored_energy",
                   "bus_voltage"):
        assert np.array_equal(kernel.recorder.column(column),
                              legacy.recorder.column(column)), column
    assert np.array_equal(kernel.recorder.state_codes(),
                          legacy.recorder.state_codes())
    assert kernel.metrics == legacy.metrics


class TestKernelCoverageGate:
    @pytest.mark.parametrize("letter", sorted(SYSTEM_BUILDERS))
    def test_every_table1_system_composes_a_full_plan(self, letter):
        """The gate: all seven surveyed platforms lower end to end."""
        system = build_system(letter)
        assert why_ineligible(system, 120.0) is None
        plan = KernelPlan.compile(system, 120.0)
        lowering = plan.lowering
        assert lowering.system is system
        assert len(lowering.channels) == len(system.channels)
        assert len(lowering.bank.store_objects) == len(system.bank.stores)

    def test_all_storage_chemistries_lower(self):
        for store in (Supercapacitor(), LiIonBattery(), LiPolymerBattery(),
                      LithiumIonCapacitor(), HydrogenFuelCell()):
            lowering = store.lower_kernel(60.0)
            assert lowering.store is store
            # The lowered terminal voltage is the method's, bit for bit.
            assert lowering.voltage() == store.voltage()

    def test_component_without_lowering_is_named(self):
        """why_ineligible() pinpoints the component that refuses — an
        orchestration subclass overriding a phase the kernel replicates
        — while an AgingStorage wrapper lowers through its own methods,
        bitwise equal to the legacy path."""
        system = make_reference_system([PhotovoltaicCell(area_cm2=20.0)])
        system.__class__ = SteppedSystem
        reason = why_ineligible(system, 60.0)
        assert reason is not None and "SteppedSystem" in reason
        assert not eligible(system, 60.0)
        with pytest.raises(LoweringUnsupported):
            KernelPlan.compile(system, 60.0)

        def aging():
            return make_reference_system(
                [PhotovoltaicCell(area_cm2=20.0)],
                stores=[AgingStorage(LiPolymerBattery(capacity_mah=50.0))])

        assert why_ineligible(aging(), 60.0) is None
        _assert_kernel_matches_legacy(aging)

    def test_subclassed_storage_physics_lowers_to_its_methods(self):
        class WeirdCap(Supercapacitor):
            def charge(self, power_w, dt):
                return super().charge(power_w * 0.5, dt)

        def build():
            return make_reference_system([PhotovoltaicCell(area_cm2=20.0)],
                                         stores=[WeirdCap()])

        assert why_ineligible(build(), 60.0) is None
        _assert_kernel_matches_legacy(build)

    def test_subclassed_node_lowers_to_its_methods(self):
        class ThriftyNode(WirelessSensorNode):
            def demand_power(self):
                return 0.9 * super().demand_power()

        def build():
            system = make_reference_system([PhotovoltaicCell(area_cm2=20.0)])
            system.node.__class__ = ThriftyNode
            return system

        assert why_ineligible(build(), 60.0) is None
        _assert_kernel_matches_legacy(build)


class TestExecutionPathReporting:
    def test_paths_are_reported(self):
        """The reference platform has the fused shape, so the default
        run reports ``"codegen"``; a Table I letter reports
        ``"kernel"``."""
        env = outdoor_environment(duration=3600.0, dt=60.0, seed=3)
        system = make_reference_system([PhotovoltaicCell(area_cm2=20.0)])
        assert simulate(system, env, dt=60.0,
                        fast=False).execution_path == "legacy"
        system = make_reference_system([PhotovoltaicCell(area_cm2=20.0)])
        assert simulate(system, env, dt=60.0).execution_path == "codegen"
        assert simulate(build_system("C"), env,
                        dt=60.0).execution_path == "kernel"


class TestEventSchedulePublicAPI:
    def test_peek_pending_next_time(self):
        done = []
        schedule = EventSchedule([
            SimEvent(20.0, lambda s: done.append(20.0)),
            SimEvent(10.0, lambda s: done.append(10.0)),
        ])
        assert schedule.pending == 2
        assert schedule.peek().time == 10.0
        assert schedule.next_time() == 10.0
        list(schedule.due(10.0))
        assert schedule.pending == 1
        assert schedule.peek().time == 20.0
        assert schedule.next_time() == 20.0
        list(schedule.due(25.0))
        assert schedule.pending == 0
        assert schedule.peek() is None
        assert math.isinf(schedule.next_time())
