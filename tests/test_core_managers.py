"""Tests for taxonomy, managers, trade-off scores, smart-harvester scheme."""

import pytest

from repro.conditioning import InputConditioner, OracleMPPT, OutputConditioner
from repro.core import (
    ArchitectureDescriptor,
    CommunicationStyle,
    ControlCapability,
    EnergyNeutralManager,
    HardwareFlexibility,
    HarvestingChannel,
    IntelligenceLocation,
    MonitoringCapability,
    MultiSourceSystem,
    SmartHarvesterCoordinator,
    SmartModule,
    StaticManager,
    StorageBank,
    ThresholdManager,
    score_system,
    smart_channel,
)
from repro.environment import AmbientSample, SourceType
from repro.harvesters import PhotovoltaicCell
from repro.load import WirelessSensorNode
from repro.storage import IdealStorage, Supercapacitor


def _sample(light=500.0):
    return AmbientSample({SourceType.LIGHT: light})


def _system(manager, monitoring=MonitoringCapability.FULL, stores=None):
    return MultiSourceSystem(
        architecture=ArchitectureDescriptor(name="rig", monitoring=monitoring),
        channels=[HarvestingChannel(PhotovoltaicCell(area_cm2=30.0),
                                    InputConditioner(tracker=OracleMPPT()))],
        bank=StorageBank(stores or [Supercapacitor(capacitance_f=25.0,
                                                   initial_soc=0.5)]),
        output=OutputConditioner(output_voltage=3.0, min_input_voltage=0.8),
        node=WirelessSensorNode(measurement_interval_s=60.0),
        manager=manager,
    )


class TestTaxonomy:
    def test_monitoring_capability_is_ordered(self):
        assert MonitoringCapability.NONE < MonitoringCapability.STORE_VOLTAGE
        assert MonitoringCapability.FULL >= MonitoringCapability.DEVICE_ACTIVITY
        assert MonitoringCapability.STORE_VOLTAGE <= \
            MonitoringCapability.STORE_VOLTAGE

    def test_flexibility_is_ordered(self):
        assert HardwareFlexibility.FIXED < \
            HardwareFlexibility.COMPLETELY_FLEXIBLE

    @pytest.mark.parametrize("ladder", [HardwareFlexibility,
                                        MonitoringCapability])
    def test_order_is_declaration_order_for_every_pair(self, ladder):
        members = list(ladder)
        for i, a in enumerate(members):
            for j, b in enumerate(members):
                assert (a < b) is (i < j), (a, b)
                assert (a <= b) is (i <= j), (a, b)
                assert (a >= b) is (i >= j), (a, b)
                assert (a > b) is (i > j), (a, b)

    def test_quiescent_display(self):
        arch = ArchitectureDescriptor(name="x", quiescent_current_a=5e-6)
        assert arch.quiescent_display == "5 uA"
        arch = ArchitectureDescriptor(name="x", quiescent_current_a=32e-6,
                                      quiescent_is_upper_bound=True)
        assert arch.quiescent_display == "< 32 uA"

    def test_digital_interface_requires_power_unit_intelligence(self):
        a_like = ArchitectureDescriptor(
            name="a", communication=CommunicationStyle.DIGITAL,
            intelligence=IntelligenceLocation.POWER_UNIT)
        b_like = ArchitectureDescriptor(
            name="b", communication=CommunicationStyle.DIGITAL,
            intelligence=IntelligenceLocation.EMBEDDED_DEVICE)
        assert a_like.has_digital_interface
        assert not b_like.has_digital_interface

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            ArchitectureDescriptor(name="")
        with pytest.raises(ValueError):
            ArchitectureDescriptor(name="x", quiescent_current_a=-1.0)


class TestManagers:
    def test_static_manager_changes_nothing(self):
        system = _system(StaticManager())
        interval = system.node.measurement_interval_s
        for _ in range(5):
            system.step(_sample(), 60.0)
        assert system.node.measurement_interval_s == interval

    def test_threshold_manager_throttles_when_poor(self):
        system = _system(ThresholdManager(),
                         stores=[Supercapacitor(capacitance_f=25.0,
                                                initial_soc=0.05)])
        system.step(_sample(light=0.0), 60.0)
        assert system.node.measurement_interval_s >= 600.0

    def test_threshold_manager_enables_backup_when_poor(self):
        from repro.storage import HydrogenFuelCell
        stores = [Supercapacitor(capacitance_f=25.0, initial_soc=0.04),
                  HydrogenFuelCell()]
        system = _system(ThresholdManager(backup_on_soc=0.1,
                                          backup_off_soc=0.3), stores=stores)
        system.bank.backup_enabled = False
        system.step(_sample(light=0.0), 60.0)
        assert system.bank.backup_enabled

    def test_threshold_manager_disables_backup_when_rich(self):
        from repro.storage import HydrogenFuelCell
        stores = [Supercapacitor(capacitance_f=25.0, initial_soc=0.9),
                  HydrogenFuelCell()]
        system = _system(ThresholdManager(backup_on_soc=0.1,
                                          backup_off_soc=0.3), stores=stores)
        system.step(_sample(light=0.0), 60.0)
        assert not system.bank.backup_enabled

    def test_control_period_respected(self):
        manager = ThresholdManager(control_period=600.0)
        system = _system(manager)
        for _ in range(5):
            system.step(_sample(), 60.0)
        assert manager.control_passes == 1  # only the first step triggered

    def test_manager_execution_cost_charged(self):
        manager = ThresholdManager(control_period=60.0,
                                   wakeup_energy_j=1e-3)
        system = _system(manager)
        system.step(_sample(light=0.0), 60.0)
        assert manager.energy_spent_j == pytest.approx(1e-3)

    def test_energy_neutral_manager_tracks_harvest(self):
        manager = EnergyNeutralManager()
        system = _system(manager)
        for _ in range(30):
            system.step(_sample(light=500.0), 60.0)
        assert manager.controller.harvest_estimate_w is not None
        assert manager.controller.harvest_estimate_w > 0.0

    def test_blind_platform_defeats_smart_manager(self):
        system = _system(ThresholdManager(),
                         monitoring=MonitoringCapability.NONE)
        interval = system.node.measurement_interval_s
        system.bank.stores[0].energy_j = 0.0
        system.step(_sample(light=0.0), 60.0)
        # No telemetry: the manager cannot throttle (survey Sec. II.3).
        assert system.node.measurement_interval_s == interval

    def test_manager_validation(self):
        with pytest.raises(ValueError):
            ThresholdManager(backup_on_soc=0.5, backup_off_soc=0.3)
        with pytest.raises(ValueError):
            EnergyNeutralManager(control_period=0.0)


class TestTradeoffScores:
    def test_scores_in_unit_interval(self):
        from repro.systems import all_systems
        for system in all_systems().values():
            scores = score_system(system)
            for value in (scores.flexibility, scores.energy_awareness,
                          scores.complexity, scores.quiescent_burden):
                assert 0.0 <= value <= 1.0

    def test_system_b_most_flexible(self):
        from repro.systems import all_systems
        systems = all_systems()
        scores = {k: score_system(s) for k, s in systems.items()}
        assert scores["B"].flexibility == max(
            s.flexibility for s in scores.values())

    def test_system_d_highest_quiescent_burden(self):
        from repro.systems import all_systems
        scores = {k: score_system(s) for k, s in all_systems().items()}
        assert scores["D"].quiescent_burden == max(
            s.quiescent_burden for s in scores.values())

    def test_awareness_requires_monitoring(self):
        from repro.systems import all_systems
        scores = {k: score_system(s) for k, s in all_systems().items()}
        # C, E, G have no monitoring: zero awareness.
        for letter in ("C", "E", "G"):
            assert scores[letter].energy_awareness == 0.0
        for letter in ("A", "B"):
            assert scores[letter].energy_awareness > 0.5


class TestSmartHarvester:
    def test_module_synthesizes_datasheet(self):
        module = SmartModule(PhotovoltaicCell(name="pv-s"))
        assert module.datasheet is not None
        assert module.datasheet.model == "pv-s"

    def test_storage_module_self_reports_state(self):
        store = Supercapacitor(capacitance_f=10.0, initial_soc=0.5)
        module = SmartModule(store)
        report = module.self_report()
        assert report["kind"] == "storage"
        assert report["soc"] == pytest.approx(0.5)

    def test_smart_channel_requires_harvester(self):
        with pytest.raises(TypeError):
            smart_channel(SmartModule(Supercapacitor()))

    def test_smart_channel_harvests(self):
        module = SmartModule(PhotovoltaicCell(area_cm2=20.0))
        channel = smart_channel(module)
        total = 0.0
        for _ in range(60):
            total += channel.step(_sample(light=500.0), 1.0, 3.3).raw_power
        assert total > 0.0

    def test_coordinator_refreshes_beliefs_after_swap(self):
        store = Supercapacitor(capacitance_f=10.0, initial_soc=0.5)
        store_module = SmartModule(store)
        pv_module = SmartModule(PhotovoltaicCell(area_cm2=20.0))
        coordinator = SmartHarvesterCoordinator(
            [pv_module, store_module], control_period=60.0)
        system = MultiSourceSystem(
            architecture=ArchitectureDescriptor(
                name="smart", monitoring=MonitoringCapability.FULL,
                auto_recognition=True,
                intelligence=IntelligenceLocation.ENERGY_DEVICES),
            channels=[smart_channel(pv_module)],
            bank=StorageBank([store]),
            output=OutputConditioner(output_voltage=3.0,
                                     min_input_voltage=0.8),
            node=WirelessSensorNode(),
            manager=coordinator,
        )
        replacement = Supercapacitor(capacitance_f=40.0, initial_soc=0.5)
        SmartModule(replacement)  # self-describing replacement
        system.bank.swap(0, replacement, recognized=False)  # raw swap
        system.step(_sample(), 60.0)  # coordinator pass refreshes beliefs
        assert system.bank.beliefs[0].capacity_j == pytest.approx(
            replacement.capacity_j)

    def test_coordinator_poll_cost_charged(self):
        store = Supercapacitor(capacitance_f=10.0, initial_soc=0.5)
        modules = [SmartModule(PhotovoltaicCell()), SmartModule(store)]
        coordinator = SmartHarvesterCoordinator(modules, poll_cost_j=1e-4)
        system = MultiSourceSystem(
            architecture=ArchitectureDescriptor(
                name="smart", monitoring=MonitoringCapability.FULL),
            channels=[smart_channel(modules[0])],
            bank=StorageBank([store]),
            output=OutputConditioner(output_voltage=3.0,
                                     min_input_voltage=0.8),
            node=WirelessSensorNode(),
            manager=coordinator,
        )
        system.step(_sample(), 60.0)
        assert coordinator.polls == 2
        assert coordinator.energy_spent_j >= 2e-4

    def test_module_rejects_non_devices(self):
        with pytest.raises(TypeError):
            SmartModule("toaster")
