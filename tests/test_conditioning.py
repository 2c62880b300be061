"""Tests for converters, MPPT trackers, conditioners, interface circuits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conditioning import (
    BoostConverter,
    BuckBoostConverter,
    DiodeRectifier,
    FixedVoltage,
    FractionalOpenCircuit,
    IdealConverter,
    IncrementalConductance,
    InputConditioner,
    LinearRegulator,
    ModuleInterfaceCircuit,
    OracleMPPT,
    OutputConditioner,
    PerturbObserve,
    TrackerStep,
)
from repro.harvesters import (
    DeviceKind,
    ElectronicDatasheet,
    PhotovoltaicCell,
    ThermoelectricGenerator,
    attach_datasheet,
)
from repro.storage import Supercapacitor


class TestConverters:
    def test_ideal_is_lossless(self):
        c = IdealConverter()
        assert c.efficiency(1.0, 3.0, 5.0) == 1.0
        assert c.output_power(0.5, 3.0, 5.0) == 0.5

    def test_buckboost_light_load_collapse(self):
        c = BuckBoostConverter(peak_efficiency=0.9, overhead_power=100e-6)
        assert c.efficiency(1.0, 3.0, 3.3) == pytest.approx(0.9, rel=1e-3)
        assert c.efficiency(100e-6, 3.0, 3.3) == pytest.approx(0.45)
        assert c.efficiency(1e-6, 3.0, 3.3) < 0.01

    def test_buckboost_voltage_window(self):
        c = BuckBoostConverter(min_input_voltage=0.5, max_input_voltage=20.0)
        assert c.efficiency(1.0, 0.4, 3.3) == 0.0
        assert c.efficiency(1.0, 25.0, 3.3) == 0.0
        assert c.efficiency(1.0, 5.0, 3.3) > 0.0

    def test_boost_requires_step_up(self):
        c = BoostConverter()
        assert c.efficiency(1.0, 5.0, 3.3) == 0.0
        assert c.efficiency(1.0, 2.0, 3.3) > 0.0

    def test_input_power_inverts_output_power(self):
        c = BuckBoostConverter(peak_efficiency=0.9, overhead_power=100e-6)
        p_out = 0.01
        p_in = c.input_power(p_out, 4.0, 3.0)
        assert c.output_power(p_in, 4.0, 3.0) == pytest.approx(p_out,
                                                               rel=1e-6)

    def test_input_power_infinite_when_unable(self):
        c = BuckBoostConverter(min_input_voltage=1.0)
        assert c.input_power(0.01, 0.5, 3.0) == float("inf")

    def test_ldo_efficiency_is_voltage_ratio(self):
        ldo = LinearRegulator(dropout_voltage=0.15)
        assert ldo.efficiency(1.0, 4.0, 3.0) == pytest.approx(0.75)

    def test_ldo_dropout_enforced(self):
        ldo = LinearRegulator(dropout_voltage=0.15)
        assert ldo.efficiency(1.0, 3.1, 3.0) == 0.0
        assert ldo.efficiency(1.0, 3.2, 3.0) > 0.0

    def test_rectifier_drop(self):
        d = DiodeRectifier(forward_drop=0.3, diodes_in_path=2)
        assert d.total_drop == pytest.approx(0.6)
        assert d.efficiency(1.0, 3.0, 3.0) == pytest.approx(2.4 / 3.0)
        assert d.efficiency(1.0, 0.5, 0.5) == 0.0  # below the drop

    def test_rectifier_punishes_low_voltage(self):
        d = DiodeRectifier(forward_drop=0.3)
        assert d.efficiency(1.0, 0.6, 0.6) < d.efficiency(1.0, 5.0, 5.0)

    @settings(max_examples=40)
    @given(p=st.floats(min_value=1e-9, max_value=10.0))
    def test_efficiency_always_unit_interval(self, p):
        for c in (BuckBoostConverter(), LinearRegulator(), DiodeRectifier(),
                  BoostConverter()):
            eff = c.efficiency(p, 3.0, 3.3)
            assert 0.0 <= eff <= 1.0


#: Each library converter with the input voltages at its window edges,
#: as a function of the output voltage.
LOCKSTEP_CONVERTERS = {
    "ideal": (IdealConverter, lambda c, v_out: []),
    "buck_boost": (BuckBoostConverter,
                   lambda c, v_out: [c.min_input_voltage,
                                     c.max_input_voltage]),
    "boost": (BoostConverter,
              lambda c, v_out: [c.min_input_voltage, c.max_input_voltage,
                                v_out]),
    "ldo": (LinearRegulator,
            lambda c, v_out: [v_out, v_out + c.dropout_voltage]),
    "diode": (DiodeRectifier, lambda c, v_out: [c.total_drop]),
}


class TestLockstepStages:
    """Each library converter's lockstep stages are its methods, lane by
    lane and bit for bit (``float.hex``), ``inf`` included."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(LOCKSTEP_CONVERTERS)), data=st.data())
    def test_batched_stages_equal_the_methods(self, kind, data):
        cls, edges = LOCKSTEP_CONVERTERS[kind]
        converter = cls()
        lanes = []
        for _ in range(data.draw(st.integers(1, 6), label="lanes")):
            v_out = data.draw(st.one_of(st.sampled_from([0.0, 1.8, 3.3]),
                                        st.floats(0.0, 25.0)))
            v_in = data.draw(st.one_of(
                st.sampled_from([0.0, *edges(converter, v_out)]),
                st.floats(0.0, 25.0)))
            p = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
            lanes.append((p, v_in, v_out))
        p, v_in, v_out = (np.array(column) for column in zip(*lanes))
        siblings = [cls() for _ in lanes]
        with np.errstate(all="ignore"):
            forward = converter.lower_output_batched(30.0, siblings)(
                p, v_in, v_out)
            inverse = converter.lower_input_batched(30.0, siblings)(
                p, v_in, v_out)
        for k, lane in enumerate(lanes):
            assert float(forward[k]).hex() == \
                converter.output_power(*lane).hex(), lane
            assert float(inverse[k]).hex() == \
                converter.input_power(*lane).hex(), lane

    def test_ideal_kernel_stages_are_the_bound_methods(self):
        c = IdealConverter()
        assert c.lower_output_kernel(30.0) == c.output_power
        assert c.input_power(0.5, 3.0, 5.0) == 0.5


def _inside_window(kind, data):
    """A converter of ``kind`` and a ``(v_in, v_out)`` inside its window."""
    cls, _ = LOCKSTEP_CONVERTERS[kind]
    v_out = data.draw(st.floats(0.5, 20.0), label="v_out")
    if kind == "buck_boost":
        converter = cls(peak_efficiency=data.draw(st.floats(0.05, 1.0)),
                        overhead_power=data.draw(st.floats(0.0, 1e-2)))
        v_in = data.draw(st.floats(converter.min_input_voltage,
                                   converter.max_input_voltage))
    elif kind == "boost":
        converter = cls()
        v_in = data.draw(st.floats(converter.min_input_voltage, v_out))
    elif kind == "ldo":
        converter = cls(dropout_voltage=data.draw(st.floats(0.0, 0.5)))
        v_in = data.draw(st.floats(v_out + converter.dropout_voltage, 25.0))
    elif kind == "diode":
        converter = cls(forward_drop=data.draw(st.floats(0.0, 0.7)))
        v_in = data.draw(st.floats(converter.total_drop, 25.0,
                                   exclude_min=True))
    else:
        converter = cls()
        v_in = data.draw(st.floats(0.0, 25.0))
    return converter, v_in, v_out


class TestClosedFormInversion:
    """Each library converter inverts its own curve in one expression,
    and the three tiers' output stages agree on it bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(LOCKSTEP_CONVERTERS)),
           p=st.floats(1e-12, 10.0), data=st.data())
    def test_output_of_input_power_round_trips(self, kind, p, data):
        converter, v_in, v_out = _inside_window(kind, data)
        p_in = converter.input_power(p, v_in, v_out)
        assert converter.output_power(p_in, v_in, v_out) == \
            pytest.approx(p, rel=1e-12, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(LOCKSTEP_CONVERTERS)), data=st.data())
    def test_tiers_agree_at_nan_and_edge_voltages(self, kind, data):
        """A NaN store voltage is outside every library converter's
        window (the ideal has none) on legacy, kernel and lockstep."""
        cls, edges = LOCKSTEP_CONVERTERS[kind]
        output = OutputConditioner(cls(), output_voltage=3.0)
        voltages = [math.nan, 0.0, -0.0, output.min_input_voltage,
                    *edges(output.converter, output.output_voltage)]
        lanes = data.draw(st.lists(st.tuples(
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 10.0)),
            st.one_of(st.sampled_from(voltages), st.floats(-1.0, 25.0))),
            min_size=1, max_size=6))
        needed = output.lower_kernel(30.0).needed
        siblings = [OutputConditioner(cls(), output_voltage=3.0)
                    for _ in lanes]
        demand, store_v = (np.array(column) for column in zip(*lanes))
        with np.errstate(all="ignore"):
            lockstep = output.lower_batched(30.0, siblings).needed(
                demand, store_v)
        for k, (d, v) in enumerate(lanes):
            expected = output.input_power_for(d, v)
            if math.isnan(v) and d != 0.0 and kind != "ideal":
                assert expected == math.inf, (d, v)
            assert needed(d, v).hex() == expected.hex(), (d, v)
            assert float(lockstep[k]).hex() == expected.hex(), (d, v)


class TestTrackerStep:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerStep(-1.0)
        with pytest.raises(ValueError):
            TrackerStep(1.0, duty=1.5)


class TestTrackers:
    def setup_method(self):
        self.pv = PhotovoltaicCell(area_cm2=50.0, efficiency=0.15)
        self.irr = 600.0
        self.mpp = self.pv.mpp(self.irr).power

    def _converged_efficiency(self, tracker, steps=200):
        total = 0.0
        for _ in range(steps):
            decision = tracker.step(self.pv, self.irr, 1.0)
            if decision.harvesting:
                total += self.pv.power_at(decision.voltage,
                                          self.irr) * decision.duty
        return total / (self.mpp * steps)

    def test_oracle_is_perfect(self):
        assert self._converged_efficiency(OracleMPPT()) == pytest.approx(1.0)

    def test_perturb_observe_converges(self):
        assert self._converged_efficiency(PerturbObserve()) > 0.95

    def test_incremental_conductance_converges(self):
        assert self._converged_efficiency(IncrementalConductance()) > 0.95

    def test_focv_approaches_mpp(self):
        assert self._converged_efficiency(FractionalOpenCircuit()) > 0.9

    def test_fixed_point_depends_on_choice(self):
        good = self._converged_efficiency(
            FixedVoltage(self.pv.mpp(self.irr).voltage))
        bad = self._converged_efficiency(FixedVoltage(1.0))
        assert good > 0.99
        assert bad < 0.6

    def test_po_recovers_after_darkness(self):
        tracker = PerturbObserve()
        for _ in range(50):
            tracker.step(self.pv, self.irr, 1.0)
        for _ in range(5):
            decision = tracker.step(self.pv, 0.0, 1.0)
            assert decision.voltage == 0.0
        # Light returns: tracker re-seeds and converges again.
        total = 0.0
        for _ in range(100):
            decision = tracker.step(self.pv, self.irr, 1.0)
            total += self.pv.power_at(decision.voltage, self.irr)
        assert total / (100 * self.mpp) > 0.9

    def test_focv_blackout_semantics_fine_dt(self):
        tracker = FractionalOpenCircuit(sample_period=10.0, sample_time=0.5)
        first = tracker.step(self.pv, self.irr, 0.25)
        assert not first.harvesting  # the first step samples Voc

    def test_focv_blackout_duty_coarse_dt(self):
        tracker = FractionalOpenCircuit(sample_period=10.0, sample_time=0.5)
        decision = tracker.step(self.pv, self.irr, 60.0)
        assert decision.harvesting
        assert decision.duty == pytest.approx(1.0 - 0.5 / 10.0)

    def test_reset_clears_state(self):
        tracker = PerturbObserve()
        for _ in range(20):
            tracker.step(self.pv, self.irr, 1.0)
        tracker.reset()
        assert tracker._voltage is None

    def test_tracker_validation(self):
        with pytest.raises(ValueError):
            PerturbObserve(step_fraction=0.9)
        with pytest.raises(ValueError):
            FractionalOpenCircuit(fraction=1.5)
        with pytest.raises(ValueError):
            FractionalOpenCircuit(sample_time=60.0, sample_period=30.0)
        with pytest.raises(ValueError):
            FixedVoltage(0.0)
        with pytest.raises(ValueError):
            IncrementalConductance(probe_fraction=0.5)

    def test_quiescent_current_validation(self):
        with pytest.raises(ValueError):
            OracleMPPT(quiescent_current_a=-1.0)


class TestInputConditioner:
    def test_accounting_record(self):
        pv = PhotovoltaicCell()
        ic = InputConditioner(tracker=OracleMPPT(),
                              converter=BuckBoostConverter(0.9, 100e-6))
        step = ic.step(pv, 800.0, 1.0, 3.3)
        assert step.raw_power == pytest.approx(pv.mpp(800.0).power, rel=1e-6)
        assert step.delivered_power < step.raw_power
        assert step.conversion_loss == pytest.approx(
            step.raw_power - step.delivered_power)
        assert step.tracking_efficiency == pytest.approx(1.0)

    def test_dead_source_yields_zero(self):
        pv = PhotovoltaicCell()
        ic = InputConditioner()
        step = ic.step(pv, 0.0, 1.0, 3.3)
        assert step.raw_power == 0.0
        assert step.delivered_power == 0.0

    def test_total_quiescent_sums_tracker(self):
        ic = InputConditioner(tracker=PerturbObserve(quiescent_current_a=5e-6),
                              quiescent_current_a=2e-6)
        assert ic.total_quiescent_a == pytest.approx(7e-6)

    def test_defaults_are_ideal(self):
        ic = InputConditioner()
        assert isinstance(ic.tracker, OracleMPPT)
        assert isinstance(ic.converter, IdealConverter)


class TestOutputConditioner:
    def test_input_power_for_demand(self):
        oc = OutputConditioner(converter=LinearRegulator(0.15),
                               output_voltage=3.0, min_input_voltage=3.2)
        p_in = oc.input_power_for(0.03, 4.0)
        assert p_in == pytest.approx(0.03 * 4.0 / 3.0)

    def test_brownout_below_cutoff(self):
        oc = OutputConditioner(output_voltage=3.0, min_input_voltage=1.0)
        assert oc.input_power_for(0.01, 0.5) == float("inf")
        assert not oc.can_supply(0.5)

    def test_zero_demand(self):
        oc = OutputConditioner()
        assert oc.input_power_for(0.0, 5.0) == 0.0

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            OutputConditioner().input_power_for(-1.0, 5.0)


class TestModuleInterfaceCircuit:
    def _pv_module(self):
        pv = attach_datasheet(
            PhotovoltaicCell(area_cm2=20.0, efficiency=0.07,
                             cells_in_series=6),
            ElectronicDatasheet(kind=DeviceKind.HARVESTER, model="pv-m",
                                source_type=PhotovoltaicCell.source_type,
                                mpp_fraction=0.75, nominal_voltage=3.0))
        return ModuleInterfaceCircuit(pv)

    def test_harvester_module_harvests(self):
        module = self._pv_module()
        step = module.harvest(200.0, 1.0)
        assert step.delivered_power > 0.0

    def test_storage_module_roundtrip(self):
        sc = Supercapacitor(capacitance_f=10.0, initial_soc=0.5)
        module = ModuleInterfaceCircuit(sc)
        accepted = module.store(0.1, 10.0)
        assert 0.0 < accepted <= 0.1
        retrieved = module.retrieve(0.05, 10.0)
        assert 0.0 < retrieved <= 0.05

    def test_interface_taxes_efficiency(self):
        sc = Supercapacitor(capacitance_f=10.0, initial_soc=0.5)
        module = ModuleInterfaceCircuit(sc)
        e0 = sc.energy_j
        module.store(0.1, 100.0)
        stored = sc.energy_j - e0
        assert stored < 0.1 * 100.0  # strictly less: the interface tax

    def test_wrong_kind_operations_raise(self):
        module = self._pv_module()
        with pytest.raises(TypeError):
            module.store(0.1, 1.0)
        sc_module = ModuleInterfaceCircuit(Supercapacitor())
        with pytest.raises(TypeError):
            sc_module.harvest(100.0, 1.0)

    def test_swap_requires_same_kind(self):
        module = self._pv_module()
        with pytest.raises(TypeError):
            module.swap_device(Supercapacitor())

    def test_swap_harvester_resets_tracker(self):
        module = self._pv_module()
        module.harvest(200.0, 1.0)
        replacement = PhotovoltaicCell(area_cm2=5.0, efficiency=0.05,
                                       cells_in_series=4)
        module.swap_device(replacement)
        assert module.device is replacement

    def test_default_fixed_tracker_uses_datasheet(self):
        module = self._pv_module()
        tracker = module._input.tracker
        assert isinstance(tracker, FixedVoltage)
        assert tracker.voltage == pytest.approx(0.75 * 3.0)

    def test_rejects_non_energy_devices(self):
        with pytest.raises(TypeError):
            ModuleInterfaceCircuit("not a device")


class TestThermoeletricThroughConditioner:
    def test_low_voltage_source_through_rectifier_suffers(self):
        teg = ThermoelectricGenerator(couples=50, internal_resistance=2.0)
        with_diode = InputConditioner(tracker=OracleMPPT(),
                                      converter=DiodeRectifier(0.3))
        ideal = InputConditioner(tracker=OracleMPPT())
        lossy = with_diode.step(teg, 20.0, 1.0, 3.3)
        clean = ideal.step(teg, 20.0, 1.0, 3.3)
        # TEG Voc at 20 K is ~0.2 V: a diode front end destroys it.
        assert lossy.delivered_power < 0.2 * clean.delivered_power
