"""Exactness of the scalar kernel's conditioning memos.

:meth:`~repro.conditioning.base.InputConditioner.lower_kernel` keeps one
single-slot memo per channel, keyed on the harvester object, the ambient
value and the harvester's retune state. It holds ``max_power`` for every
tracker, and the whole ``HarvestStep`` for the library's own
``FixedVoltage`` in front of a converter class that states how its
forward stage reads ``v_out`` (Boost adds its step-up test to the key).
:meth:`~repro.conditioning.converters.BuckBoostConverter.lower_input_kernel`
memoizes the fixed-point inversion on the demand. These tests hold both
memos to the methods they replace:

* a property check of each library converter behind ``FixedVoltage``
  over a PV cell, a TEG and a retuned piezo: the lowered step equals
  :meth:`InputConditioner.step` on a twin, field for field, over value
  sequences with repeats, signed zeros and NaN and bus voltages either
  side of Boost's step-up test;
* a stateful ``FixedVoltage`` subclass, a wrapper installed on
  ``FixedVoltage.step``, a buck-boost subclass whose efficiency reads
  ``v_out`` and a user harvester class keep every call;
* a manager's ``swap_harvester`` at a held value, and a manager that
  retunes resonant harvesters every control pass, give the legacy bits;
* the buck-boost inversion equals ``input_power`` over repeated demands
  and window crossings.

Results are compared with ``float.hex``, so even the sign of a zero
counts.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments.common import make_reference_system
from repro.conditioning import InputConditioner
from repro.conditioning.converters import (
    BoostConverter,
    BuckBoostConverter,
    DiodeRectifier,
    IdealConverter,
    LinearRegulator,
)
from repro.conditioning.mppt import FixedVoltage
from repro.core.manager import EnergyManager
from repro.environment import Environment, SourceType, Trace
from repro.environment.composite import indoor_industrial_environment
from repro.harvesters import (
    PhotovoltaicCell,
    PiezoelectricHarvester,
    ThermoelectricGenerator,
)
from repro.harvesters.base import TheveninHarvester
from repro.simulation import simulate
from repro.simulation.recorder import SCALAR_COLUMNS
from repro.systems import build_system

DAY = 86_400.0
DT = 30.0

#: Every library converter class, by label.
CONVERTERS = {
    "ideal": IdealConverter,
    "buck_boost": lambda: BuckBoostConverter(min_input_voltage=0.5,
                                             max_input_voltage=4.0),
    "boost": lambda: BoostConverter(min_input_voltage=0.3),
    "ldo": LinearRegulator,
    "diode": DiodeRectifier,
}

#: Library harvesters with the top of the ambient range drawn for each.
#: The piezo starts detuned and is retuned between steps.
HARVESTERS = {
    "pv": (lambda: PhotovoltaicCell(area_cm2=40.0, efficiency=0.16), 1100.0),
    "teg": (ThermoelectricGenerator, 80.0),
    "piezo": (lambda: PiezoelectricHarvester(excitation_frequency=51.0),
              6.0),
}

FIELDS = ("raw_power", "delivered_power", "operating_voltage", "mpp_power")


def _fields(hs) -> tuple:
    return tuple(getattr(hs, name).hex() for name in FIELDS)


def _conditioner(converter, volts: float = 2.0) -> InputConditioner:
    return InputConditioner(FixedVoltage(volts), converter)


@pytest.mark.parametrize("harvester_kind", sorted(HARVESTERS))
@pytest.mark.parametrize("converter_kind", sorted(CONVERTERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lowered_step_equals_the_method(converter_kind, harvester_kind,
                                        data):
    make, top = HARVESTERS[harvester_kind]
    harvester = make()
    conditioner = _conditioner(CONVERTERS[converter_kind]())
    twin_harvester = copy.deepcopy(harvester)
    twin = copy.deepcopy(conditioner)
    lowered = conditioner.lower_kernel(DT)
    # A small pool drawn from, so values repeat as a fine step's do.
    pool = data.draw(st.lists(st.floats(0.0, top), min_size=1, max_size=3))
    pool += [0.0, -0.0, math.nan, top]
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(pool),
        st.one_of(st.floats(0.0, 6.0), st.sampled_from([0.0, 2.0, 4.0])),
        st.sampled_from([None, 1.0, 2.0, 4.0]),
        st.sampled_from([None, 50.0, 51.0])), min_size=1, max_size=24))
    for value, bus_v, volts, frequency in steps:
        if volts is not None:  # a manager resets the fixed point
            conditioner.tracker.voltage = twin.tracker.voltage = volts
        if frequency is not None and harvester_kind == "piezo":
            harvester.current_frequency = frequency
            twin_harvester.current_frequency = frequency
        got = lowered(harvester, value, bus_v)
        expected = twin.step(twin_harvester, value, DT, bus_v)
        assert _fields(got) == _fields(expected), \
            (value, bus_v, volts, frequency)


@pytest.mark.parametrize("converter_kind, memoized", [
    ("ideal", True), ("buck_boost", True), ("boost", True),
    ("diode", True), ("ldo", False)])
def test_the_whole_step_is_memoized_for_stated_converters(converter_kind,
                                                          memoized):
    """A repeat returns the very record, shared as ``last_step``, only
    where the converter's class states how it reads ``v_out``."""
    lowered = _conditioner(CONVERTERS[converter_kind]()).lower_kernel(DT)
    pv = PhotovoltaicCell(area_cm2=40.0, efficiency=0.16)
    first = lowered(pv, 500.0, 5.0)
    assert (lowered(pv, 500.0, 5.0) is first) is memoized
    assert lowered(pv, 600.0, 5.0) is not first


def test_boost_keys_on_its_step_up_test():
    lowered = _conditioner(BoostConverter(min_input_voltage=0.3)) \
        .lower_kernel(DT)
    pv = PhotovoltaicCell(area_cm2=40.0, efficiency=0.16)
    stepping_up = lowered(pv, 500.0, 3.0)
    assert stepping_up.delivered_power > 0.0
    assert lowered(pv, 500.0, 3.5) is stepping_up
    stepping_down = lowered(pv, 500.0, 1.0)  # v_out < v_in: shut down
    assert stepping_down.delivered_power == 0.0
    assert lowered(pv, 500.0, 3.0) is not stepping_up


# ---------------------------------------------------------------------------
# Who keeps every call
# ---------------------------------------------------------------------------
class _CountingFixed(FixedVoltage):
    """A stateful FixedVoltage subclass: it counts its decisions."""

    def __init__(self, voltage):
        super().__init__(voltage)
        self.calls = 0

    def step(self, harvester, ambient, dt):
        self.calls += 1
        return super().step(harvester, ambient, dt)


class _VoutBuckBoost(BuckBoostConverter):
    """Efficiency sags with the bus voltage, so v_out matters."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def efficiency(self, p_in, v_in, v_out):
        self.calls += 1
        return super().efficiency(p_in, v_in, v_out) * min(1.0, v_out / 4.0)


class _CountingTEG(TheveninHarvester):
    """A user harvester class: it counts its Voc and MPP queries."""

    source_type = SourceType.THERMAL

    def __init__(self):
        super().__init__()
        self.calls = 0

    def thevenin(self, ambient):
        return 0.05 * ambient, 5.0

    def open_circuit_voltage(self, ambient):
        self.calls += 1
        return super().open_circuit_voltage(ambient)

    def max_power(self, ambient):
        self.calls += 1
        return super().max_power(ambient)


def _held_steps(conditioner, harvester, bus_voltages):
    """The lowered steps and the twin's, at one held value."""
    twin = copy.deepcopy(conditioner)
    twin_harvester = copy.deepcopy(harvester)
    lowered = conditioner.lower_kernel(DT)
    value = 500.0 if isinstance(harvester, PhotovoltaicCell) else 40.0
    for bus_v in bus_voltages:
        got = lowered(harvester, value, bus_v)
        expected = twin.step(twin_harvester, value, DT, bus_v)
        assert _fields(got) == _fields(expected), bus_v
    return twin, twin_harvester


def test_a_tracker_subclass_keeps_every_call():
    conditioner = InputConditioner(_CountingFixed(2.0), BuckBoostConverter())
    _held_steps(conditioner, PhotovoltaicCell(), [3.0] * 6)
    assert conditioner.tracker.calls == 6


def test_a_wrapper_on_fixed_voltage_step_keeps_every_call(monkeypatch):
    calls = []
    library_step = FixedVoltage.step

    def counting(self, harvester, ambient, dt):
        calls.append(ambient)
        return library_step(self, harvester, ambient, dt)

    monkeypatch.setattr(FixedVoltage, "step", counting)
    _held_steps(_conditioner(BuckBoostConverter()), PhotovoltaicCell(),
                [3.0] * 6)
    assert len(calls) == 2 * 6  # the lowered steps and the twin's


def test_a_converter_subclass_reading_v_out_keeps_every_call():
    conditioner = _conditioner(_VoutBuckBoost())
    twin, _ = _held_steps(conditioner, PhotovoltaicCell(),
                          [3.0, 3.0, 2.0, 3.0, 4.5, 4.5])
    assert conditioner.converter.calls == twin.converter.calls == 6


def test_a_user_harvester_keeps_every_call():
    harvester = _CountingTEG()
    _, twin_harvester = _held_steps(_conditioner(BuckBoostConverter()),
                                    harvester, [3.0] * 6)
    assert harvester.calls == twin_harvester.calls == 2 * 6


# ---------------------------------------------------------------------------
# Managers that change the key mid-run
# ---------------------------------------------------------------------------
def _recorded(result) -> dict:
    """Every column a run records, by name."""
    recorder = result.recorder
    n = len(recorder)
    columns = {name: recorder.column(name) for name in SCALAR_COLUMNS}
    for name in ("stored_energy", "bus_voltage", "alive"):
        columns[name] = recorder.column(name)
    columns["state"] = recorder.state_codes()
    columns["store_energy"] = recorder._store_energy[:n]
    columns["store_voltage"] = recorder._store_voltage[:n]
    columns["channel_power"] = recorder._channel_power[:n]
    return columns


def _assert_kernel_is_legacy(build, environment, label):
    kernel = simulate(build(), environment, dt=DT, fast="auto")
    legacy = simulate(build(), environment, dt=DT, fast=False)
    assert kernel.execution_path == "kernel", label
    ours, theirs = _recorded(kernel), _recorded(legacy)
    for name, values in theirs.items():
        assert np.array_equal(ours[name], values), \
            f"{label}: column {name!r} diverged"
    assert kernel.metrics == legacy.metrics, label


class _SwappingManager(EnergyManager):
    """Swaps channel 0's harvester for a fresh one every other pass."""

    def __init__(self, make):
        super().__init__(control_period=600.0, wakeup_energy_j=0.0)
        self.make = make

    def _policy(self, t, dt, system):
        if self.control_passes % 2 == 0:
            system.channels[0].swap_harvester(self.make(self.control_passes))


def test_manager_swap_at_a_held_value_gives_the_legacy_bits():
    """Each swap brings a harvester with other physics at the same
    ambient value; the memo, keyed on the harvester object, resets."""
    def make_pv(k):
        return PhotovoltaicCell(area_cm2=20.0 + 5.0 * (k % 3), name="pv")

    def build():
        return make_reference_system(
            [make_pv(0)], tracker_factory=lambda: FixedVoltage(2.0),
            manager=_SwappingManager(make_pv))

    environment = Environment(
        {SourceType.LIGHT: Trace.constant(500.0, 0.25 * DAY, dt=300.0)},
        name="held-light")
    _assert_kernel_is_legacy(build, environment, "swap")


class _RetuningManager(EnergyManager):
    """Retunes every piezo to one of seven frequencies each pass."""

    def __init__(self):
        super().__init__(control_period=DT, wakeup_energy_j=0.0)

    def _policy(self, t, dt, system):
        k = self.control_passes
        for channel in system.channels:
            harvester = channel.harvester
            if isinstance(harvester, PiezoelectricHarvester):
                harvester.current_frequency = \
                    harvester.resonant_frequency + (k % 7) * 0.5


def _one_piezo_reference():
    return make_reference_system([PiezoelectricHarvester(name="piezo")],
                                 manager=_RetuningManager())


@pytest.mark.parametrize("letter", ["B", "E", "F", "G", "reference"])
def test_retuned_piezo_gives_the_legacy_bits(letter):
    """A retune between steps at a held value changes ``max_power``; the
    memo keys on the retune state, as the Thevenin memo does."""
    if letter == "reference":  # P&O, whose steps keep only the MPP memo
        build = _one_piezo_reference
    else:
        def build():
            return build_system(letter, manager=_RetuningManager())
    environment = indoor_industrial_environment(duration=DAY, dt=300.0,
                                                seed=7)
    _assert_kernel_is_legacy(build, environment, letter)


# ---------------------------------------------------------------------------
# The buck-boost demand memo
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       data=st.data())
def test_buck_boost_inversion_equals_input_power(pool, data):
    """NaN bus voltages are left out: the closure's window test lets a
    NaN ``v_in`` through to the fixed point, which ``efficiency``
    refuses."""
    converter = BuckBoostConverter(min_input_voltage=2.0,
                                   max_input_voltage=4.0)
    lowered = converter.lower_input_kernel(DT)
    assert lowered != converter.input_power
    pool += [0.0, -0.0, 1e-300, math.nan, math.inf]
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from(pool),
        st.one_of(st.floats(0.0, 6.0), st.sampled_from([2.0, 4.0]))),
        min_size=1, max_size=24))
    for p_out, v_in in calls:
        assert lowered(p_out, v_in, 3.0).hex() == \
            converter.input_power(p_out, v_in, 3.0).hex(), (p_out, v_in)


def test_buck_boost_subclass_keeps_its_own_inversion():
    converter = _VoutBuckBoost()
    assert converter.lower_input_kernel(DT) == converter.input_power
