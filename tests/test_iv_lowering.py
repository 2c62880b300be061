"""Exactness of the per-ambient I-V lowerings.

The hill-climb kernel closures and the fused codegen emission query a
harvester through :meth:`~repro.harvesters.base.Harvester.lower_iv`,
built once per step. These tests hold each lowering to the methods it
replaces:

* every library Thevenin class and the PV cell: the closures equal the
  bound ``power_at``/``current_at`` bitwise and raise where they raise,
  across a retune of a resonant harvester between steps;
* a subclass override, a user harvester and a wrapper installed on a
  library class get the bound methods, which keep every call.

They also hold the Table I LDO output stage's closed-form
``input_power`` to ``p_out / eff`` bitwise, ``inf`` included, and check
that a subclass redefining the curve inverts it by the generic fixed
point.

Results are compared with ``float.hex``, so even the sign of a zero
counts.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harvesters
from repro.conditioning.converters import Converter, LinearRegulator
from repro.harvesters import (
    ElectromagneticHarvester,
    GenericACDCInput,
    MicroWindTurbine,
    PhotovoltaicCell,
    PiezoelectricHarvester,
    RFHarvester,
    ThermoelectricGenerator,
    WaterTurbine,
)
from repro.harvesters.base import TheveninHarvester

#: One instance of each library I-V model, with the ambient range drawn
#: for it. The resonant harvesters start detuned, so a retune moves them.
HARVESTERS = {
    "teg": (ThermoelectricGenerator, {}, 80.0),
    "wind": (MicroWindTurbine, {}, 20.0),
    "water": (WaterTurbine, {}, 3.0),
    "piezo": (PiezoelectricHarvester, {"excitation_frequency": 51.0}, 6.0),
    "electromagnetic": (ElectromagneticHarvester,
                        {"excitation_frequency": 61.0}, 6.0),
    "rf": (RFHarvester, {}, 0.05),
    "ac": (GenericACDCInput, {}, 30.0),
    "pv": (PhotovoltaicCell, {"area_cm2": 40.0, "efficiency": 0.16},
           1100.0),
}

SPECIAL_VOLTAGES = (0.0, -0.0, -1e-9, -1.0, math.inf, math.nan)


def _outcome(fn, *args):
    """A call's result as hex, or the error it raised."""
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _assert_lowering_is_the_methods(harvester, ambient, voltages):
    power_at, current_at = harvester.lower_iv(ambient)
    assert power_at != harvester.power_at  # closures, not the methods
    for v in voltages:
        assert _outcome(power_at, v, ambient) == \
            _outcome(harvester.power_at, v, ambient), v
        assert _outcome(current_at, v, ambient) == \
            _outcome(harvester.current_at, v, ambient), v


def _voltages(harvester, ambient, fractions):
    voc = harvester.open_circuit_voltage(ambient)
    return [f * voc for f in fractions] + [voc, 2.0 * voc + 1.0,
                                           *SPECIAL_VOLTAGES]


def test_every_library_thevenin_class_is_covered():
    exported = {obj for obj in vars(repro.harvesters).values()
                if isinstance(obj, type) and issubclass(obj, TheveninHarvester)
                and obj is not TheveninHarvester}
    assert len(exported) == 7
    assert exported <= {make for make, _, _ in HARVESTERS.values()}


@pytest.mark.parametrize("kind", sorted(HARVESTERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lowering_equals_the_methods(kind, data):
    make, kwargs, top = HARVESTERS[kind]
    harvester = make(**kwargs)
    fractions = data.draw(st.lists(st.floats(0.0, 1.2), min_size=1,
                                   max_size=8))
    for _ in range(3):  # three steps, each lowered at its own ambient
        ambient = data.draw(st.one_of(
            st.floats(0.0, top), st.sampled_from([0.0, top, math.nan])))
        _assert_lowering_is_the_methods(
            harvester, ambient, _voltages(harvester, ambient, fractions))


@pytest.mark.parametrize("kind", ["piezo", "electromagnetic"])
@settings(max_examples=40, deadline=None)
@given(ambient=st.floats(0.1, 6.0),
       frequencies=st.lists(st.floats(40.0, 70.0), min_size=2, max_size=4))
def test_retune_between_steps_takes_effect(kind, ambient, frequencies):
    """A smart-harvester controller retunes a resonant harvester between
    steps; the next step's lowering reads the new frequency, at the same
    ambient value too."""
    make, kwargs, _ = HARVESTERS[kind]
    harvester = make(**kwargs)
    for frequency in frequencies:
        harvester.current_frequency = frequency
        _assert_lowering_is_the_methods(
            harvester, ambient,
            _voltages(harvester, ambient, (0.1, 0.5, 0.9)))


def test_non_positive_internal_resistance_raises_like_the_methods():
    turbine = MicroWindTurbine()
    turbine.internal_resistance = 0.0  # past the constructor's check
    _assert_lowering_is_the_methods(turbine, 8.0,
                                    [0.0, 1.0, *SPECIAL_VOLTAGES])
    power_at, current_at = turbine.lower_iv(8.0)
    with pytest.raises(ValueError, match="internal resistance"):
        power_at(1.0, 8.0)
    with pytest.raises(ValueError, match="internal resistance"):
        current_at(1.0, 8.0)


def test_negative_irradiance_raises_at_the_lowering():
    pv = PhotovoltaicCell()
    with pytest.raises(ValueError, match="irradiance"):
        pv.current_at(1.0, -1.0)
    with pytest.raises(ValueError, match="irradiance"):
        pv.lower_iv(-1.0)


# ---------------------------------------------------------------------------
# The LDO inversion
# ---------------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(dropout=st.sampled_from([0.0, 0.15, 0.3]),
       p_out=st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e-300),
                       st.sampled_from([0.0, 1e300, math.inf])),
       v_in=st.one_of(st.floats(-1.0, 8.0), st.sampled_from([0.0, 3.15])),
       v_out=st.one_of(st.sampled_from([1.8, 3.0]), st.floats(-1.0, 5.0)))
def test_ldo_inversion_equals_input_power(dropout, p_out, v_in, v_out):
    """``input_power`` is ``p_out / eff`` at the efficiency of any
    positive input: the curve reads ``p_in`` only through ``p_in <= 0``."""
    ldo = LinearRegulator(dropout_voltage=dropout)
    eff = ldo.efficiency(1.0, v_in, v_out)
    if p_out == 0.0:
        expected = 0.0
    elif eff <= 0.0:
        expected = math.inf
    else:
        expected = p_out / eff
    assert ldo.input_power(p_out, v_in, v_out).hex() == expected.hex()


def test_ldo_inversion_refuses_like_input_power():
    ldo = LinearRegulator()
    assert ldo.input_power(1e-3, 2.0, 3.0) == math.inf  # below dropout
    assert ldo.input_power(1e-3, math.nan, 3.0) == math.inf
    with pytest.raises(ValueError, match="p_out"):
        ldo.input_power(-1.0, 3.3, 3.0)
    assert ldo.input_power(0.0, 3.3, 3.0) == 0.0
    assert math.isnan(ldo.input_power(math.nan, 3.3, 3.0))


def test_ldo_subclass_keeps_its_own_inversion():
    """A subclass that redefines the curve inverts it by the generic
    fixed point: the LDO's ``p_out / eff`` would miss by the sag."""
    class SaggingLDO(LinearRegulator):
        def efficiency(self, p_in, v_in, v_out):
            return 0.9 * super().efficiency(p_in, v_in, v_out)

    ldo = SaggingLDO()
    assert type(ldo).input_power is Converter.input_power
    p_in = ldo.input_power(1e-3, 4.0, 3.0)
    assert ldo.output_power(p_in, 4.0, 3.0) == pytest.approx(1e-3, rel=1e-9)


# ---------------------------------------------------------------------------
# Who gets the bound methods
# ---------------------------------------------------------------------------
def _assert_bound(harvester):
    power_at, current_at = harvester.lower_iv(5.0)
    assert power_at == harvester.power_at
    assert current_at == harvester.current_at


def test_library_subclass_override_gets_the_bound_methods():
    """An override in a class that passes the module test still keeps
    every call: the identity check refuses it."""
    class ClippedTurbine(MicroWindTurbine):
        def current_at(self, voltage, ambient):
            return min(super().current_at(voltage, ambient), 0.01)

    ClippedTurbine.__module__ = "repro.harvesters.clipped"
    _assert_bound(ClippedTurbine())

    class SquaredPV(PhotovoltaicCell):
        def power_at(self, voltage, ambient):
            return super().power_at(voltage, ambient) ** 2

    SquaredPV.__module__ = "repro.harvesters.squared"
    _assert_bound(SquaredPV())


def test_user_harvester_gets_the_bound_methods():
    class UserTurbine(MicroWindTurbine):
        pass

    class UserPV(PhotovoltaicCell):
        pass

    _assert_bound(UserTurbine())
    _assert_bound(UserPV())


@pytest.mark.parametrize("cls, make", [
    (TheveninHarvester, MicroWindTurbine),
    (TheveninHarvester, PiezoelectricHarvester),
    (PhotovoltaicCell, PhotovoltaicCell),
])
def test_wrapper_on_the_class_gets_the_bound_methods(monkeypatch, cls, make):
    """A counting wrapper on a library ``current_at`` (as perfbench's
    tracer installs) sees every query a lowered hill climb makes."""
    calls = [0]
    original = cls.current_at

    def counting(self, voltage, ambient):
        calls[0] += 1
        return original(self, voltage, ambient)

    monkeypatch.setattr(cls, "current_at", counting)
    harvester = make()
    _assert_bound(harvester)
    calls[0] = 0  # a PV build may calibrate through current_at
    power_at, current_at = harvester.lower_iv(5.0)
    power_at(0.5, 5.0)
    current_at(0.5, 5.0)
    assert calls[0] == 2
