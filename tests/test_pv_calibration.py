"""The PV cell's STC calibration memo.

``PhotovoltaicCell`` memoizes its photocurrent scale per constructor
argument tuple, so a replicate ensemble calibrates each cell design
once. A hit must be bitwise what a cold calibration computes, a failed
calibration is never stored, and a subclass — which may override or
count the I-V calls the calibration makes — always calibrates itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harvesters import photovoltaic
from repro.harvesters.base import Harvester, OperatingPoint
from repro.harvesters.photovoltaic import PhotovoltaicCell

IRRADIANCES = (0.0, 3.5, 120.0, 640.0, 1000.0)


class _ColdPV(PhotovoltaicCell):
    """Same physics, never memoized: a cold calibration every time."""


class _CallCountingPV(PhotovoltaicCell):
    def __init__(self, **kwargs):
        self.calls = 0
        super().__init__(**kwargs)

    def power_at(self, voltage, ambient):
        self.calls += 1
        return super().power_at(voltage, ambient)


cell_args = st.fixed_dictionaries({
    "area_cm2": st.floats(0.5, 200.0),
    "efficiency": st.floats(0.01, 0.4),
    "cells_in_series": st.integers(1, 40),
    "ideality": st.floats(1.0, 2.0),
    "dark_current_density": st.floats(1e-12, 1e-6),
})


@settings(max_examples=60, deadline=None)
@given(kwargs=cell_args)
def test_memo_hit_is_bitwise_a_cold_calibration(kwargs):
    photovoltaic._IPH_PER_W_M2.clear()
    first = PhotovoltaicCell(**kwargs)
    assert len(photovoltaic._IPH_PER_W_M2) == 1
    hit = PhotovoltaicCell(**kwargs)
    cold = _ColdPV(**kwargs)
    assert hit._iph_per_w_m2.hex() == cold._iph_per_w_m2.hex() \
        == first._iph_per_w_m2.hex()
    for irradiance in IRRADIANCES:
        got, want = hit.mpp(irradiance), cold.mpp(irradiance)
        assert (got.voltage, got.current, got.power) == \
            (want.voltage, want.current, want.power)
        for fraction in (0.25, 0.8, 1.1):
            voltage = fraction * cold.open_circuit_voltage(irradiance)
            assert hit.power_at(voltage, irradiance).hex() == \
                cold.power_at(voltage, irradiance).hex()


def test_subclass_always_calibrates_itself():
    kwargs = {"area_cm2": 40.0, "efficiency": 0.12}
    first = _CallCountingPV(**kwargs)
    second = _CallCountingPV(**kwargs)
    assert first.calls > 0
    assert second.calls == first.calls


def test_failed_calibration_is_never_stored(monkeypatch):
    monkeypatch.setattr(photovoltaic, "_IPH_PER_W_M2", {})
    with monkeypatch.context() as patch:
        patch.setattr(Harvester, "mpp",
                      lambda self, ambient: OperatingPoint(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate PV calibration"):
            PhotovoltaicCell(area_cm2=33.0)
    assert photovoltaic._IPH_PER_W_M2 == {}
    cell = PhotovoltaicCell(area_cm2=33.0)
    assert cell._iph_per_w_m2 == _ColdPV(area_cm2=33.0)._iph_per_w_m2
    assert len(photovoltaic._IPH_PER_W_M2) == 1
