"""Exactness of the hill-climb limit-cycle fast-forward.

The fast tiers skip P&O and incremental-conductance control updates
that only repeat an exact limit cycle (``docs/kernel.md``). These tests
hold each place the rule runs to a naive reference:

* the scalar helpers — P&O's, shared by its kernel closure and the
  fused codegen emission, and IncCond's, used by its kernel closure —
  against naive update loops written out here;
* the batched ``prepare`` replays, against each lane's legacy ``step``
  run one lane at a time;
* the engine tiers, where the rule must skip most ``power_at`` /
  ``current_at`` calls for library harvesters and none for a stateful
  user harvester, and where a ``step`` override must keep running.

Final states are compared with ``float.hex``, so even the sign of a
zero counts.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments.common import make_reference_system
from repro.analysis.experiments import mppt_study
from repro.conditioning.mppt import (
    IncrementalConductance,
    PerturbObserve,
    incremental_conductance_updates,
    perturb_observe_updates,
)
from repro.environment.composite import outdoor_environment
from repro.harvesters import MicroWindTurbine, PhotovoltaicCell
from repro.harvesters.base import Harvester
from repro.simulation import simulate

DAY = 86_400.0

#: Harvesters the hill climbs run against, with the ambient range drawn
#: for each. The turbine's power ceiling flattens the top of its P-V
#: curve into a plateau, which gives long limit cycles or none at all.
HARVESTERS = {
    "outdoor-pv": (PhotovoltaicCell(area_cm2=40.0, efficiency=0.16),
                   (0.0, 1100.0)),
    "indoor-pv": (PhotovoltaicCell(area_cm2=20.0, efficiency=0.07,
                                   cells_in_series=6), (0.0, 5.0)),
    "wind": (MicroWindTurbine(rotor_diameter_m=0.12), (0.0, 20.0)),
}

#: Recorder columns compared bitwise across engine tiers.
COLUMNS = ("harvest_raw", "harvest_delivered", "harvest_mpp",
           "charge_accepted", "quiescent", "node_supplied", "node_consumed",
           "measurements", "stored_energy")


def naive_updates(power_at, ambient, voc, step_fraction, voltage,
                  last_power, direction, updates):
    """The P&O update loop of ``PerturbObserve.step``, every update run."""
    for _ in range(updates):
        power = power_at(voltage, ambient)
        if last_power is not None and power < last_power:
            direction = -direction
        last_power = power
        voltage += direction * step_fraction * voc
        voltage = min(max(voltage, 0.0), voc)
    return voltage, last_power, direction


def naive_incremental_conductance(current_at, ambient, voc, step_fraction,
                                  probe_fraction, voltage, updates):
    """The update loop of ``IncrementalConductance.step``, every update
    run."""
    for _ in range(updates):
        v = min(max(voltage, 1e-6), voc)
        dv = max(probe_fraction * voc, 1e-9)
        i0 = current_at(v, ambient)
        i1 = current_at(min(v + dv, voc), ambient)
        di_dv = (i1 - i0) / dv
        target_slope = -i0 / v
        if di_dv > target_slope:
            voltage = min(v + step_fraction * voc, voc)
        elif di_dv < target_slope:
            voltage = max(v - step_fraction * voc, 0.0)
    return voltage


def _hex(value):
    return None if value is None else float(value).hex()


def _counted(fn):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    return counted, calls


# ---------------------------------------------------------------------------
# Scalar helper (kernel closure and fused codegen)
# ---------------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(HARVESTERS)), data=st.data())
def test_scalar_fast_forward_equals_naive_loop(kind, data):
    harvester, (lo, hi) = HARVESTERS[kind]
    ambient = data.draw(st.floats(lo, hi), label="ambient")
    voc = harvester.open_circuit_voltage(ambient)
    assume(voc > 0.0)
    voltage = data.draw(st.floats(0.0, voc), label="voltage")
    peak = harvester.max_power(ambient)
    last_power = data.draw(st.none() | st.floats(0.0, 1.5 * peak),
                           label="last_power")
    direction = data.draw(st.sampled_from((1.0, -1.0)), label="direction")
    step_fraction = data.draw(st.floats(0.001, 0.49), label="step_fraction")
    updates = data.draw(st.integers(0, 64), label="updates")
    args = (ambient, voc, step_fraction, voltage, last_power, direction,
            updates)

    naive_power, naive_calls = _counted(harvester.power_at)
    fast_power, fast_calls = _counted(harvester.power_at)
    expected = naive_updates(naive_power, *args)
    got = perturb_observe_updates(fast_power, *args)
    assert [_hex(x) for x in got] == [_hex(x) for x in expected]
    assert fast_calls[0] <= naive_calls[0] == updates
    # Without the fast-forward the helper is the naive loop itself.
    slow_power, slow_calls = _counted(harvester.power_at)
    got = perturb_observe_updates(slow_power, *args, fast_forward=False)
    assert [_hex(x) for x in got] == [_hex(x) for x in expected]
    assert slow_calls[0] == updates


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(sorted(HARVESTERS)), data=st.data())
def test_scalar_incremental_conductance_equals_naive_loop(kind, data):
    harvester, (lo, hi) = HARVESTERS[kind]
    ambient = data.draw(st.floats(lo, hi), label="ambient")
    voc = harvester.open_circuit_voltage(ambient)
    assume(voc > 0.0)
    # The stored voltage may exceed this step's Voc: it was set against
    # an earlier ambient value.
    voltage = data.draw(st.floats(0.0, 1.5 * voc), label="voltage")
    step_fraction = data.draw(st.floats(0.01, 0.49), label="step_fraction")
    probe_fraction = step_fraction * data.draw(st.floats(0.05, 0.9),
                                               label="probe")
    updates = data.draw(st.integers(0, 64), label="updates")
    args = (ambient, voc, step_fraction, probe_fraction, voltage, updates)

    naive_current, naive_calls = _counted(harvester.current_at)
    fast_current, fast_calls = _counted(harvester.current_at)
    expected = naive_incremental_conductance(naive_current, *args)
    got = incremental_conductance_updates(fast_current, *args)
    assert _hex(got) == _hex(expected)
    assert fast_calls[0] <= naive_calls[0] == 2 * updates
    slow_current, slow_calls = _counted(harvester.current_at)
    got = incremental_conductance_updates(slow_current, *args,
                                          fast_forward=False)
    assert _hex(got) == _hex(expected)
    assert slow_calls[0] == 2 * updates


def test_scalar_fast_forward_engages_on_a_cold_start():
    """From the half-Voc seed, P&O settles into its cycle well inside a
    64-update budget, so most of the updates are skipped."""
    harvester, _ = HARVESTERS["outdoor-pv"]
    voc = harvester.open_circuit_voltage(600.0)
    power_at, calls = _counted(harvester.power_at)
    args = (600.0, voc, 0.02, 0.5 * voc, None, 1.0, 64)
    got = perturb_observe_updates(power_at, *args)
    assert got == naive_updates(harvester.power_at, *args)
    assert calls[0] <= 32


# ---------------------------------------------------------------------------
# Batched prepare replays
# ---------------------------------------------------------------------------
def _draw_lanes(data, kind, width, dt):
    """Per-lane trackers, ambient tensor and harvesters for one group.

    Update periods give each lane its own budget per step: the 64 cap,
    counts that leave 2 or 3 updates past a multiple of the lag, a few,
    one, or none at all (a period longer than the step). Ambient draws include dead values (no Voc), and tracker
    states include lanes with no voltage or no last power yet.
    """
    harvester, (lo, hi) = HARVESTERS[kind]
    n_steps = data.draw(st.integers(1, 4), label="n_steps")
    ambient = st.one_of(st.just(0.0), st.floats(lo, hi))
    values = np.array([[data.draw(ambient, label="ambient")
                        for _ in range(width)] for _ in range(n_steps)])
    periods = data.draw(st.lists(
        st.sampled_from((dt / 80.0, dt / 30.0, dt / 19.0, dt / 3.0, dt,
                         2.5 * dt)),
        min_size=width, max_size=width), label="periods")
    lanes = []
    for period in periods:
        voltage = data.draw(st.none() | st.floats(0.0, 8.0), label="v")
        elapsed = data.draw(st.floats(0.0, 0.999), label="elapsed") * period
        lanes.append((period, voltage, elapsed))
    return harvester, values, lanes


def _replay(make, states, harvester, values, dt):
    """Run the batched prepare for one group and, one lane at a time,
    the legacy ``step`` on twin trackers from the same starting state."""
    width = values.shape[1]
    group = [make() for _ in range(width)]
    twins = [make() for _ in range(width)]
    for lane in range(width):
        for tracker in (group[lane], twins[lane]):
            for name, value in states[lane].items():
                setattr(tracker, name, value)
    # Dead lanes divide by zero in branches np.where then discards; the
    # batched tier runs its precompute under the same error state.
    with np.errstate(all="ignore"):
        surface = harvester.lower_batched([harvester] * width).build(
            values, width)
        schedule = group[0].lower_batched(dt, group).prepare(surface,
                                                             values)
    schedule.writeback()
    for lane, twin in enumerate(twins):
        for i in range(values.shape[0]):
            decision = twin.step(harvester, float(values[i, lane]), dt)
            assert _hex(schedule.voltage[i, lane]) == \
                _hex(decision.voltage), f"lane {lane} step {i}"
    return group, twins


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(HARVESTERS)),
       width=st.sampled_from((1, 3, 17)),
       dt=st.sampled_from((30.0, 300.0)), data=st.data())
def test_batched_perturb_observe_equals_per_lane_replay(kind, width, dt,
                                                        data):
    harvester, values, lanes = _draw_lanes(data, kind, width, dt)
    states = []
    for period, voltage, elapsed in lanes:
        states.append({
            "update_period": period,
            "step_fraction": data.draw(st.floats(0.005, 0.2), label="frac"),
            "_voltage": voltage,
            "_last_power": data.draw(st.none() | st.floats(0.0, 1.0),
                                     label="last_power"),
            "_direction": data.draw(st.sampled_from((1.0, -1.0)),
                                    label="direction"),
            "_elapsed": elapsed,
        })
    group, twins = _replay(PerturbObserve, states, harvester, values, dt)
    for tracker, twin in zip(group, twins):
        for name in ("_voltage", "_last_power", "_direction", "_elapsed"):
            assert _hex(getattr(tracker, name)) == _hex(getattr(twin, name))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(HARVESTERS)),
       width=st.sampled_from((1, 3, 17)),
       dt=st.sampled_from((30.0, 300.0)), data=st.data())
def test_batched_incremental_conductance_equals_per_lane_replay(
        kind, width, dt, data):
    harvester, values, lanes = _draw_lanes(data, kind, width, dt)
    states = []
    for period, voltage, elapsed in lanes:
        step_fraction = data.draw(st.floats(0.01, 0.2), label="frac")
        states.append({
            "update_period": period,
            "step_fraction": step_fraction,
            "probe_fraction": step_fraction * data.draw(
                st.floats(0.05, 0.9), label="probe"),
            "_voltage": voltage,
            "_elapsed": elapsed,
        })
    group, twins = _replay(IncrementalConductance, states, harvester,
                           values, dt)
    for tracker, twin in zip(group, twins):
        for name in ("_voltage", "_elapsed"):
            assert _hex(getattr(tracker, name)) == _hex(getattr(twin, name))


# ---------------------------------------------------------------------------
# Engine tiers: the rule engages only where it is sound
# ---------------------------------------------------------------------------
def _assert_columns_equal(result, reference):
    for column in COLUMNS:
        assert np.array_equal(result.recorder.column(column),
                              reference.recorder.column(column)), column
    assert np.array_equal(result.recorder.state_codes(),
                          reference.recorder.state_codes())


def _reference_pv_system(harvester=None, tracker_factory=None):
    if harvester is None:
        harvester = PhotovoltaicCell(area_cm2=40.0, efficiency=0.12,
                                     name="pv")
    return make_reference_system([harvester],
                                 tracker_factory=tracker_factory)


def test_fast_tiers_skip_most_power_calls_on_the_reference_system(
        monkeypatch, request):
    """A counting wrapper keeps ``PhotovoltaicCell`` in
    ``repro.harvesters``, so the rule still engages: the kernel and the
    fused codegen make at most a third of legacy's ``power_at`` calls
    and record the same bits."""
    env = outdoor_environment(duration=DAY, dt=300.0, seed=11)
    systems = {tier: _reference_pv_system()
               for tier in (False, "codegen", "auto")}
    power_at, calls = _counted(Harvester.power_at)
    monkeypatch.setattr(PhotovoltaicCell, "power_at", power_at)
    results, counts = {}, {}
    for tier, system in systems.items():
        if tier == "auto":
            # The "auto" tier here is the scalar kernel on this shape.
            request.getfixturevalue("refuse_codegen")
        calls[0] = 0
        results[tier] = simulate(system, env, dt=300.0,
                                 fast=False if tier is False else "auto")
        counts[tier] = calls[0]
    assert results["auto"].execution_path == "kernel"
    assert results["codegen"].execution_path == "codegen"
    assert counts[False] > 0
    for tier in ("auto", "codegen"):
        assert 3 * counts[tier] <= counts[False], counts
        _assert_columns_equal(results[tier], results[False])


class _CallCountingPV(PhotovoltaicCell):
    """A stateful user harvester: its readings drift after every 500th
    call. Between drifts the hill climb still settles into exact cycles,
    so skipping a call would move every later drift."""

    def __init__(self, **kwargs):
        self.calls = 0
        super().__init__(**kwargs)

    def power_at(self, voltage, ambient):
        self.calls += 1
        return super().power_at(voltage, ambient) * \
            (1.0 + 1e-3 * (self.calls // 500 % 2))


def test_stateful_user_harvester_keeps_every_call():
    env = outdoor_environment(duration=DAY, dt=300.0, seed=12)
    harvesters = {tier: _CallCountingPV(area_cm2=40.0, efficiency=0.12,
                                        name="pv")
                  for tier in (False, "auto")}
    legacy = simulate(_reference_pv_system(harvesters[False]), env,
                      dt=300.0, fast=False)
    kernel = simulate(_reference_pv_system(harvesters["auto"]), env,
                      dt=300.0, fast="auto")
    assert kernel.execution_path == "kernel"
    assert harvesters["auto"].calls == harvesters[False].calls
    _assert_columns_equal(kernel, legacy)


@pytest.mark.parametrize("replaced_by", ["subclass", "class wrapper"])
def test_replaced_step_runs_on_the_kernel(monkeypatch, replaced_by):
    """The kernel closure twins ``PerturbObserve.step``; a subclass
    override, or a wrapper installed on the class itself (as an
    instrumenting tracer does), is what the kernel must run instead."""
    env = outdoor_environment(duration=DAY, dt=300.0, seed=13)
    legacy = simulate(_reference_pv_system(), env, dt=300.0, fast=False)
    step, calls = _counted(PerturbObserve.step)
    if replaced_by == "subclass":
        class CountingPerturbObserve(PerturbObserve):
            pass

        CountingPerturbObserve.step = step
        make_tracker = CountingPerturbObserve
    else:
        monkeypatch.setattr(PerturbObserve, "step", step)
        make_tracker = PerturbObserve
    tracker = make_tracker()
    assert tracker.lower_kernel(300.0) == tracker.step
    kernel = simulate(_reference_pv_system(tracker_factory=make_tracker),
                      env, dt=300.0, fast="auto")
    assert kernel.execution_path == "kernel"
    assert calls[0] == len(legacy.recorder)
    _assert_columns_equal(kernel, legacy)


# ---------------------------------------------------------------------------
# Incremental conductance on the scalar kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("replaced_by", ["subclass", "class wrapper"])
def test_replaced_incremental_conductance_step_runs_on_the_kernel(
        monkeypatch, replaced_by):
    """The IncCond kernel closure twins ``IncrementalConductance.step``
    the same way: an override or a wrapper on the class runs instead."""
    env = outdoor_environment(duration=DAY, dt=300.0, seed=14)
    legacy = simulate(
        _reference_pv_system(tracker_factory=IncrementalConductance),
        env, dt=300.0, fast=False)
    step, calls = _counted(IncrementalConductance.step)
    if replaced_by == "subclass":
        class CountingIncrementalConductance(IncrementalConductance):
            pass

        CountingIncrementalConductance.step = step
        make_tracker = CountingIncrementalConductance
    else:
        monkeypatch.setattr(IncrementalConductance, "step", step)
        make_tracker = IncrementalConductance
    tracker = make_tracker()
    assert tracker.lower_kernel(300.0) == tracker.step
    kernel = simulate(_reference_pv_system(tracker_factory=make_tracker),
                      env, dt=300.0, fast="auto")
    assert kernel.execution_path == "kernel"
    assert calls[0] == len(legacy.recorder)
    _assert_columns_equal(kernel, legacy)


class _CurrentCountingPV(PhotovoltaicCell):
    """A stateful user harvester for IncCond, which probes ``current_at``:
    its readings drift after every 500th call."""

    def __init__(self, **kwargs):
        self.calls = 0
        super().__init__(**kwargs)

    def current_at(self, voltage, ambient):
        self.calls += 1
        return super().current_at(voltage, ambient) * \
            (1.0 + 1e-3 * (self.calls // 500 % 2))


def test_stateful_user_harvester_keeps_every_incremental_conductance_call():
    env = outdoor_environment(duration=DAY, dt=300.0, seed=15)
    harvesters = {tier: _CurrentCountingPV(area_cm2=40.0, efficiency=0.12,
                                           name="pv")
                  for tier in (False, "auto")}
    results = {tier: simulate(
        _reference_pv_system(harvester,
                             tracker_factory=IncrementalConductance),
        env, dt=300.0, fast=tier) for tier, harvester in harvesters.items()}
    assert results["auto"].execution_path == "kernel"
    assert harvesters["auto"].calls == harvesters[False].calls
    _assert_columns_equal(results["auto"], results[False])


@pytest.mark.parametrize("deployment", ["bright-outdoor", "windy-site"])
def test_e5_incremental_conductance_lanes_skip_most_current_calls(
        monkeypatch, deployment):
    """E5's IncCond lanes at 0.5 d, dt 300 s: on the kernel the limit-
    cycle fast-forward leaves under a quarter of legacy's ``current_at``
    calls (a counting wrapper on the class keeps the harvester a library
    one), and the recorded bits are legacy's."""
    env_factory = mppt_study._DEPLOYMENTS[deployment][0]
    env = env_factory(duration=0.5 * DAY, dt=300.0, seed=1)
    systems = {tier: mppt_study._build_system(deployment, "incremental-cond")
               for tier in (False, "auto")}
    cls = type(systems[False].channels[0].harvester)
    current_at, calls = _counted(cls.current_at)
    monkeypatch.setattr(cls, "current_at", current_at)
    results, counts = {}, {}
    for tier, system in systems.items():
        calls[0] = 0
        results[tier] = simulate(system, env, fast=tier)
        counts[tier] = calls[0]
    assert results["auto"].execution_path == "kernel"
    assert 4 * counts["auto"] <= counts[False], counts
    _assert_columns_equal(results["auto"], results[False])
