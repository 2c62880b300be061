"""Width routing: under ``batch="auto"`` only wide groups run in lockstep.

A lockstep step costs a fixed set of numpy calls whatever the group's
width, so a narrow group runs faster per scenario on the scalar kernel
(``docs/batched.md``, "When lockstep pays"). These tests pin each
boundary of that rule:

* a group one lane short of
  :data:`~repro.simulation.batched_sweep.LOCKSTEP_MIN_LANES` runs per
  scenario, as ``"kernel"`` rows with no ``batch_fallback_reason``
  (routing is a choice, not a refusal), bitwise equal to ``batch=False``
  and ``batch=True`` rows;
* a group of exactly that many lanes runs ``"batched"``;
* ``batch=True`` keeps lockstep at any width, one lane included;
* a narrow scenario builds its environment once, including when a wide
  topology is split into narrow groups by ``dt``;
* a scenario handed back to the per-scenario tiers builds its system
  once.

The lockstep tier takes whole groups of enabled lanes: a group whose
compile refuses on instance state the topology signature cannot see runs
whole per scenario, and a lane with a disabled channel is refused; both
carry a report naming the refusing class.

The grids use the fused codegen shape; the engine's codegen attempt is
refused here so per-scenario rows name the scalar kernel, the tier the
routing rule was measured against.
"""

import hashlib
from functools import partial

import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.core.manager import StaticManager, ThresholdManager
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.load import ThresholdDutyCycle
from repro.simulation import ScenarioSpec, SweepRunner
from repro.simulation import batched_sweep
from repro.simulation import sweep as sweep_module
from repro.simulation.batched_sweep import LOCKSTEP_MIN_LANES
from repro.simulation.recorder import SCALAR_COLUMNS

pytestmark = pytest.mark.usefixtures("refuse_codegen")

DAY = 86_400.0
DURATION = 0.25 * DAY


def _build(area):
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=area, efficiency=0.12, name="pv")])


def _columns_digest(result) -> dict:
    """Every recorded column and the node state history, as one digest,
    so rows from different tiers compare bit for bit."""
    digest = hashlib.sha256()
    for column in SCALAR_COLUMNS:
        digest.update(result.recorder.column(column).tobytes())
    digest.update(result.recorder.state_codes().tobytes())
    return {"columns_sha256": digest.hexdigest()}


def _grid(width, environment=None, dt=None):
    """``width`` lanes of one topology, distinct in PV area and seed."""
    if environment is None:
        environment = partial(outdoor_environment, duration=DURATION,
                              dt=600.0)
    return [ScenarioSpec(name=f"lane{k}", system=partial(_build, 5.0 + k),
                         environment=environment, duration=DURATION,
                         dt=dt(k) if dt is not None else None, seed=20 + k,
                         params={"k": k}, collect=_columns_digest)
            for k in range(width)]


def _identity(row):
    return row.name, row.params, row.metrics, row.n_steps, row.extras


def test_narrow_group_runs_per_scenario_bitwise():
    width = LOCKSTEP_MIN_LANES - 1
    auto = SweepRunner(processes=1, batch="auto").run(_grid(width))
    assert [r.execution_path for r in auto] == ["kernel"] * width
    for row in auto:
        assert "batch_fallback_reason" not in row.extras, row.name
    off = SweepRunner(processes=1, batch=False).run(_grid(width))
    forced = SweepRunner(processes=1, batch=True).run(_grid(width))
    assert [r.execution_path for r in forced] == ["batched"] * width
    for row, other, lockstep in zip(auto, off, forced):
        assert _identity(row) == _identity(other) == _identity(lockstep)


def test_group_of_the_threshold_width_runs_in_lockstep():
    width = LOCKSTEP_MIN_LANES
    auto = SweepRunner(processes=1, batch="auto").run(_grid(width))
    assert [r.execution_path for r in auto] == ["batched"] * width
    off = SweepRunner(processes=1, batch=False).run(_grid(width))
    for row, other in zip(auto, off):
        assert _identity(row) == _identity(other)


def test_batch_true_keeps_lockstep_at_width_one():
    (row,) = SweepRunner(processes=1, batch=True).run(_grid(1))
    assert row.execution_path == "batched"
    (auto,) = SweepRunner(processes=1, batch="auto").run(_grid(1))
    assert auto.execution_path == "kernel"
    assert _identity(row) == _identity(auto)


class _CountingEnvironment:
    """Environment factory that counts its calls per seed."""

    def __init__(self):
        self.calls = {}

    def __call__(self, seed):
        self.calls[seed] = self.calls.get(seed, 0) + 1
        return outdoor_environment(duration=DURATION, dt=600.0, seed=seed)


@pytest.mark.parametrize("width", [1, LOCKSTEP_MIN_LANES - 1])
def test_narrow_scenarios_build_their_environment_once(width):
    factory = _CountingEnvironment()
    sweep = SweepRunner(processes=1, batch="auto").run(
        _grid(width, environment=factory))
    assert [r.execution_path for r in sweep] == ["kernel"] * width
    assert factory.calls == {20 + k: 1 for k in range(width)}


def test_wide_topology_split_by_dt_runs_per_scenario():
    """One topology of ``LOCKSTEP_MIN_LANES`` lanes, half at dt 300 s and
    half at dt 600 s: two lockstep groups of half that width, both
    narrow, so every lane runs per scenario — on the environment the
    batched tier already built for it."""
    width = LOCKSTEP_MIN_LANES

    def dt(k):
        return 300.0 if k % 2 else 600.0

    factory = _CountingEnvironment()
    auto = SweepRunner(processes=1, batch="auto").run(
        _grid(width, environment=factory, dt=dt))
    assert [r.execution_path for r in auto] == ["kernel"] * width
    for row in auto:
        assert "batch_fallback_reason" not in row.extras, row.name
    assert factory.calls == {20 + k: 1 for k in range(width)}
    forced = SweepRunner(processes=1, batch=True).run(
        _grid(width, environment=_CountingEnvironment(), dt=dt))
    assert [r.execution_path for r in forced] == ["batched"] * width
    for row, lockstep in zip(auto, forced):
        assert _identity(row) == _identity(lockstep)


def _same_run(row, other):
    """Equal results, whatever report the rows carry."""
    return (row.metrics, row.n_steps, row.extras["columns_sha256"]) == \
        (other.metrics, other.n_steps, other.extras["columns_sha256"])


def _waking_static_manager():
    manager = StaticManager()
    manager.wakeup_energy_j = 1e-3
    return manager


def _two_level_threshold_manager():
    return ThresholdManager(
        controller=ThresholdDutyCycle(levels=((0.5, 60.0), (0.0, 600.0))))


def _managed(make_manager, area=5.0):
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=area, efficiency=0.12, name="pv")],
        manager=make_manager())


def _disabled_channel(area):
    system = _build(area)
    system.channels[0].enabled = False
    return system


#: Lane factories of one topology signature whose group compile refuses
#: on instance state the signature cannot see (the first lane alone
#: batches), keyed by the class the refusal names.
REFUSED_GROUPS = {
    "StaticManager": (StaticManager, _waking_static_manager),
    "ThresholdDutyCycle": (ThresholdManager, _two_level_threshold_manager),
}


def _pair(managers, environment):
    return [ScenarioSpec(name=f"lane{k}", system=partial(_managed, make),
                         environment=environment, duration=DURATION,
                         seed=20 + k, collect=_columns_digest)
            for k, make in enumerate(managers)]


@pytest.mark.parametrize("component", sorted(REFUSED_GROUPS))
def test_group_the_compile_refuses_runs_whole_per_scenario(monkeypatch,
                                                           component):
    managers = REFUSED_GROUPS[component]
    factory = _CountingEnvironment()
    with pytest.raises(ValueError, match=rf"'lane0'.*{component}"):
        SweepRunner(processes=1, batch=True).run(_pair(managers, factory))
    monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
    factory = _CountingEnvironment()
    auto = SweepRunner(processes=1, batch="auto").run(
        _pair(managers, factory))
    assert [r.execution_path for r in auto] == ["kernel", "kernel"]
    # The environments built for the refused compile ride along.
    assert factory.calls == {20: 1, 21: 1}
    off = SweepRunner(processes=1, batch=False).run(
        _pair(managers, _CountingEnvironment()))
    for row, other in zip(auto, off):
        assert row.extras["batch_fallback_reason"].component == component
        assert _same_run(row, other), row.name


def test_disabled_channel_lane_is_refused(monkeypatch):
    grid = _grid(2)
    grid[1].system = partial(_disabled_channel, 6.0)
    with pytest.raises(ValueError, match="'lane1'.*HarvestingChannel"):
        SweepRunner(processes=1, batch=True).run(grid)
    monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
    auto = SweepRunner(processes=1, batch="auto").run(grid)
    assert [r.execution_path for r in auto] == ["batched", "kernel"]
    assert "batch_fallback_reason" not in auto[0].extras
    report = auto[1].extras["batch_fallback_reason"]
    assert (report.component, report.capability) == \
        ("HarvestingChannel", "enabled channel")
    off = SweepRunner(processes=1, batch=False).run(grid)
    for row, other in zip(auto, off):
        assert _same_run(row, other), row.name


def test_handed_back_scenarios_build_their_system_once(monkeypatch):
    """A narrow group and a refused topology run per scenario on the
    systems the batched tier built to probe them."""
    calls = []
    build = sweep_module._build_system

    def counting(spec):
        calls.append(spec.name)
        return build(spec)

    grid = _grid(4)
    grid[3].system = partial(_disabled_channel, 8.0)
    monkeypatch.setattr(sweep_module, "_build_system", counting)
    auto = SweepRunner(processes=1, batch="auto").run(grid)
    assert sorted(calls) == ["lane0", "lane1", "lane2", "lane3"]
    assert [r.execution_path for r in auto] == ["kernel"] * 4
    assert auto["lane3"].extras["batch_fallback_reason"].component == \
        "HarvestingChannel"
    off = SweepRunner(processes=1, batch=False).run(grid)
    for row, other in zip(auto, off):
        assert _same_run(row, other), row.name
