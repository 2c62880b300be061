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
  topology is split into narrow groups by ``dt``.

The grids use the fused codegen shape; the engine's codegen attempt is
refused here so per-scenario rows name the scalar kernel, the tier the
routing rule was measured against.
"""

import hashlib
from functools import partial

import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.simulation import ScenarioSpec, SweepRunner
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
