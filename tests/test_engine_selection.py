"""Engine tier selection: ``fast`` is ``"auto"`` or ``False``, and under
``"auto"`` the engine picks the tier from the plan.

* E5's P&O lanes have the fused codegen shape and run ``"codegen"``; its
  other trackers run ``"kernel"`` — every lane bitwise equal to legacy
  (the Table I letters, the fused emission branches and the event
  handoff are pinned in ``tests/test_determinism.py``);
* every other ``fast`` value — the retired ``True`` and ``"codegen"``
  included — raises the same ``ValueError`` on every layer that takes
  or forwards one: a sweep at any width, with the value on the scenario
  or on the runner, an ensemble, and ``repro run`` of a spec file.
"""

import json
import re

import numpy as np
import pytest

from repro.analysis.experiments.mppt_study import (
    _DEPLOYMENTS,
    TRACKER_FACTORIES,
    _build_system,
)
from repro.cli import main
from repro.simulation import ScenarioSpec, SweepRunner, run_ensemble, simulate
from repro.spec import EnvironmentSpec, RunSpec, spec_for

DAY = 86_400.0

#: Recorder columns compared bitwise.
COLUMNS = ("harvest_raw", "harvest_delivered", "harvest_mpp",
           "charge_accepted", "quiescent", "node_demand", "node_supplied",
           "node_consumed", "measurements", "stored_energy", "alive")

RETIRED = [True, "codegen", "bogus"]


def _error(value) -> str:
    return re.escape(f"fast must be 'auto' or False, got {value!r}")


@pytest.mark.parametrize("deployment", sorted(_DEPLOYMENTS))
def test_e5_lanes_pick_their_tier(deployment):
    """E5's platform is the fused shape: its P&O lanes run the fused
    step function and every other tracker the scalar kernel, each
    bitwise equal to the legacy loop."""
    env_factory = _DEPLOYMENTS[deployment][0]
    env = env_factory(duration=0.5 * DAY, dt=300.0, seed=1)
    for label in TRACKER_FACTORIES:
        legacy = simulate(_build_system(deployment, label), env, fast=False)
        result = simulate(_build_system(deployment, label), env)
        assert result.execution_path == \
            ("codegen" if label == "perturb-observe" else "kernel"), label
        assert result.metrics == legacy.metrics, label
        for column in COLUMNS:
            assert np.array_equal(result.recorder.column(column),
                                  legacy.recorder.column(column)), \
                (label, column)


def _scenarios(width, fast="auto"):
    run = RunSpec(spec_for("C"),
                  EnvironmentSpec("outdoor", duration=0.05 * DAY, dt=600.0))
    return [ScenarioSpec(name=f"c{k}", system=run.system,
                         environment=run.environment, seed=k, fast=fast)
            for k in range(width)]


@pytest.mark.parametrize("batch", ["auto", False])
@pytest.mark.parametrize("width", [3, 16])
@pytest.mark.parametrize("value", RETIRED)
def test_sweeps_refuse_other_fast_values_at_any_width(value, width, batch):
    with pytest.raises(ValueError, match=_error(value)):
        SweepRunner(processes=1, batch=batch).run(
            _scenarios(width, fast=value))
    with pytest.raises(ValueError, match=_error(value)):
        SweepRunner(processes=1, batch=batch, fast=value).run(
            _scenarios(width))


@pytest.mark.parametrize("value", RETIRED)
def test_ensembles_refuse_other_fast_values(value):
    run = RunSpec(spec_for("C"),
                  EnvironmentSpec("outdoor", duration=0.05 * DAY, dt=600.0))
    with pytest.raises(ValueError, match=_error(value)):
        run_ensemble(run, replicates=3, fast=value)
    with pytest.raises(ValueError, match=_error(value)):
        run_ensemble(RunSpec(run.system, run.environment, fast=value),
                     replicates=16)


@pytest.mark.parametrize("value", RETIRED)
def test_spec_files_with_other_fast_values_fail_to_run(value, tmp_path,
                                                       capsys):
    assert main(["spec", "C", "--env", "outdoor", "--days", "0.05",
                 "--dt", "600"]) == 0
    document = json.loads(capsys.readouterr().out)
    document["fast"] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path)]) == 2
    assert f"fast must be 'auto' or False, got {value!r}" in \
        capsys.readouterr().err
