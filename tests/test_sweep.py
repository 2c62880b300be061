"""Tests for the multi-scenario sweep runner."""

from functools import partial

import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.environment import Environment, SourceType, Trace
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.simulation import (
    ScenarioSpec,
    SweepRunner,
    simulate,
    swap_storage_event,
)
from repro.storage import Supercapacitor
from repro.systems import build_system

DAY = 86_400.0

#: One dict every call of :func:`shared_extras` returns.
SHARED_EXTRAS = {"source": "shared"}


def build_pv_system(area_cm2: float):
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=area_cm2, efficiency=0.16, name="pv")],
        capacitance_f=50.0, measurement_interval_s=120.0)


def collect_coverage(result) -> dict:
    return {"coverage": result.metrics.harvest_coverage}


def shared_extras(result) -> dict:
    return SHARED_EXTRAS


def make_events():
    return [swap_storage_event(0.5 * DAY, 0,
                               Supercapacitor(capacitance_f=20.0))]


def _specs(n=8, **overrides):
    areas = [10.0 + 10.0 * k for k in range(n)]
    kwargs = dict(
        environment=partial(outdoor_environment, duration=DAY, dt=300.0),
        duration=DAY, seed=3,
    )
    kwargs.update(overrides)
    return [
        ScenarioSpec(name=f"area-{area:g}",
                     system=partial(build_pv_system, area),
                     params={"area_cm2": area}, **kwargs)
        for area in areas
    ]


class TestSweepRunner:
    def test_parallel_identical_to_sequential_simulate(self):
        """Acceptance: a parallel sweep over >= 8 scenarios produces
        metrics identical to sequential simulate() calls."""
        specs = _specs(8)
        sweep = SweepRunner(processes=4).run(specs)
        assert len(sweep) == 8
        for spec, scenario in zip(specs, sweep):
            direct = simulate(
                build_pv_system(spec.params["area_cm2"]),
                outdoor_environment(duration=DAY, dt=300.0, seed=3),
                duration=DAY)
            assert scenario.metrics == direct.metrics, spec.name
            assert scenario.n_steps == len(direct.recorder)

    def test_sequential_runner_matches_parallel(self):
        specs = _specs(4)
        parallel = SweepRunner(processes=2).run(specs)
        sequential = SweepRunner(processes=1).run(specs)
        for p, s in zip(parallel, sequential):
            assert p.metrics == s.metrics
            assert p.params == s.params

    def test_closure_specs_fall_back_in_process(self):
        """Non-picklable factories (closures) still run — in-process."""
        env = outdoor_environment(duration=DAY, dt=600.0, seed=9)
        specs = [
            ScenarioSpec(name=f"c-{k}",
                         system=lambda k=k: build_pv_system(20.0 + k),
                         environment=lambda: env)
            for k in range(3)
        ]
        sweep = SweepRunner(processes=4).run(specs)
        assert len(sweep) == 3
        assert all(r.metrics.duration_s == DAY for r in sweep)

    def test_events_and_collect_hooks(self):
        specs = _specs(2, events=make_events, collect=collect_coverage)
        sweep = SweepRunner(processes=2).run(specs)
        for scenario in sweep:
            assert 0.0 < scenario.extras["coverage"] <= 1.0

    def test_duplicate_names_rejected(self):
        specs = _specs(2)
        specs[1].name = specs[0].name
        with pytest.raises(ValueError, match="unique"):
            SweepRunner(processes=1).run(specs)

    def test_environment_instance_accepted(self):
        env = Environment(
            {SourceType.LIGHT: Trace.constant(400.0, 3600.0, dt=60.0)})
        spec = ScenarioSpec(name="flat", system=partial(build_pv_system, 30.0),
                            environment=env)
        sweep = SweepRunner(processes=1).run([spec])
        assert sweep["flat"].metrics.harvest_coverage == 1.0

    def test_bad_environment_rejected(self):
        spec = ScenarioSpec(name="bad", system=partial(build_pv_system, 30.0),
                            environment="not-an-environment")
        with pytest.raises(TypeError, match="environment"):
            SweepRunner(processes=1).run([spec])


def _system_d_specs(**overrides):
    """Two 0.1-day System D scenarios (dt 600 s)."""
    env = partial(outdoor_environment, duration=0.1 * DAY, dt=600.0)
    return [ScenarioSpec(name=f"d{k}", system=partial(build_system, "D"),
                         environment=env, seed=k, **overrides)
            for k in range(2)]


class TestCollectHooks:
    """A hook's return value is copied into the row's extras: a hook that
    returns None leaves them empty, and a dict it shares across calls is
    never written to."""

    @pytest.mark.parametrize("batch, fast, path", [
        ("auto", False, "legacy"),   # refused: the row carries a report
        (False, "auto", "kernel"),
        (True, "auto", "batched"),
    ])
    def test_hook_returning_none(self, batch, fast, path):
        seen = []
        sweep = SweepRunner(processes=1, batch=batch, fast=fast).run(
            _system_d_specs(collect=seen.append))
        assert len(seen) == 2
        assert [r.execution_path for r in sweep] == [path] * 2
        assert len(sweep.rows()) == 2
        for result in sweep:
            assert set(result.extras) == (
                {"batch_fallback_reason"} if fast is False else set())

    def test_shared_dict_is_not_written(self):
        specs = _system_d_specs(collect=shared_extras)
        specs[0].fast = False
        sweep = SweepRunner(processes=1, batch="auto").run(specs)
        assert [r.execution_path for r in sweep] == ["legacy", "kernel"]
        assert sweep["d0"].extras["batch_fallback_reason"].component == \
            "scenario"
        assert sweep["d1"].extras == {"source": "shared"}
        assert SHARED_EXTRAS == {"source": "shared"}
        assert len(sweep.rows()) == 2


class TestSweepResult:
    def test_rows_are_tidy(self):
        sweep = SweepRunner(processes=1).run(_specs(2,
                                                    collect=collect_coverage))
        rows = sweep.rows()
        assert len(rows) == 2
        for row in rows:
            assert {"name", "area_cm2", "uptime_fraction",
                    "harvested_delivered_j", "coverage"} <= set(row)

    def test_indexing_and_column(self):
        sweep = SweepRunner(processes=1).run(_specs(3))
        assert sweep[0].name == "area-10"
        assert sweep["area-20"].params["area_cm2"] == 20.0
        areas = sweep.column("area_cm2")
        assert areas == [10.0, 20.0, 30.0]

    def test_report_renders(self):
        sweep = SweepRunner(processes=1).run(_specs(2))
        text = sweep.report(title="pv sweep")
        assert "pv sweep" in text
        assert "area-10" in text
