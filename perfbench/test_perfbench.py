"""Self-tests of the perfbench harness (fast; no workload is run).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent


def span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.1", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        # Overlaps b and runs past root's end: only [9, 10] is new cover.
        span("c", 8.0, 11.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_layer_metrics_attribute_self_time_per_layer():
    run_plan = tracing.RUN_PLAN
    engine = tracing.ENGINE_RUN
    step = f"{tracing.TRACKER_MODULE}:PerturbObserve.step"
    spans = [
        span(tracing.ROOT, 0.0, 20.0, -1),
        span(engine, 1.0, 9.0, 0, {"steps": 100, "path": "kernel"}),
        span(run_plan, 2.0, 8.0, 1, {"steps": 100}),
        span(step, 3.0, 4.0, 2),
        span(step, 5.0, 6.0, 2),
        span(engine, 10.0, 15.0, 0, {"steps": 50, "path": "legacy"}),
        span("repro.simulation.sweep:_build_environment", 16.0, 18.0, 0),
        span("repro.spec.build:build_environment", 16.5, 17.5, 6),
        span(tracing.RUN_BATCHED, 18.0, 19.0, 0,
             {"lanes": 4, "steps": 10, "paths": ["batched", "batched+kernel"]}),
    ]
    values = tracing.layer_metrics(spans, {"conditioning.iv_evals": 7})
    assert values["kernel.loop_s"] == pytest.approx(4.0)
    assert values["kernel.us_per_step"] == pytest.approx(4.0 / 100 * 1e6)
    assert values["conditioning.tracker_s"] == pytest.approx(2.0)
    assert values["conditioning.iv_evals"] == 7
    # The kernel-path engine run's own 2 s stay unattributed.
    assert values["engine.legacy_s"] == pytest.approx(5.0)
    assert values["engine.legacy_us_per_step"] == pytest.approx(5.0 / 50 * 1e6)
    assert values["environment.synth_s"] == pytest.approx(2.0)
    assert values["environment.synth_calls"] == 1  # nested call is one build
    assert values["batched.us_per_lane_step"] == pytest.approx(1.0 / 40 * 1e6)
    assert (values["paths.kernel"], values["paths.legacy"],
            values["paths.batched"], values["paths.mixed"]) == (1, 1, 1, 1)
    # root 20 s = 4 kernel + 2 tracker + 5 legacy + 2 synth + 1 batched
    # + 6 unattributed (root self 4 + kernel-path engine self 2).
    assert values["trace.unattributed_s"] == pytest.approx(6.0)


def _rows(*values, path="kernel"):
    return [{"name": f"r{i}", "x": v, "execution_path": path}
            for i, v in enumerate(values)]


class _Workload:
    expected_rows = 2


def test_check_counts_rows_that_differ_from_first_run_or_reference():
    samples = [{"rows": _rows(1.0, 2.0)}, {"rows": _rows(1.0, 2.5)},
               {"error": "boom"}]
    reference = {"rows": _rows(1.0, 2.0, path="legacy")}
    attempted, failed, _ = run._check(_Workload, reference, samples, None)
    assert (attempted, failed) == (6, 1 + 2)
    wrong_reference = {"rows": _rows(1.0, 3.0, path="legacy")}
    _, failed, _ = run._check(_Workload, wrong_reference, samples[:1], None)
    assert failed == 1


def test_check_requires_traced_rows_and_paths_to_match():
    samples = [{"rows": _rows(1.0, 2.0)}]
    traced = {"rows": _rows(1.0, 2.0, path="legacy"), "mode": "trace"}
    attempted, failed, _ = run._check(_Workload, None, samples, traced)
    assert (attempted, failed) == (4, 2)


def test_check_counts_every_execution_and_in_process_mismatches():
    samples = [{"rows": _rows(1.0, 2.0), "wall_s": [1.0, 1.1, 1.2],
                "mismatched_rows": 1}]
    attempted, failed, _ = run._check(_Workload, None, samples, None)
    assert (attempted, failed) == (6, 1)


def test_report_scales_the_fastest_execution_by_the_fastest_calibration():
    import argparse
    args = argparse.Namespace(workload="mppt_e5", seed=1, trace=0)
    rows = [{"name": f"r{i}", "execution_path": "batched"} for i in range(15)]
    ref = run.REFERENCE_CALIBRATION_S

    def process(setup, walls, calibrations):
        return {"rows": rows, "setup_s": setup, "peak_rss_mb": 50.0,
                "wall_s": walls, "calibration_s": calibrations,
                "mismatched_rows": 0, "provenance": {}}

    samples = [process(1.0, [3.0, 2.0], [2 * ref, 4 * ref, 3 * ref]),
               process(3.0, [5.0, 4.0], [3 * ref, 3 * ref, 3 * ref]),
               process(2.0, [2.5, 6.0], [4 * ref, 4 * ref, 5 * ref])]
    _, result = run.report(args, None, samples, None)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["wall_s"] == pytest.approx(2.0 / 2)
    assert metrics["setup_s"] == pytest.approx(2.0 / 2)
    assert metrics["ok_frac"] == 1.0
    assert result["attempted"] == 3 * 2 * 15 and result["correct"]


def test_tracer_patches_without_moving_engine_paths():
    import workloads
    workloads.import_repro()
    from repro.simulation.kernel.plan import KernelPlan
    from repro.spec import EnvironmentSpec, RunSpec, run as run_spec, spec_for
    original = KernelPlan.__dict__["compile"]
    spec = RunSpec(system=spec_for("A"),
                   environment=EnvironmentSpec("outdoor", duration=3600.0,
                                               dt=300.0, seed=3), dt=30.0)
    plain = run_spec(spec)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_spec(spec)
    finally:
        tracer.restore()
    assert KernelPlan.__dict__["compile"] is original
    assert traced.execution_path == plain.execution_path == "kernel"
    assert traced.metrics == plain.metrics
    names = {s[0] for s in tracer.spans}
    assert {tracing.ENGINE_RUN, tracing.RUN_PLAN,
            f"{tracing.TRACKER_MODULE}:PerturbObserve.step"} <= names
    assert tracer.iv_evals > 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.LAYER_METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mppt_e5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
