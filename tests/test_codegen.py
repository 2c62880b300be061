"""Codegen tier unit suite: warm-cache reuse and the fused envelope.

The bitwise-equivalence gates live in ``tests/test_determinism.py``
(Table I letters A-G, the fused emission branches, mid-run event
handoff) and ``tests/test_differential.py`` (fuzzed corpus); this file
covers the compile cache and the envelope gate:

* a second identical run performs zero compilations and increments the
  hit counter (the warm-cache contract);
* the cache keys on the fused structure, so a changed run constant
  (capacitance, dt, P&O step fraction) reuses the compiled function,
  bitwise equal to legacy;
* a plan outside the fused envelope is refused with a report naming
  the first component outside it, and the default run takes the scalar
  kernel — a ``step`` installed on ``PerturbObserve`` included.
"""

import numpy as np
import pytest

from repro.analysis.experiments.common import make_reference_system
from repro.conditioning.mppt import PerturbObserve, TrackerStep
from repro.environment.compiled import CompiledEnvironment
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.simulation import simulate
from repro.simulation.kernel import (
    LoweringUnsupported,
    clear_codegen_cache,
    codegen_stats,
    prepare_codegen,
)
from repro.simulation.kernel.plan import KernelPlan
from repro.systems import SYSTEM_BUILDERS

DAY = 86_400.0
DT = 600.0

#: Recorder columns compared bitwise.
COLUMNS = ("harvest_raw", "harvest_delivered", "harvest_mpp",
           "charge_accepted", "quiescent", "node_demand", "node_supplied",
           "node_consumed", "measurements", "stored_energy", "alive")


def _reference_system(capacitance_f: float = 50.0,
                      step_fraction: float = 0.02):
    """The fused shape: one supercap, P&O + buck-boost, StaticManager."""
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=30.0, name="pv")],
        tracker_factory=lambda: PerturbObserve(step_fraction=step_fraction),
        capacitance_f=capacitance_f)


def _env(seed: int = 5):
    return outdoor_environment(duration=0.1 * DAY, dt=DT, seed=seed)


def _assert_bitwise(result, reference) -> None:
    assert result.metrics == reference.metrics
    for column in COLUMNS:
        assert np.array_equal(result.recorder.column(column),
                              reference.recorder.column(column)), column


class TestWarmCache:
    def test_second_identical_run_compiles_nothing(self):
        """The warm-cache contract: run an identical system twice — the
        second run performs zero compilations, and the hit counter
        increments."""
        clear_codegen_cache()
        env = _env()
        before = codegen_stats()
        first = simulate(_reference_system(), env, dt=DT)
        cold = codegen_stats()
        assert first.execution_path == "codegen"
        assert cold["compiles"] == before["compiles"] + 1
        assert cold["compile_s"] > before["compile_s"]

        second = simulate(_reference_system(), env, dt=DT)
        warm = codegen_stats()
        assert second.execution_path == "codegen"
        assert warm["compiles"] == cold["compiles"]
        assert warm["hits"] == cold["hits"] + 1
        for column in ("harvest_delivered", "stored_energy"):
            a = first.recorder.column(column)
            b = second.recorder.column(column)
            assert (a == b).all(), column

    def test_changed_run_constants_compile_nothing(self):
        """The compile cache keys on the fused structure, not on the run
        constants: a changed capacitance, dt or P&O step fraction
        reuses the compiled step function (zero compilations, one hit
        each) and stays bitwise equal to the legacy path."""
        env = _env()
        simulate(_reference_system(), env, dt=DT)
        before = codegen_stats()
        variants = ((dict(capacitance_f=20.0), DT), ({}, DT / 2),
                    (dict(step_fraction=0.05), DT))
        for kwargs, dt in variants:
            fused = simulate(_reference_system(**kwargs), env, dt=dt)
            legacy = simulate(_reference_system(**kwargs), env, dt=dt,
                              fast=False)
            assert fused.execution_path == "codegen"
            _assert_bitwise(fused, legacy)
        after = codegen_stats()
        assert after["compiles"] == before["compiles"]
        assert after["hits"] == before["hits"] + len(variants)


class TestBackendsAndEligibility:
    def test_prepare_codegen_refuses_non_fused_plan(self):
        """System C compiles on the scalar kernel but holds two stores;
        prepare_codegen refuses it, naming the bank."""
        system = SYSTEM_BUILDERS["C"]()
        plan = KernelPlan.compile(system, DT)
        compiled = CompiledEnvironment(_env(), 0.0, 16, DT, step_offset=0)
        with pytest.raises(LoweringUnsupported, match="StorageBank") as info:
            prepare_codegen(plan, compiled)
        report = info.value.capability_report()
        assert report.component == "StorageBank"
        assert report.capability == "fused codegen emission"

    @pytest.mark.parametrize("fast", [True, "codegen", "bogus"])
    def test_invalid_fast_value_rejected(self, fast):
        with pytest.raises(ValueError, match="fast must be"):
            simulate(SYSTEM_BUILDERS["C"](), _env(), dt=DT, fast=fast)

    def test_ineligible_system_reports_capability(self):
        """A run outside the fused envelope takes the scalar kernel and
        reports only its execution path; prepare_codegen names the
        refusing component."""
        from repro.storage import Supercapacitor

        class _Replaced(Supercapacitor):
            def charge(self, power_w, dt):
                return super().charge(power_w * 0.5, dt)

        def build():
            return make_reference_system(
                [PhotovoltaicCell(area_cm2=30.0, name="pv")],
                stores=[_Replaced(capacitance_f=25.0, name="odd")])

        result = simulate(build(), _env(), dt=DT)
        assert result.execution_path == "kernel"
        assert not hasattr(result, "codegen_fallback")
        plan = KernelPlan.compile(build(), DT)
        compiled = CompiledEnvironment(_env(), 0.0, 16, DT, step_offset=0)
        with pytest.raises(LoweringUnsupported) as info:
            prepare_codegen(plan, compiled)
        report = info.value.capability_report()
        assert report.component == "_Replaced"
        assert report.capability and report.detail

    def test_step_installed_on_perturb_observe_runs_the_kernel(
            self, monkeypatch):
        """A ``step`` installed on the PerturbObserve class (an
        instrumenting wrapper, here one that scales its voltage) keeps
        the run off the fused emission, which inlines the library's own
        step: the default run takes the scalar kernel, calls the wrapper
        every step as legacy does, and is bitwise equal to legacy."""
        calls = []
        original = PerturbObserve.step

        def scaled_step(self, harvester, ambient, dt):
            calls.append(ambient)
            return TrackerStep(original(self, harvester, ambient,
                                        dt).voltage * 0.9)

        monkeypatch.setattr(PerturbObserve, "step", scaled_step)
        env = outdoor_environment(duration=DAY, dt=300.0, seed=3)

        def build():
            return make_reference_system([PhotovoltaicCell(area_cm2=40.0)])

        legacy = simulate(build(), env, fast=False)
        legacy_calls = len(calls)
        assert legacy_calls == len(legacy.recorder)
        result = simulate(build(), env)
        assert result.execution_path == "kernel"
        assert len(calls) - legacy_calls == len(result.recorder)
        _assert_bitwise(result, legacy)
        plan = KernelPlan.compile(build(), 300.0)
        compiled = CompiledEnvironment(env, 0.0, 16, 300.0, step_offset=0)
        with pytest.raises(LoweringUnsupported,
                           match="step installed on its class"):
            prepare_codegen(plan, compiled)
