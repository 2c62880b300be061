"""Codegen tier unit suite: warm-cache reuse and the fused envelope.

The bitwise-equivalence gates live in ``tests/test_determinism.py``
(Table I letters A-G, the fused emission branches, mid-run event
handoff) and ``tests/test_differential.py`` (fuzzed corpus); this file
covers the compile cache and the envelope gate:

* a second identical run performs zero compilations and increments the
  hit counter (the warm-cache contract);
* the cache keys on the fused configuration, so independently built
  systems share one compiled function and a changed constant compiles
  anew;
* a plan outside the fused envelope is refused with a report naming
  the first component outside it;
* a system outside the kernel envelope falls to legacy with a report.
"""

import pytest

from repro.analysis.experiments.common import make_reference_system
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


def _reference_system(capacitance_f: float = 50.0):
    """The fused shape: one supercap, P&O + buck-boost, StaticManager."""
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=30.0, name="pv")],
        capacitance_f=capacitance_f)


def _env(seed: int = 5):
    return outdoor_environment(duration=0.1 * DAY, dt=DT, seed=seed)


class TestWarmCache:
    def test_second_identical_run_compiles_nothing(self):
        """The warm-cache contract: run an identical system twice — the
        second run performs zero compilations, and the hit counter
        increments."""
        clear_codegen_cache()
        env = _env()
        before = codegen_stats()
        first = simulate(_reference_system(), env, dt=DT, fast="codegen")
        cold = codegen_stats()
        assert first.execution_path == "codegen"
        assert cold["compiles"] == before["compiles"] + 1
        assert cold["compile_s"] > before["compile_s"]

        second = simulate(_reference_system(), env, dt=DT, fast="codegen")
        warm = codegen_stats()
        assert second.execution_path == "codegen"
        assert warm["compiles"] == cold["compiles"]
        assert warm["hits"] == cold["hits"] + 1
        for column in ("harvest_delivered", "stored_energy"):
            a = first.recorder.column(column)
            b = second.recorder.column(column)
            assert (a == b).all(), column

    def test_hand_built_systems_cache_in_process_only(self):
        """The compile cache keys on the fused configuration, not on how
        a system was built: a changed baked constant (capacitance, dt)
        compiles a new function, and the original configuration still
        hits."""
        clear_codegen_cache()
        env = _env()
        simulate(_reference_system(), env, dt=DT, fast="codegen")
        before = codegen_stats()
        simulate(_reference_system(capacitance_f=20.0), env, dt=DT,
                 fast="codegen")
        simulate(_reference_system(), env, dt=DT / 2, fast="codegen")
        after = codegen_stats()
        assert after["compiles"] == before["compiles"] + 2
        simulate(_reference_system(), env, dt=DT, fast="codegen")
        assert codegen_stats()["hits"] == after["hits"] + 1


class TestBackendsAndEligibility:
    def test_prepare_codegen_refuses_non_fused_plan(self):
        """System C compiles on the scalar kernel but holds two stores;
        prepare_codegen refuses it, naming the bank."""
        from repro.environment.compiled import CompiledEnvironment
        system = SYSTEM_BUILDERS["C"]()
        plan = KernelPlan.compile(system, DT)
        compiled = CompiledEnvironment(_env(), 0.0, 16, DT, step_offset=0)
        with pytest.raises(LoweringUnsupported, match="StorageBank") as info:
            prepare_codegen(plan, compiled)
        report = info.value.capability_report()
        assert report.component == "StorageBank"
        assert report.capability == "fused codegen emission"

    def test_invalid_fast_value_rejected(self):
        with pytest.raises(ValueError, match="fast must be"):
            simulate(SYSTEM_BUILDERS["C"](), _env(), dt=DT, fast="bogus")

    def test_ineligible_system_reports_capability(self):
        from repro.storage import Supercapacitor

        class _Replaced(Supercapacitor):
            def charge(self, power_w, dt):
                return super().charge(power_w * 0.5, dt)

        system = make_reference_system(
            [PhotovoltaicCell(area_cm2=30.0, name="pv")],
            stores=[_Replaced(capacitance_f=25.0, name="odd")])
        result = simulate(system, _env(), dt=DT, fast="codegen")
        assert result.execution_path == "legacy"
        report = result.codegen_fallback
        assert report is not None
        assert report.component == "_Replaced"
        assert report.capability and report.detail
