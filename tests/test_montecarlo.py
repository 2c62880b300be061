"""Monte Carlo ensemble engine: seed streams, aggregation, tier parity.

The ensemble contract has three parts, each pinned here:

* **seed streams** — ``replicate_seeds`` is a pure, prefix-stable
  function of ``(root_seed, stream)``;
* **aggregation** — ``MetricSummary`` numbers are exactly numpy's
  mean/std(ddof=1)/linear-interpolation quantiles over the replicate
  values;
* **tier parity** (the acceptance criterion) — a 256-replicate ensemble
  of an eligible Table I system runs ``execution_path="batched"``
  end-to-end, and its per-replicate rows *and* quantile summaries are
  bitwise identical whether the replicates execute batched,
  multiprocessing, or in-process.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from repro.analysis.robustness import SeedSweep
from repro.analysis.table1 import ensemble_table1, render_ensemble_table1
from repro.environment.composite import outdoor_environment
from repro.simulation import (
    ScenarioSpec,
    replicate_seeds,
    replicate_sweep,
    run_ensemble,
)
from repro.simulation import batched_sweep
from repro.simulation.montecarlo import DEFAULT_QUANTILES, summarize
from repro.spec import (
    EnvironmentSpec,
    MonteCarloSpec,
    RunSpec,
    SweepSpec,
    load_spec,
    run_montecarlo,
    spec_for,
    spec_from_dict,
)
from repro.systems import build_system

DAY = 86_400.0

#: Metrics whose summaries the cross-tier tests compare bitwise.
CHECKED_METRICS = ("uptime_fraction", "harvested_delivered_j",
                   "quiescent_j", "node_consumed_j", "measurements",
                   "harvest_coverage")


def mc_spec(letter="C", replicates=8, root_seed=3, duration=0.1 * DAY,
            dt=600.0, environment="outdoor"):
    return MonteCarloSpec(
        run=RunSpec(system=spec_for(letter),
                    environment=EnvironmentSpec(environment,
                                                duration=duration, dt=dt),
                    name=f"{letter}-mc"),
        replicates=replicates,
        root_seed=root_seed,
    )


class TestSeedStream:
    def test_deterministic_and_distinct(self):
        a = replicate_seeds(7, 16)
        assert a == replicate_seeds(7, 16)
        assert a != replicate_seeds(8, 16)
        assert len(set(a)) == 16

    def test_seeds_are_json_exact(self):
        """Seeds stay within float64's exact-integer range (53 bits) so
        JSON consumers round-trip per-replicate rows losslessly."""
        for seed in replicate_seeds(123, 64):
            assert 0 <= seed < 2 ** 53
            assert int(float(seed)) == seed

    def test_streams_are_independent(self):
        assert replicate_seeds(7, 8, stream=0) != \
            replicate_seeds(7, 8, stream=1)

    def test_prefix_stable(self):
        """Asking for more replicates extends the stream — replicate i
        never depends on the ensemble size."""
        assert replicate_seeds(7, 16)[:4] == replicate_seeds(7, 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="replicate"):
            replicate_seeds(0, 0)


class TestMonteCarloSpec:
    def test_json_roundtrip(self):
        spec = mc_spec(replicates=12, root_seed=99)
        assert MonteCarloSpec.from_json(spec.to_json()) == spec
        assert spec_from_dict(spec.to_dict()) == spec

    def test_load_spec_dispatch(self, tmp_path):
        path = tmp_path / "mc.json"
        spec = mc_spec()
        spec.save(path)
        assert load_spec(path) == spec

    def test_label(self):
        assert mc_spec(replicates=8).label == "C-mc x8"
        assert mc_spec().run.label == "C-mc"

    def test_validation(self):
        run = mc_spec().run
        with pytest.raises(ValueError, match="replicates"):
            MonteCarloSpec(run=run, replicates=0)
        with pytest.raises(ValueError, match="quantiles"):
            MonteCarloSpec(run=run, quantiles=(0.5, 0.1))
        with pytest.raises(ValueError, match="quantiles"):
            MonteCarloSpec(run=run, quantiles=(0.1, 1.5))
        with pytest.raises(TypeError, match="RunSpec"):
            MonteCarloSpec(run="C")
        with pytest.raises(ValueError, match="root_seed"):
            MonteCarloSpec(run=run, root_seed="zero")

    def test_run_montecarlo_rejects_other_specs(self):
        with pytest.raises(TypeError, match="MonteCarloSpec"):
            run_montecarlo(mc_spec().run)


class TestAggregation:
    def test_summarize_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.5]
        s = summarize("x", values)
        arr = np.asarray(values)
        assert s.n == 4
        assert s.mean == float(arr.mean())
        assert s.std == float(arr.std(ddof=1))
        assert s.minimum == 1.0 and s.maximum == 4.0
        for q, value in s.quantiles:
            assert value == float(np.quantile(arr, q))
        half = 1.96 * s.std / math.sqrt(4)
        assert s.ci_low == s.mean - half
        assert s.ci_high == s.mean + half

    def test_single_replicate_degenerates(self):
        s = summarize("x", [2.0])
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 2.0

    def test_quantile_lookup(self):
        s = summarize("x", [1.0, 2.0, 3.0])
        assert s.quantile(0.5) == 2.0
        assert s.band() == (s.quantile(0.05), s.quantile(0.95))
        with pytest.raises(KeyError):
            s.quantile(0.33)

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize("x", [])


class TestEnsemble:
    @pytest.fixture(scope="class")
    def ensemble(self):
        return run_ensemble(mc_spec(replicates=6, root_seed=11),
                            tier="batched")

    def test_shape_and_identity(self, ensemble):
        assert len(ensemble) == 6
        assert ensemble.root_seed == 11
        assert ensemble.seeds == replicate_seeds(11, 6)
        names = [r.name for r in ensemble]
        assert names == [f"C-mc#r{i}" for i in range(6)]
        for i, row in enumerate(ensemble.rows()):
            assert row["replicate"] == i
            assert row["seed"] == ensemble.seeds[i]

    def test_replicates_ride_the_batched_tier(self, ensemble):
        assert ensemble.execution_paths() == {"batched": 6}

    def test_metric_and_summary_agree(self, ensemble):
        values = ensemble.metric("harvested_delivered_j")
        assert values.shape == (6,)
        assert ensemble.summary("harvested_delivered_j") == \
            summarize("harvested_delivered_j", values, DEFAULT_QUANTILES)
        # Properties work too, not just dataclass fields.
        per_day = ensemble.metric("measurements_per_day")
        assert per_day.shape == (6,)

    def test_unknown_metric_rejected(self, ensemble):
        with pytest.raises(KeyError, match="unknown ensemble metric"):
            ensemble.metric("nope")

    def test_cdf_is_a_distribution(self, ensemble):
        values, probs = ensemble.cdf("harvested_delivered_j")
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == 1.0

    def test_report_renders(self, ensemble):
        text = ensemble.report()
        assert "6 replicates" in text
        assert "root seed 11" in text
        assert "batched x6" in text

    def test_report_renders_for_custom_quantiles(self):
        """The displayed p5/p50/p95 are merged into the spec's own
        levels, so any quantile selection reports cleanly."""
        spec = MonteCarloSpec(run=mc_spec().run, replicates=3,
                              quantiles=(0.1, 0.9))
        text = run_ensemble(spec, tier="auto").report()
        assert "p95" in text

    def test_seed_sweep_adapter(self, ensemble):
        sweep = SeedSweep.from_ensemble(ensemble, "harvested_delivered_j")
        assert sweep.seeds == ensemble.seeds
        assert sweep.values == tuple(ensemble.metric("harvested_delivered_j"))
        assert 0.0 <= sweep.holds_fraction(lambda v: v > 0) <= 1.0

    def test_scenario_template_accepted(self):
        """run_ensemble also replicates a ready ScenarioSpec (factory
        style), not just declarative RunSpecs."""
        base = ScenarioSpec(
            name="d-ref",
            system=partial(build_system, "D"),
            environment=partial(outdoor_environment, duration=0.05 * DAY,
                                dt=600.0),
            duration=0.05 * DAY,
        )
        ensemble = run_ensemble(base, 4, root_seed=5, tier="batched")
        assert ensemble.execution_paths() == {"batched": 4}
        assert [r.name for r in ensemble] == [f"d-ref#r{i}"
                                              for i in range(4)]

    def test_formerly_ineligible_table1_systems_now_batch(self):
        """A (P&O trackers, fuel-cell backup, bus/MCU) rides the batched
        tier — the masked-lane envelope covers all of Table I."""
        ensemble = run_ensemble(mc_spec(letter="A", replicates=3),
                                tier="batched")
        assert ensemble.execution_paths() == {"batched": 3}

    def test_ineligible_system_falls_back_and_batched_tier_refuses(
            self, monkeypatch):
        """Replaced physics stays outside every envelope: tier="auto"
        falls back, and pinning tier="batched" fails with the refusing
        component's capability report, not a generic tier error."""
        from repro.analysis.experiments.common import make_reference_system
        from repro.conditioning.mppt import FixedVoltage
        from repro.harvesters import PhotovoltaicCell
        from repro.storage import Supercapacitor

        class WarpedSupercap(Supercapacitor):
            def charge(self, power_w, dt):
                return super().charge(power_w * 0.7, dt)

        base = ScenarioSpec(
            name="warped",
            system=lambda: make_reference_system(
                [PhotovoltaicCell(area_cm2=40.0, name="pv")],
                tracker_factory=lambda: FixedVoltage(2.0),
                stores=[WarpedSupercap(capacitance_f=50.0, name="w")]),
            environment=partial(outdoor_environment, duration=0.05 * DAY,
                                dt=600.0),
            duration=0.05 * DAY,
        )
        # Three replicates are too few for lockstep under "auto"; lower
        # the width floor so only the envelope's refusal keeps them off.
        monkeypatch.setattr(batched_sweep, "LOCKSTEP_MIN_LANES", 1)
        ensemble = run_ensemble(base, 3, root_seed=3, tier="auto")
        assert "batched" not in ensemble.execution_paths()
        with pytest.raises(ValueError, match="batched envelope") as err:
            run_ensemble(base, 3, root_seed=3, tier="batched")
        # The error carries the capability report: component, missing
        # capability, and the divergence batching would have caused.
        message = str(err.value)
        assert "WarpedSupercap" in message
        assert "Supercapacitor physics" in message
        assert "every step" in message

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            run_ensemble(mc_spec(replicates=2), tier="gpu")


class TestCrossTierDeterminism:
    """The acceptance criterion: 256 batched replicates, bitwise equal
    to the multiprocessing and in-process tiers, summary reproducible
    from the root seed alone."""

    SPEC = dict(letter="C", replicates=256, root_seed=20260730,
                duration=0.05 * DAY, dt=600.0)

    @pytest.fixture(scope="class")
    def tiers(self):
        spec = mc_spec(**self.SPEC)
        return {tier: run_ensemble(spec, tier=tier)
                for tier in ("batched", "multiprocessing", "in-process")}

    def test_batched_end_to_end(self, tiers):
        assert tiers["batched"].execution_paths() == {"batched": 256}

    def test_rows_bitwise_identical_across_tiers(self, tiers):
        batched, multi, inproc = (tiers["batched"], tiers["multiprocessing"],
                                  tiers["in-process"])
        assert batched.seeds == multi.seeds == inproc.seeds
        for a, b, c in zip(batched, multi, inproc):
            assert a.name == b.name == c.name
            # RunMetrics is a frozen float dataclass: == is bitwise here.
            assert a.metrics == b.metrics == c.metrics, a.name
            assert a.n_steps == b.n_steps == c.n_steps

    def test_quantile_summary_bitwise_identical_across_tiers(self, tiers):
        for metric in CHECKED_METRICS:
            summaries = {tier: ensemble.summary(metric)
                         for tier, ensemble in tiers.items()}
            assert summaries["batched"] == summaries["multiprocessing"] \
                == summaries["in-process"], metric

    def test_summary_reproducible_from_root_seed(self, tiers):
        again = run_ensemble(mc_spec(**self.SPEC), tier="batched")
        for metric in CHECKED_METRICS:
            assert again.summary(metric) == \
                tiers["batched"].summary(metric), metric


class TestReplicateSweep:
    def test_expansion(self):
        base = SweepSpec(runs=(mc_spec("C").run, mc_spec("D").run),
                         name="pair")
        expanded = replicate_sweep(base, 3, root_seed=9)
        assert len(expanded.runs) == 6
        assert [r.name for r in expanded.runs[:3]] == \
            [f"C-mc#r{i}" for i in range(3)]
        # Run j draws from stream j: runs stay mutually independent.
        assert tuple(r.seed for r in expanded.runs[:3]) == \
            replicate_seeds(9, 3, stream=0)
        assert tuple(r.seed for r in expanded.runs[3:]) == \
            replicate_seeds(9, 3, stream=1)
        for run in expanded.runs:
            assert run.params["seed"] == run.seed

    def test_rejects_bad_inputs(self):
        with pytest.raises(TypeError, match="SweepSpec"):
            replicate_sweep(mc_spec().run, 2)
        with pytest.raises(ValueError, match="replicate"):
            replicate_sweep(SweepSpec(runs=(mc_spec().run,)), 0)


class TestEnsembleTable1:
    def test_cells_carry_bands(self):
        table = ensemble_table1(letters=("C", "E"), replicates=3,
                                duration=0.05 * DAY, dt=600.0)
        assert sorted(table) == ["C", "E"]
        summary = table["C"]["uptime_fraction"]
        assert summary.n == 3
        lo, hi = summary.band()
        assert lo <= summary.mean <= hi or math.isclose(lo, hi)
        text = render_ensemble_table1(table)
        assert "[" in text
        assert "Metric (mean [p5, p95])" in text
        assert "3 replicates" in text

    def test_letters_share_the_replicate_stream(self):
        """Replicate i sees the same weather draw on every platform —
        the comparison is paired per draw."""
        table_seed_stream = replicate_seeds(0, 2)
        ensembles = {}
        for letter in ("C", "D"):
            spec = mc_spec(letter=letter, replicates=2, root_seed=0,
                           duration=0.05 * DAY)
            ensembles[letter] = run_ensemble(spec, tier="auto")
        assert ensembles["C"].seeds == ensembles["D"].seeds == \
            table_seed_stream
