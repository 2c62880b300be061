"""Monte Carlo ensemble benchmark: replicate grids must ride the
batched tier.

Acceptance target of the ensemble engine: a 256-replicate ensemble of
an eligible Table I platform (System C, AmbiMax) runs
``execution_path="batched"`` end-to-end and sustains >= 5x the
per-scenario in-process throughput. Unlike the buffer-sizing grid in
``test_bench_sweep.py``, every lane here carries its *own* stochastic
ambient draw (per-replicate seeds), so the batched kernel's
shared-column compression never engages — this gate prices the honest
uncompressed ensemble workload.

The baseline is timed on a replicate prefix and compared by
per-replicate-step rate (running all 256 replicates through the
per-scenario path would only make the suite slower, not the ratio
fairer). Each side is timed as the fastest of a few interleaved
repetitions, as the fleet gate is: contention on a shared host only
ever adds time, and the in-process side swings most, so one timed run
per side could fail the gate with rows bitwise equal. Each run appends
its steps/sec-per-path record to the trajectory file
(:func:`repro.catalog.record_bench`).
"""

import gc
import time

from repro.catalog import record_bench
from repro.spec import EnvironmentSpec, MonteCarloSpec, RunSpec, spec_for
from repro.simulation import run_ensemble

DAY = 86_400.0

#: Speedup the batched ensemble must sustain over per-scenario
#: in-process execution.
REQUIRED_SPEEDUP = 5.0

#: Ensemble geometry: 256 replicates x 1 day at one-minute steps.
REPLICATES = 256
ENSEMBLE_DT = 60.0
ENSEMBLE_STEPS = int(DAY / ENSEMBLE_DT)
#: The in-process baseline is timed on a replicate prefix.
BASELINE_REPLICATES = 32
#: Interleaved repetitions per side; the fastest of each is compared.
ENSEMBLE_REPEATS = 3

ROOT_SEED = 42


def _ensemble_spec(replicates: int) -> MonteCarloSpec:
    return MonteCarloSpec(
        run=RunSpec(system=spec_for("C"),
                    environment=EnvironmentSpec("outdoor", duration=DAY,
                                                dt=ENSEMBLE_DT),
                    name="C@outdoor"),
        replicates=replicates,
        root_seed=ROOT_SEED,
    )


def test_bench_ensemble_rides_the_batched_tier():
    """256-replicate System C ensemble: batched >= 5x in-process, with
    bit-identical replicate rows on the shared prefix."""
    baseline_s = batched_s = float("inf")
    for _ in range(ENSEMBLE_REPEATS):
        # Collect before each side so neither pays the other's garbage.
        gc.collect()
        t0 = time.perf_counter()
        baseline = run_ensemble(_ensemble_spec(BASELINE_REPLICATES),
                                tier="in-process")
        baseline_s = min(baseline_s, time.perf_counter() - t0)

        gc.collect()
        t0 = time.perf_counter()
        batched = run_ensemble(_ensemble_spec(REPLICATES), tier="batched")
        batched_s = min(batched_s, time.perf_counter() - t0)
    baseline_rate = baseline_s / (BASELINE_REPLICATES * ENSEMBLE_STEPS)
    batched_rate = batched_s / (REPLICATES * ENSEMBLE_STEPS)

    assert batched.execution_paths() == {"batched": REPLICATES}
    assert len(batched) == REPLICATES

    # Replicate seeds are prefix-stable, so the baseline prefix must be
    # bit-for-bit the batched ensemble's first rows — and so must every
    # quantile summary computed over that prefix.
    assert baseline.seeds == batched.seeds[:BASELINE_REPLICATES]
    for base_row, batched_row in zip(baseline, batched):
        assert base_row.metrics == batched_row.metrics, base_row.name
        assert base_row.n_steps == batched_row.n_steps

    speedup = baseline_rate / batched_rate
    print()
    print(f"in-process : {baseline_rate * 1e6:7.2f} us/replicate-step "
          f"({BASELINE_REPLICATES} replicates)")
    print(f"batched    : {batched_rate * 1e6:7.2f} us/replicate-step "
          f"({REPLICATES} replicates)")
    print(f"speedup    : {speedup:.2f}x (required >= {REQUIRED_SPEEDUP}x)")
    record_bench("montecarlo_ensemble", {
        "n_replicates": REPLICATES,
        "n_steps": ENSEMBLE_STEPS,
        "inprocess_steps_per_s": 1.0 / baseline_rate,
        "batched_steps_per_s": 1.0 / batched_rate,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP
