"""Fleet co-simulation benchmark: 64 nodes on the batched kernel.

Acceptance target of the fleet subsystem: a 64-node same-hardware fleet
(shared ambient field, per-node micro-siting spread, ring radio links)
must run entirely on the lockstep batched tier at >= 4x the per-node
in-process throughput on the scalar kernel, with per-node rows
bit-identical to the in-process path. The baseline is timed on a node
prefix and compared by per-node-step rate (same rationale as the grid
benchmarks: running all 64 nodes through the per-scenario path would
only make the suite slower, not the ratio fairer). Each side is timed
as the fastest of a few interleaved repetitions: contention on a shared
host only ever adds time, so the minimum is the least noisy estimate.

The result is appended to the trajectory file via
:func:`repro.catalog.record_bench`, so ``BENCH_sweep.json`` gains a
``fleet_sweep`` series CI uploads alongside the existing ones.
"""

import gc
import time

from repro.catalog import record_bench
from repro.fleet import fleet_scenarios, homogeneous_fleet, run_fleet
from repro.simulation import SweepRunner
from repro.spec import EnvironmentSpec, spec_for

DAY = 86_400.0

#: Speedup the batched fleet must sustain over the per-node in-process
#: loop, by per-node-step rate.
FLEET_REQUIRED_SPEEDUP = 4.0

#: Fleet geometry: 64 same-hardware System D (MPWiNode) nodes x 2 days
#: at 30 s steps — enough steps to amortize per-lane setup (environment
#: builds, kernel lowering) into the steady-state lockstep rate.
FLEET_NODES = 64
FLEET_DT = 30.0
FLEET_STEPS = int(2 * DAY / FLEET_DT)
#: The in-process baseline is timed on a node prefix.
FLEET_BASELINE_NODES = 8
#: Interleaved repetitions per side; the fastest of each is compared.
FLEET_REPEATS = 5


def _fleet_spec():
    environment = EnvironmentSpec("outdoor", duration=2 * DAY,
                                  dt=FLEET_DT, seed=11)
    return homogeneous_fleet(spec_for("D"), environment, FLEET_NODES,
                             topology="ring", spread=0.2, seed=11,
                             name=f"bench-fleet-{FLEET_NODES}")


def test_bench_fleet_batched():
    """64-node fleet: every node lane on the batched tier, >= 4x the
    per-node in-process kernel loop, bit-identical node rows on the
    prefix."""
    spec = _fleet_spec()
    baseline_s = fleet_s = float("inf")
    for _ in range(FLEET_REPEATS):
        # Collect before each side so neither pays the other's garbage.
        gc.collect()
        t0 = time.perf_counter()
        baseline = SweepRunner(processes=1, batch=False).run(
            fleet_scenarios(spec)[:FLEET_BASELINE_NODES])
        baseline_s = min(baseline_s, time.perf_counter() - t0)

        gc.collect()
        t0 = time.perf_counter()
        fleet = run_fleet(spec, tier="batched")
        fleet_s = min(fleet_s, time.perf_counter() - t0)
    baseline_rate = baseline_s / (FLEET_BASELINE_NODES * FLEET_STEPS)
    fleet_rate = fleet_s / (FLEET_NODES * FLEET_STEPS)

    assert {row.execution_path for row in baseline} == {"kernel"}
    assert fleet.execution_paths() == {"batched": FLEET_NODES}
    for base_row, node_row in zip(baseline, fleet.results):
        assert base_row.metrics == node_row.metrics, base_row.name
        assert base_row.n_steps == node_row.n_steps

    speedup = baseline_rate / fleet_rate
    print()
    print(f"in-process : {baseline_rate * 1e6:7.2f} us/node-step "
          f"({FLEET_BASELINE_NODES} nodes)")
    print(f"batched    : {fleet_rate * 1e6:7.2f} us/node-step "
          f"({FLEET_NODES} nodes)")
    print(f"speedup    : {speedup:.2f}x "
          f"(required >= {FLEET_REQUIRED_SPEEDUP}x)")
    print(f"fleet      : coverage {fleet.metrics.coverage_fraction:.4f}, "
          f"yield {fleet.metrics.data_yield:.0f}, "
          f"deaths {fleet.metrics.deaths}/{fleet.metrics.nodes}")
    record_bench("fleet_sweep", {
        "n_nodes": FLEET_NODES,
        "n_steps": FLEET_STEPS,
        "inprocess_steps_per_s": 1.0 / baseline_rate,
        "batched_steps_per_s": 1.0 / fleet_rate,
        "speedup": speedup,
    })
    assert speedup >= FLEET_REQUIRED_SPEEDUP
