"""Batched execution benchmarks: fast-path speedup and sweep fan-out.

Acceptance targets of the batched-execution subsystem:

* the vectorized fast path runs a 1M-step single-scenario benchmark at
  >= 3x the seed engine's per-step rate (the seed per-step algorithm is
  preserved verbatim as the engine's ``fast=False`` path, so it *is* the
  baseline being measured);
* the lockstep batched kernel runs an eligible 256-scenario grid at
  >= 5x the in-process per-scenario throughput, with bit-identical rows;
* a :class:`~repro.simulation.SweepRunner` fan-out over >= 8 scenarios
  produces metrics identical to sequential ``simulate()`` calls.

Each benchmark appends its steps/sec-per-path record through the
catalog manifest (:func:`repro.catalog.record_bench`); the
``BENCH_sweep.json`` trajectory artifact (path overridable via the
``BENCH_SWEEP_JSON`` environment variable — a temporary file under
pytest unless it is set, see ``conftest.py``; store overridable via
``BENCH_CATALOG``) is regenerated from the store after every append,
so perf regressions stay visible across PRs with the same filename CI
always uploaded.
"""

import time
from functools import partial

import numpy as np

from repro.analysis.experiments.common import make_reference_system
from repro.catalog import Catalog, record_bench
from repro.conditioning.mppt import FixedVoltage
from repro.environment.composite import outdoor_environment
from repro.harvesters import PhotovoltaicCell
from repro.simulation import ScenarioSpec, SweepRunner, simulate
from repro.spec import EnvironmentSpec, RunSpec, SweepSpec, run_sweep, \
    spec_for
from repro.systems import build_system

DAY = 86_400.0

#: Speedup the fast path must sustain over the seed per-step engine.
REQUIRED_SPEEDUP = 3.0

#: Speedup the batched kernel must sustain over the in-process
#: per-scenario path on the 256-scenario grid.
BATCHED_REQUIRED_SPEEDUP = 5.0

#: Speedup the masked-lane batched kernel must sustain on the formerly
#: un-batchable Table I platforms (A/B/F: P&O trackers, fuel-cell
#: backup, bus/MCU, module slots) over the in-process path.
MASKED_LANE_REQUIRED_SPEEDUP = 4.0

#: 1M-step single-scenario benchmark geometry.
FAST_STEPS = 1_000_000
FAST_DT = DAY / FAST_STEPS
#: The legacy baseline is timed on fewer steps (same scenario, same dt)
#: and compared by per-step rate — running the seed loop for the full
#: million steps would only make the suite slower, not the ratio fairer.
LEGACY_STEPS = 100_000

#: Batched grid geometry: 256 scenarios x 2 days at one-minute steps.
GRID_SCENARIOS = 256
GRID_DT = 60.0
GRID_STEPS = int(2 * DAY / GRID_DT)
#: The in-process baseline is timed on a grid prefix and compared by
#: per-scenario-step rate (same rationale as LEGACY_STEPS above).
GRID_BASELINE_SCENARIOS = 32


#: Speedup a full-hit catalog rerun must sustain over the simulating
#: first pass of the same 256-scenario grid.
CACHE_REQUIRED_SPEEDUP = 50.0

#: Speedup the fused codegen tier must sustain over the seed per-step
#: engine on the 1M-step reference scenario (warm compile cache).
CODEGEN_REQUIRED_SPEEDUP = 10.0


def _bench_system():
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=40.0, efficiency=0.16, name="pv")],
        capacitance_f=50.0, initial_soc=0.5, measurement_interval_s=60.0)


def _bench_environment(duration):
    return outdoor_environment(duration=duration, dt=60.0, seed=3)


def build_sweep_system(area_cm2: float):
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=area_cm2, efficiency=0.16, name="pv")],
        capacitance_f=80.0, measurement_interval_s=120.0)


def test_bench_fastpath_1m_steps():
    """1M-step single scenario: fast path >= 3x the seed engine."""
    env = _bench_environment(DAY)

    t0 = time.perf_counter()
    legacy = simulate(_bench_system(), env,
                      duration=LEGACY_STEPS * FAST_DT, dt=FAST_DT,
                      fast=False)
    legacy_rate = (time.perf_counter() - t0) / LEGACY_STEPS

    t0 = time.perf_counter()
    fast = simulate(_bench_system(), env, duration=DAY, dt=FAST_DT, fast=True)
    fast_rate = (time.perf_counter() - t0) / FAST_STEPS

    # The fast path must be a faithful replacement, not just a fast one:
    # its prefix is bit-for-bit the legacy run.
    prefix = simulate(_bench_system(), env, duration=LEGACY_STEPS * FAST_DT,
                      dt=FAST_DT, fast=True)
    for column in ("harvest_delivered", "stored_energy", "node_consumed"):
        assert np.array_equal(prefix.recorder.column(column),
                              legacy.recorder.column(column)), column

    speedup = legacy_rate / fast_rate
    print()
    print(f"seed engine : {legacy_rate * 1e6:7.2f} us/step "
          f"({LEGACY_STEPS} steps)")
    print(f"fast path   : {fast_rate * 1e6:7.2f} us/step "
          f"({FAST_STEPS} steps)")
    print(f"speedup     : {speedup:.2f}x (required >= {REQUIRED_SPEEDUP}x)")
    record_bench("fastpath_1m", {
        "legacy_steps_per_s": 1.0 / legacy_rate,
        "kernel_steps_per_s": 1.0 / fast_rate,
        "speedup": speedup,
    })
    assert len(fast.recorder) == FAST_STEPS
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_codegen_fastpath_1m_steps():
    """1M-step reference scenario on the fused codegen tier.

    Gates three things at once: >= 10x over the seed engine at
    steady-state (warm compile cache), zero recompilations on a second
    identical run (the in-process cache hit is asserted, and its
    counter must increment), and a bit-for-bit legacy prefix. The
    cold-compile cost is recorded separately as ``compile_s`` so the
    trajectory distinguishes cold from warm rows.
    """
    from repro.simulation.kernel import clear_codegen_cache, codegen_stats

    env = _bench_environment(DAY)

    t0 = time.perf_counter()
    legacy = simulate(_bench_system(), env,
                      duration=LEGACY_STEPS * FAST_DT, dt=FAST_DT,
                      fast=False)
    legacy_rate = (time.perf_counter() - t0) / LEGACY_STEPS

    clear_codegen_cache()
    before = codegen_stats()
    cold = simulate(_bench_system(), env, duration=DAY, dt=FAST_DT,
                    fast="codegen")
    after_cold = codegen_stats()
    assert cold.execution_path == "codegen"
    assert after_cold["compiles"] == before["compiles"] + 1
    compile_s = after_cold["compile_s"] - before["compile_s"]

    # Warm cache: an identical spec must reuse the compiled artifact —
    # no new compilation, hit counter up by exactly one.
    t0 = time.perf_counter()
    warm = simulate(_bench_system(), env, duration=DAY, dt=FAST_DT,
                    fast="codegen")
    warm_rate = (time.perf_counter() - t0) / FAST_STEPS
    after_warm = codegen_stats()
    assert warm.execution_path == "codegen"
    assert after_warm["compiles"] == after_cold["compiles"]
    assert after_warm["hits"] == after_cold["hits"] + 1

    # Faithful replacement: legacy prefix bit-for-bit, and the warm run
    # reproduces the cold run over the full million steps.
    prefix = simulate(_bench_system(), env,
                      duration=LEGACY_STEPS * FAST_DT, dt=FAST_DT,
                      fast="codegen")
    for column in ("harvest_delivered", "stored_energy", "node_consumed"):
        assert np.array_equal(prefix.recorder.column(column),
                              legacy.recorder.column(column)), column
        assert np.array_equal(warm.recorder.column(column),
                              cold.recorder.column(column)), column

    speedup = legacy_rate / warm_rate
    print()
    print(f"seed engine : {legacy_rate * 1e6:7.2f} us/step "
          f"({LEGACY_STEPS} steps)")
    print(f"codegen     : {warm_rate * 1e6:7.2f} us/step "
          f"({FAST_STEPS} steps, compile {compile_s * 1e3:.1f} ms)")
    print(f"speedup     : {speedup:.2f}x "
          f"(required >= {CODEGEN_REQUIRED_SPEEDUP}x)")
    record_bench("fastpath_1m", {
        "legacy_steps_per_s": 1.0 / legacy_rate,
        "codegen_steps_per_s": 1.0 / warm_rate,
        "codegen_speedup": speedup,
    }, compile_s=compile_s)
    assert len(warm.recorder) == FAST_STEPS
    assert speedup >= CODEGEN_REQUIRED_SPEEDUP


def test_bench_kernel_non_supercap_system():
    """A battery-buffered Table I platform (System D: AA NiMH pack,
    fixed-point conditioning) through the compiled kernel: the per-letter
    envelope is not a supercap special case. Reports the speedup; the
    hard >= 3x gate stays on the 1M-step reference benchmark above."""
    dt = 30.0
    duration = 2 * DAY
    n_steps = int(duration / dt)
    env = outdoor_environment(duration=duration, dt=120.0, seed=7)

    t0 = time.perf_counter()
    legacy = simulate(build_system("D"), env, duration=duration, dt=dt,
                      fast=False)
    legacy_rate = (time.perf_counter() - t0) / n_steps

    t0 = time.perf_counter()
    fast = simulate(build_system("D"), env, duration=duration, dt=dt,
                    fast=True)
    fast_rate = (time.perf_counter() - t0) / n_steps

    assert fast.execution_path == "kernel"
    for column in ("harvest_delivered", "stored_energy", "node_consumed",
                   "bus_voltage"):
        assert np.array_equal(fast.recorder.column(column),
                              legacy.recorder.column(column)), column
    assert legacy.metrics == fast.metrics
    print()
    print(f"system D legacy : {legacy_rate * 1e6:7.2f} us/step")
    print(f"system D kernel : {fast_rate * 1e6:7.2f} us/step "
          f"({legacy_rate / fast_rate:.2f}x)")
    # Informational speedup; generous slack because this short run is
    # noise-prone on shared CI runners. The hard >= 3x gate is above.
    assert fast_rate < 1.5 * legacy_rate, \
        "the kernel must not be drastically slower than the legacy path"


def build_batched_grid_system(capacitance_f: float):
    """Batch-eligible platform (fixed-point conditioning, supercap)."""
    return make_reference_system(
        [PhotovoltaicCell(area_cm2=40.0, efficiency=0.16, name="pv")],
        tracker_factory=lambda: FixedVoltage(2.0),
        capacitance_f=capacitance_f, measurement_interval_s=120.0)


def test_bench_batched_sweep_grid():
    """256-scenario buffer-sizing grid: the lockstep batched kernel must
    sustain >= 5x the in-process per-scenario throughput, bit-identical
    rows. The baseline is timed on a grid prefix and compared by
    per-scenario-step rate (running all 256 scenarios through the
    per-scenario path would only make the suite slower, not the ratio
    fairer)."""
    env = outdoor_environment(duration=2 * DAY, dt=GRID_DT, seed=3)
    capacitances = [10.0 + 0.5 * k for k in range(GRID_SCENARIOS)]

    def make_specs(count):
        return [
            ScenarioSpec(name=f"cap-{k}",
                         system=partial(build_batched_grid_system, cap),
                         environment=env, duration=2 * DAY,
                         params={"capacitance_f": cap})
            for k, cap in enumerate(capacitances[:count])
        ]

    t0 = time.perf_counter()
    baseline = SweepRunner(processes=1, batch=False).run(
        make_specs(GRID_BASELINE_SCENARIOS))
    baseline_rate = (time.perf_counter() - t0) / \
        (GRID_BASELINE_SCENARIOS * GRID_STEPS)

    t0 = time.perf_counter()
    batched = SweepRunner(processes=1, batch=True).run(
        make_specs(GRID_SCENARIOS))
    batched_rate = (time.perf_counter() - t0) / \
        (GRID_SCENARIOS * GRID_STEPS)

    assert all(r.execution_path == "batched" for r in batched)
    # Bit-identical rows: the batched prefix must equal the per-scenario
    # baseline row for row (full-grid bitwise coverage lives in
    # tests/test_batched.py).
    for base_row, batched_row in zip(baseline, batched):
        assert base_row.metrics == batched_row.metrics, base_row.name
        assert base_row.n_steps == batched_row.n_steps

    speedup = baseline_rate / batched_rate
    print()
    print(f"in-process : {baseline_rate * 1e6:7.2f} us/scenario-step "
          f"({GRID_BASELINE_SCENARIOS} scenarios)")
    print(f"batched    : {batched_rate * 1e6:7.2f} us/scenario-step "
          f"({GRID_SCENARIOS} scenarios)")
    print(f"speedup    : {speedup:.2f}x "
          f"(required >= {BATCHED_REQUIRED_SPEEDUP}x)")
    record_bench("batched_sweep_grid", {
        "n_scenarios": GRID_SCENARIOS,
        "n_steps": GRID_STEPS,
        "inprocess_steps_per_s": 1.0 / baseline_rate,
        "batched_steps_per_s": 1.0 / batched_rate,
        "speedup": speedup,
    })
    assert speedup >= BATCHED_REQUIRED_SPEEDUP


def test_bench_masked_lane_table1_grid():
    """256-scenario System A/B/F grid: the platforms the all-or-nothing
    batched kernel refused (hill-climbing trackers, fuel-cell backup
    cascades, bus/MCU and module-slot interfaces) must now ride the
    masked-lane lockstep tier at >= 4x the in-process per-scenario
    throughput, bit-identical rows. Baseline timed on a grid prefix and
    compared by per-scenario-step rate, as above."""
    letters = ("A", "B", "F")
    env = outdoor_environment(duration=2 * DAY, dt=GRID_DT, seed=5)
    cases = [(letters[k % 3], 0.15 + 0.7 * (k / GRID_SCENARIOS))
             for k in range(GRID_SCENARIOS)]

    def make_specs(count):
        return [
            ScenarioSpec(name=f"{letter}-{k}",
                         system=partial(build_system, letter,
                                        initial_soc=round(soc, 4)),
                         environment=env, duration=2 * DAY,
                         params={"system": letter, "initial_soc": soc})
            for k, (letter, soc) in enumerate(cases[:count])
        ]

    t0 = time.perf_counter()
    baseline = SweepRunner(processes=1, batch=False).run(
        make_specs(GRID_BASELINE_SCENARIOS))
    baseline_rate = (time.perf_counter() - t0) / \
        (GRID_BASELINE_SCENARIOS * GRID_STEPS)

    t0 = time.perf_counter()
    batched = SweepRunner(processes=1, batch=True).run(
        make_specs(GRID_SCENARIOS))
    batched_rate = (time.perf_counter() - t0) / \
        (GRID_SCENARIOS * GRID_STEPS)

    assert all(r.execution_path == "batched" for r in batched)
    for base_row, batched_row in zip(baseline, batched):
        assert base_row.metrics == batched_row.metrics, base_row.name
        assert base_row.n_steps == batched_row.n_steps

    speedup = baseline_rate / batched_rate
    print()
    print(f"in-process : {baseline_rate * 1e6:7.2f} us/scenario-step "
          f"({GRID_BASELINE_SCENARIOS} scenarios)")
    print(f"batched    : {batched_rate * 1e6:7.2f} us/scenario-step "
          f"({GRID_SCENARIOS} scenarios, systems A/B/F)")
    print(f"speedup    : {speedup:.2f}x "
          f"(required >= {MASKED_LANE_REQUIRED_SPEEDUP}x)")
    record_bench("masked_lane_table1_grid", {
        "systems": list(letters),
        "n_scenarios": GRID_SCENARIOS,
        "n_steps": GRID_STEPS,
        "inprocess_steps_per_s": 1.0 / baseline_rate,
        "batched_steps_per_s": 1.0 / batched_rate,
        "speedup": speedup,
    })
    assert speedup >= MASKED_LANE_REQUIRED_SPEEDUP


def test_bench_sweep_fanout_matches_sequential(once):
    """8-scenario sweep: parallel fan-out on the per-scenario tiers (one
    group of 8 lanes is below the lockstep width), metrics identical to
    sequential simulate() calls."""
    areas = [10.0 + 10.0 * k for k in range(8)]
    duration = 2 * DAY
    specs = [
        ScenarioSpec(
            name=f"pv-{area:g}cm2",
            system=partial(build_sweep_system, area),
            environment=partial(outdoor_environment, duration=duration,
                                dt=120.0),
            duration=duration, seed=11, params={"area_cm2": area},
        )
        for area in areas
    ]

    runner = SweepRunner()
    sweep = once(runner.run, specs)
    assert [r.execution_path for r in sweep] == ["kernel"] * len(specs)

    t0 = time.perf_counter()
    for spec, scenario in zip(specs, sweep):
        direct = simulate(
            build_sweep_system(spec.params["area_cm2"]),
            outdoor_environment(duration=duration, dt=120.0, seed=11),
            duration=duration)
        assert scenario.metrics == direct.metrics, spec.name
    sequential_seconds = time.perf_counter() - t0

    print()
    print(sweep.report(columns=("area_cm2", "harvested_delivered_j",
                                "uptime_fraction", "measurements"),
                       title="sweep fan-out vs sequential"))
    print(f"sequential reference: {sequential_seconds:.2f}s for "
          f"{len(specs)} scenarios")
    harvested = sweep.column("harvested_delivered_j")
    assert all(b > a for a, b in zip(harvested, harvested[1:])), \
        "harvest must rise monotonically with PV area"


def make_cache_grid_spec(seed: int = 3) -> SweepSpec:
    """A 256-scenario declarative grid (System C across initial SOCs):
    fully cacheable — plain SystemSpec/EnvironmentSpec rows, no
    factories — so every row has a content-addressed cache key."""
    runs = tuple(
        RunSpec(
            system=spec_for("C", initial_soc=round(0.1 + 0.8 * k /
                                                   GRID_SCENARIOS, 6)),
            environment=EnvironmentSpec("outdoor", duration=2 * DAY,
                                        dt=GRID_DT, seed=seed),
            name=f"soc-{k}",
            params={"k": k},
        )
        for k in range(GRID_SCENARIOS)
    )
    return SweepSpec(runs=runs, name="catalog-cache-grid")


def test_bench_catalog_cache_hit_sweep(tmp_path):
    """Dedup-cache gate: rerunning the identical 256-scenario grid
    against the catalog must perform *zero* simulations (every row a
    manifest hit, verified via the store's hit counters) and return
    bitwise-identical rows >= 50x faster than the simulating pass."""
    spec = make_cache_grid_spec()
    store = tmp_path / "store"

    catalog = Catalog(store)
    t0 = time.perf_counter()
    first = run_sweep(spec, processes=1, catalog=catalog)
    first_seconds = time.perf_counter() - t0
    assert first.catalog_report.hits == 0
    assert first.catalog_report.archived == GRID_SCENARIOS

    # A fresh handle, as a rerun in a new process would open.
    catalog = Catalog(store)
    t0 = time.perf_counter()
    second = run_sweep(spec, processes=1, catalog=catalog)
    second_seconds = time.perf_counter() - t0

    # Zero simulations: every scenario resolved as a manifest hit, and
    # the store's persistent hit counters agree.
    assert second.catalog_report.hits == GRID_SCENARIOS
    assert second.catalog_report.simulated == 0
    assert catalog.total_hits() == GRID_SCENARIOS

    # Bitwise identity against the archived originals, row for row.
    for first_row, second_row in zip(first, second):
        assert first_row.metrics == second_row.metrics, first_row.name
        assert first_row.n_steps == second_row.n_steps
        assert first_row.name == second_row.name

    speedup = first_seconds / second_seconds
    print()
    print(f"simulate : {first_seconds:7.3f} s ({GRID_SCENARIOS} scenarios)")
    print(f"cache    : {second_seconds:7.3f} s (all manifest hits)")
    print(f"speedup  : {speedup:.1f}x (required >= "
          f"{CACHE_REQUIRED_SPEEDUP}x)")
    record_bench("catalog_cache_hit", {
        "n_scenarios": GRID_SCENARIOS,
        "simulate_seconds": first_seconds,
        "cache_seconds": second_seconds,
        "speedup": speedup,
    })
    assert speedup >= CACHE_REQUIRED_SPEEDUP
