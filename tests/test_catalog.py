"""Tests for the content-addressed catalog (:mod:`repro.catalog`).

Covers the dedup contract end to end: canonical hashing (invariant
under key order and float formatting), cache-key extraction, columnar
artifacts, the manifest, archive/restore bitwise round-trips, dedup
hits on every execution tier, crash/resume (an interrupted sweep
resumes with only the missing remainder), the query layer, garbage
collection, and the benchmark trajectory records.
"""

import dataclasses
import json

import pytest

from repro.catalog import (
    ARTIFACT_SCHEMA,
    Catalog,
    CatalogError,
    Manifest,
    ManifestRecord,
    bench_trajectory,
    code_version,
    have_pyarrow,
    import_trajectory,
    read_artifact,
    record_bench,
    resolve_format,
    scenario_cache_key,
    spec_hash,
    write_artifact,
    write_trajectory,
)
from repro.simulation import sweep as sweep_module
from repro.simulation import batched_sweep as batched_module
from repro.simulation.montecarlo import replicate_seeds
from repro.simulation.sweep import ScenarioSpec, SweepRunner
from repro.spec import (
    EnvironmentSpec,
    MonteCarloSpec,
    RunSpec,
    run_montecarlo,
    spec_for,
)
from repro.spec.canonical import canonical_bytes, canonical_dumps

DAY = 86_400.0
DT = 300.0
SHORT = 0.05 * DAY  # 4320 s -> 14 steps at dt=300


def make_scenario(name="row", *, soc=0.5, seed=7, env="outdoor",
                  letter="C", duration=SHORT, dt=DT, **overrides):
    """One fully declarative (cacheable) scenario."""
    return ScenarioSpec(
        name=name,
        system=spec_for(letter, initial_soc=soc),
        environment=EnvironmentSpec(env, duration=duration, dt=dt,
                                    seed=seed),
        params={"soc": soc},
        **overrides,
    )


def make_grid(n, *, seed=3, dt=DT):
    """n scenarios differing only in initial SoC (distinct spec hashes,
    shared seed)."""
    return [make_scenario(f"soc-{k}", soc=round(0.2 + 0.6 * k / n, 4),
                          seed=seed, dt=dt)
            for k in range(n)]


def run_one(spec):
    """Ground truth: execute one scenario without any catalog."""
    return sweep_module._execute((spec, "auto"))


def assert_rows_equal(got, want):
    """Bitwise row equality (RunMetrics equality is exact float ==)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.name == w.name
        assert g.params == w.params
        assert g.metrics == w.metrics, g.name
        assert g.n_steps == w.n_steps
        assert g.extras == w.extras


# ---------------------------------------------------------------------------
# Canonical hashing (satellite: hash-invariance regression tests)
# ---------------------------------------------------------------------------
class TestSpecHash:
    def test_invariant_under_key_ordering(self):
        a = {"duration": 4320.0, "dt": 300.0,
             "system": {"type": "ambimax", "params": {"x": 1, "y": 2.5}}}
        b = {"system": {"params": {"y": 2.5, "x": 1}, "type": "ambimax"},
             "dt": 300.0, "duration": 4320.0}
        assert canonical_bytes(a) == canonical_bytes(b)
        assert spec_hash(a) == spec_hash(b)

    def test_invariant_under_float_formatting(self):
        # 2.5e-1 and 0.25 are the same float64; so are 1.0 and 1.00.
        assert spec_hash({"v": 2.5e-1}) == spec_hash({"v": 0.25})
        assert spec_hash({"v": 1.00}) == spec_hash({"v": 1.0})
        # Shortest-repr round-trip: a hash survives a JSON round trip
        # even for floats with no short decimal form.
        ugly = {"v": 0.1 + 0.2, "w": 1.0 / 3.0}
        round_tripped = json.loads(canonical_dumps(ugly))
        assert spec_hash(round_tripped) == spec_hash(ugly)

    def test_distinct_values_distinct_hashes(self):
        assert spec_hash({"v": 0.25}) != spec_hash({"v": 0.250001})
        assert spec_hash({"v": 1}) != spec_hash({"w": 1})

    def test_hash_is_hex_sha256(self):
        digest = spec_hash({"v": 1})
        assert len(digest) == 64
        int(digest, 16)  # must parse as hex

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({"v": float("nan")})

    def test_numpy_scalars_hash_like_native_values(self):
        """Regression: np.float64/np.int64 leaking into params (e.g. from
        a sweep axis built with np.linspace) must hash identically to the
        equivalent native scalars, or the catalog re-simulates runs it
        already holds."""
        import numpy as np
        assert spec_hash({"v": np.float64(0.25)}) == \
            spec_hash({"v": 0.25})
        assert spec_hash({"n": np.int64(3)}) == spec_hash({"n": 3})
        assert spec_hash({"flag": np.bool_(True)}) == \
            spec_hash({"flag": True})
        # canonical_dumps must not emit the numpy repr either.
        assert canonical_dumps({"v": np.float64(0.5)}) == \
            canonical_dumps({"v": 0.5})

    def test_numpy_scalars_normalize_inside_specs(self):
        """Spec params coerce numpy scalars at construction, so equality
        and spec_hash are type-independent end to end."""
        import numpy as np
        native = EnvironmentSpec("outdoor", params={"scale": 0.8},
                                 duration=SHORT, dt=DT, seed=3)
        leaked = EnvironmentSpec(
            "outdoor", params={"scale": np.float64(0.8)},
            duration=SHORT, dt=DT, seed=3)
        assert leaked == native
        assert type(leaked.params["scale"]) is float
        assert spec_hash(leaked.to_dict()) == spec_hash(native.to_dict())

    def test_cache_key_survives_spec_json_round_trip(self):
        spec = RunSpec(system=spec_for("C", initial_soc=0.35),
                       environment=EnvironmentSpec("outdoor",
                                                   duration=SHORT, dt=DT,
                                                   seed=9),
                       name="round-trip")
        from repro.spec.build import to_scenario
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        key = scenario_cache_key(to_scenario(spec))
        key2 = scenario_cache_key(to_scenario(rebuilt))
        assert key.spec_hash == key2.spec_hash
        assert key == key2


class TestCodeVersion:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "release-1.2.3")
        assert code_version() == "release-1.2.3"

    def test_default_is_stable_short_hex(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        version = code_version()
        assert version == code_version()
        assert len(version) == 12
        int(version, 16)


# ---------------------------------------------------------------------------
# Cache-key extraction
# ---------------------------------------------------------------------------
class TestScenarioCacheKey:
    def test_declarative_scenario_is_cacheable(self):
        key = scenario_cache_key(make_scenario(seed=7))
        assert key is not None
        assert key.system == "ambimax"
        assert key.environment == "outdoor"
        assert key.seed == 7
        assert len(key.spec_hash) == 64
        assert key.key_dict["kind"] == "scenario-key"

    def test_fast_flag_excluded_from_identity(self):
        base = make_scenario()
        assert scenario_cache_key(base) == \
            scenario_cache_key(dataclasses.replace(base, fast=False))

    def test_name_and_params_excluded_from_identity(self):
        base = make_scenario("one")
        relabeled = dataclasses.replace(base, name="two",
                                        params={"other": 1})
        assert scenario_cache_key(base) == scenario_cache_key(relabeled)

    def test_seed_falls_back_to_environment_seed(self):
        spec = make_scenario(seed=42)  # env seed, scenario seed unset
        assert spec.seed is None
        assert scenario_cache_key(spec).seed == 42
        pinned = dataclasses.replace(spec, seed=7)
        assert scenario_cache_key(pinned).seed == 7
        # The env seed is normalized out of the hash: same physics,
        # different seed channel only.
        assert scenario_cache_key(pinned).spec_hash == \
            scenario_cache_key(spec).spec_hash

    def test_physics_knobs_change_the_hash(self):
        a = scenario_cache_key(make_scenario(soc=0.3))
        b = scenario_cache_key(make_scenario(soc=0.4))
        assert a.spec_hash != b.spec_hash
        c = scenario_cache_key(make_scenario(dt=600.0))
        assert c.spec_hash != a.spec_hash

    def test_uncacheable_shapes(self):
        base = make_scenario()
        factory = dataclasses.replace(base, system=lambda: None)
        assert scenario_cache_key(factory) is None
        env_factory = dataclasses.replace(base, environment=lambda: None)
        assert scenario_cache_key(env_factory) is None
        with_events = dataclasses.replace(base, events=[(10.0, "noop")])
        assert scenario_cache_key(with_events) is None
        with_hook = dataclasses.replace(base, collect=lambda r: {})
        assert scenario_cache_key(with_hook) is None


# ---------------------------------------------------------------------------
# Columnar artifacts
# ---------------------------------------------------------------------------
class TestArtifacts:
    def test_npz_round_trip_is_bitwise(self, tmp_path):
        rows = [run_one(s) for s in make_grid(3)]
        path = tmp_path / "rows.npz"
        write_artifact(path, rows, "npz")
        assert_rows_equal(read_artifact(path), rows)

    def test_int_metrics_restore_as_ints(self, tmp_path):
        row = run_one(make_scenario())
        path = tmp_path / "row.npz"
        write_artifact(path, [row], "npz")
        (loaded,) = read_artifact(path)
        assert isinstance(loaded.metrics.brownouts, int)

    def test_unjsonable_rows_raise_type_error(self, tmp_path):
        row = run_one(make_scenario())
        bad = dataclasses.replace(row, extras={"handle": object()})
        with pytest.raises(TypeError):
            write_artifact(tmp_path / "bad.npz", [bad], "npz")

    def test_schema_mismatch_rejected(self, tmp_path):
        import numpy as np
        path = tmp_path / "alien.npz"
        np.savez(path, schema=np.array(["other-schema-v9"]))
        with pytest.raises(ValueError, match=ARTIFACT_SCHEMA):
            read_artifact(path)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            resolve_format("csv")

    def test_auto_format_always_resolves(self):
        assert resolve_format("auto") in ("npz", "parquet")
        assert resolve_format("npz") == "npz"

    @pytest.mark.skipif(have_pyarrow(),
                        reason="pyarrow installed: parquet available")
    def test_parquet_without_pyarrow_names_the_extra(self):
        with pytest.raises(RuntimeError, match="parquet"):
            resolve_format("parquet")

    @pytest.mark.skipif(not have_pyarrow(), reason="needs pyarrow")
    def test_parquet_round_trip_is_bitwise(self, tmp_path):
        rows = [run_one(s) for s in make_grid(3)]
        path = tmp_path / "rows.parquet"
        write_artifact(path, rows, "parquet")
        assert_rows_equal(read_artifact(path), rows)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------
class TestManifest:
    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        good = ManifestRecord(run_id="r1", spec_hash="ab" * 32, seed=1,
                              code_version="v1")
        path.write_text(json.dumps(good.to_dict()) + "\n"
                        + "{torn line\n")
        manifest = Manifest(path)
        assert len(manifest) == 1
        assert manifest.corrupt_lines == 1
        assert manifest.lookup("ab" * 32, 1, "v1").run_id == "r1"

    def test_record_appended_after_torn_line_survives_reload(self, tmp_path):
        """A crash tears the last line mid-write (no newline); the next
        append must not glue its record onto the torn one."""
        path = tmp_path / "manifest.jsonl"
        manifest = Manifest(path)
        for name in ("a", "b"):
            manifest.append(ManifestRecord(run_id=name,
                                           spec_hash=name * 64, seed=1,
                                           code_version="v1"))
        text = path.read_text()
        path.write_text(text[:len(text) - 10])
        reopened = Manifest(path)
        assert [r.run_id for r in reopened] == ["a"]
        reopened.append(ManifestRecord(run_id="c", spec_hash="c" * 64,
                                       seed=1, code_version="v1"))
        reloaded = Manifest(path)
        assert [r.run_id for r in reloaded] == ["a", "c"]
        assert reloaded.corrupt_lines == 1
        assert reloaded.lookup("c" * 64, 1, "v1").run_id == "c"
        assert path.read_text().endswith("\n")

    def test_by_run_id_prefix_match(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.jsonl")
        manifest.append(ManifestRecord(run_id="abcdef-s1-v1",
                                       spec_hash="abcdef" + "0" * 58))
        manifest.append(ManifestRecord(run_id="123456-s2-v1",
                                       spec_hash="123456" + "0" * 58))
        assert manifest.by_run_id("abcdef-s1-v1").run_id == "abcdef-s1-v1"
        assert manifest.by_run_id("1234").run_id == "123456-s2-v1"
        assert manifest.by_run_id("nope") is None

    def test_rewrite_is_load_stable(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        manifest = Manifest(path)
        for k in range(3):
            manifest.append(ManifestRecord(run_id=f"r{k}",
                                           spec_hash=f"{k:02x}" * 32,
                                           seed=k, code_version="v1"))
        manifest.rewrite(manifest.records[1:])
        reloaded = Manifest(path)
        assert [r.run_id for r in reloaded] == ["r1", "r2"]
        assert reloaded.lookup("00" * 32, 0, "v1") is None


# ---------------------------------------------------------------------------
# The store: archive / restore / load_rows
# ---------------------------------------------------------------------------
class TestCatalogStore:
    def test_archive_restore_is_bitwise(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario("original")
        key = scenario_cache_key(spec)
        truth = run_one(spec)
        record = catalog.archive(key, truth, wall_time_s=0.5)
        assert record is not None
        assert record.wall_time_s == 0.5
        found = catalog.lookup(key)
        assert found.run_id == record.run_id
        restored = catalog.restore(found)
        assert_rows_equal([restored], [truth])
        # The columnar artifact is the authoritative copy and must agree
        # with the manifest restore bit for bit.
        assert_rows_equal(catalog.load_rows(found), [truth])

    def test_restore_applies_requesting_identity(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario("original")
        truth = run_one(spec)
        record = catalog.archive(scenario_cache_key(spec), truth)
        relabeled = catalog.restore(record, name="renamed",
                                    params={"k": 9})
        assert relabeled.name == "renamed"
        assert relabeled.params == {"k": 9}
        assert relabeled.metrics == truth.metrics

    def test_archive_is_idempotent_per_key(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario()
        key = scenario_cache_key(spec)
        truth = run_one(spec)
        first = catalog.archive(key, truth)
        second = catalog.archive(key, truth)
        assert second.run_id == first.run_id
        assert len(catalog.manifest) == 1

    def test_unarchivable_row_returns_none(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario()
        truth = run_one(spec)
        exotic = dataclasses.replace(truth, extras={"handle": object()})
        assert catalog.archive(scenario_cache_key(spec), exotic) is None
        assert len(catalog.manifest) == 0

    def test_spec_document_is_content_addressed(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario()
        key = scenario_cache_key(spec)
        catalog.archive(key, run_one(spec))
        assert catalog.spec_document(key.spec_hash) == key.key_dict
        with pytest.raises(CatalogError):
            catalog.spec_document("0" * 64)

    def test_store_reopens_across_handles(self, tmp_path):
        root = tmp_path / "store"
        spec = make_scenario()
        key = scenario_cache_key(spec)
        truth = run_one(spec)
        Catalog(root).archive(key, truth)
        fresh = Catalog(root)
        assert_rows_equal([fresh.restore(fresh.lookup(key))], [truth])

    def test_layout_mismatch_refused(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "catalog.json").write_text('{"layout": 99}\n')
        with pytest.raises(CatalogError, match="layout"):
            Catalog(root)

    def test_hit_counters_persist(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        catalog.record_hits(["a", "b", "a"])
        assert catalog.hit_counts() == {"a": 2, "b": 1}
        assert Catalog(tmp_path / "store").total_hits() == 3

    def test_code_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario()
        key = scenario_cache_key(spec)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-old")
        catalog.archive(key, run_one(spec))
        assert catalog.lookup(key) is not None
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-new")
        assert catalog.lookup(key) is None  # upgrade == clean miss
        assert catalog.lookup(key, version="v-old") is not None


# ---------------------------------------------------------------------------
# Sweep dedup: the cache in front of every execution tier
# ---------------------------------------------------------------------------
class TestSweepDedup:
    def test_second_run_is_all_hits_zero_simulations(self, tmp_path,
                                                     monkeypatch):
        root = tmp_path / "store"
        grid = make_grid(6)
        first = SweepRunner(processes=1, catalog=Catalog(root)).run(grid)
        assert first.catalog_report.hits == 0
        assert first.catalog_report.misses == 6
        assert first.catalog_report.archived == 6

        # Prove "zero simulations": no per-scenario execution and no
        # batched-kernel dispatch may happen on the second pass.
        def forbidden(*args, **kwargs):
            raise AssertionError("cache hit must not simulate")
        monkeypatch.setattr(sweep_module, "_execute", forbidden)
        monkeypatch.setattr(batched_module, "run_batched_tier", forbidden)

        catalog = Catalog(root)
        second = SweepRunner(processes=1, catalog=catalog).run(make_grid(6))
        assert second.catalog_report.hits == 6
        assert second.catalog_report.simulated == 0
        assert catalog.total_hits() == 6
        assert_rows_equal(list(second), list(first))

    def test_partial_overlap_hits_only_the_overlap(self, tmp_path):
        root = tmp_path / "store"
        SweepRunner(processes=1, catalog=Catalog(root)).run(make_grid(3))
        report = SweepRunner(processes=1, catalog=Catalog(root)) \
            .run(make_grid(6)).catalog_report
        # make_grid(3) socs {0.2, 0.4, 0.6} are all inside make_grid(6)
        # socs {0.2 .. 0.7}: the overlap hits, the rest simulates.
        assert report.hits == 3
        assert report.misses == 3

    def test_multiprocessing_tier_archives(self, tmp_path):
        grid = make_grid(4)
        catalog = Catalog(tmp_path / "store")
        result = SweepRunner(processes=2, batch=False,
                             catalog=catalog).run(grid)
        assert result.catalog_report.archived == 4
        rerun = SweepRunner(processes=2, batch=False,
                            catalog=Catalog(tmp_path / "store")).run(grid)
        assert rerun.catalog_report.hits == 4
        assert_rows_equal(list(rerun), list(result))

    def test_pool_tier_archives_each_scenarios_wall_time(self, tmp_path):
        # Four lanes are below the lockstep width, so this catalog sweep
        # runs on the pool tier; each worker times its own scenario.
        result = SweepRunner(processes=2, catalog=Catalog(
            tmp_path / "store")).run(make_grid(4))
        assert [r.execution_path for r in result] == ["kernel"] * 4
        records = list(Catalog(tmp_path / "store").manifest)
        assert len(records) == 4
        assert all(record.wall_time_s > 0 for record in records), records

    def test_cross_tier_hits_are_bitwise(self, tmp_path):
        # Archive on the batched tier, hit from the in-process tier (and
        # vice versa): the differential contract makes tiers
        # interchangeable cache producers.
        grid = make_grid(4)
        batched_store = tmp_path / "a"
        SweepRunner(processes=1, batch=True,
                    catalog=Catalog(batched_store)).run(grid)
        hit = SweepRunner(processes=1, batch=False,
                          catalog=Catalog(batched_store)).run(grid)
        assert hit.catalog_report.hits == 4
        truth = SweepRunner(processes=1, batch=False).run(make_grid(4))
        assert_rows_equal(list(hit), list(truth))

    def test_uncacheable_scenarios_ride_along(self, tmp_path):
        grid = make_grid(3)
        grid.append(dataclasses.replace(
            make_scenario("hooked", soc=0.9),
            collect=lambda r: {"coverage": 1.0}))
        catalog = Catalog(tmp_path / "store")
        result = SweepRunner(processes=1, catalog=catalog).run(grid)
        assert result.catalog_report.uncacheable == 1
        assert result.catalog_report.archived == 3
        assert result["hooked"].extras["coverage"] == 1.0
        rerun = SweepRunner(processes=1,
                            catalog=Catalog(tmp_path / "store")).run(grid)
        assert rerun.catalog_report.hits == 3
        assert rerun.catalog_report.uncacheable == 1  # simulated again

    def test_no_catalog_means_no_report(self):
        result = SweepRunner(processes=1).run(make_grid(2))
        assert result.catalog_report is None


# ---------------------------------------------------------------------------
# Crash / resume: an interrupted sweep completes only the remainder
# ---------------------------------------------------------------------------
class TestCrashResume:
    def test_inprocess_sweep_resumes_only_the_remainder(self, tmp_path,
                                                        monkeypatch):
        root = tmp_path / "store"
        grid = make_grid(8)
        truth = SweepRunner(processes=1, batch=False).run(make_grid(8))

        real_execute = sweep_module._execute
        calls = {"n": 0}

        def crashing(payload):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("simulated crash")
            return real_execute(payload)

        monkeypatch.setattr(sweep_module, "_execute", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            SweepRunner(processes=1, batch=False,
                        catalog=Catalog(root)).run(grid)

        # The manifest holds exactly the scenarios that completed.
        checkpointed = Catalog(root)
        assert len(checkpointed.manifest) == 3

        counting = {"n": 0}

        def counted(payload):
            counting["n"] += 1
            return real_execute(payload)

        monkeypatch.setattr(sweep_module, "_execute", counted)
        resumed = SweepRunner(processes=1, batch=False,
                              catalog=checkpointed).run(make_grid(8))
        assert counting["n"] == 5  # only the missing scenarios ran
        assert resumed.catalog_report.hits == 3
        assert resumed.catalog_report.misses == 5
        assert_rows_equal(list(resumed), list(truth))

    def test_batched_sweep_resumes_only_the_remainder(self, tmp_path,
                                                      monkeypatch):
        # Two lockstep groups (dt 300 vs dt 600 -> distinct signatures);
        # the kernel dies on the second group, so exactly the first
        # group's scenarios are checkpointed.
        root = tmp_path / "store"
        grid = make_grid(4, dt=300.0) + [
            make_scenario(f"coarse-{k}", soc=round(0.25 + 0.1 * k, 4),
                          dt=600.0) for k in range(4)]
        truth = SweepRunner(processes=1, batch=True).run(list(grid))

        real_run_batched = batched_module.run_batched
        calls = {"n": 0}

        def crashing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("simulated crash")
            return real_run_batched(*args, **kwargs)

        monkeypatch.setattr(batched_module, "run_batched", crashing)
        with pytest.raises(RuntimeError, match="simulated crash"):
            SweepRunner(processes=1, batch=True,
                        catalog=Catalog(root)).run(list(grid))
        monkeypatch.setattr(batched_module, "run_batched",
                            real_run_batched)

        archived = len(Catalog(root).manifest)
        assert archived == 4  # the first lockstep group, whole

        resumed = SweepRunner(processes=1, batch=True,
                              catalog=Catalog(root)).run(list(grid))
        assert resumed.catalog_report.hits == 4
        assert resumed.catalog_report.misses == 4
        assert_rows_equal(list(resumed), list(truth))


# ---------------------------------------------------------------------------
# Monte Carlo ensembles through the catalog
# ---------------------------------------------------------------------------
class TestEnsembleCatalog:
    def _spec(self, replicates):
        return MonteCarloSpec(
            run=RunSpec(system=spec_for("C"),
                        environment=EnvironmentSpec("outdoor",
                                                    duration=SHORT, dt=DT),
                        name="mc"),
            replicates=replicates,
            root_seed=11,
        )

    def test_ensemble_dedup_round_trip(self, tmp_path):
        root = tmp_path / "store"
        first = run_montecarlo(self._spec(6), catalog=Catalog(root))
        assert first.catalog_report.archived == 6
        again = run_montecarlo(self._spec(6), catalog=Catalog(root))
        assert again.catalog_report.hits == 6
        assert again.catalog_report.simulated == 0
        for a, b in zip(first, again):
            assert a.metrics == b.metrics

    def test_growing_an_ensemble_reuses_the_prefix(self, tmp_path):
        # Replicate seeds are prefix-stable, so extending an archived
        # 3-replicate ensemble to 6 replicates simulates only the new 3.
        root = tmp_path / "store"
        run_montecarlo(self._spec(3), catalog=Catalog(root))
        grown = run_montecarlo(self._spec(6), catalog=Catalog(root))
        assert grown.catalog_report.hits == 3
        assert grown.catalog_report.misses == 3


# ---------------------------------------------------------------------------
# Query layer
# ---------------------------------------------------------------------------
class TestQuery:
    @pytest.fixture()
    def populated(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        seeds = replicate_seeds(11, 3, 0)
        for k, seed in enumerate(seeds):
            spec = make_scenario(f"family-{k}", seed=int(seed))
            catalog.archive(scenario_cache_key(spec), run_one(spec))
        other = make_scenario("other", letter="A",
                              env="indoor-industrial", seed=5)
        catalog.archive(scenario_cache_key(other), run_one(other))
        return catalog

    def test_filter_by_system_and_environment(self, populated):
        assert len(populated.query(system="ambimax")) == 3
        assert len(populated.query(environment="indoor-industrial")) == 1
        assert populated.query(system="ambimax",
                               environment="indoor-industrial") == []

    def test_filter_by_name_prefix_and_seed(self, populated):
        assert len(populated.query(name="family-")) == 3
        assert populated.query(name="other")[0].seed == 5
        assert len(populated.query(seed=5)) == 1

    def test_filter_by_spec_hash_prefix(self, populated):
        record = populated.query(name="other")[0]
        assert populated.query(spec_hash=record.spec_hash[:10]) == [record]

    def test_filter_by_code_version(self, populated):
        assert len(populated.query(code_version=code_version())) == 4
        assert populated.query(code_version="nope") == []

    def test_filter_by_metric_band(self, populated):
        record = populated.query(name="other")[0]
        value = record.metrics["harvested_delivered_j"]
        band = populated.query(
            metric_band=("harvested_delivered_j", value, value))
        assert record in band
        assert populated.query(
            metric_band=("harvested_delivered_j", value + 1e9, None)) == []

    def test_seed_stream_finds_the_replicate_family(self, populated):
        family = populated.query(seed_stream=(11, 0, 3))
        assert len(family) == 3
        assert {r.name for r in family} == \
            {"family-0", "family-1", "family-2"}
        # Streams are prefix-stable: asking for fewer replicates finds
        # the prefix; a different stream finds nothing.
        assert len(populated.query(seed_stream=(11, 0, 2))) == 2
        assert populated.query(seed_stream=(11, 1, 3)) == []


# ---------------------------------------------------------------------------
# Garbage collection
# ---------------------------------------------------------------------------
class TestGc:
    def test_stale_gc_drops_superseded_versions(self, tmp_path,
                                                monkeypatch):
        root = tmp_path / "store"
        catalog = Catalog(root)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-old")
        for spec in make_grid(2):
            catalog.archive(scenario_cache_key(spec), run_one(spec))
        stale_ids = [r.run_id for r in catalog.manifest]
        catalog.record_hits(stale_ids)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-new")
        fresh_spec = make_scenario("fresh", soc=0.77)
        catalog.archive(scenario_cache_key(fresh_spec), run_one(fresh_spec))

        dry = catalog.gc(stale=True, dry_run=True)
        assert dry.removed == 2
        assert len(catalog.manifest) == 3  # dry run touches nothing
        assert all((root / r.artifact).exists() for r in catalog.manifest)

        report = catalog.gc(stale=True)
        assert sorted(report.removed_records) == sorted(stale_ids)
        assert len(report.removed_artifacts) == 2
        reloaded = Catalog(root)
        assert [r.name for r in reloaded.manifest] == ["fresh"]
        assert all(not (root / f"results/{rid}.npz").exists()
                   for rid in stale_ids)
        # Hit counters of removed runs are dropped too.
        assert reloaded.hit_counts() == {}

    def test_keep_last_per_dedup_family(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        catalog = Catalog(root)
        spec = make_scenario()
        key = scenario_cache_key(spec)
        truth = run_one(spec)
        for version in ("v1", "v2", "v3"):
            monkeypatch.setenv("REPRO_CODE_VERSION", version)
            catalog.archive(key, truth)
        assert len(catalog.manifest) == 3
        report = catalog.gc(keep_last=1)
        assert report.removed == 2
        (survivor,) = Catalog(root).manifest
        assert survivor.code_version == "v3"  # newest wins
        assert catalog.gc(keep_last=0).removed == 1  # doom everything
        assert len(Catalog(root).manifest) == 0

    def test_keep_days_drops_old_records(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        catalog.manifest.append(ManifestRecord(
            run_id="ancient", spec_hash="ab" * 32, seed=1,
            code_version=code_version(),
            created_at="2020-01-01T00:00:00+00:00"))
        spec = make_scenario()
        catalog.archive(scenario_cache_key(spec), run_one(spec))
        report = catalog.gc(keep_days=30)
        assert report.removed_records == ["ancient"]
        assert report.kept_records == 1

    def test_orphan_sweep_always_runs(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        stray = catalog.results_dir / "stray.npz"
        stray.write_bytes(b"not an artifact")
        report = catalog.gc()
        assert report.removed_artifacts == ["results/stray.npz"]
        assert not stray.exists()

    def test_bench_records_survive_every_policy(self, tmp_path,
                                                monkeypatch):
        catalog = Catalog(tmp_path / "store")
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-old")
        catalog.append_bench("sweep", {"speedup": 10.0})
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-new")
        report = catalog.gc(stale=True, keep_last=0, keep_days=0)
        assert report.removed == 0
        assert len(catalog.bench_records()) == 1


# ---------------------------------------------------------------------------
# Benchmark trajectory records
# ---------------------------------------------------------------------------
class TestBenchTrajectory:
    def test_append_preserves_order(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        catalog.append_bench("sweep", {"speedup": 10.0})
        catalog.append_bench("ensemble", {"speedup": 7.0})
        document = bench_trajectory(catalog)
        assert [r["benchmark"] for r in document["runs"]] == \
            ["sweep", "ensemble"]
        assert document["runs"][0]["speedup"] == 10.0

    def test_legacy_import_happens_exactly_once(self, tmp_path):
        legacy = tmp_path / "BENCH_sweep.json"
        legacy.write_text(json.dumps(
            {"runs": [{"benchmark": "sweep", "speedup": 9.0},
                      {"benchmark": "ensemble", "speedup": 5.0}]}))
        catalog = Catalog(tmp_path / "store")
        assert import_trajectory(catalog, legacy) == 2
        assert import_trajectory(catalog, legacy) == 0  # already seeded
        assert len(catalog.bench_records()) == 2

    def test_import_tolerates_missing_file(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        assert import_trajectory(catalog, tmp_path / "absent.json") == 0

    def test_record_bench_regenerates_the_trajectory(self, tmp_path):
        trajectory = tmp_path / "BENCH_sweep.json"
        trajectory.write_text(json.dumps(
            {"runs": [{"benchmark": "sweep", "speedup": 9.0}]}))
        catalog = Catalog(tmp_path / "store")
        record_bench("ensemble", {"speedup": 6.5}, catalog=catalog,
                     trajectory=trajectory)
        document = json.loads(trajectory.read_text())
        # Legacy history survives the migration; the new sample appends.
        assert [r["benchmark"] for r in document["runs"]] == \
            ["sweep", "ensemble"]
        assert document["runs"][1]["speedup"] == 6.5

    def test_write_trajectory_round_trips(self, tmp_path):
        catalog = Catalog(tmp_path / "store")
        catalog.append_bench("sweep", {"speedup": 3.0})
        out = tmp_path / "out.json"
        document = write_trajectory(catalog, out)
        assert json.loads(out.read_text()) == document

    def test_import_merges_into_a_non_empty_store(self, tmp_path):
        """Regression: a fresh store that records one new sample before
        touching the legacy file must still absorb the legacy history.
        The old all-or-nothing guard no-op'd as soon as *any* bench
        record existed, so a fresh clone's first benchmark run
        regenerated BENCH_sweep.json with only itself in it."""
        legacy = tmp_path / "BENCH_sweep.json"
        legacy.write_text(json.dumps(
            {"runs": [{"benchmark": "sweep", "speedup": 9.0},
                      {"benchmark": "ensemble", "speedup": 5.0}]}))
        catalog = Catalog(tmp_path / "store")
        catalog.append_bench("fleet", {"speedup": 4.5})
        assert import_trajectory(catalog, legacy) == 2
        # Per-record idempotence: nothing re-imports on a second pass.
        assert import_trajectory(catalog, legacy) == 0
        names = [r["benchmark"] for r in bench_trajectory(catalog)["runs"]]
        assert sorted(names) == ["ensemble", "fleet", "sweep"]

    def test_import_keeps_duplicate_samples_distinct(self, tmp_path):
        """Two identical legacy samples are two records (a multiset
        match), and both survive repeated imports without multiplying."""
        legacy = tmp_path / "BENCH_sweep.json"
        legacy.write_text(json.dumps(
            {"runs": [{"benchmark": "sweep", "speedup": 9.0},
                      {"benchmark": "sweep", "speedup": 9.0}]}))
        catalog = Catalog(tmp_path / "store")
        assert import_trajectory(catalog, legacy) == 2
        assert import_trajectory(catalog, legacy) == 0
        assert len(catalog.bench_records()) == 2

    def test_write_trajectory_refuses_an_empty_document(self, tmp_path):
        """require_runs guards CI regeneration: an empty store must not
        silently replace the benchmark history with {"runs": []}."""
        catalog = Catalog(tmp_path / "store")
        out = tmp_path / "out.json"
        with pytest.raises(RuntimeError, match="trajectory is empty"):
            write_trajectory(catalog, out, require_runs=True)
        assert not out.exists()
        # Without the guard the (explicitly requested) empty document
        # still writes — `catalog bench` without -o keeps working.
        assert write_trajectory(catalog, out) == {"runs": []}


# ---------------------------------------------------------------------------
# Parquet-backed catalog (runs only with the optional extra installed)
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not have_pyarrow(), reason="needs pyarrow")
class TestParquetCatalog:
    def test_parquet_store_round_trip(self, tmp_path):
        catalog = Catalog(tmp_path / "store", format="parquet")
        spec = make_scenario()
        truth = run_one(spec)
        record = catalog.archive(scenario_cache_key(spec), truth)
        assert record.artifact.endswith(".parquet")
        assert_rows_equal(catalog.load_rows(record), [truth])

    def test_mixed_format_store_reads_both(self, tmp_path):
        root = tmp_path / "store"
        npz_spec = make_scenario("npz-row", soc=0.3)
        Catalog(root, format="npz").archive(
            scenario_cache_key(npz_spec), run_one(npz_spec))
        parquet_catalog = Catalog(root, format="parquet")
        pq_spec = make_scenario("pq-row", soc=0.6)
        parquet_catalog.archive(scenario_cache_key(pq_spec),
                                run_one(pq_spec))
        for record in parquet_catalog.manifest:
            assert len(parquet_catalog.load_rows(record)) == 1
