"""Tests for the content-addressed catalog (:mod:`repro.catalog`).

Covers the dedup contract end to end: canonical hashing (invariant
under key order and float formatting), cache-key extraction, the
manifest, archive/restore bitwise round-trips, atomic rewrites of the
store's whole-file documents, stores written before the manifest became
the one copy of each row, dedup hits on every execution tier,
crash/resume (an interrupted sweep resumes with only the missing
remainder), the query layer, garbage collection, and the benchmark
trajectory file.
"""

import dataclasses
import json
import os
import time
from datetime import datetime, timedelta, timezone

import pytest

from repro.catalog import (
    Catalog,
    CatalogError,
    Manifest,
    ManifestRecord,
    code_version,
    default_trajectory_path,
    record_bench,
    scenario_cache_key,
    spec_hash,
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
    return sweep_module._execute((spec, "auto", None))


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
# Manifest
# ---------------------------------------------------------------------------
class TestManifest:
    def test_corrupt_lines_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        good = ManifestRecord(run_id="r1", spec_hash="ab" * 32, seed=1,
                              code_version="v1")
        path.write_text(json.dumps(good.to_dict()) + "\n"
                        + "{torn line\n" + "[1]\n" + "null\n" + '"run"\n')
        manifest = Manifest(path)
        assert len(manifest) == 1
        assert manifest.corrupt_lines == 4
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

    def test_only_run_lines_load(self, tmp_path):
        """A line whose ``kind`` is not ``"run"`` is an old store's
        benchmark sample: skipped, not counted corrupt, and gone after a
        rewrite. Lines with ``kind="run"`` or no ``kind`` load."""
        path = tmp_path / "manifest.jsonl"
        run = ManifestRecord(run_id="r1", spec_hash="ab" * 32, seed=1,
                             code_version="v1").to_dict()
        bench = {"run_id": "bench-000000-sweep", "kind": "bench",
                 "name": "sweep", "payload": {"speedup": 9.0}}
        lines = [dict(run, kind="run"), bench,
                 dict(run, run_id="r2", seed=2)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        manifest = Manifest(path)
        assert [r.run_id for r in manifest] == ["r1", "r2"]
        assert manifest.corrupt_lines == 0
        assert manifest.lookup("ab" * 32, 2, "v1").run_id == "r2"
        manifest.rewrite(manifest.records)
        assert "bench" not in path.read_text()
        assert [r.run_id for r in Manifest(path)] == ["r1", "r2"]


# ---------------------------------------------------------------------------
# The store: archive / restore
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

    def test_int_metrics_restore_as_ints(self, tmp_path):
        spec = make_scenario()
        key = scenario_cache_key(spec)
        Catalog(tmp_path / "store").archive(key, run_one(spec))
        fresh = Catalog(tmp_path / "store")
        restored = fresh.restore(fresh.lookup(key))
        assert isinstance(restored.metrics.brownouts, int)

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
        key = scenario_cache_key(spec)
        assert catalog.archive(key, exotic) is None
        assert len(catalog.manifest) == 0
        with pytest.raises(CatalogError):
            catalog.spec_document(key.spec_hash)
        assert list(catalog.specs_dir.rglob("*")) == []

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
        # A marker that is not a JSON object reads as a wrong layout.
        for k, marker in enumerate(['{"layout": 99}', "[1]", "null",
                                    "{torn"]):
            root = tmp_path / f"store{k}"
            root.mkdir()
            (root / "catalog.json").write_text(marker + "\n")
            with pytest.raises(CatalogError, match="layout"):
                Catalog(root)

    @pytest.mark.parametrize("stats", ["[]", "[1]", "3", "{torn"])
    def test_unreadable_stats_read_as_no_hits(self, tmp_path, stats):
        catalog = Catalog(tmp_path / "store")
        catalog._stats_path.write_text(stats + "\n")
        assert catalog.hit_counts() == {}
        assert catalog.total_hits() == 0
        catalog.record_hits(["a"])
        assert catalog.hit_counts() == {"a": 1}

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
# Atomic whole-file writes, and stores written before this layout
# ---------------------------------------------------------------------------
def _crash(*args, **kwargs):
    raise OSError("simulated crash before the rename")


class TestAtomicWrites:
    """Whole-file documents are replaced in one rename: a crash before
    it leaves the previous contents, never a torn file."""

    def test_interrupted_hit_count_keeps_the_previous_counters(
            self, tmp_path, monkeypatch):
        catalog = Catalog(tmp_path / "store")
        catalog.record_hits(["a"])
        before = catalog._stats_path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _crash)
            with pytest.raises(OSError, match="simulated crash"):
                catalog.record_hits(["a", "b"])
        assert catalog._stats_path.read_bytes() == before
        assert catalog.hit_counts() == {"a": 1}
        assert not list(catalog.root.glob("*.tmp"))

    def test_interrupted_archive_leaves_no_spec_document(self, tmp_path,
                                                         monkeypatch):
        catalog = Catalog(tmp_path / "store")
        spec = make_scenario()
        key = scenario_cache_key(spec)
        truth = run_one(spec)
        address = (catalog.specs_dir / key.spec_hash[:2]
                   / f"{key.spec_hash}.json")
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _crash)
            with pytest.raises(OSError, match="simulated crash"):
                catalog.archive(key, truth)
        assert not address.exists()
        assert list(address.parent.iterdir()) == []
        assert len(catalog.manifest) == 0
        assert catalog.archive(key, truth) is not None
        assert catalog.spec_document(key.spec_hash) == key.key_dict


class TestPreChangeStore:
    """A store written while each archive also wrote a columnar
    ``results/`` artifact (manifest records carrying ``artifact`` and
    ``format``, a ``format`` field in ``catalog.json``) and while the
    manifest also kept benchmark samples (``kind="bench"`` lines) still
    opens, lists and restores its one run bitwise, and gc deletes its
    artifacts."""

    @pytest.fixture
    def legacy_store(self, tmp_path):
        root = tmp_path / "store"
        spec = make_scenario("legacy")
        key = scenario_cache_key(spec)
        truth = run_one(spec)
        run_id = f"{key.spec_hash[:16]}-s{key.seed}-{code_version()}"
        (root / "results").mkdir(parents=True)
        (root / "results" / f"{run_id}.npz").write_bytes(b"PK legacy")
        shard = root / "specs" / key.spec_hash[:2]
        shard.mkdir(parents=True)
        (shard / f"{key.spec_hash}.json").write_text(
            canonical_dumps(key.key_dict, indent=2) + "\n")
        (root / "catalog.json").write_text(
            json.dumps({"layout": 1, "format": "npz"}, indent=2) + "\n")
        line = {
            "run_id": run_id, "kind": "run", "spec_hash": key.spec_hash,
            "seed": key.seed, "name": truth.name, "system": key.system,
            "environment": key.environment,
            "execution_path": truth.execution_path,
            "code_version": code_version(),
            "created_at": "2026-01-01T00:00:00+00:00",
            "wall_time_s": 0.25, "n_steps": truth.n_steps,
            "artifact": f"results/{run_id}.npz", "format": "npz",
            "metrics": dataclasses.asdict(truth.metrics),
            "params": truth.params, "extras": truth.extras, "payload": {},
        }
        bench = {
            "run_id": "bench-000000-sweep", "kind": "bench",
            "name": "sweep", "code_version": code_version(),
            "created_at": "2026-01-01T00:00:00+00:00",
            "payload": {"speedup": 9.0},
        }
        (root / "manifest.jsonl").write_text(
            json.dumps(line, sort_keys=True) + "\n"
            + json.dumps(bench, sort_keys=True) + "\n")
        return root, key, truth, run_id

    def test_opens_and_restores_bitwise(self, legacy_store):
        root, key, truth, run_id = legacy_store
        catalog = Catalog(root)
        assert len(catalog.manifest) == 1
        record = catalog.lookup(key)
        assert record.run_id == run_id
        assert catalog.manifest.corrupt_lines == 0
        assert_rows_equal([catalog.restore(record)], [truth])

    def test_ls_lists_the_one_run(self, legacy_store, capsys):
        from repro.cli import main
        root, key, truth, run_id = legacy_store
        assert main(["catalog", "ls", str(root)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "bench-000000" not in out

    def test_gc_prunes_runs_only(self, legacy_store):
        root, key, truth, run_id = legacy_store
        # Every policy on, at values the run passes: nothing goes.
        report = Catalog(root).gc(stale=True, keep_last=1, keep_days=3650)
        assert (report.removed, report.kept_records) == (0, 1)
        reopened = Catalog(root)
        assert_rows_equal([reopened.restore(reopened.lookup(key))], [truth])
        # keep_last=0 and keep_days=0 doom every run. The bench line is
        # no record to prune, and the rewrite drops it with the run.
        report = reopened.gc(stale=True, keep_last=0, keep_days=0)
        assert report.removed_records == [run_id]
        assert (root / "manifest.jsonl").read_text() == ""

    def test_gc_deletes_the_legacy_artifact(self, legacy_store):
        root, key, truth, run_id = legacy_store
        report = Catalog(root).gc()
        assert report.removed == 0
        assert report.removed_artifacts == [f"results/{run_id}.npz"]
        assert not any((root / "results").iterdir())
        reopened = Catalog(root)
        assert_rows_equal([reopened.restore(reopened.lookup(key))], [truth])


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

    def test_batched_tier_archives_each_lanes_build_time(self, tmp_path,
                                                         monkeypatch):
        # A lane's archived wall time includes its own environment build,
        # not only its share of the lockstep run.
        build = sweep_module._build_environment

        def slow_build(spec):
            time.sleep(0.05)
            return build(spec)

        monkeypatch.setattr(sweep_module, "_build_environment", slow_build)
        result = SweepRunner(processes=1, batch=True, catalog=Catalog(
            tmp_path / "store")).run(make_grid(16))
        assert [r.execution_path for r in result] == ["batched"] * 16
        records = list(Catalog(tmp_path / "store").manifest)
        assert len(records) == 16
        assert all(record.wall_time_s >= 0.05 for record in records), records

    def test_routed_rows_archive_their_system_build(self, tmp_path,
                                                    monkeypatch):
        # A narrow group runs in-process on the systems the batched tier
        # built to probe it; each row's archived wall time still counts
        # its own system build.
        build = sweep_module._build_system
        calls = []

        def slow_build(spec):
            calls.append(spec.name)
            time.sleep(0.05)
            return build(spec)

        monkeypatch.setattr(sweep_module, "_build_system", slow_build)
        result = SweepRunner(processes=1, catalog=Catalog(
            tmp_path / "store")).run(make_grid(4))
        assert [r.execution_path for r in result] == ["kernel"] * 4
        assert len(calls) == 4
        records = list(Catalog(tmp_path / "store").manifest)
        assert len(records) == 4
        assert all(record.wall_time_s >= 0.05 for record in records), records

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

        # Artifacts as a store written before the manifest became the
        # one copy of each row holds them.
        legacy = [root / "results" / f"{rid}.npz" for rid in stale_ids]
        legacy[0].parent.mkdir()
        for path in legacy:
            path.write_bytes(b"legacy artifact")

        dry = catalog.gc(stale=True, dry_run=True)
        assert dry.removed == 2
        assert len(catalog.manifest) == 3  # dry run touches nothing
        assert all(path.exists() for path in legacy)

        report = catalog.gc(stale=True)
        assert sorted(report.removed_records) == sorted(stale_ids)
        assert len(report.removed_artifacts) == 2
        reloaded = Catalog(root)
        assert [r.name for r in reloaded.manifest] == ["fresh"]
        assert not any(path.exists() for path in legacy)
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
        stray = catalog.root / "results" / "stray.npz"
        stray.parent.mkdir()
        stray.write_bytes(b"not an artifact")
        report = catalog.gc()
        assert report.removed_artifacts == ["results/stray.npz"]
        assert not stray.exists()


# ---------------------------------------------------------------------------
# Benchmark trajectory file
# ---------------------------------------------------------------------------
class TestRecordBench:
    """``record_bench`` appends stamped rows to the trajectory file, the
    one copy of the benchmark history."""

    @pytest.fixture
    def trajectory(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_sweep.json"
        monkeypatch.setenv("BENCH_SWEEP_JSON", str(path))
        return path

    def test_appends_stamped_rows_after_the_history(self, trajectory):
        history = [
            {"benchmark": "sweep", "speedup": 9.0},
            {"benchmark": "ensemble", "speedup": 5.0,
             "host": {"cpus": 1, "python": "3.11.7"}},
        ]
        trajectory.write_text(json.dumps({"runs": history}, indent=2))
        record_bench("fleet", {"speedup": 4.5})
        record_bench("fastpath_1m", {"codegen_speedup": 12.0,
                                     "compile_s": 0.25})
        runs = json.loads(trajectory.read_text())["runs"]
        assert runs[:2] == history
        assert [run["benchmark"] for run in runs[2:]] == \
            ["fleet", "fastpath_1m"]
        assert runs[2]["speedup"] == 4.5
        assert runs[3]["codegen_speedup"] == 12.0
        assert runs[3]["compile_s"] == 0.25
        for run in runs[2:]:
            assert run["code_version"] == code_version() != ""
            assert run["created_at"] != ""
            assert run["host"]["cpus"] >= 1

    def test_absent_file_becomes_a_one_row_document(self, trajectory):
        record_bench("sweep", {"speedup": 9.0})
        (run,) = json.loads(trajectory.read_text())["runs"]
        assert run["benchmark"] == "sweep"
        assert run["speedup"] == 9.0

    @pytest.mark.parametrize("text", [
        json.dumps({"runs": [{"benchmark": "sweep", "speedup": 9.0}]},
                   indent=2)[:30],
        json.dumps({"rows": []}),
        json.dumps([{"benchmark": "sweep", "speedup": 9.0}]),
    ], ids=["torn", "no-runs-list", "not-an-object"])
    def test_unreadable_file_raises_and_stays_untouched(self, trajectory,
                                                        text):
        trajectory.write_text(text)
        before = trajectory.read_bytes()
        with pytest.raises(ValueError, match="benchmark trajectory"):
            record_bench("sweep", {"speedup": 9.0})
        assert trajectory.read_bytes() == before

    def test_interrupted_write_keeps_the_previous_bytes(self, trajectory,
                                                        monkeypatch):
        record_bench("sweep", {"speedup": 9.0})
        before = trajectory.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", _crash)
            with pytest.raises(OSError, match="simulated crash"):
                record_bench("sweep", {"speedup": 10.0})
        assert trajectory.read_bytes() == before
        assert list(trajectory.parent.iterdir()) == [trajectory]

    def test_payload_cannot_overwrite_the_stamps(self, trajectory):
        record_bench("sweep", {"code_version": "forged", "speedup": 9.0})
        (run,) = json.loads(trajectory.read_text())["runs"]
        assert run["code_version"] == code_version()

    def test_identical_samples_append_as_distinct_rows(self, trajectory):
        record_bench("sweep", {"speedup": 9.0})
        record_bench("sweep", {"speedup": 9.0})
        runs = json.loads(trajectory.read_text())["runs"]
        assert [(run["benchmark"], run["speedup"]) for run in runs] == \
            [("sweep", 9.0), ("sweep", 9.0)]

    def test_env_names_the_file_else_the_repo_file(self, trajectory,
                                                    monkeypatch):
        assert default_trajectory_path() == trajectory
        monkeypatch.delenv("BENCH_SWEEP_JSON")
        committed = default_trajectory_path()
        assert committed.name == "BENCH_sweep.json"
        assert (committed.parent / "src" / "repro" / "catalog"
                / "bench.py").is_file()

    def test_append_to_the_committed_file_only_adds_lines(self, trajectory,
                                                          monkeypatch):
        """The tracked file is written in the format ``record_bench``
        writes, so appending a sample leaves every committed line as it
        was: the history's diff is the new row alone."""
        with monkeypatch.context() as patch:
            patch.delenv("BENCH_SWEEP_JSON")
            committed = default_trajectory_path().read_text()
        trajectory.write_text(committed)
        record_bench("sweep", {"speedup": 9.0})
        text = trajectory.read_text()
        head, closing = committed.rsplit("\n  ]\n}", 1)
        assert closing == "\n"
        assert text.startswith(head + ",\n")
        assert text.endswith("\n  ]\n}\n")
        runs = json.loads(text)["runs"]
        assert runs[:-1] == json.loads(committed)["runs"]
        assert runs[-1]["benchmark"] == "sweep"

    def test_host_stamp_has_the_committed_keys(self, trajectory,
                                                monkeypatch):
        with monkeypatch.context() as patch:
            patch.delenv("BENCH_SWEEP_JSON")
            history = json.loads(default_trajectory_path().read_text())
        stamped = {frozenset(run["host"]) for run in history["runs"]
                   if "host" in run}
        record_bench("sweep", {"speedup": 9.0})
        (run,) = json.loads(trajectory.read_text())["runs"]
        assert stamped == {frozenset(run["host"])}
        assert set(run["host"]) == {"python", "numpy", "platform",
                                    "machine", "cpus", "affinity_cpus"}
        assert 1 <= run["host"]["affinity_cpus"] <= run["host"]["cpus"]

    def test_affinity_falls_back_to_cpus(self, trajectory, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        record_bench("sweep", {"speedup": 9.0})
        (run,) = json.loads(trajectory.read_text())["runs"]
        assert run["host"]["affinity_cpus"] == run["host"]["cpus"] \
            == os.cpu_count()

    def test_created_at_is_utc_to_the_second(self, trajectory):
        record_bench("sweep", {"speedup": 9.0})
        (run,) = json.loads(trajectory.read_text())["runs"]
        stamp = datetime.fromisoformat(run["created_at"])
        assert stamp.utcoffset() == timedelta(0)
        assert stamp.microsecond == 0
        assert abs(datetime.now(timezone.utc) - stamp) < timedelta(
            minutes=5)
