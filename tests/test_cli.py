"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestTable1Command:
    def test_exit_zero_on_agreement(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "70/70" in out


class TestFigureCommand:
    def test_figure_a(self, capsys):
        assert main(["figure", "A"]) == 0
        out = capsys.readouterr().out
        assert "Smart Power Unit" in out
        assert "power-unit-mcu" in out

    def test_figure_b(self, capsys):
        assert main(["figure", "B"]) == 0
        assert "Plug-and-Play" in capsys.readouterr().out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "Z"])


class TestSimulateCommand:
    def test_simulate_a_outdoor(self, capsys):
        assert main(["simulate", "A", "--days", "0.5", "--dt", "300"]) == 0
        out = capsys.readouterr().out
        assert "uptime" in out
        assert "harvested" in out

    def test_simulate_b_indoor(self, capsys):
        assert main(["simulate", "B", "--env", "indoor", "--days", "0.5",
                     "--dt", "300"]) == 0
        assert "Plug-and-Play" in capsys.readouterr().out

    def test_reports_execution_path_and_fast_flag(self, capsys):
        assert main(["simulate", "A", "--days", "0.5", "--dt", "300"]) == 0
        assert "execution path        kernel" in capsys.readouterr().out
        assert main(["simulate", "A", "--days", "0.5", "--dt", "300",
                     "--fast", "off"]) == 0
        legacy_out = capsys.readouterr().out
        assert "execution path        legacy" in legacy_out
        assert main(["simulate", "A", "--days", "0.5", "--dt", "300",
                     "--fast", "auto"]) == 0
        kernel_out = capsys.readouterr().out
        assert "execution path        kernel" in kernel_out
        # Same numbers either way: the paths are bit-for-bit equivalent.
        strip = lambda s: [line for line in s.splitlines()  # noqa: E731
                           if "execution path" not in line]
        assert strip(kernel_out) == strip(legacy_out)

    @pytest.mark.parametrize("value", ["on", "codegen"])
    def test_fast_flag_keeps_only_auto_and_off(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "C", "--days", "0.2", "--dt", "600",
                  "--fast", value])
        assert "invalid choice" in capsys.readouterr().err

    def test_engine_reports_only_the_path_it_chose(self, tmp_path, capsys):
        """System C holds two stores, so the engine runs the scalar
        kernel; the simulate summary and run --json report that path and
        no codegen fallback."""
        assert main(["simulate", "C", "--days", "0.2", "--dt", "600"]) == 0
        out = capsys.readouterr().out
        assert "execution path        kernel" in out
        assert "codegen fallback" not in out
        main(["spec", "C", "--env", "outdoor", "--days", "0.2",
              "--dt", "600"])
        path = tmp_path / "run.json"
        path.write_text(capsys.readouterr().out)
        assert main(["run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution_path"] == "kernel"
        assert "codegen_fallback" not in payload

    def test_seed_changes_output(self, capsys):
        main(["simulate", "A", "--days", "0.5", "--dt", "300",
              "--seed", "1"])
        first = capsys.readouterr().out
        main(["simulate", "A", "--days", "0.5", "--dt", "300",
              "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_determinism(self, capsys):
        main(["simulate", "C", "--days", "0.5", "--dt", "300",
              "--seed", "9"])
        first = capsys.readouterr().out
        main(["simulate", "C", "--days", "0.5", "--dt", "300",
              "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestSpecCommand:
    def test_system_spec_json(self, capsys):
        assert main(["spec", "C"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "system"
        assert payload["system"] == "ambimax"

    def test_run_spec_json(self, capsys):
        assert main(["spec", "A", "--env", "outdoor", "--days", "0.5",
                     "--dt", "600", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "run"
        assert payload["system"]["system"] == "smart_power_unit"
        assert payload["environment"]["environment"] == "outdoor"
        assert payload["environment"]["seed"] == 3

    def test_registry_listing(self, capsys):
        assert main(["spec", "--registry"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert "photovoltaic" in catalog["harvester"]
        assert "ambimax" in catalog["system"]

    def test_no_arguments_is_an_error(self, capsys):
        assert main(["spec"]) == 2

    def test_run_flags_without_env_rejected(self, capsys):
        """Regression: --days/--dt/--seed used to be silently ignored
        without --env; now they demand one."""
        assert main(["spec", "C", "--days", "5"]) == 2
        assert "--env" in capsys.readouterr().err


class TestRunCommand:
    def _write_run_spec(self, tmp_path, capsys):
        main(["spec", "B", "--env", "indoor", "--days", "0.3",
              "--dt", "600"])
        path = tmp_path / "run.json"
        path.write_text(capsys.readouterr().out)
        return path

    def test_run_config_matches_simulate(self, tmp_path, capsys):
        path = self._write_run_spec(tmp_path, capsys)
        assert main(["run", str(path)]) == 0
        run_out = capsys.readouterr().out
        assert "uptime" in run_out
        assert main(["simulate", "B", "--env", "indoor", "--days", "0.3",
                     "--dt", "600"]) == 0
        sim_out = capsys.readouterr().out
        # Identical numbers: the config file is the simulate command.
        assert run_out.splitlines()[1:] == sim_out.splitlines()[1:]

    def test_run_json_output(self, tmp_path, capsys):
        path = self._write_run_spec(tmp_path, capsys)
        assert main(["run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["metrics"]["uptime_fraction"] <= 1.0

    def test_run_sweep_config(self, tmp_path, capsys):
        from repro.spec import EnvironmentSpec, SweepSpec, spec_for
        spec = SweepSpec.grid(
            [spec_for(x) for x in "AC"],
            [EnvironmentSpec("outdoor", duration=0.3 * 86_400.0, dt=600.0,
                             seed=0)])
        path = tmp_path / "sweep.json"
        spec.save(path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "smart_power_unit@outdoor" in out
        assert "ambimax@outdoor" in out

    def test_run_missing_config_is_clean_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot load spec file" in capsys.readouterr().err

    def test_run_malformed_config_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "cannot load spec file" in capsys.readouterr().err

    def test_run_unknown_component_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({
            "kind": "run",
            "system": {"kind": "system", "system": "ambimaxx"},
            "environment": {"kind": "environment",
                            "environment": "outdoor"}}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot execute" in err
        assert "ambimaxx" in err

    def test_run_null_params_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "nullparams.json"
        path.write_text(json.dumps({
            "kind": "run",
            "system": {"kind": "system", "system": "ambimax",
                       "params": None},
            "environment": {"kind": "environment",
                            "environment": "outdoor"}}))
        assert main(["run", str(path)]) == 2
        assert "params must be a dict" in capsys.readouterr().err

    def test_run_config_missing_field_names_it(self, tmp_path, capsys):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"kind": "run", "environment": {
            "kind": "environment", "environment": "outdoor"}}))
        assert main(["run", str(path)]) == 2
        assert "missing required field 'system'" in capsys.readouterr().err

    def test_run_config_with_string_nested_spec_is_clean_error(
            self, tmp_path, capsys):
        """Regression: a string where a nested spec dict belongs used to
        escape as a raw AttributeError traceback."""
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "kind": "run", "system": "ambimax",
            "environment": {"kind": "environment",
                            "environment": "outdoor"}}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot load spec file" in err
        assert "must be a dict" in err

    def test_run_rejects_non_executable_spec(self, tmp_path, capsys):
        from repro.spec import spec_for
        path = tmp_path / "system.json"
        spec_for("A").save(path)
        assert main(["run", str(path)]) == 2


class TestSweepSpecOption:
    def test_sweep_from_spec_file(self, tmp_path, capsys):
        from repro.spec import EnvironmentSpec, SweepSpec, spec_for
        spec = SweepSpec.grid(
            [spec_for("D")],
            [EnvironmentSpec("agricultural", duration=0.3 * 86_400.0,
                             dt=600.0, seed=1)], name="farm")
        path = tmp_path / "sweep.json"
        spec.save(path)
        assert main(["sweep", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "farm" in out
        assert "mpwinode@agricultural" in out

    def test_sweep_spec_rejects_run_config(self, tmp_path, capsys):
        from repro.spec import EnvironmentSpec, RunSpec, spec_for
        path = tmp_path / "run.json"
        RunSpec(system=spec_for("A"),
                environment=EnvironmentSpec("outdoor")).save(path)
        assert main(["sweep", "--spec", str(path)]) == 2


class TestMonteCarloCommand:
    def test_mc_runs_batched(self, capsys):
        assert main(["mc", "C", "--days", "0.1", "--dt", "600",
                     "--replicates", "4", "--tier", "batched"]) == 0
        out = capsys.readouterr().out
        assert "4 replicates" in out
        assert "batched x4" in out
        assert "p95" in out

    def test_mc_json_payload(self, capsys):
        assert main(["mc", "C", "--days", "0.1", "--dt", "600",
                     "--replicates", "3", "--seed", "9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replicates"] == 3
        assert payload["root_seed"] == 9
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["replicate"] == 0
        assert 0.0 <= \
            payload["summaries"]["uptime_fraction"]["mean"] <= 1.0

    def test_mc_is_deterministic(self, capsys):
        argv = ["mc", "C", "--days", "0.1", "--dt", "600",
                "--replicates", "3", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_mc_spec_file(self, tmp_path, capsys):
        from repro.spec import EnvironmentSpec, MonteCarloSpec, RunSpec, spec_for
        spec = MonteCarloSpec(
            run=RunSpec(system=spec_for("C"),
                        environment=EnvironmentSpec(
                            "outdoor", duration=0.1 * 86_400.0, dt=600.0)),
            replicates=3, root_seed=2)
        path = tmp_path / "mc.json"
        spec.save(path)
        assert main(["mc", "--spec", str(path)]) == 0
        assert "3 replicates" in capsys.readouterr().out
        # The generic `run` command executes the same config.
        assert main(["run", str(path)]) == 0
        assert "3 replicates" in capsys.readouterr().out

    def test_mc_requires_system_or_spec(self, capsys):
        assert main(["mc"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_mc_spec_honors_replicate_and_seed_overrides(self, tmp_path,
                                                         capsys):
        from repro.spec import EnvironmentSpec, MonteCarloSpec, RunSpec, spec_for
        spec = MonteCarloSpec(
            run=RunSpec(system=spec_for("C"),
                        environment=EnvironmentSpec(
                            "outdoor", duration=0.1 * 86_400.0, dt=600.0)),
            replicates=32, root_seed=0)
        path = tmp_path / "mc.json"
        spec.save(path)
        assert main(["mc", "--spec", str(path), "--replicates", "2",
                     "--seed", "13"]) == 0
        out = capsys.readouterr().out
        assert "2 replicates" in out
        assert "root seed 13" in out

    def test_mc_spec_rejects_flag_mode_overrides(self, tmp_path, capsys):
        from repro.spec import EnvironmentSpec, MonteCarloSpec, RunSpec, spec_for
        spec = MonteCarloSpec(
            run=RunSpec(system=spec_for("C"),
                        environment=EnvironmentSpec(
                            "outdoor", duration=0.1 * 86_400.0, dt=600.0)),
            replicates=2)
        path = tmp_path / "mc.json"
        spec.save(path)
        assert main(["mc", "--spec", str(path), "--days", "5"]) == 2
        assert "flag mode" in capsys.readouterr().err

    def test_mc_spec_rejects_run_config(self, tmp_path, capsys):
        from repro.spec import EnvironmentSpec, RunSpec, spec_for
        path = tmp_path / "run.json"
        RunSpec(system=spec_for("C"),
                environment=EnvironmentSpec("outdoor")).save(path)
        assert main(["mc", "--spec", str(path)]) == 2
        assert "MonteCarloSpec" in capsys.readouterr().err

    def test_mc_invalid_replicates_is_clean_error(self, capsys):
        assert main(["mc", "C", "--replicates", "0"]) == 2
        assert "replicates" in capsys.readouterr().err

    def test_mc_table1_platforms_ride_the_batched_tier(self, capsys):
        """System A (trackers, backup, bus/MCU) now pins tier=batched
        cleanly — the masked-lane envelope covers it."""
        assert main(["mc", "A", "--days", "0.05", "--dt", "600",
                     "--replicates", "2", "--tier", "batched"]) == 0
        assert "batched x2" in capsys.readouterr().out

    def test_mc_ineligible_tier_fails_with_capability_report(self, capsys):
        """A refused batched pin explains itself with the capability
        report (here: fast=off denies compiled execution), not a
        generic tier error."""
        assert main(["mc", "A", "--days", "0.1", "--dt", "600",
                     "--replicates", "2", "--tier", "batched",
                     "--fast", "off"]) == 2
        err = capsys.readouterr().err
        assert "cannot execute ensemble" in err
        assert "missing compiled execution" in err
        assert "fast=False forces the per-scenario legacy path" in err


class TestSweepReplicates:
    def test_expansion_and_identity_columns(self, capsys):
        assert main(["sweep", "--systems", "C", "--envs", "outdoor",
                     "--days", "0.1", "--dt", "600",
                     "--replicates", "3"]) == 0
        out = capsys.readouterr().out
        assert "x3 replicates (3 rows)" in out
        for i in range(3):
            assert f"C@outdoor#r{i}" in out

    def test_replicates_must_be_positive(self, capsys):
        assert main(["sweep", "--systems", "C", "--days", "0.1",
                     "--replicates", "0"]) == 2
        assert "--replicates" in capsys.readouterr().err


class TestSweepExplain:
    def test_explain_reports_clean_lockstep(self, capsys):
        assert main(["sweep", "--systems", "A", "B", "--days", "0.05",
                     "--dt", "600", "--batch", "on", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "compiled tiers: every scenario rode a compiled path" in out

    def test_explain_tables_capability_refusals(self, capsys):
        assert main(["sweep", "--systems", "A", "--days", "0.05",
                     "--dt", "600", "--fast", "off", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "missing capability" in out
        assert "compiled execution" in out
        assert "fast=False forces the per-scenario legacy path" in out

    @pytest.mark.parametrize("processes", ["1", "2"])
    def test_warm_catalog_explains_like_a_cold_run(self, tmp_path, capsys,
                                                   processes):
        """Rows restored from a catalog keep the batched tier's refusal,
        on the in-process and pool tiers alike: a warm ``--explain``
        table equals the cold one."""
        args = ["sweep", "--systems", "A", "--envs", "outdoor", "indoor",
                "--days", "0.1", "--dt", "300", "--seed", "3",
                "--fast", "off", "--explain", "--processes", processes,
                "--catalog", str(tmp_path / "store")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "2 hit(s), 0 miss(es)" in warm
        table = cold[cold.index("compiled tiers"):]
        assert "fast=False forces the per-scenario legacy path" in table
        assert warm[warm.index("compiled tiers"):] == table


class TestExperimentCommand:
    def test_e6_runs(self, capsys):
        assert main(["experiment", "e6"]) == 0
        assert "break-even" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])


class TestAuditCommand:
    def test_audit_runs(self, capsys):
        assert main(["audit", "A", "--days", "0.5", "--dt", "300"]) == 0
        out = capsys.readouterr().out
        assert "Energy audit" in out
        assert "end-to-end efficiency" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestAdviseCommand:
    def test_advise_runs(self, capsys):
        assert main(["advise", "--env", "indoor", "--days", "0.5",
                     "--dt", "600"]) == 0
        out = capsys.readouterr().out
        assert "recommendation" in out
        assert "Deployment advice" in out


class TestSpecHashFlag:
    def test_prints_the_content_address(self, capsys):
        assert main(["spec", "C", "--hash"]) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64
        int(digest, 16)  # hex SHA-256

    def test_hash_is_deterministic_and_spec_sensitive(self, capsys):
        main(["spec", "C", "--hash"])
        first = capsys.readouterr().out.strip()
        main(["spec", "C", "--hash"])
        assert capsys.readouterr().out.strip() == first
        main(["spec", "A", "--hash"])
        assert capsys.readouterr().out.strip() != first
        # Wrapping the system in a RunSpec changes the addressed document.
        main(["spec", "C", "--env", "outdoor", "--hash"])
        assert capsys.readouterr().out.strip() != first

    @pytest.mark.parametrize("letter", "ABCDEFG")
    def test_matches_the_library_spec_hash(self, letter, capsys):
        """The hash the CLI prints is byte-for-byte the library's
        canonical spec hash of the letter's SystemSpec."""
        from repro.spec import spec_for, spec_hash
        assert main(["spec", letter, "--hash"]) == 0
        assert capsys.readouterr().out.strip() == spec_hash(spec_for(letter))


class TestCatalogCLI:
    SWEEP = ["sweep", "--systems", "C", "--envs", "outdoor",
             "--days", "0.05", "--dt", "300", "--seed", "3"]

    def _seed_store(self, store, capsys):
        assert main(self.SWEEP + ["--catalog", store]) == 0
        return capsys.readouterr().out

    def test_sweep_dedup_cycle_reports_hits(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        first = self._seed_store(store, capsys)
        assert "catalog: 0 hit(s), 1 miss(es), 1 archived" in first
        assert main(self.SWEEP + ["--catalog", store]) == 0
        second = capsys.readouterr().out
        assert "catalog: 1 hit(s), 0 miss(es), 0 archived" in second
        # The cached rows render identically — only the summary differs.
        strip = lambda s: [line for line in s.splitlines()  # noqa: E731
                           if not line.startswith("catalog:")]
        assert strip(first) == strip(second)

    def test_mc_catalog_json_carries_the_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["mc", "C", "--days", "0.05", "--dt", "300",
                "--replicates", "2", "--seed", "11", "--json",
                "--catalog", store]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["catalog"]["misses"] == 2
        assert payload["catalog"]["archived"] == 2
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["catalog"]["hits"] == 2
        assert payload["catalog"]["misses"] == 0

    def test_ls_renders_runs_with_hit_counts(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._seed_store(store, capsys)
        main(self.SWEEP + ["--catalog", store])
        capsys.readouterr()
        assert main(["catalog", "ls", store]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "ambimax" in out
        assert "outdoor" in out

    def test_ls_empty_store(self, tmp_path, capsys):
        store = str(tmp_path / "empty")
        assert main(["catalog", "ls", store]) == 0
        assert "no run records" in capsys.readouterr().out

    def test_show_resolves_a_prefix(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._seed_store(store, capsys)
        main(["catalog", "ls", store])
        capsys.readouterr()
        from repro.catalog import Catalog
        record = next(iter(Catalog(store).manifest))
        assert main(["catalog", "show", store, record.run_id[:8]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["record"]["run_id"] == record.run_id
        assert payload["spec_document"]["kind"] == "scenario-key"
        assert main(["catalog", "show", store, "zzz-no-such"]) == 2

    def test_show_survives_a_torn_spec_document(self, tmp_path, capsys):
        """A spec document torn by a crash (stores written before
        whole-file writes were atomic) leaves ``show`` printing the
        record without it."""
        store = str(tmp_path / "store")
        self._seed_store(store, capsys)
        from repro.catalog import Catalog
        record = next(iter(Catalog(store).manifest))
        (document,) = (tmp_path / "store" / "specs").glob("*/*.json")
        document.write_text(document.read_text()[:40])
        assert main(["catalog", "show", store, record.run_id]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["record"]["run_id"] == record.run_id
        assert "spec_document" not in payload

    def test_query_filters_and_json(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._seed_store(store, capsys)
        assert main(["catalog", "query", store, "--system", "ambimax",
                     "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["environment"] == "outdoor"
        assert main(["catalog", "query", store, "--system", "ehlink"]) == 0
        assert "no matching records" in capsys.readouterr().out
        assert main(["catalog", "query", store, "--metric-band",
                     "uptime_fraction", "-", "1.0", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1
        assert main(["catalog", "query", store, "--metric-band",
                     "uptime_fraction", "bogus", "1.0"]) == 2

    def test_gc_stale_prunes_superseded_runs(self, tmp_path, capsys,
                                             monkeypatch):
        store = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-old")
        self._seed_store(store, capsys)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-new")
        assert main(["catalog", "gc", store, "--stale", "--dry-run"]) == 0
        assert "would remove 1 record(s)" in capsys.readouterr().out
        assert main(["catalog", "gc", store, "--stale"]) == 0
        assert "removed 1 record(s)" in capsys.readouterr().out
        assert main(["catalog", "ls", store]) == 0
        assert "no run records" in capsys.readouterr().out

    def test_unreadable_catalog_is_a_clean_error(self, tmp_path, capsys):
        root = tmp_path / "broken"
        root.mkdir()
        (root / "catalog.json").write_text('{"layout": 99}\n')
        assert main(["catalog", "ls", str(root)]) == 2
        assert "cannot open catalog" in capsys.readouterr().err
