"""The perfbench workloads.

Each workload turns a seed into inputs, executes them through the public
``repro`` API (the timed part), turns the results into plain JSON rows for
the output check, and — where the API can select the oracle tier — has a
``reference`` method computing the same rows on that tier. ``repro`` is
imported only inside the functions, so the harness can read the workload
table without paying for it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from pathlib import Path

__all__ = ["WORKLOADS", "MODULES", "import_repro"]

DAY = 86_400.0

#: Every module the workloads call into or the tracer patches. Importing
#: them is part of set-up, so lazy first-call imports never land in a
#: timed run, and traced and untraced runs time the same work.
MODULES = (
    "repro",
    "repro.spec",
    "repro.spec.build",
    "repro.analysis.experiments.common",
    "repro.analysis.experiments.lifetime_study",
    "repro.analysis.experiments.mppt_study",
    "repro.catalog",
    "repro.catalog.hashing",
    "repro.catalog.store",
    "repro.conditioning.mppt",
    "repro.environment.compiled",
    "repro.environment.composite",
    "repro.harvesters.base",
    "repro.harvesters.photovoltaic",
    "repro.simulation.batched_sweep",
    "repro.simulation.engine",
    "repro.simulation.kernel.batched",
    "repro.simulation.kernel.plan",
    "repro.simulation.metrics",
    "repro.simulation.montecarlo",
    "repro.simulation.sweep",
)


def import_repro() -> None:
    for name in MODULES:
        importlib.import_module(name)


def _simulation_row(name: str, result) -> dict:
    """One simulation as a row: metrics, a digest of every recorded
    column, and the engine path that ran it."""
    recorder = result.recorder
    digest = hashlib.sha256()
    from repro.simulation.recorder import SCALAR_COLUMNS
    arrays = [recorder.column(column) for column in SCALAR_COLUMNS]
    arrays.append(recorder.state_codes())
    arrays += [recorder.store_energy_trace(k).values
               for k in range(recorder.n_stores)]
    arrays += [recorder.channel_delivered_trace(k).values
               for k in range(recorder.n_channels)]
    for array in arrays:
        digest.update(array.tobytes())
    return {"name": name,
            "metrics": dataclasses.asdict(result.metrics),
            "columns_sha256": digest.hexdigest(),
            "execution_path": result.execution_path}


class SingleRuns:
    name = "single_runs"
    letters = "ABCDEFG"
    days = 1.0
    expected_rows = len(letters) + 5  # plus five lifetime chemistries

    def inputs(self, seed: int):
        from repro.spec import EnvironmentSpec, RunSpec, spec_for
        environment = EnvironmentSpec("outdoor", duration=self.days * DAY,
                                      dt=300.0, seed=seed)
        runs = tuple(RunSpec(system=spec_for(letter), environment=environment,
                             dt=30.0, name=f"table1-{letter}")
                     for letter in self.letters)
        return runs, {"days": self.days, "dt": 300.0, "seed": seed}

    def execute(self, inputs, scratch: Path):
        from repro.analysis.experiments.lifetime_study import \
            run_lifetime_study
        from repro.spec import run
        runs, lifetime = inputs
        results = [run(spec) for spec in runs]
        return runs, results, run_lifetime_study(**lifetime)

    def rows(self, raw, scratch: Path) -> list:
        runs, results, lifetime = raw
        rows = [_simulation_row(spec.name, result)
                for spec, result in zip(runs, results)]
        rows += [{"name": f"lifetime:{entry.chemistry}",
                  **dataclasses.asdict(entry)}
                 for entry in lifetime.lifetimes]
        return rows

    def counters(self, raw, scratch: Path) -> dict:
        return {}

    def reference(self, inputs, scratch: Path) -> list:
        """A-G on the legacy per-step oracle (``fast=False``)."""
        from repro.spec import run
        runs, _ = inputs
        return [_simulation_row(spec.name, run(spec, fast=False))
                for spec in runs]


class MpptE5:
    name = "mppt_e5"
    days = 0.5
    dt = 300.0
    expected_rows = 15  # 3 deployments x 5 trackers

    def inputs(self, seed: int):
        return {"days": self.days, "dt": self.dt, "seed": seed,
                "processes": 1}

    def execute(self, inputs, scratch: Path):
        from repro.analysis.experiments.mppt_study import run_mppt_study
        return run_mppt_study(**inputs)

    def rows(self, raw, scratch: Path) -> list:
        return [{"name": f"{r.deployment}:{r.tracker}",
                 **dataclasses.asdict(r)} for r in raw.results]

    def counters(self, raw, scratch: Path) -> dict:
        return {}

    # No reference: run_mppt_study exposes no engine-tier choice.


class EnsembleCatalog:
    name = "ensemble_catalog"
    replicates = 256
    #: Replicates re-run on the oracle tier; seeds are prefix-stable, so
    #: replicate i is the same scenario in both ensembles.
    reference_prefix = 16
    expected_rows = 2 * replicates  # cold pass + warm pass

    def inputs(self, seed: int):
        from repro.spec import EnvironmentSpec, MonteCarloSpec, RunSpec, \
            spec_for
        run = RunSpec(system=spec_for("C"),
                      environment=EnvironmentSpec("outdoor", duration=DAY,
                                                  dt=300.0),
                      dt=300.0, name="mc-C")
        return MonteCarloSpec(run=run, replicates=self.replicates,
                              root_seed=seed)

    def execute(self, spec, scratch: Path):
        from repro.catalog import Catalog
        from repro.simulation.montecarlo import run_ensemble
        store = scratch / "catalog"
        cold = run_ensemble(spec, tier="auto", processes=1,
                            catalog=Catalog(store))
        warm = run_ensemble(spec, tier="auto", processes=1,
                            catalog=Catalog(store))
        return cold, warm

    def rows(self, raw, scratch: Path) -> list:
        cold, warm = raw
        n = self.replicates
        got = (cold.catalog_report.misses, cold.catalog_report.archived,
               warm.catalog_report.hits)
        if got != (n, n, n):
            raise RuntimeError(f"catalog did not archive and restore every "
                               f"replicate: (misses, archived, hits) = {got}")
        return cold.rows() + warm.rows()

    def counters(self, raw, scratch: Path) -> dict:
        cold, warm = raw
        store = scratch / "catalog"
        # stats.json holds the warm pass's hit counters; the rest is what
        # the cold pass wrote.
        size = sum(path.stat().st_size for path in store.rglob("*")
                   if path.is_file() and path.name != "stats.json")
        return {"catalog.hits": cold.catalog_report.hits +
                warm.catalog_report.hits,
                "catalog.misses": cold.catalog_report.misses +
                warm.catalog_report.misses,
                "catalog.store_bytes": size}

    def reference(self, spec, scratch: Path) -> list:
        """A replicate prefix on the in-process legacy oracle."""
        from repro.simulation.montecarlo import run_ensemble
        return run_ensemble(spec, replicates=self.reference_prefix,
                            tier="in-process", fast=False).rows()


WORKLOADS = {w.name: w for w in (SingleRuns(), MpptE5(), EnsembleCatalog())}
