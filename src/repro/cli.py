"""Command-line interface for the reproduction.

Subcommands:

* ``table1``      — regenerate Table I and diff it against the paper.
* ``figure A|B``  — print the architecture rendition of Fig. 1 / Fig. 2.
* ``simulate X``  — run one of the seven systems on a chosen environment.
* ``run``         — execute a RunSpec / SweepSpec / MonteCarloSpec JSON
  config file.
* ``sweep``       — fan systems x environments across worker processes,
  from grid flags or a ``--spec`` file (``--replicates N`` expands every
  run into N seed-replicated variants).
* ``mc``          — Monte Carlo ensemble of one system x environment:
  N seed replicates ride the lockstep batched tier and aggregate into a
  quantile summary (mean/std/p5/p50/p95 + CI per metric).
* ``fleet``       — multi-node co-simulation on one ambient field:
  ``fleet run`` executes one fleet (same-hardware nodes become lockstep
  batched lanes, radio links become quasi-static listen power) and
  ``fleet mc`` repeats it under N ambient realizations.
* ``spec``        — emit canonical spec JSON (``--hash`` for its
  content address, ``--registry`` to list every registered component).
* ``catalog``     — inspect / maintain a content-addressed result store
  (``ls``, ``show``, ``query``, ``gc``, ``bench``).
* ``experiment``  — run a claim-validation experiment (e3..e11).
* ``advise``      — rank all seven platforms for a deployment.
* ``audit X``     — run a system and print the energy waterfall.

``run``/``sweep``/``mc`` accept ``--catalog PATH``: scenarios already
archived in the store return their rows without simulating (dedup on
content-addressed spec hash + seed + code version), fresh scenarios
archive as they complete (so an interrupted sweep resumes with only the
missing remainder), and the summary reports the hit/miss counts.

Every simulating subcommand goes through the declarative spec layer
(:mod:`repro.spec`): ``simulate A --env outdoor`` is sugar for building
and running a :class:`~repro.spec.RunSpec`, and the exact spec any
invocation executes can be exported with ``spec`` and replayed with
``run`` — the config-file path to the same numbers.

``simulate``/``run``/``sweep`` accept ``--fast {auto,codegen,on,off}``
to pin the engine path: ``on`` requires the compiled kernel, ``off``
forces the legacy per-step loop, ``codegen`` prefers the fused
compiled tier (one flat step function for the single-supercapacitor /
P&O shape — see ``docs/codegen.md``; other systems run the kernel),
and ``auto`` picks. All paths are bit-for-bit identical; output
summaries report which one actually ran and, under ``codegen``, why
the fused tier refused.

Examples::

    python -m repro table1
    python -m repro simulate A --env outdoor --days 7
    python -m repro spec C --env outdoor --days 3 > run.json
    python -m repro run run.json
    python -m repro sweep --systems A B C --envs outdoor indoor --days 3
    python -m repro sweep --systems A B F --batch on --explain --days 1
    python -m repro sweep --spec sweep.json --processes 4
    python -m repro sweep --systems C --replicates 16 --days 1
    python -m repro sweep --systems A B --catalog results-store
    python -m repro mc C --env outdoor --days 2 --replicates 64
    python -m repro mc --spec mc.json --tier batched
    python -m repro fleet run C --nodes 16 --topology ring --spread 0.2
    python -m repro fleet mc C --nodes 8 --replicates 16 --json
    python -m repro spec --registry
    python -m repro spec C --env outdoor --hash
    python -m repro catalog ls results-store
    python -m repro catalog query results-store --system smart_power_unit
    python -m repro catalog gc results-store --stale
    python -m repro experiment e5
    python -m repro audit B --env indoor --days 3
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .analysis import (advise, compare_with_paper, render_architecture,
                       render_table1)
from .analysis.audit import audit_run
from .analysis.export import dumps_json
from .simulation.batched_sweep import LOCKSTEP_MIN_LANES
from .spec import (
    EnvironmentSpec,
    FleetSpec,
    MonteCarloSpec,
    RunSpec,
    SweepSpec,
    build_environment,
    describe_registry,
    load_spec,
    run,
    run_fleet,
    run_montecarlo,
    run_sweep,
    spec_for,
)
from .systems import SYSTEM_NAMES

__all__ = ["main"]

DAY = 86_400.0

#: CLI environment alias -> registered environment name (see repro.spec).
ENVIRONMENTS = {
    "outdoor": "outdoor",
    "indoor": "indoor-industrial",
    "agricultural": "agricultural",
    "urban-rf": "urban-rf",
}

#: --fast flag value -> engine `fast` argument.
FAST_MODES = {"auto": "auto", "on": True, "off": False,
              "codegen": "codegen"}

EXPERIMENTS = {
    "e3": ("multisource gain", "run_multisource_gain", {}),
    "e4": ("buffer sizing", "run_buffer_sizing", {}),
    "e5": ("MPPT trade-off", "run_mppt_study", {}),
    "e6": ("quiescent study", "run_quiescent_study", {}),
    "e7": ("energy awareness", "run_awareness_study", {}),
    "e8": ("hot-swap", "run_swap_study", {}),
    "e9": ("smart harvester", "run_smart_harvester_study", {}),
    "e10": ("fuel-cell backup", "run_fuel_cell_study", {}),
    "e11": ("storage lifetime", "run_lifetime_study", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-source energy harvesting systems "
                    "(DATE 2013 survey reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="regenerate Table I and diff vs the paper")

    p_fig = sub.add_parser("figure", help="print an architecture figure")
    p_fig.add_argument("system", choices=sorted(SYSTEM_NAMES),
                       help="system letter (A = Fig. 1, B = Fig. 2)")

    def add_fast_flag(subparser):
        subparser.add_argument(
            "--fast", choices=sorted(FAST_MODES), default=None,
            help="engine path: 'on' requires the compiled kernel, 'off' "
                 "forces the legacy per-step loop, 'codegen' prefers the "
                 "fused compiled tier (single-supercapacitor P&O "
                 "platforms; others run the kernel and the summary says "
                 "why), 'auto' picks. When the flag is omitted, the "
                 "spec's own setting applies ('auto' unless a config "
                 "file says otherwise); "
                 "the path actually taken is reported in the summary")

    def add_catalog_flag(subparser):
        subparser.add_argument(
            "--catalog", metavar="PATH", default=None,
            help="content-addressed result store: archived scenarios "
                 "return their rows without simulating, fresh scenarios "
                 "archive as they complete (checkpoint/resume), and the "
                 "summary reports the hit/miss counts")

    p_sim = sub.add_parser("simulate", help="simulate a surveyed system")
    p_sim.add_argument("system", choices=sorted(SYSTEM_NAMES))
    p_sim.add_argument("--env", choices=sorted(ENVIRONMENTS),
                       default="outdoor")
    p_sim.add_argument("--days", type=float, default=7.0)
    p_sim.add_argument("--dt", type=float, default=120.0)
    p_sim.add_argument("--seed", type=int, default=0)
    add_fast_flag(p_sim)

    p_run = sub.add_parser(
        "run", help="execute a RunSpec/SweepSpec/MonteCarloSpec JSON "
                    "config file")
    p_run.add_argument("config", help="path to a spec JSON file "
                                      "(kind: 'run', 'sweep', or "
                                      "'montecarlo')")
    p_run.add_argument("--processes", type=int, default=None,
                       help="worker processes for sweep configs")
    p_run.add_argument("--json", action="store_true",
                       help="emit results as JSON instead of a table")
    add_fast_flag(p_run)
    add_catalog_flag(p_run)

    p_swp = sub.add_parser(
        "sweep", help="run a systems x environments grid via SweepRunner")
    p_swp.add_argument("--spec", metavar="FILE", default=None,
                       help="run the scenarios of a SweepSpec JSON file "
                            "instead of the grid flags")
    p_swp.add_argument("--systems", nargs="+", choices=sorted(SYSTEM_NAMES),
                       default=sorted(SYSTEM_NAMES),
                       help="system letters to include (default: all seven)")
    p_swp.add_argument("--envs", nargs="+", choices=sorted(ENVIRONMENTS),
                       default=["outdoor"],
                       help="deployment environments to include")
    p_swp.add_argument("--days", type=float, default=3.0)
    p_swp.add_argument("--dt", type=float, default=300.0)
    p_swp.add_argument("--seed", type=int, default=0)
    p_swp.add_argument("--processes", type=int, default=None,
                       help="worker processes (default: one per CPU, "
                            "capped at the scenario count)")
    p_swp.add_argument("--replicates", type=int, default=1,
                       help="expand every run into N seed-replicated "
                            "variants (replicate seed streams derived "
                            "from --seed; default 1 = no replication)")
    p_swp.add_argument("--batch", choices=("auto", "on", "off"),
                       default="auto",
                       help="lockstep batched tier: 'auto' uses it for "
                            "eligible scenario groups of at least "
                            f"{LOCKSTEP_MIN_LANES} lanes and runs "
                            "narrower groups per scenario "
                            "on the scalar kernel, 'on' requires it for "
                            "every scenario at any width, 'off' disables "
                            "it; rows report the tier in execution_path")
    p_swp.add_argument("--explain", action="store_true",
                       help="after the sweep, print each fallback row's "
                            "capability report (which component refused "
                            "the batched tier, which capability it "
                            "lacks, and the divergence batching it "
                            "would cause)")
    add_fast_flag(p_swp)
    add_catalog_flag(p_swp)

    p_mc = sub.add_parser(
        "mc", help="Monte Carlo ensemble of one system x environment")
    p_mc.add_argument("system", nargs="?", choices=sorted(SYSTEM_NAMES),
                      help="system letter (omit when using --spec)")
    p_mc.add_argument("--spec", metavar="FILE", default=None,
                      help="run a MonteCarloSpec JSON file instead of "
                           "the grid flags (--replicates/--seed still "
                           "override the file's values)")
    p_mc.add_argument("--env", choices=sorted(ENVIRONMENTS), default=None,
                      help="deployment environment (default outdoor; "
                           "flag mode only)")
    p_mc.add_argument("--days", type=float, default=None,
                      help="simulated days (default 2; flag mode only)")
    p_mc.add_argument("--dt", type=float, default=None,
                      help="simulation step, seconds (default 300; "
                           "flag mode only)")
    p_mc.add_argument("--seed", type=int, default=None,
                      help="root seed of the replicate seed stream "
                           "(default 0, or the spec file's root_seed)")
    p_mc.add_argument("--replicates", type=int, default=None,
                      help="ensemble size (default 32, or the spec "
                           "file's value)")
    p_mc.add_argument("--tier", choices=("auto", "batched",
                                         "multiprocessing", "in-process"),
                      default="auto",
                      help="execution tier: 'auto' picks (batched "
                           "for eligible ensembles of at least "
                           f"{LOCKSTEP_MIN_LANES} replicates -> "
                           "multiprocessing -> in-process), "
                           "the others pin one tier; all three produce "
                           "bitwise-identical replicate rows")
    p_mc.add_argument("--processes", type=int, default=None,
                      help="worker processes for the multiprocessing tier")
    p_mc.add_argument("--json", action="store_true",
                      help="emit the per-metric summaries and replicate "
                           "rows as JSON instead of a table")
    add_fast_flag(p_mc)
    add_catalog_flag(p_mc)

    p_flt = sub.add_parser(
        "fleet", help="multi-node fleet co-simulation on one ambient "
                      "field (batched lanes + radio listen coupling)")
    flt_sub = p_flt.add_subparsers(dest="fleet_command", required=True)

    def add_fleet_flags(subparser):
        subparser.add_argument(
            "system", nargs="?", choices=sorted(SYSTEM_NAMES),
            help="system letter of a same-hardware fleet (omit when "
                 "using --spec)")
        subparser.add_argument(
            "--spec", metavar="FILE", default=None,
            help="run a FleetSpec JSON file instead of the flags")
        subparser.add_argument("--env", choices=sorted(ENVIRONMENTS),
                               default=None,
                               help="shared ambient field (default "
                                    "outdoor; flag mode only)")
        subparser.add_argument("--nodes", type=int, default=None,
                               help="fleet size (default 8; flag mode "
                                    "only)")
        subparser.add_argument("--topology",
                               choices=("none", "ring", "star", "line"),
                               default=None,
                               help="radio link topology (default ring; "
                                    "links add quasi-static listen "
                                    "power to each receiver)")
        subparser.add_argument("--spread", type=float, default=None,
                               help="micro-siting diversity: node "
                                    "ambient scales span [1-s, 1+s] "
                                    "(default 0 = identical siting)")
        subparser.add_argument("--days", type=float, default=None,
                               help="simulated days (default 2; flag "
                                    "mode only)")
        subparser.add_argument("--dt", type=float, default=None,
                               help="simulation step, seconds (default "
                                    "300; flag mode only)")
        subparser.add_argument("--seed", type=int, default=None,
                               help="ambient seed ('run') / root seed "
                                    "of the replicate stream ('mc'); "
                                    "default 0")
        subparser.add_argument("--listen", type=float, default=None,
                               metavar="S",
                               help="receiver idle-listen window per "
                                    "frame, seconds (default 0.002; "
                                    "flag mode only)")
        subparser.add_argument("--tier",
                               choices=("auto", "batched",
                                        "multiprocessing", "in-process"),
                               default="auto",
                               help="execution tier for the per-node "
                                    "lanes; all three produce bitwise-"
                                    "identical rows")
        subparser.add_argument("--processes", type=int, default=None,
                               help="worker processes for the "
                                    "multiprocessing tier")
        subparser.add_argument("--json", action="store_true",
                               help="emit fleet metrics and per-node "
                                    "rows as JSON instead of a table")
        add_fast_flag(subparser)
        add_catalog_flag(subparser)

    f_run = flt_sub.add_parser(
        "run", help="one fleet on one ambient realization")
    add_fleet_flags(f_run)

    f_mc = flt_sub.add_parser(
        "mc", help="fleet under N ambient realizations (Monte Carlo)")
    add_fleet_flags(f_mc)
    f_mc.add_argument("--replicates", type=int, default=16,
                      help="number of ambient realizations (default 16)")

    p_spc = sub.add_parser(
        "spec", help="emit canonical spec JSON / inspect the registry")
    p_spc.add_argument("system", nargs="?", choices=sorted(SYSTEM_NAMES),
                       help="system letter whose canonical spec to emit")
    p_spc.add_argument("--env", choices=sorted(ENVIRONMENTS), default=None,
                       help="wrap the system spec in a full RunSpec "
                            "against this environment")
    p_spc.add_argument("--days", type=float, default=None,
                       help="RunSpec duration (requires --env; default 3)")
    p_spc.add_argument("--dt", type=float, default=None,
                       help="RunSpec step (requires --env; default 300)")
    p_spc.add_argument("--seed", type=int, default=None,
                       help="RunSpec seed (requires --env; default 0)")
    p_spc.add_argument("--registry", action="store_true",
                       help="list every registered component and its "
                            "parameters as JSON")
    p_spc.add_argument("--hash", action="store_true",
                       help="print the spec's content address (SHA-256 "
                            "of its canonical JSON) instead of the JSON "
                            "itself — the identity the catalog keys on")

    p_cat = sub.add_parser(
        "catalog", help="inspect / maintain a content-addressed "
                        "result store")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)

    c_ls = cat_sub.add_parser("ls", help="list archived runs")
    c_ls.add_argument("path", help="catalog directory")
    c_ls.add_argument("--kind", choices=("run", "bench"), default="run",
                      help="record kind to list (default: run)")

    c_show = cat_sub.add_parser(
        "show", help="show one archived run (record, spec document, "
                     "hit count)")
    c_show.add_argument("path", help="catalog directory")
    c_show.add_argument("run_id", help="run id, or a unique run-id / "
                                       "spec-hash prefix")

    c_q = cat_sub.add_parser("query", help="filter archived runs")
    c_q.add_argument("path", help="catalog directory")
    c_q.add_argument("--system", default=None,
                     help="registered system name (e.g. smart_power_unit)")
    c_q.add_argument("--environment", default=None,
                     help="registered environment name (e.g. outdoor)")
    c_q.add_argument("--name", default=None,
                     help="row-name prefix filter")
    c_q.add_argument("--seed", type=int, default=None,
                     help="exact effective seed")
    c_q.add_argument("--spec-hash", default=None, metavar="HEX",
                     help="spec-hash prefix filter")
    c_q.add_argument("--metric-band", nargs=3, default=None,
                     metavar=("METRIC", "LOW", "HIGH"),
                     help="keep runs whose archived METRIC lies in "
                          "[LOW, HIGH] ('-' leaves a bound open), e.g. "
                          "--metric-band uptime_fraction 0.9 -")
    c_q.add_argument("--seed-stream", nargs=3, type=int, default=None,
                     metavar=("ROOT_SEED", "STREAM", "N"),
                     help="keep runs whose seed belongs to the first N "
                          "replicate seeds of this root seed / stream "
                          "(finds an ensemble's replicate family)")
    c_q.add_argument("--json", action="store_true",
                     help="emit matching records as JSON")

    c_gc = cat_sub.add_parser(
        "gc", help="prune records and sweep unreferenced files")
    c_gc.add_argument("path", help="catalog directory")
    c_gc.add_argument("--stale", action="store_true",
                      help="drop runs archived under a different code "
                           "version (their keys can never hit again)")
    c_gc.add_argument("--keep-last", type=int, default=None, metavar="N",
                      help="keep only the newest N runs per "
                           "(spec hash, seed) family")
    c_gc.add_argument("--keep-days", type=float, default=None, metavar="D",
                      help="drop runs older than D days")
    c_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be removed without "
                           "touching the store")

    c_bench = cat_sub.add_parser(
        "bench", help="emit the benchmark trajectory JSON from the "
                      "store's bench records (the BENCH_sweep.json "
                      "document CI uploads)")
    c_bench.add_argument("path", help="catalog directory")
    c_bench.add_argument("-o", "--output", default=None, metavar="FILE",
                         help="write the trajectory document here "
                              "(default: stdout)")

    p_exp = sub.add_parser("experiment", help="run a claim experiment")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS),
                       help="experiment id (e3..e10)")

    p_adv = sub.add_parser("advise",
                           help="rank all platforms for a deployment")
    p_adv.add_argument("--env", choices=sorted(ENVIRONMENTS),
                       default="outdoor")
    p_adv.add_argument("--days", type=float, default=3.0)
    p_adv.add_argument("--dt", type=float, default=300.0)
    p_adv.add_argument("--seed", type=int, default=0)

    p_audit = sub.add_parser("audit", help="energy waterfall for a system")
    p_audit.add_argument("system", choices=sorted(SYSTEM_NAMES))
    p_audit.add_argument("--env", choices=sorted(ENVIRONMENTS),
                         default="outdoor")
    p_audit.add_argument("--days", type=float, default=3.0)
    p_audit.add_argument("--dt", type=float, default=120.0)
    p_audit.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_table1() -> int:
    print(render_table1())
    print()
    comparison = compare_with_paper()
    print(comparison.report())
    return 0 if comparison.agreement == 1.0 else 1


def _cmd_figure(letter: str) -> int:
    from .spec import build
    print(render_architecture(build(spec_for(letter))))
    return 0


def _cli_run_spec(letter: str, env_name: str, days: float, dt: float,
                  seed: int, name: str = "") -> RunSpec:
    """The RunSpec behind a simulate/audit/spec invocation."""
    return RunSpec(
        system=spec_for(letter),
        environment=EnvironmentSpec(ENVIRONMENTS[env_name],
                                    duration=days * DAY, dt=dt, seed=seed),
        name=name or f"{letter}@{env_name}",
        params={"system": letter, "environment": env_name},
    )


def _cli_fast(args):
    """Engine-path override from --fast (None = respect the spec)."""
    if getattr(args, "fast", None) is None:
        return None
    return FAST_MODES[args.fast]


def _open_catalog(args):
    """The Catalog behind --catalog / a catalog subcommand path.

    Returns ``(catalog, error_code)``: ``(None, None)`` when no catalog
    was requested, ``(None, 2)`` after printing the failure.
    """
    path = getattr(args, "catalog", None) or getattr(args, "path", None)
    if path is None:
        return None, None
    from .catalog import Catalog, CatalogError
    try:
        return Catalog(path), None
    except (CatalogError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: cannot open catalog {path}: {exc}", file=sys.stderr)
        return None, 2


def _print_catalog_report(report) -> None:
    if report is not None:
        print(report)


def _print_metrics(title: str, metrics, execution_path=None,
                   codegen_fallback=None) -> None:
    m = metrics
    print(title)
    if execution_path is not None:
        print(f"  execution path        {execution_path}")
    if codegen_fallback is not None:
        print(f"  codegen fallback      {codegen_fallback}")
    print(f"  uptime                {m.uptime_fraction * 100:.2f} %")
    print(f"  harvested (raw)       {m.harvested_raw_j:.1f} J")
    print(f"  harvested (to bus)    {m.harvested_delivered_j:.1f} J")
    print(f"  tracking efficiency   {m.tracking_efficiency * 100:.1f} %")
    print(f"  conversion efficiency {m.conversion_efficiency * 100:.1f} %")
    print(f"  quiescent losses      {m.quiescent_j:.2f} J")
    print(f"  node consumed         {m.node_consumed_j:.2f} J")
    print(f"  measurements/day      {m.measurements_per_day:.0f}")
    print(f"  backup used           {m.backup_used_j:.2f} J")
    print(f"  brownouts             {m.brownouts}")


def _cmd_simulate(args) -> int:
    spec = _cli_run_spec(args.system, args.env, args.days, args.dt,
                         args.seed)
    result = run(spec, fast=_cli_fast(args))
    _print_metrics(
        f"{SYSTEM_NAMES[args.system]} on {args.env}, "
        f"{args.days:g} days (seed {args.seed})", result.metrics,
        execution_path=result.execution_path,
        codegen_fallback=result.codegen_fallback)
    return 0


def _load_spec_file(path):
    """load_spec with CLI-friendly failure (message + exit code 2)."""
    try:
        return load_spec(path)
    except KeyError as exc:
        print(f"error: cannot load spec file {path}: missing required "
              f"field {exc.args[0]!r}", file=sys.stderr)
        return None
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: cannot load spec file {path}: {exc}",
              file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    spec = _load_spec_file(args.config)
    if spec is None:
        return 2
    catalog, code = _open_catalog(args)
    if code is not None:
        return code
    if isinstance(spec, RunSpec):
        try:
            if catalog is not None:
                # Route through the sweep machinery so the single run
                # hits the dedup cache / archives like any scenario.
                from .simulation.sweep import SweepRunner
                from .spec import to_scenario
                scenario = to_scenario(spec)
                fast = _cli_fast(args)
                if fast is not None:
                    scenario = dataclasses.replace(scenario, fast=fast)
                sweep = SweepRunner(processes=1, catalog=catalog).run(
                    [scenario])
                row = sweep[0]
                metrics, path = row.metrics, row.execution_path
                fallback = row.extras.get("codegen_fallback_reason")
                if isinstance(fallback, dict):  # restored from the store
                    from .simulation.kernel import CapabilityReport
                    fallback = CapabilityReport(**fallback)
                report = sweep.catalog_report
            else:
                result = run(spec, fast=_cli_fast(args))
                metrics, path = result.metrics, result.execution_path
                fallback = result.codegen_fallback
                report = None
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: cannot execute {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            payload = {"name": spec.label, "metrics": metrics,
                       "execution_path": path,
                       "codegen_fallback": None if fallback is None
                       else fallback.as_dict()}
            if report is not None:
                payload["catalog"] = report.to_dict()
            print(dumps_json(payload))
        else:
            _print_metrics(f"run: {spec.label}", metrics,
                           execution_path=path, codegen_fallback=fallback)
            _print_catalog_report(report)
        return 0
    if isinstance(spec, SweepSpec):
        try:
            sweep = run_sweep(spec, processes=args.processes,
                              fast=_cli_fast(args), catalog=catalog)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: cannot execute {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            print(dumps_json(sweep.rows()))
        else:
            print(sweep.report(
                columns=("uptime_fraction", "harvested_delivered_j",
                         "quiescent_j", "measurements", "brownouts",
                         "execution_path"),
                title=f"sweep: {spec.name} ({len(sweep)} scenarios)"))
            _print_catalog_report(sweep.catalog_report)
        return 0
    if isinstance(spec, MonteCarloSpec):
        try:
            ensemble = run_montecarlo(spec, processes=args.processes,
                                      fast=_cli_fast(args),
                                      catalog=catalog)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: cannot execute {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            payload = _ensemble_jsonable(ensemble)
            if ensemble.catalog_report is not None:
                payload["catalog"] = ensemble.catalog_report.to_dict()
            print(dumps_json(payload))
        else:
            print(ensemble.report())
            _print_catalog_report(ensemble.catalog_report)
        return 0
    if isinstance(spec, FleetSpec):
        try:
            result = run_fleet(spec, processes=args.processes,
                               fast=_cli_fast(args), catalog=catalog)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: cannot execute {args.config}: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            payload = _fleet_jsonable(result)
            if result.catalog_report is not None:
                payload["catalog"] = result.catalog_report.to_dict()
            print(dumps_json(payload))
        else:
            print(result.report())
            _print_catalog_report(result.catalog_report)
        return 0
    print(f"error: {args.config} holds a {type(spec).__name__}; "
          f"'run' executes RunSpec, SweepSpec, MonteCarloSpec, or "
          f"FleetSpec configs", file=sys.stderr)
    return 2


def _cmd_sweep(args) -> int:
    if args.spec is not None:
        spec = _load_spec_file(args.spec)
        if spec is None:
            return 2
        if not isinstance(spec, SweepSpec):
            print(f"error: --spec file must hold a SweepSpec, got "
                  f"{type(spec).__name__}", file=sys.stderr)
            return 2
        title = f"sweep: {spec.name} ({len(spec.runs)} scenarios)"
    else:
        spec = SweepSpec(
            runs=tuple(
                _cli_run_spec(letter, env_name, args.days, args.dt,
                              args.seed, name=f"{letter}@{env_name}")
                for letter in args.systems
                for env_name in args.envs
            ),
            name="cli-grid",
        )
        title = (f"sweep: {len(spec.runs)} scenarios, {args.days:g} days, "
                 f"seed {args.seed}")
    if args.replicates < 1:
        print("error: --replicates must be a positive integer",
              file=sys.stderr)
        return 2
    if args.replicates > 1:
        from .simulation.montecarlo import replicate_sweep
        spec = replicate_sweep(spec, args.replicates, root_seed=args.seed)
        title = (f"{title} x{args.replicates} replicates "
                 f"({len(spec.runs)} rows)")
    batch = {"auto": "auto", "on": True, "off": False}[args.batch]
    catalog, code = _open_catalog(args)
    if code is not None:
        return code
    try:
        sweep = run_sweep(spec, processes=args.processes,
                          fast=_cli_fast(args), batch=batch,
                          catalog=catalog)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: cannot execute sweep: {exc}", file=sys.stderr)
        return 2
    print(sweep.report(
        columns=("uptime_fraction", "harvested_delivered_j",
                 "quiescent_j", "measurements", "brownouts",
                 "execution_path"),
        title=title))
    _print_catalog_report(sweep.catalog_report)
    if args.explain:
        print()
        print(_explain_batch(sweep))
    return 0


def _explain_batch(sweep) -> str:
    """Capability-report table for rows that missed a compiled tier.

    Renders both kinds of refusal side by side: rows that fell out of
    the lockstep batched tier (``batch_fallback_reason``) and, under
    ``--fast codegen``, fallback lanes that missed the fused codegen
    tier (``codegen_fallback_reason``).
    """
    from .analysis.reporting import render_table
    body = []
    for result in sweep:
        for tier, key in (("batched", "batch_fallback_reason"),
                          ("codegen", "codegen_fallback_reason")):
            report = result.extras.get(key)
            if report is None:
                continue
            body.append((result.name, result.execution_path, tier,
                         getattr(report, "component", "?"),
                         getattr(report, "capability", "?"),
                         getattr(report, "divergence", None) or "-",
                         getattr(report, "detail", str(report))))
    if not body:
        return ("compiled tiers: every scenario rode a compiled path "
                "(no capability refusals)")
    return render_table(
        ("scenario", "path", "tier", "component", "missing capability",
         "divergence", "detail"),
        body,
        title=f"compiled tiers: {len(body)} capability refusal(s)")


def _ensemble_jsonable(ensemble) -> dict:
    """JSON payload of an ensemble: summaries + per-replicate rows."""
    return {
        "name": ensemble.name,
        "replicates": ensemble.replicates,
        "root_seed": ensemble.root_seed,
        "execution_paths": ensemble.execution_paths(),
        "summaries": ensemble.summaries(),
        "rows": ensemble.rows(),
    }


def _cmd_mc(args) -> int:
    if args.spec is not None:
        if args.system is not None or \
                any(v is not None for v in (args.env, args.days, args.dt)):
            print("error: --spec carries the run itself; a system letter "
                  "and --env/--days/--dt only apply in flag mode "
                  "(--replicates/--seed/--tier still override)",
                  file=sys.stderr)
            return 2
        spec = _load_spec_file(args.spec)
        if spec is None:
            return 2
        if not isinstance(spec, MonteCarloSpec):
            print(f"error: --spec file must hold a MonteCarloSpec, got "
                  f"{type(spec).__name__}", file=sys.stderr)
            return 2
        overrides = {}
        if args.replicates is not None:
            overrides["replicates"] = args.replicates
        if args.seed is not None:
            overrides["root_seed"] = args.seed
        if overrides:
            try:
                spec = dataclasses.replace(spec, **overrides)
            except (ValueError, TypeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    elif args.system is None:
        print("error: give a system letter, or --spec FILE",
              file=sys.stderr)
        return 2
    else:
        try:
            spec = MonteCarloSpec(
                run=_cli_run_spec(args.system,
                                  args.env if args.env is not None
                                  else "outdoor",
                                  args.days if args.days is not None
                                  else 2.0,
                                  args.dt if args.dt is not None else 300.0,
                                  seed=0),
                replicates=args.replicates if args.replicates is not None
                else 32,
                root_seed=args.seed if args.seed is not None else 0,
            )
        except (ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    catalog, code = _open_catalog(args)
    if code is not None:
        return code
    try:
        ensemble = run_montecarlo(spec, tier=args.tier,
                                  processes=args.processes,
                                  fast=_cli_fast(args), catalog=catalog)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: cannot execute ensemble: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = _ensemble_jsonable(ensemble)
        if ensemble.catalog_report is not None:
            payload["catalog"] = ensemble.catalog_report.to_dict()
        print(dumps_json(payload))
    else:
        print(ensemble.report())
        _print_catalog_report(ensemble.catalog_report)
    return 0


def _fleet_jsonable(result) -> dict:
    """JSON payload of one fleet run: aggregate + per-node rows."""
    return {
        "name": result.spec.label,
        "fleet_metrics": result.metrics,
        "execution_paths": result.execution_paths(),
        "rows": result.rows(),
    }


def _fleet_spec_from_args(args):
    """Resolve the fleet subcommands' flags into a FleetSpec (or None)."""
    flag_mode_values = (args.env, args.nodes, args.topology, args.spread,
                        args.days, args.dt, args.listen)
    if args.spec is not None:
        if args.system is not None or \
                any(v is not None for v in flag_mode_values):
            print("error: --spec carries the fleet itself; a system "
                  "letter and --env/--nodes/--topology/--spread/--days/"
                  "--dt/--listen only apply in flag mode",
                  file=sys.stderr)
            return None
        spec = _load_spec_file(args.spec)
        if spec is None:
            return None
        if not isinstance(spec, FleetSpec):
            print(f"error: --spec file must hold a FleetSpec, got "
                  f"{type(spec).__name__}", file=sys.stderr)
            return None
        return spec
    if args.system is None:
        print("error: give a system letter, or --spec FILE",
              file=sys.stderr)
        return None
    from .fleet import homogeneous_fleet
    env_name = args.env if args.env is not None else "outdoor"
    nodes = args.nodes if args.nodes is not None else 8
    days = args.days if args.days is not None else 2.0
    dt = args.dt if args.dt is not None else 300.0
    seed = args.seed if args.seed is not None else 0
    try:
        environment = EnvironmentSpec(ENVIRONMENTS[env_name],
                                      duration=days * DAY, dt=dt,
                                      seed=seed)
        return homogeneous_fleet(
            spec_for(args.system), environment, nodes,
            topology=args.topology if args.topology is not None
            else "ring",
            spread=args.spread if args.spread is not None else 0.0,
            seed=seed,
            listen_window_s=args.listen if args.listen is not None
            else 0.002,
            name=f"fleet-{args.system}x{nodes}",
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_fleet(args) -> int:
    spec = _fleet_spec_from_args(args)
    if spec is None:
        return 2
    catalog, code = _open_catalog(args)
    if code is not None:
        return code
    if args.fleet_command == "run":
        try:
            result = run_fleet(spec, tier=args.tier,
                               processes=args.processes,
                               fast=_cli_fast(args), catalog=catalog)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: cannot execute fleet: {exc}", file=sys.stderr)
            return 2
        if args.json:
            payload = _fleet_jsonable(result)
            if result.catalog_report is not None:
                payload["catalog"] = result.catalog_report.to_dict()
            print(dumps_json(payload))
        else:
            print(result.report())
            _print_catalog_report(result.catalog_report)
        return 0
    if args.fleet_command == "mc":
        from .fleet import run_fleet_ensemble
        try:
            ensemble = run_fleet_ensemble(
                spec, args.replicates,
                root_seed=args.seed if args.seed is not None else 0,
                tier=args.tier, processes=args.processes,
                fast=_cli_fast(args), catalog=catalog)
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: cannot execute fleet ensemble: {exc}",
                  file=sys.stderr)
            return 2
        if args.json:
            payload = {
                "name": ensemble.name,
                "replicates": ensemble.replicates,
                "root_seed": ensemble.root_seed,
                "execution_paths": ensemble.execution_paths(),
                "summaries": ensemble.summaries(),
                "rows": ensemble.rows(),
            }
            if ensemble.catalog_report is not None:
                payload["catalog"] = ensemble.catalog_report.to_dict()
            print(dumps_json(payload))
        else:
            print(ensemble.report())
            _print_catalog_report(ensemble.catalog_report)
        return 0
    raise AssertionError(
        f"unhandled fleet command {args.fleet_command!r}")


def _cmd_spec(args) -> int:
    if args.registry:
        print(json.dumps(describe_registry(), indent=2, sort_keys=True))
        return 0
    if args.system is None:
        print("error: give a system letter, or --registry",
              file=sys.stderr)
        return 2
    if args.env is None:
        if any(v is not None for v in (args.days, args.dt, args.seed)):
            print("error: --days/--dt/--seed only apply to a full RunSpec; "
                  "add --env to emit one", file=sys.stderr)
            return 2
        spec = spec_for(args.system)
    else:
        days = 3.0 if args.days is None else args.days
        dt = 300.0 if args.dt is None else args.dt
        seed = 0 if args.seed is None else args.seed
        spec = _cli_run_spec(args.system, args.env, days, dt, seed)
    if args.hash:
        from .spec import spec_hash
        print(spec_hash(spec))
    else:
        print(spec.to_json())
    return 0


def _cmd_catalog(args) -> int:
    from .analysis.reporting import render_table
    catalog, code = _open_catalog(args)
    if code is not None:
        return code
    if args.catalog_command == "ls":
        records = catalog.query(kind=args.kind)
        if not records:
            print(f"catalog {catalog.root}: no {args.kind} records")
            return 0
        if args.kind == "bench":
            body = [(r.run_id, r.name, r.code_version, r.created_at)
                    for r in records]
            print(render_table(("run id", "benchmark", "code", "created"),
                               body,
                               title=f"catalog {catalog.root}: "
                                     f"{len(records)} bench record(s)"))
            return 0
        hits = catalog.hit_counts()
        body = [(r.run_id, r.name, r.system, r.environment,
                 "-" if r.seed is None else str(r.seed),
                 r.execution_path, str(hits.get(r.run_id, 0)),
                 r.created_at)
                for r in records]
        print(render_table(
            ("run id", "name", "system", "environment", "seed", "path",
             "hits", "created"),
            body,
            title=f"catalog {catalog.root}: {len(records)} run(s)"))
        return 0
    if args.catalog_command == "show":
        record = catalog.manifest.by_run_id(args.run_id)
        if record is None:
            print(f"error: no unique record matches {args.run_id!r}",
                  file=sys.stderr)
            return 2
        payload = {"record": record.to_dict(),
                   "hits": catalog.hit_counts().get(record.run_id, 0)}
        if record.spec_hash:
            from .catalog import CatalogError
            try:
                payload["spec_document"] = \
                    catalog.spec_document(record.spec_hash)
            except CatalogError:
                pass
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.catalog_command == "query":
        metric_band = None
        if args.metric_band is not None:
            metric, low, high = args.metric_band
            try:
                metric_band = (metric,
                               None if low == "-" else float(low),
                               None if high == "-" else float(high))
            except ValueError:
                print("error: --metric-band bounds must be numbers "
                      "or '-'", file=sys.stderr)
                return 2
        seed_stream = tuple(args.seed_stream) \
            if args.seed_stream is not None else None
        records = catalog.query(
            system=args.system, environment=args.environment,
            name=args.name, seed=args.seed, spec_hash=args.spec_hash,
            metric_band=metric_band, seed_stream=seed_stream)
        if args.json:
            print(json.dumps([r.to_dict() for r in records], indent=2,
                             sort_keys=True))
            return 0
        if not records:
            print("no matching records")
            return 0
        body = [(r.run_id, r.name, r.system, r.environment,
                 "-" if r.seed is None else str(r.seed),
                 f"{r.metrics.get('uptime_fraction', float('nan')):.4g}",
                 f"{r.metrics.get('harvested_delivered_j', float('nan')):.4g}")
                for r in records]
        print(render_table(
            ("run id", "name", "system", "environment", "seed",
             "uptime", "delivered J"),
            body, title=f"{len(records)} matching run(s)"))
        return 0
    if args.catalog_command == "gc":
        report = catalog.gc(stale=args.stale, keep_last=args.keep_last,
                            keep_days=args.keep_days,
                            dry_run=args.dry_run)
        verb = "would remove" if report.dry_run else "removed"
        print(f"gc: {verb} {report.removed} record(s), "
              f"{len(report.removed_artifacts)} artifact(s), "
              f"{len(report.removed_specs)} spec document(s); "
              f"{report.kept_records} record(s) kept")
        for run_id in report.removed_records:
            print(f"  - {run_id}")
        return 0
    if args.catalog_command == "bench":
        from .catalog import (bench_trajectory, default_trajectory_path,
                              import_trajectory, write_trajectory)
        if args.output is not None:
            # Fold any committed legacy history into the store first, so
            # regenerating against a fresh clone's empty .bench-catalog
            # extends the trajectory instead of truncating it to [].
            legacy = default_trajectory_path()
            imported = import_trajectory(catalog, legacy)
            if imported:
                print(f"imported {imported} legacy sample(s) "
                      f"from {legacy}")
            try:
                document = write_trajectory(catalog, args.output,
                                            require_runs=True)
            except RuntimeError:
                print(f"error: benchmark trajectory is empty — "
                      f"{catalog.root} holds no bench records and "
                      f"{legacy} has no history to import",
                      file=sys.stderr)
                return 1
            print(f"wrote {len(document['runs'])} benchmark record(s) "
                  f"to {args.output}")
        else:
            print(json.dumps(bench_trajectory(catalog), indent=2))
        return 0
    raise AssertionError(
        f"unhandled catalog command {args.catalog_command!r}")


def _cmd_experiment(exp_id: str) -> int:
    from .analysis import experiments as exp_pkg
    label, fn_name, kwargs = EXPERIMENTS[exp_id]
    print(f"running {exp_id}: {label} ...")
    result = getattr(exp_pkg, fn_name)(**kwargs)
    print(result.report())
    return 0


def _cmd_audit(args) -> int:
    result = run(_cli_run_spec(args.system, args.env, args.days, args.dt,
                               args.seed))
    audit = audit_run(result.recorder)
    print(audit.report(
        title=f"Energy audit — {SYSTEM_NAMES[args.system]} on {args.env}, "
              f"{args.days:g} days"))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "figure":
        return _cmd_figure(args.system)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "mc":
        return _cmd_mc(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "spec":
        return _cmd_spec(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "experiment":
        return _cmd_experiment(args.id)
    if args.command == "advise":
        env = build_environment(
            EnvironmentSpec(ENVIRONMENTS[args.env],
                            duration=args.days * DAY, dt=args.dt,
                            seed=args.seed))
        print(advise(env).report())
        return 0
    if args.command == "audit":
        return _cmd_audit(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
