"""Monte Carlo ensemble execution: every experiment as a distribution.

The survey's Table I comparisons are single-trace verdicts, but every
ambient model in :mod:`repro.environment` is seeded and stochastic — one
draw per scenario leaves a conclusion untested against weather variance.
This module turns one :class:`~repro.spec.RunSpec` (or any
:class:`~repro.simulation.ScenarioSpec`) into an *ensemble* of N
seed-replicated variants and aggregates the replicate metrics into
distributional summaries:

* :func:`replicate_seeds` — the seed-stream contract: a root seed expands
  into N well-separated per-replicate seeds via
  :class:`numpy.random.SeedSequence`, computed once in the parent process
  so every execution tier sees the identical stream;
* :func:`run_ensemble` — expands the spec, routes the replicates through
  :class:`~repro.simulation.SweepRunner` (same-topology replicates ride
  the PR 4 batched kernel in lockstep — each lane carries its *own*
  ambient draw, so shared-column compression never collapses them), and
  returns an :class:`EnsembleResult`;
* :class:`EnsembleResult` / :class:`MetricSummary` — per-metric mean,
  sample std, quantiles, normal-approximation confidence intervals, and
  empirical CDFs over the per-replicate columnar rows;
* :func:`replicate_sweep` — the same replication applied to every run of
  a :class:`~repro.spec.SweepSpec` (the CLI's ``sweep --replicates N``).

Determinism contract: an ensemble's rows and every quantile in its
summary are a pure function of the spec and the root seed — bitwise
identical whether the replicates execute on the batched, multiprocessing,
or in-process tier (enforced in ``tests/test_montecarlo.py``). Quantiles
use numpy's default linear interpolation on the sorted replicate values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .sweep import ScenarioSpec, SweepRunner

__all__ = [
    "DEFAULT_QUANTILES",
    "EXECUTION_TIERS",
    "REPORT_METRICS",
    "MetricSummary",
    "EnsembleResult",
    "replicate_seeds",
    "run_ensemble",
    "replicate_sweep",
    "summarize",
]

#: Quantile levels reported by default (p5/p25/median/p75/p95).
DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

#: Metrics summarized by default reports (fields *or* properties of
#: :class:`~repro.simulation.RunMetrics`).
REPORT_METRICS = (
    "uptime_fraction",
    "harvested_delivered_j",
    "quiescent_j",
    "node_consumed_j",
    "measurements_per_day",
    "brownouts",
)

#: Execution tiers an ensemble can be pinned to. ``"auto"`` is the
#: :class:`SweepRunner` default (batched -> multiprocessing ->
#: in-process); the other three force one tier, which is how the
#: cross-tier determinism tests exercise each path in isolation.
EXECUTION_TIERS = ("auto", "batched", "multiprocessing", "in-process")


def replicate_seeds(root_seed: int, n: int, stream: int = 0) -> tuple:
    """Expand a root seed into ``n`` per-replicate seeds.

    The stream is derived with :class:`numpy.random.SeedSequence` (a
    fixed, platform-independent hash), so the same ``(root_seed,
    stream)`` always yields the same seeds — in any process, on any
    execution tier. Seeds are well-separated 53-bit values: wide enough
    that the ``seed + k`` channel offsets inside environment factories
    cannot make two replicates' channels collide the way a naive
    ``root_seed + i`` stride would, yet exactly representable in a
    float64, so JSON consumers (dashboards, JS tooling) round-trip the
    per-replicate rows without silently rounding the seed.

    ``stream`` separates independent seed streams drawn from one root
    (e.g. one stream per run of a replicated sweep). Replicate ``i`` of
    stream ``s`` never depends on ``n``: asking for more replicates
    extends the stream, it does not reshuffle it.
    """
    if n < 1:
        raise ValueError(f"need at least one replicate, got {n}")
    sequence = np.random.SeedSequence(entropy=int(root_seed),
                                      spawn_key=(int(stream),))
    return tuple(int(s) >> 11
                 for s in sequence.generate_state(n, dtype=np.uint64))


@dataclass(frozen=True)
class MetricSummary:
    """Distributional summary of one metric across an ensemble.

    ``std`` is the sample standard deviation (ddof=1; 0.0 for a single
    replicate). ``quantiles`` holds ``(level, value)`` pairs computed
    with numpy's default linear interpolation. ``ci_low``/``ci_high``
    bound the *mean* with the normal approximation
    ``mean +- 1.96 * std / sqrt(n)`` — a CI on where the expected value
    lies, not an envelope on individual replicates (that is what the
    quantiles are for).
    """

    name: str
    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    quantiles: tuple
    ci_low: float
    ci_high: float

    def quantile(self, level: float) -> float:
        """The value at one of the summarized quantile levels."""
        for q, value in self.quantiles:
            if abs(q - level) < 1e-12:
                return value
        raise KeyError(f"quantile {level} not summarized; available: "
                       f"{[q for q, _ in self.quantiles]}")

    def band(self, low: float = 0.05, high: float = 0.95) -> tuple:
        """A ``(p_low, p_high)`` replicate band (default p5..p95)."""
        return (self.quantile(low), self.quantile(high))


def summarize(name: str, values, quantiles=DEFAULT_QUANTILES) -> MetricSummary:
    """Summarize one metric's replicate values into a :class:`MetricSummary`."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name}: need a non-empty 1-D value vector, "
                         f"got shape {arr.shape}")
    n = int(arr.size)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    half = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
    return MetricSummary(
        name=name,
        n=n,
        mean=mean,
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        quantiles=tuple((float(q), float(np.quantile(arr, q)))
                        for q in quantiles),
        ci_low=mean - half,
        ci_high=mean + half,
    )


class EnsembleResult:
    """Ordered per-replicate results of one ensemble plus aggregation.

    Replicate order is seed-stream order whatever tier executed them;
    :meth:`rows` is the per-replicate columnar table (each row carries
    its ``replicate`` index, its ``seed``, and the tier that ran it),
    and :meth:`summary` / :meth:`summaries` collapse any metric into a
    :class:`MetricSummary`.
    """

    def __init__(self, name: str, results, seeds, root_seed: int,
                 quantiles=DEFAULT_QUANTILES, catalog_report=None):
        self.name = name
        self.results = tuple(results)
        self.seeds = tuple(seeds)
        self.root_seed = root_seed
        self.quantiles = tuple(quantiles)
        #: Catalog hit/miss/archive counts when the ensemble ran against
        #: a catalog (else None).
        self.catalog_report = catalog_report
        if len(self.results) != len(self.seeds):
            raise ValueError("one seed per replicate result")
        if not self.results:
            raise ValueError("ensemble needs at least one replicate")

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def replicates(self) -> int:
        return len(self.results)

    def metric(self, name: str) -> np.ndarray:
        """One metric across all replicates, in replicate order.

        ``name`` may be any :class:`~repro.simulation.RunMetrics` field
        or property (``measurements_per_day``, ...) or a key of the
        replicates' ``extras``.
        """
        values = np.empty(len(self.results), dtype=np.float64)
        for i, result in enumerate(self.results):
            metrics = result.metrics
            if hasattr(metrics, name):
                values[i] = float(getattr(metrics, name))
            elif name in result.extras:
                values[i] = float(result.extras[name])
            else:
                raise KeyError(
                    f"unknown ensemble metric {name!r}; RunMetrics fields/"
                    f"properties and extras keys are accepted")
        return values

    def summary(self, name: str) -> MetricSummary:
        """Distributional summary of one metric."""
        return summarize(name, self.metric(name), self.quantiles)

    def summaries(self, metrics=REPORT_METRICS) -> dict:
        """``{metric: MetricSummary}`` for a set of metrics."""
        return {name: self.summary(name) for name in metrics}

    def cdf(self, name: str) -> tuple:
        """Empirical CDF of one metric: ``(sorted values, P(X <= value))``."""
        values = np.sort(self.metric(name))
        probs = np.arange(1, values.size + 1, dtype=np.float64) / values.size
        return values, probs

    def execution_paths(self) -> dict:
        """``{execution_path: replicate count}`` across the ensemble."""
        counts: dict = {}
        for result in self.results:
            counts[result.execution_path] = \
                counts.get(result.execution_path, 0) + 1
        return dict(sorted(counts.items()))

    def rows(self) -> list:
        """Per-replicate tidy table (flat dict per replicate)."""
        return [result.row() for result in self.results]

    def report(self, metrics=REPORT_METRICS,
               title: str | None = None) -> str:
        """Textual quantile table: one row per metric.

        The displayed p5/p50/p95 levels are merged into the ensemble's
        own quantile set, so the report renders for any
        :class:`~repro.spec.MonteCarloSpec` quantile selection.
        """
        from ..analysis.reporting import render_table
        headers = ("metric", "mean", "std", "p5", "p50", "p95",
                   "ci95 (mean)")
        levels = tuple(sorted(set(self.quantiles) | {0.05, 0.5, 0.95}))
        body = []
        for name in metrics:
            s = summarize(name, self.metric(name), levels)
            body.append((
                name, f"{s.mean:.4g}", f"{s.std:.4g}",
                f"{s.quantile(0.05):.4g}", f"{s.quantile(0.5):.4g}",
                f"{s.quantile(0.95):.4g}",
                f"[{s.ci_low:.4g}, {s.ci_high:.4g}]",
            ))
        paths = ", ".join(f"{path} x{count}"
                          for path, count in self.execution_paths().items())
        if title is None:
            title = (f"ensemble: {self.name} — {len(self)} replicates, "
                     f"root seed {self.root_seed}")
        return (f"{render_table(headers, body, title=title)}\n"
                f"execution: {paths}")

    def __repr__(self) -> str:
        return (f"EnsembleResult({self.name!r}, {len(self)} replicates, "
                f"root_seed={self.root_seed})")


def _tier_runner(tier: str, processes, fast, catalog=None) -> SweepRunner:
    if tier == "auto":
        return SweepRunner(processes=processes, fast=fast, batch="auto",
                           catalog=catalog)
    if tier == "batched":
        # Lockstep execution needs no pool; the (empty) remainder runs
        # in-process. batch=True raises on any ineligible replicate.
        return SweepRunner(processes=1, fast=fast, batch=True,
                           catalog=catalog)
    if tier == "multiprocessing":
        return SweepRunner(processes=processes, fast=fast, batch=False,
                           catalog=catalog)
    if tier == "in-process":
        return SweepRunner(processes=1, fast=fast, batch=False,
                           catalog=catalog)
    raise ValueError(f"tier must be one of {EXECUTION_TIERS}, got {tier!r}")


def _base_scenario(spec) -> ScenarioSpec:
    """Any supported spec -> the ScenarioSpec template to replicate."""
    from ..spec.specs import RunSpec
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, RunSpec):
        from ..spec.build import to_scenario
        return to_scenario(spec)
    raise TypeError(
        f"run_ensemble() takes a MonteCarloSpec, RunSpec, or ScenarioSpec, "
        f"got {type(spec).__name__}")


def run_ensemble(spec, replicates: int | None = None, *,
                 root_seed: int | None = None, quantiles=None,
                 tier: str = "auto", processes: int | None = None,
                 fast="auto", stream: int = 0,
                 catalog=None) -> EnsembleResult:
    """Run one spec as an N-replicate Monte Carlo ensemble.

    Parameters
    ----------
    spec:
        A :class:`~repro.spec.MonteCarloSpec` (carrying its own
        replicates / root seed / quantiles), a
        :class:`~repro.spec.RunSpec`, or a ready
        :class:`~repro.simulation.ScenarioSpec` template. Explicit
        keyword arguments override the spec's own values.
    replicates / root_seed / quantiles:
        Ensemble geometry; defaults 32 / 0 / :data:`DEFAULT_QUANTILES`
        when neither the argument nor a MonteCarloSpec provides them.
    tier:
        ``"auto"`` (default tiering), or pin one of ``"batched"`` /
        ``"multiprocessing"`` / ``"in-process"``. Pinning ``"batched"``
        raises ``ValueError`` if any replicate falls outside the
        batched envelope (replaced physics, scheduled events,
        ``fast=False``); the message carries the refusing component's
        :class:`~repro.simulation.CapabilityReport` (which capability
        is missing), not a generic tier error.
    processes:
        Worker count for the multiprocessing tier.
    fast:
        Engine path default for replicates whose spec says ``"auto"``:
        ``"auto"`` or ``False``.
    stream:
        Seed-stream index (see :func:`replicate_seeds`).
    catalog:
        Optional :class:`~repro.catalog.Catalog`: replicates hit the
        dedup cache individually (each is one ``(spec_hash, seed,
        code_version)`` key), completed replicates checkpoint as they
        finish, and an interrupted ensemble resumes with only the
        missing seeds. The result's ``catalog_report`` carries the
        counts.

    Each replicate is the base scenario with its own derived seed; the
    seed overrides the environment spec/factory seed, so every lane
    draws its own ambient realization.
    """
    from ..spec.specs import MonteCarloSpec
    name = None
    if isinstance(spec, MonteCarloSpec):
        if replicates is None:
            replicates = spec.replicates
        if root_seed is None:
            root_seed = spec.root_seed
        if quantiles is None:
            quantiles = spec.quantiles
        name = spec.label
        spec = spec.run
    if replicates is None:
        replicates = 32
    if root_seed is None:
        root_seed = 0
    if quantiles is None:
        quantiles = DEFAULT_QUANTILES
    base = _base_scenario(spec)
    if fast != "auto":
        # An explicit engine-path override beats the spec's own setting,
        # mirroring run_sweep()'s --fast semantics.
        base = dataclasses.replace(base, fast=fast)
    if name is None:
        name = base.name
    seeds = replicate_seeds(root_seed, replicates, stream)
    scenarios = [
        dataclasses.replace(
            base,
            name=f"{base.name}#r{i}",
            seed=seed,
            params={**base.params, "replicate": i, "seed": seed},
        )
        for i, seed in enumerate(seeds)
    ]
    sweep = _tier_runner(tier, processes, fast, catalog).run(scenarios)
    return EnsembleResult(name=name, results=sweep.results, seeds=seeds,
                          root_seed=root_seed, quantiles=quantiles,
                          catalog_report=sweep.catalog_report)


def replicate_sweep(spec, replicates: int, root_seed: int = 0):
    """Expand every run of a :class:`~repro.spec.SweepSpec` into
    ``replicates`` seed-replicated variants.

    Run ``j`` draws its replicate seeds from stream ``j`` of the root
    seed, so runs are mutually independent while the whole expansion
    stays a pure function of ``(spec, replicates, root_seed)``. Row
    names gain ``#rI`` suffixes and rows carry ``replicate``/``seed``
    identity columns — the CLI's ``sweep --replicates N``.
    """
    from ..spec.specs import SweepSpec
    if not isinstance(spec, SweepSpec):
        raise TypeError(f"replicate_sweep() takes a SweepSpec, "
                        f"got {type(spec).__name__}")
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    runs = []
    for j, run in enumerate(spec.runs):
        for i, seed in enumerate(replicate_seeds(root_seed, replicates,
                                                 stream=j)):
            runs.append(dataclasses.replace(
                run,
                name=f"{run.label}#r{i}",
                seed=seed,
                params={**run.params, "replicate": i, "seed": seed},
            ))
    return dataclasses.replace(
        spec, runs=tuple(runs),
        name=f"{spec.name} x{replicates} replicates")
