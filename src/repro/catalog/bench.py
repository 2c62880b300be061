"""Benchmark trajectory records through the catalog manifest.

Benchmarks used to append straight to ``BENCH_sweep.json``. Now the
catalog manifest is the source of truth — each sample is a
``kind="bench"`` record — and ``BENCH_sweep.json`` is a *query output*
regenerated from the catalog after every append (same filename, same
``{"runs": [...]}`` shape, so the CI upload path and any downstream
trajectory tooling keep working unchanged).

``record_bench`` is the one entry point the benchmark suites call. It
resolves the store from ``BENCH_CATALOG`` (default: a ``.bench-catalog``
directory next to the trajectory file), seeds it from a pre-existing
``BENCH_sweep.json`` on first contact so no history is lost at the
migration boundary, appends the new sample, and rewrites the trajectory
file from the catalog. Every trajectory row carries the ``code_version``
and ``created_at`` stamps of the sample it came from.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["record_bench", "bench_trajectory", "import_trajectory",
           "write_trajectory", "default_trajectory_path",
           "default_bench_catalog"]

#: Row keys that say where a sample came from, not what it measured.
_PROVENANCE = ("code_version", "created_at")


def default_trajectory_path() -> Path:
    """``BENCH_SWEEP_JSON`` env override, else repo-root file."""
    return Path(os.environ.get(
        "BENCH_SWEEP_JSON",
        Path(__file__).resolve().parents[3] / "BENCH_sweep.json"))


def default_bench_catalog(trajectory: Path):
    """The benchmark store: ``BENCH_CATALOG`` env override, else a
    ``.bench-catalog`` directory beside the trajectory file."""
    from .store import Catalog
    root = os.environ.get("BENCH_CATALOG",
                          str(trajectory.parent / ".bench-catalog"))
    return Catalog(root)


def bench_trajectory(catalog) -> dict:
    """The trajectory document (``{"runs": [...]}``) a catalog's bench
    records describe, in append order. An imported sample keeps the
    stamps it was imported with (see :func:`import_trajectory`)."""
    runs = []
    for record in catalog.bench_records():
        runs.append({"benchmark": record.name,
                     "code_version": record.code_version,
                     "created_at": record.created_at, **record.payload})
    return {"runs": runs}


def _sample_key(benchmark, payload) -> tuple:
    """Content identity of one trajectory sample (order-insensitive,
    provenance stamps ignored)."""
    measured = {key: value for key, value in payload.items()
                if key not in _PROVENANCE}
    return (str(benchmark), json.dumps(measured, sort_keys=True))


def import_trajectory(catalog, path) -> int:
    """Seed a catalog with any trajectory samples it does not yet hold.

    Idempotent per *record*, not per file: samples are matched by
    content (benchmark name + payload, as a multiset, so repeated
    identical samples import once each), and only the missing ones are
    appended. The old all-or-nothing guard — skip the whole file as soon
    as the catalog held *any* bench record — silently dropped the legacy
    history whenever one new sample landed in a fresh store first (the
    empty-``BENCH_sweep.json`` regeneration bug). Returns the number of
    samples imported; 0 when the file is absent or unreadable.
    """
    try:
        history = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return 0
    runs = history.get("runs") if isinstance(history, dict) else None
    if not isinstance(runs, list):
        return 0
    held: dict = {}
    for record in catalog.bench_records():
        key = _sample_key(record.name, record.payload)
        held[key] = held.get(key, 0) + 1
    imported = 0
    for run in runs:
        if not isinstance(run, dict):
            continue
        name = str(run.get("benchmark", "unknown"))
        payload = {key: value for key, value in run.items()
                   if key != "benchmark"}
        key = _sample_key(name, payload)
        if held.get(key, 0) > 0:
            held[key] -= 1
            continue
        catalog.append_bench(name, {"code_version": "", "created_at": "",
                                    **payload})
        imported += 1
    return imported


def write_trajectory(catalog, path, *, require_runs: bool = False) -> dict:
    """Regenerate the trajectory file from the catalog (the query output
    CI uploads).

    ``require_runs=True`` refuses to write an empty document — the
    guard that keeps a mis-resolved or freshly-gc'd store from silently
    replacing the benchmark history with ``{"runs": []}``.
    """
    document = bench_trajectory(catalog)
    if require_runs and not document["runs"]:
        raise RuntimeError(
            f"benchmark trajectory is empty: {catalog.root} holds no "
            f"bench records; refusing to overwrite {path}")
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


def record_bench(benchmark: str, payload: dict, *, catalog=None,
                 trajectory=None, compile_s: float | None = None) -> None:
    """Append one benchmark sample and refresh the trajectory file.

    ``compile_s`` records one-time compilation cost (the codegen tier's
    source-emission + ``compile()`` time) separately from steady-state
    throughput, so trajectory rows distinguish cold-compile runs from
    warm-cache runs (``compile_s == 0.0``).
    """
    trajectory = default_trajectory_path() if trajectory is None \
        else Path(trajectory)
    if catalog is None:
        catalog = default_bench_catalog(trajectory)
    if compile_s is not None:
        payload = dict(payload, compile_s=compile_s)
    import_trajectory(catalog, trajectory)
    catalog.append_bench(benchmark, payload)
    # A sample was just appended, so an empty document here means the
    # store dropped it — fail the benchmark run loudly instead of
    # regenerating the trajectory to [].
    write_trajectory(catalog, trajectory, require_runs=True)
