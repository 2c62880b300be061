"""The content-addressed catalog store.

On-disk layout (everything under one root directory, safe to rsync)::

    <root>/
      catalog.json        # store marker: layout version
      manifest.jsonl      # one ManifestRecord per archived run
      stats.json          # persistent dedup hit counters per run_id
      specs/ab/abcdef...json   # canonical key documents, content-addressed

Stores written before the manifest became the one copy of each row also
hold ``results/<run_id>.*`` artifact files. Nothing reads them;
:mod:`repro.catalog.gc` deletes them. Stores written before the
benchmark trajectory file became the one copy of each sample also hold
``kind="bench"`` manifest lines; loading skips them, and a gc rewrite
drops them.

Three jobs:

* **Archive** — :meth:`Catalog.archive` appends a completed scenario's
  result row to the manifest, and stores the canonical spec document
  under its hash (content-addressed: the same spec is stored once
  however many runs reference it).
* **Dedup** — :meth:`Catalog.lookup` finds the archived run of a
  ``(spec_hash, seed, code_version)`` key; :meth:`Catalog.restore`
  rebuilds the :class:`~repro.simulation.ScenarioResult` bitwise from
  the manifest record (identity columns — name/params — are re-applied
  from the *requesting* scenario so reruns label rows correctly).
* **Query** — :meth:`Catalog.query` filters manifest records by system,
  environment, metric band, seed, or seed stream; the CLI's
  ``repro catalog ls/show/query`` render it.

Writes happen only in the parent process (pool/batched results return
to the runner before archiving), so the store needs no locking for the
supported single-writer workflow. Files that are rewritten whole — the
marker, spec documents, ``stats.json`` — go through
:func:`~repro.catalog.manifest.write_atomic`, so a crash leaves the old
contents or the new, never a torn mix.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone
from pathlib import Path

from ..simulation.metrics import RunMetrics
from ..simulation.sweep import ScenarioResult
from .hashing import CacheKey, code_version
from .manifest import Manifest, ManifestRecord, write_atomic

__all__ = ["Catalog", "CatalogError", "CatalogReport"]

#: Store layout version; bump on incompatible directory changes.
LAYOUT_VERSION = 1

_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))
_INT_METRICS = frozenset(f.name for f in dataclasses.fields(RunMetrics)
                         if f.type in (int, "int"))


class CatalogError(RuntimeError):
    """A catalog operation failed (bad record, layout mismatch, ...)."""


@dataclasses.dataclass
class CatalogReport:
    """One run's catalog interaction summary (attached to sweep and
    ensemble results when a catalog is in play).

    ``hits`` scenarios were restored from the store without simulating;
    ``misses`` executed (and, when cacheable, were archived —
    ``archived`` counts the rows that made it in); ``uncacheable``
    scenarios bypassed the catalog entirely (callable factories, event
    schedules, collect hooks).
    """

    hits: int = 0
    misses: int = 0
    archived: int = 0
    uncacheable: int = 0

    @property
    def simulated(self) -> int:
        return self.misses + self.uncacheable

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "archived": self.archived,
                "uncacheable": self.uncacheable}

    def __str__(self) -> str:
        return (f"catalog: {self.hits} hit(s), {self.misses} miss(es), "
                f"{self.archived} archived, "
                f"{self.uncacheable} uncacheable")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Catalog:
    """A persistent, content-addressed scenario/result store.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if absent.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.specs_dir = self.root / "specs"
        self.specs_dir.mkdir(parents=True, exist_ok=True)
        self._write_marker()
        self.manifest = Manifest(self.root / "manifest.jsonl")
        self._stats_path = self.root / "stats.json"

    def _write_marker(self) -> None:
        marker = self.root / "catalog.json"
        if marker.exists():
            try:
                data = json.loads(marker.read_text())
            except (OSError, ValueError):
                data = None
            found = data.get("layout") if isinstance(data, dict) else None
            if found != LAYOUT_VERSION:
                raise CatalogError(
                    f"{self.root} holds catalog layout {found!r}; this "
                    f"version reads layout {LAYOUT_VERSION}")
            return
        write_atomic(marker, json.dumps({"layout": LAYOUT_VERSION},
                                        indent=2) + "\n")

    def __repr__(self) -> str:
        return f"Catalog({str(self.root)!r}, {len(self.manifest)} runs)"

    # ------------------------------------------------------------------
    # Dedup: lookup / restore / archive
    # ------------------------------------------------------------------
    def lookup(self, key: CacheKey,
               version: str | None = None) -> ManifestRecord | None:
        """The archived run of one cache key under the current (or
        given) code version, if any."""
        return self.manifest.lookup(key.spec_hash, key.seed,
                                    code_version() if version is None
                                    else version)

    def restore(self, record: ManifestRecord, *, name: str | None = None,
                params: dict | None = None) -> ScenarioResult:
        """Rebuild the archived result row from a manifest record.

        Metric values restore bitwise (JSON floats round-trip through
        shortest ``repr``). ``name``/``params`` — pure row identity —
        default to the archived values but are overridden by the
        requesting scenario's, so a cached result reused under a new
        label carries the new label.
        """
        try:
            metric_kwargs = {
                field: (int(record.metrics[field])
                        if field in _INT_METRICS
                        else float(record.metrics[field]))
                for field in _METRIC_FIELDS
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise CatalogError(
                f"record {record.run_id} carries no restorable metrics "
                f"({exc!r}); re-archive it or gc the catalog") from exc
        return ScenarioResult(
            name=record.name if name is None else name,
            params=dict(record.params) if params is None else dict(params),
            metrics=RunMetrics(**metric_kwargs),
            n_steps=record.n_steps,
            extras=dict(record.extras),
            execution_path=record.execution_path,
        )

    def run_id_for(self, key: CacheKey,
                   version: str | None = None) -> str:
        version = code_version() if version is None else version
        seed_part = "none" if key.seed is None else str(key.seed)
        return f"{key.spec_hash[:16]}-s{seed_part}-{version}"

    def archive(self, key: CacheKey, result: ScenarioResult,
                wall_time_s: float = 0.0) -> ManifestRecord | None:
        """Archive one completed scenario result under its cache key.

        Idempotent per dedup key: re-archiving an existing key is a
        no-op returning the existing record (first write wins — results
        are deterministic in the key, so there is nothing to update).
        Returns None, having written nothing, when the row cannot be
        serialized (exotic params/extras), which callers treat as "this
        row rides along unarchived".
        """
        existing = self.lookup(key)
        if existing is not None:
            return existing
        try:
            params = json.loads(json.dumps(_jsonable(result.params)))
            extras = json.loads(json.dumps(_jsonable(result.extras)))
        except TypeError:
            return None
        self._store_spec_document(key)
        record = ManifestRecord(
            run_id=self.run_id_for(key),
            spec_hash=key.spec_hash,
            seed=key.seed,
            name=result.name,
            system=key.system,
            environment=key.environment,
            execution_path=result.execution_path,
            code_version=code_version(),
            created_at=_utc_now(),
            wall_time_s=float(wall_time_s),
            n_steps=int(result.n_steps),
            metrics={field: getattr(result.metrics, field)
                     for field in _METRIC_FIELDS},
            params=params,
            extras=extras,
        )
        self.manifest.append(record)
        return record

    def _store_spec_document(self, key: CacheKey) -> None:
        """Content-addressed spec storage: write once per hash."""
        from ..spec.canonical import canonical_dumps
        shard = self.specs_dir / key.spec_hash[:2]
        path = shard / f"{key.spec_hash}.json"
        if path.exists() or not key.key_dict:
            return
        shard.mkdir(parents=True, exist_ok=True)
        write_atomic(path, canonical_dumps(key.key_dict, indent=2) + "\n")

    def spec_document(self, spec_hash: str) -> dict:
        """The canonical key document a spec hash addresses."""
        path = self.specs_dir / spec_hash[:2] / f"{spec_hash}.json"
        if not path.exists():
            raise CatalogError(f"no spec document for hash {spec_hash}")
        try:
            return json.loads(path.read_text())
        except ValueError as exc:
            # Torn by a crash in a store written before whole-file
            # writes were atomic.
            raise CatalogError(f"unreadable spec document {path}: "
                               f"{exc}") from exc

    # ------------------------------------------------------------------
    # Hit counters
    # ------------------------------------------------------------------
    def hit_counts(self) -> dict:
        """Persistent per-run-id dedup hit counters."""
        try:
            data = json.loads(self._stats_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        hits = data.get("hits", {})
        return hits if isinstance(hits, dict) else {}

    def record_hits(self, run_ids) -> None:
        """Count dedup hits (batched: one read-modify-write per sweep)."""
        run_ids = list(run_ids)
        if not run_ids:
            return
        hits = self.hit_counts()
        for run_id in run_ids:
            hits[run_id] = hits.get(run_id, 0) + 1
        self._write_hits(hits)

    def _write_hits(self, hits: dict) -> None:
        write_atomic(self._stats_path, json.dumps(
            {"hits": hits, "total_hits": sum(hits.values())},
            indent=2, sort_keys=True) + "\n")

    def total_hits(self) -> int:
        return sum(self.hit_counts().values())

    # ------------------------------------------------------------------
    # Query layer
    # ------------------------------------------------------------------
    def query(self, *, system: str | None = None,
              environment: str | None = None, spec_hash: str | None = None,
              seed: int | None = None, seed_stream=None,
              metric_band=None, name: str | None = None,
              code_version: str | None = None) -> list:
        """Filter manifest records (insertion order preserved).

        ``metric_band`` is ``(metric, low, high)``; ``seed_stream`` is
        ``(root_seed, stream, n)`` — expanded with
        :func:`~repro.simulation.replicate_seeds` and matched on seed
        membership, so one query finds an ensemble's replicate family
        without any extra bookkeeping at archive time.
        """
        from .manifest import record_matches
        seeds = None
        if seed_stream is not None:
            from ..simulation.montecarlo import replicate_seeds
            root_seed, stream, n = seed_stream
            seeds = frozenset(replicate_seeds(root_seed, n, stream))
        return [record for record in self.manifest
                if record_matches(record, system=system,
                                  environment=environment,
                                  spec_hash=spec_hash, seed=seed,
                                  seeds=seeds, metric_band=metric_band,
                                  name=name, code_version=code_version)]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def gc(self, **kwargs):
        """Collect garbage; see :func:`repro.catalog.gc.collect_garbage`."""
        from .gc import collect_garbage
        return collect_garbage(self, **kwargs)


def _jsonable(value):
    """params/extras -> JSON-native tree (dataclasses become dicts)."""
    from ..analysis.export import to_jsonable
    return to_jsonable(value)
