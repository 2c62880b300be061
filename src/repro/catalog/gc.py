"""Catalog garbage collection.

Three pruning policies, all opt-in and composable, plus orphan cleanup
that always runs:

* ``stale`` — drop run records whose ``code_version`` is not the
  current one (their dedup keys can never hit again; the rows are
  reproducible by rerunning under the new code).
* ``keep_last`` — keep only the newest N run records per
  ``(spec_hash, seed)`` family (older records are superseded runs from
  previous code versions).
* ``keep_days`` — drop run records older than N days (by their
  ``created_at`` stamp).

After record pruning, spec documents no longer referenced by any
surviving record are deleted, and hit counters for deleted run ids are
dropped. Every file under ``results/`` goes too: stores written before
the manifest became the one copy of each row kept a second, columnar
copy there that nothing reads any more. A manifest rewrite writes the
surviving runs only, so it also drops the benchmark sample lines that
stores written before the trajectory file became their one copy still
hold. The manifest and ``stats.json`` rewrites are atomic (tmp +
replace), so a crash mid-gc leaves either the old or the new file,
never a torn one. ``dry_run=True`` reports what would go without
touching anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from .hashing import code_version

__all__ = ["GcReport", "collect_garbage"]


@dataclass
class GcReport:
    """What one gc pass removed (or would remove, under ``dry_run``)."""

    dry_run: bool = False
    kept_records: int = 0
    removed_records: list = field(default_factory=list)
    removed_artifacts: list = field(default_factory=list)
    removed_specs: list = field(default_factory=list)

    @property
    def removed(self) -> int:
        return len(self.removed_records)

    def to_dict(self) -> dict:
        return {
            "dry_run": self.dry_run,
            "kept_records": self.kept_records,
            "removed_records": self.removed_records,
            "removed_artifacts": self.removed_artifacts,
            "removed_specs": self.removed_specs,
        }


def _parse_stamp(created_at: str):
    try:
        return datetime.fromisoformat(created_at)
    except (TypeError, ValueError):
        return None


def collect_garbage(catalog, *, stale: bool = False,
                    keep_last: int | None = None,
                    keep_days: float | None = None,
                    dry_run: bool = False) -> GcReport:
    """Prune catalog records and sweep unreferenced files.

    See the module docstring for the policies.
    """
    report = GcReport(dry_run=dry_run)
    current = code_version()
    cutoff = None
    if keep_days is not None:
        cutoff = datetime.now(timezone.utc) - timedelta(days=keep_days)

    doomed: set = set()
    if stale:
        doomed.update(r.run_id for r in catalog.manifest
                      if r.code_version != current)
    if cutoff is not None:
        for record in catalog.manifest:
            stamp = _parse_stamp(record.created_at)
            if stamp is not None and stamp < cutoff:
                doomed.add(record.run_id)
    if keep_last is not None:
        families: dict = {}
        for record in catalog.manifest:  # manifest order == creation order
            families.setdefault((record.spec_hash, record.seed),
                                []).append(record)
        for family in families.values():
            survivors = [r for r in family if r.run_id not in doomed]
            for record in survivors[:-keep_last] if keep_last else survivors:
                doomed.add(record.run_id)

    keep = [r for r in catalog.manifest if r.run_id not in doomed]
    report.kept_records = len(keep)
    report.removed_records = sorted(doomed)

    live_specs = {r.spec_hash for r in keep if r.spec_hash}

    # Orphan sweep always runs: every legacy artifact under results/
    # goes, and so does any spec document that no surviving record
    # references (covers files left behind by records pruned in earlier
    # dry-run-less passes).
    for path in sorted((catalog.root / "results").glob("*")):
        report.removed_artifacts.append(f"results/{path.name}")
        if not dry_run:
            path.unlink()
    for path in sorted(catalog.specs_dir.glob("*/*.json")):
        if path.stem not in live_specs:
            report.removed_specs.append(path.stem)
            if not dry_run:
                path.unlink()

    if not dry_run:
        if doomed:
            catalog.manifest.rewrite(keep)
        hits = catalog.hit_counts()
        surviving_hits = {run_id: count for run_id, count in hits.items()
                         if run_id not in doomed}
        if surviving_hits != hits:
            catalog._write_hits(surviving_hits)
    return report
