"""The catalog manifest: one JSONL record per archived run.

The manifest is the catalog's queryable index, its restore path, and
the one archived copy of each result row. Each archived simulation
appends one :class:`ManifestRecord` line to ``manifest.jsonl`` carrying
the dedup key (``spec_hash`` / ``seed`` / ``code_version``), provenance
(tier that executed it, wall time, creation timestamp), and the full
result row (metric values, params, extras, step count) — Python's
shortest round-trip float ``repr`` makes the JSON metric values
bitwise-exact, so a dedup hit restores from the manifest alone. Keys a
record does not know (``kind``, ``payload``, and ``artifact`` and
``format`` in stores written before the manifest became the one copy)
are dropped on load. A line whose ``kind`` is not ``"run"`` is a
benchmark sample from a store written while the manifest also kept
those; loading skips it.

Append-only by design: archiving never rewrites the file (only
:mod:`repro.catalog.gc` does, atomically), so an interrupted sweep
leaves a valid manifest holding exactly the scenarios that completed —
which is the whole checkpoint/resume mechanism.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields

__all__ = ["ManifestRecord", "Manifest", "record_matches", "write_atomic"]


@dataclass(frozen=True)
class ManifestRecord:
    """One archived run in the manifest."""

    run_id: str
    spec_hash: str = ""
    seed: int | None = None
    name: str = ""
    system: str = ""
    environment: str = ""
    execution_path: str = ""
    code_version: str = ""
    created_at: str = ""
    wall_time_s: float = 0.0
    n_steps: int = 0
    #: The result row: RunMetrics fields (exact float64 via JSON repr).
    metrics: dict = field(default_factory=dict)
    #: The result row's params / extras dicts (JSON form).
    params: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def dedup_key(self) -> tuple:
        return (self.spec_hash, self.seed, self.code_version)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestRecord":
        """The record a manifest line holds; ``TypeError`` when its
        result row's ``metrics``, ``params`` or ``extras`` is not a JSON
        object (queries and restores read them as dicts)."""
        for key in ("metrics", "params", "extras"):
            if not isinstance(data.get(key, {}), dict):
                raise TypeError(f"{key} is not a JSON object")
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})


class Manifest:
    """Append-only JSONL store of :class:`ManifestRecord` lines.

    The whole file loads at construction (runs are thousands, not
    millions — one line each) into an ordered list plus a dedup index;
    :meth:`append` keeps file and memory in sync with one ``O(1)``
    append, never a rewrite. Lines that fail to parse, or parse to
    something other than a JSON object, or hold a result row whose
    ``metrics``, ``params`` or ``extras`` is not one, are skipped with
    a count (:attr:`corrupt_lines`) instead of poisoning the catalog —
    a crash mid-append leaves at most one torn trailing line.
    """

    def __init__(self, path):
        self.path = path
        self.records: list = []
        self.corrupt_lines = 0
        self._index: dict = {}
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                        if not isinstance(data, dict):
                            raise TypeError("not a JSON object")
                        if data.get("kind", "run") != "run":
                            continue  # an old store's benchmark sample
                        record = ManifestRecord.from_dict(data)
                    except (ValueError, TypeError):
                        self.corrupt_lines += 1
                        continue
                    self._admit(record)

    def _admit(self, record: ManifestRecord) -> None:
        self.records.append(record)
        self._index[record.dedup_key] = record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: ManifestRecord) -> None:
        """Durably append one record (memory and file stay in sync).

        A crash mid-append leaves a torn last line without its newline;
        it is terminated first, so the new record lands on a line of its
        own and survives a reload. The line goes out in one ``write``.
        """
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        with open(self.path, "a+b") as handle:
            if handle.seek(0, 2) > 0:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    line = "\n" + line
            handle.write(line.encode("utf-8"))
            handle.flush()
        self._admit(record)

    def lookup(self, spec_hash: str, seed: int | None,
               code_version: str) -> ManifestRecord | None:
        """The archived run of one dedup key, if any."""
        return self._index.get((spec_hash, seed, code_version))

    def by_run_id(self, run_id: str) -> ManifestRecord | None:
        """Find a record by run id (or unique run-id/spec-hash prefix)."""
        matches = [r for r in self.records
                   if r.run_id == run_id or r.spec_hash == run_id]
        if not matches:
            matches = [r for r in self.records
                       if r.run_id.startswith(run_id)
                       or (run_id and r.spec_hash.startswith(run_id))]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1 and all(m.run_id == matches[0].run_id
                                    for m in matches):
            return matches[0]
        return None

    def rewrite(self, records) -> None:
        """Atomically replace the manifest contents (gc's tool, not the
        archive path's)."""
        records = list(records)
        write_atomic(self.path, "".join(
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
            for record in records))
        self.records = []
        self._index = {}
        for record in records:
            self._admit(record)


def write_atomic(path, text: str) -> None:
    """Replace ``path``'s contents in one step: the text goes to a
    sibling temp file that is then ``os.replace``d over the target, so a
    crash leaves the old file or the new one, never a torn mix."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def record_matches(record: ManifestRecord, *, system=None,
                   environment=None, spec_hash=None, seed=None, seeds=None,
                   code_version=None, name=None, metric_band=None) -> bool:
    """Does one record pass a query's filters?

    ``metric_band`` is ``(metric, low, high)`` (either bound may be
    None) over the record's archived metric values; ``seeds`` is a
    collection (how seed-stream queries resolve — the caller expands the
    stream with :func:`~repro.simulation.replicate_seeds` and filters on
    membership); ``spec_hash`` and ``name`` accept prefixes.
    """
    if system is not None and record.system != system:
        return False
    if environment is not None and record.environment != environment:
        return False
    if spec_hash is not None and not record.spec_hash.startswith(spec_hash):
        return False
    if seed is not None and record.seed != seed:
        return False
    if seeds is not None and record.seed not in seeds:
        return False
    if code_version is not None and record.code_version != code_version:
        return False
    if name is not None and not record.name.startswith(name):
        return False
    if metric_band is not None:
        metric, low, high = metric_band
        value = record.metrics.get(metric)
        if value is None:
            return False
        if low is not None and value < low:
            return False
        if high is not None and value > high:
            return False
    return True
