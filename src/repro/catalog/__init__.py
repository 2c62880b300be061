"""Content-addressed scenario/result catalog.

A persistent store keyed by the SHA-256 of canonical spec JSON. Its
append-only manifest holds the one archived copy of each result row,
which restores bitwise. Three capabilities ride on it:

* **dedup cache** — ``run``/``sweep``/``mc`` with a catalog attached
  consult the store before simulating and return archived rows bitwise
  on ``(spec_hash, seed, code_version)`` hits;
* **checkpoint/resume** — sweeps and ensembles archive each scenario as
  it completes, so an interrupted grid resumes with only the missing
  remainder (resume *is* dedup);
* **query layer** — :meth:`Catalog.query` and the ``repro catalog``
  CLI filter the manifest by system, environment, metric band, seed, or
  seed stream.

See :mod:`repro.catalog.hashing` for what counts as cache identity and
``docs/catalog.md`` for the user guide. The store holds result rows
only: :func:`record_bench` appends benchmark samples to the trajectory
file (:mod:`repro.catalog.bench`), which is their one copy.
"""

from ..spec.canonical import spec_hash
from .bench import default_trajectory_path, record_bench
from .gc import GcReport, collect_garbage
from .hashing import CacheKey, code_version, scenario_cache_key
from .manifest import Manifest, ManifestRecord, record_matches
from .store import Catalog, CatalogError, CatalogReport

__all__ = [
    "CacheKey",
    "Catalog",
    "CatalogError",
    "CatalogReport",
    "GcReport",
    "Manifest",
    "ManifestRecord",
    "code_version",
    "collect_garbage",
    "default_trajectory_path",
    "record_bench",
    "record_matches",
    "scenario_cache_key",
    "spec_hash",
]
