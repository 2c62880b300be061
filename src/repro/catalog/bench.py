"""The benchmark trajectory: one file, one copy of each sample.

The benchmark suites append their samples straight to
``BENCH_sweep.json``, the ``{"runs": [...]}`` document CI uploads.
``BENCH_SWEEP_JSON`` names another file; pytest and CI point it outside
the checkout, so a benchmark run never modifies the tracked history.

The file is the only copy of that history. :func:`record_bench`
therefore refuses to touch a file it cannot read, and replaces it whole
through :func:`~repro.catalog.manifest.write_atomic`, so a crash leaves
the old document or the new one. Each appended row carries the
``code_version``, ``created_at`` and ``host`` it was measured under.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy

from .hashing import code_version
from .manifest import write_atomic
from .store import _utc_now

__all__ = ["record_bench", "default_trajectory_path"]


def default_trajectory_path() -> Path:
    """``BENCH_SWEEP_JSON`` env override, else repo-root file."""
    return Path(os.environ.get(
        "BENCH_SWEEP_JSON",
        Path(__file__).resolve().parents[3] / "BENCH_sweep.json"))


def _host() -> dict:
    """The machine a sample was measured on."""
    cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": cpus,
        "affinity_cpus": (len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else cpus),
    }


def record_bench(benchmark: str, payload: dict) -> None:
    """Append one stamped sample to the trajectory file.

    A missing file starts a new document. A file that does not parse,
    or holds no ``runs`` list, raises ``ValueError`` and stays as it
    is. The stamps go after the payload, so a payload key cannot
    overwrite them.
    """
    path = default_trajectory_path()
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        document = {"runs": []}
    except ValueError as exc:
        raise ValueError(f"unreadable benchmark trajectory {path}: "
                         f"{exc}") from exc
    runs = document.get("runs") if isinstance(document, dict) else None
    if not isinstance(runs, list):
        raise ValueError(f"{path} holds no benchmark trajectory "
                         f"(no 'runs' list)")
    runs.append({"benchmark": benchmark, **payload,
                 "code_version": code_version(),
                 "created_at": _utc_now(),
                 "host": _host()})
    write_atomic(path, json.dumps(document, indent=2) + "\n")
