"""One perfbench process: a fresh interpreter that sets up once.

Started by ``run.py``; each process pays its own set-up, so its set-up
time and peak resident memory are its own. Modes:

* ``run`` — execute the workload repeatedly for ``--budget`` seconds
  (at least twice), timing each execution and, before each one and after
  the last, a fixed calibration kernel that measures the host's current
  speed. Peak memory is read after the first execution, so it is that
  execution's own; every later execution's rows must equal the first's;
* ``trace`` — one execution with the layer tracer installed;
* ``reference`` — the workload's oracle-tier reference rows.

Writes one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

#: Fastest time of :func:`calibrate` on the 2-vCPU Xeon VM this benchmark
#: was defined on (Python 3.11, numpy 2.4); the speed reference for
#: ``run.py``'s speed-normalized times.
REFERENCE_CALIBRATION_S = 0.15
#: Fewest timed executions per ``run`` process.
MIN_EXECUTIONS = 2


def calibrate() -> float:
    """Seconds taken by a fixed kernel that never touches ``repro``:
    interpreted float arithmetic plus small-array numpy calls, the mix
    the simulator's loops run. Measures how fast the host is right now."""
    import numpy as np
    t0 = time.perf_counter()
    total = 0.0
    for i in range(400_000):
        total += math.exp(-i * 1e-6) * 0.5
    values = np.arange(64.0)
    for _ in range(40_000):
        values = np.where(values > 10.0, values * 0.999, values + 1.0)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _key(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _repeat(workload, inputs, args, doc: dict) -> None:
    """Time executions, each after a calibration, until the budget is
    spent; fills ``wall_s``/``calibration_s`` (lists), ``rows`` (the
    first execution's), ``peak_rss_mb`` and ``mismatched_rows``."""
    walls, calibrations = [], []
    mismatched = 0
    started = time.monotonic()
    while True:
        shutil.rmtree(args.scratch, ignore_errors=True)
        args.scratch.mkdir(parents=True)
        calibrations.append(calibrate())
        t0 = time.perf_counter()
        raw = workload.execute(inputs, args.scratch)
        walls.append(time.perf_counter() - t0)
        rows = workload.rows(raw, args.scratch)
        del raw
        if len(walls) == 1:
            doc["peak_rss_mb"] = _peak_rss_mb()
            doc["rows"] = rows
        else:
            mismatched += sum(_key(a) != _key(b)
                              for a, b in zip(rows, doc["rows"])) + \
                abs(len(rows) - len(doc["rows"]))
        spent = time.monotonic() - started
        if len(walls) >= MIN_EXECUTIONS and \
                spent + spent / len(walls) > args.budget:
            break
    calibrations.append(calibrate())
    doc.update(wall_s=walls, calibration_s=calibrations,
               mismatched_rows=mismatched)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "reference"),
                        required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="run mode: keep executing for this many seconds")
    args = parser.parse_args()
    doc: dict = {"mode": args.mode}
    try:
        import workloads
        workloads.import_repro()
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.inputs(args.seed)
        doc["setup_s"] = time.monotonic() - args.spawned_at
        if args.mode == "reference":
            args.scratch.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            doc["rows"] = workload.reference(inputs, args.scratch)
            doc["reference_s"] = time.perf_counter() - t0
        elif args.mode == "trace":
            import tracing
            args.scratch.mkdir(parents=True, exist_ok=True)
            tracer = tracing.Tracer()
            tracer.install()
            execute = tracer.wrap(tracing.ROOT, workload.execute)
            t0 = time.perf_counter()
            raw = execute(inputs, args.scratch)
            doc["wall_s"] = time.perf_counter() - t0
            doc["rows"] = workload.rows(raw, args.scratch)
            tracer.restore()
            doc["spans"] = tracer.spans
            doc["counters"] = {"conditioning.iv_evals": tracer.iv_evals,
                               **workload.counters(raw, args.scratch)}
        else:
            _repeat(workload, inputs, args, doc)
        if "peak_rss_mb" not in doc:
            doc["peak_rss_mb"] = _peak_rss_mb()
        import numpy
        from repro.catalog.hashing import code_version
        doc["provenance"] = {"code_version": code_version(),
                             "python": platform.python_version(),
                             "numpy": numpy.__version__}
        status = 0
    except Exception:
        doc["error"] = traceback.format_exc()
        status = 1
    args.out.write_text(json.dumps(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
