"""perfbench: the repro benchmark, timed end to end and traced per layer.

    python3 perfbench/run.py --workload single_runs --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) in
``PROCESSES`` fresh child processes, one after the other, each executing
it repeatedly for an equal share of what is left of ``--seconds``. Every
execution's result rows must be bitwise equal to the first execution's
and, where the workload has one, to an oracle-tier reference computed
once per invocation. With ``--trace 1`` one more, traced run follows; its
rows and execution paths must match too.

``setup_s`` and ``wall_s`` are reported at the reference host speed: host
seconds times ``REFERENCE_CALIBRATION_S`` over the fastest run of a fixed
calibration kernel timed between the executions (see ``child.py``).
``wall_s`` is the fastest execution, ``setup_s`` the median process.

Prints a report, then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything a run writes (catalog stores, the codegen cache, temporary
files) stays in a per-invocation directory under ``.perfbench-work/`` in
the checkout, which is removed at exit.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from child import REFERENCE_CALIBRATION_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "fraction"))
#: Child processes per invocation: each pays set-up once, so ``setup_s``
#: is the median of this many.
PROCESSES = 8
#: The whole invocation must end within 180 s; stop starting runs that
#: would not finish before this.
DEADLINE_S = 165.0


def _row_key(row: dict, with_path: bool = True) -> str:
    if not with_path:
        row = {k: v for k, v in row.items() if k != "execution_path"}
    return json.dumps(row, sort_keys=True)


class Invocation:
    """One benchmark invocation: its work directory and child processes."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = self._child_env()
        self.spawned = 0

    def _child_env(self) -> dict:
        env = dict(os.environ)
        env.pop("REPRO_CODE_VERSION", None)  # provenance is the real hash
        paths = [str(ROOT / "src")] + \
            ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        tmp = self.work / "tmp"
        tmp.mkdir()
        env.update(
            PYTHONPATH=os.pathsep.join(paths),
            REPRO_CODEGEN_CACHE=str(self.work / "codegen"),
            # Never touch the tracked trajectory, even by accident.
            BENCH_SWEEP_JSON=str(self.work / "BENCH_sweep.json"),
            BENCH_CATALOG=str(self.work / "bench-catalog"),
            TMPDIR=str(tmp),
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1")
        return env

    def spawn(self, mode: str, budget: float = 0.0) -> dict:
        """Run one child to completion; its JSON document (``error`` set
        when it failed)."""
        self.spawned += 1
        out = self.work / f"{mode}-{self.spawned}.json"
        scratch = self.work / f"{mode}-{self.spawned}"
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--mode", mode,
                   "--out", str(out), "--scratch", str(scratch),
                   "--budget", repr(budget)]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                command + ["--spawned-at", repr(started)], cwd=ROOT,
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline + 10.0 - started))
        except subprocess.TimeoutExpired:
            proc = None  # killed and reaped by subprocess.run
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        doc = json.loads(out.read_text()) \
            if proc is not None and out.exists() else {}
        out.unlink(missing_ok=True)
        if proc is None:
            doc["error"] = f"{mode} run exceeded the time budget"
        elif proc.returncode != 0 and "error" not in doc:
            doc["error"] = f"exit {proc.returncode}: {proc.stderr[-4000:]}"
        doc["elapsed_s"] = time.monotonic() - started
        return doc

    def measure(self) -> tuple:
        """Reference, timed samples, and (with --trace 1) the traced run."""
        reference = None
        if hasattr(self.workload, "reference"):
            reference = self.spawn("reference")
        samples = []
        slack = 2.0 if self.args.trace else 1.0
        end = time.monotonic() + self.args.seconds
        while len(samples) < PROCESSES:
            budget = (end - time.monotonic()) / (PROCESSES - len(samples))
            samples.append(self.spawn("run", budget))
            longest = max(s["elapsed_s"] for s in samples)
            if time.monotonic() + slack * longest > self.deadline:
                break
        traced = self.spawn("trace") if self.args.trace else None
        return reference, samples, traced


def _check(workload, reference, samples, traced) -> tuple:
    """``(attempted, failed, notes)`` over every sample and the traced run.

    A row fails when its process raised, when it differs from the first
    good process's row (or, within a process, from that process's first
    execution), or when it differs from the reference row of the same
    name (execution path aside: the reference ran on another tier). The
    traced run must also match the execution paths.
    """
    notes = []
    expected = workload.expected_rows
    good = [s for s in samples if "error" not in s]
    baseline = [_row_key(r) for r in good[0]["rows"]] if good else None
    ref_keys = None
    if reference is not None:
        if "error" in reference:
            notes.append(f"reference failed:\n{reference['error']}")
        else:
            ref_keys = {r["name"]: _row_key(r, with_path=False)
                        for r in reference["rows"]}
    runs = samples + ([traced] if traced is not None else [])
    attempted = failed = 0
    for doc in runs:
        executions = len(doc["wall_s"]) \
            if isinstance(doc.get("wall_s"), list) else 1
        attempted += expected * executions
        failed += doc.get("mismatched_rows", 0)
        if "error" in doc:
            notes.append(f"{doc.get('mode', 'run')} failed:\n{doc['error']}")
            failed += expected
            continue
        rows = doc["rows"]
        if baseline is None or len(rows) != expected or \
                len(rows) != len(baseline) or \
                (reference is not None and ref_keys is None):
            failed += expected
            continue
        names = set()
        for row, base in zip(rows, baseline):
            names.add(row["name"])
            bad = _row_key(row) != base
            if ref_keys is not None and row["name"] in ref_keys:
                bad |= _row_key(row, with_path=False) != \
                    ref_keys[row["name"]]
            failed += bad
        if ref_keys is not None:
            failed += len(set(ref_keys) - names)
    if failed and not notes:
        notes.append(f"{failed} row(s) differ from the first run or the "
                     f"reference")
    return attempted, failed, notes


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def report(args, reference, samples, traced) -> tuple:
    """``(lines, result)``: the printed report and the final JSON object."""
    workload = WORKLOADS[args.workload]
    attempted, failed, notes = _check(workload, reference, samples, traced)
    good = [s for s in samples if "error" not in s]
    raw = {name: [s[name] for s in good]
           for name in ("setup_s", "peak_rss_mb")}
    for name in ("wall_s", "calibration_s"):
        raw[name] = [v for s in good for v in s[name]]
    # Times at the reference host speed. Other tenants slow this host by
    # up to 2x in bursts of a second or so; contention only ever adds
    # time, so the fastest calibration is the host's uncontended speed in
    # this run, and the fastest execution the workload's uncontended
    # time.
    speed = REFERENCE_CALIBRATION_S / min(raw["calibration_s"]) \
        if good else 0.0
    end_to_end = {
        "setup_s": _median(raw["setup_s"]) * speed,
        "wall_s": min(raw["wall_s"], default=0.0) * speed,
        "peak_rss_mb": _median(raw["peak_rss_mb"]),
        "ok_frac": 1.0 - failed / attempted}
    details = {
        "setup_s": f"median of {len(good)} processes",
        "wall_s": f"fastest of {len(raw['wall_s'])} executions",
        "peak_rss_mb": f"median of {len(good)} processes",
        "ok_frac": f"{attempted - failed}/{attempted} rows ok"}
    provenance = dict(good[0]["provenance"]) if good else {}
    provenance.update(
        host=platform.node(), nproc=os.cpu_count(), seed=args.seed,
        workload=args.workload,
        utc=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"))
    lines = [f"perfbench {args.workload} seed={args.seed}: {len(samples)} "
             f"process(es), {len(good)} good, {len(raw['wall_s'])} "
             f"timed executions"]
    if reference is not None and "reference_s" in reference:
        lines.append(f"reference (oracle tier, not in setup_s): "
                     f"{reference['reference_s']:.3f} s")
    lines.append(json.dumps({"provenance": provenance}, sort_keys=True))
    for name, values in raw.items():
        lines.append(f"  host {name} samples: "
                     f"{' '.join(f'{v:.4g}' for v in values)}")
    for name, unit in END_TO_END:
        lines.append(f"  {name:<28} {end_to_end[name]:>14.6g} {unit:<8} "
                     f"{details[name]}")
    metrics = {name: {"value": end_to_end[name], "unit": unit}
               for name, unit in END_TO_END}
    if traced is not None:
        layers = {name: 0 for name, _, _ in tracing.LAYER_METRICS}
        if "error" not in traced:
            layers.update(tracing.layer_metrics(traced["spans"],
                                                traced["counters"]))
            layers["trace.overhead_s"] = \
                traced["wall_s"] - _median(raw["wall_s"])
            lines.append(f"per layer (one traced run, wall "
                         f"{traced['wall_s']:.3f} s):")
            for name, unit, _ in tracing.LAYER_METRICS:
                share = f"{layers[name] / traced['wall_s']:7.1%}" \
                    if unit == "s" else ""
                lines.append(f"  {name:<28} {layers[name]:>14.6g} "
                             f"{unit:<8} {share}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    lines.extend(notes)
    result = {"correct": failed == 0 and not notes, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run and report per-layer "
                             "metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        measured = Invocation(args, work).measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()  # only when no other invocation is using it
        except OSError:
            pass
    lines, result = report(args, *measured)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
