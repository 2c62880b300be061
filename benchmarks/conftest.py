"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's artifacts (Table I, Fig. 1,
Fig. 2) or runs one claim-validation experiment (E3-E10) at full length,
prints the same rows/series the paper reports, and asserts the expected
qualitative shape. ``benchmark.pedantic(rounds=1)`` is used throughout:
these are end-to-end reproduction runs, not microbenchmarks.

Benchmarks that record a trajectory sample append it to a trajectory
file in the test's temporary directory unless ``BENCH_SWEEP_JSON``
names a file, so a test run never modifies the tracked
``BENCH_sweep.json``.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _hermetic_trajectory_file(tmp_path, monkeypatch):
    if "BENCH_SWEEP_JSON" not in os.environ:
        monkeypatch.setenv("BENCH_SWEEP_JSON",
                           str(tmp_path / "BENCH_sweep.json"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)
    return _run
