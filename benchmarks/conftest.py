"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one paper table/figure and prints the rows the
paper reports (captured output is shown with ``pytest -s``; every bench
also appends to ``benchmarks/results/`` so the numbers survive capture).

Set ``REPRO_BENCH_FAST=1`` to run everything at reduced horizons; those
tables and timings go to the git-ignored ``benchmarks/results/fast/``,
so a fast run never overwrites the committed full-horizon tables.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.experiments.colocation import CoLocationResult, run_colocation
from repro.experiments.common import ExperimentScale

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: simulated horizon of one co-location run.
COLO_DURATION_US = 400_000.0 if FAST else 1_200_000.0

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
if FAST:
    RESULTS_DIR = RESULTS_DIR / "fast"

#: per-test wall-clock, filled by the autouse timer below and flushed to
#: ``bench_timings.json`` under :data:`RESULTS_DIR` at session end.
_TIMINGS: dict[str, float] = {}


@pytest.fixture(autouse=True)
def _time_each_bench(request):
    """Record every benchmark's wall-clock with a monotonic clock.

    ``time.perf_counter()`` (not ``time.time()``) everywhere: wall-clock
    deltas must come from a monotonic high-resolution source or NTP steps
    corrupt the recorded trajectory.
    """
    start = time.perf_counter()
    yield
    _TIMINGS[request.node.nodeid] = time.perf_counter() - start


@pytest.fixture(scope="session", autouse=True)
def _flush_bench_timings():
    yield
    if not _TIMINGS:
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "clock": "time.perf_counter",
        "fast_mode": FAST,
        "colo_duration_us": COLO_DURATION_US,
        "total_wall_s": round(sum(_TIMINGS.values()), 3),
        "per_test_wall_s": {
            k: round(v, 3) for k, v in sorted(_TIMINGS.items())
        },
    }
    (RESULTS_DIR / "bench_timings.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )


def bench_scale(duration_us: float | None = None) -> ExperimentScale:
    return ExperimentScale(duration_us=duration_us or COLO_DURATION_US)


class ColocationCache:
    """Lazily computed (service, workload, setting) -> CoLocationResult."""

    def __init__(self):
        self._cache: dict[tuple, CoLocationResult] = {}

    def get(self, service: str, workload: str, setting: str) -> CoLocationResult:
        key = (service, workload, setting)
        if key not in self._cache:
            self._cache[key] = run_colocation(
                service, workload, setting, scale=bench_scale()
            )
        return self._cache[key]

    def triple(self, service: str, workload: str) -> dict[str, CoLocationResult]:
        return {
            s: self.get(service, workload, s)
            for s in ("alone", "holmes", "perfiso")
        }


@pytest.fixture(scope="session")
def colo() -> ColocationCache:
    return ColocationCache()


def report(name: str, text: str) -> None:
    """Print a result block and persist it under :data:`RESULTS_DIR`."""
    print()
    print(f"=== {name} ===")
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
