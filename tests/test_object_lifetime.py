"""Every finished simulator cell is freed by reference counting.

Each cell kind closes what it built once its payload is read
(``System.close``, ``Cluster.close``), so nothing it allocated is left
for the cyclic collector.  The census: run the cell once to warm every
import and cache, then run it again with the collector off and collect
until a pass finds nothing.  The second run must leave no unreachable
object of a type defined under ``repro``, and at most 1% of what it
left before cells were closed (``PARENT``, counted the same way).
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.experiments import colocation
from repro.oskernel import System
from repro.runner.cells import Cell, execute_cell
from tests.collector import drain
from tests.test_sim_golden import _chaos_faults
from tests.wheel_calendar import KERNELS, use_calendar


def _colo(service, workload, setting, **extra):
    params = {
        "service": service,
        "workload": workload,
        "setting": setting,
        "duration_us": 20_000.0,
        **extra,
    }
    return "colocation", params, 43


#: cell id -> (kind, params, seed)
CELLS = {
    "colocation/rocksdb-b-holmes": _colo("rocksdb", "b", "holmes"),
    "colocation/redis-a-perfiso": _colo("redis", "a", "perfiso"),
    "colocation/memcached-b-alone": _colo("memcached", "b", "alone"),
    "colocation/rocksdb-b-holmes-obs": _colo("rocksdb", "b", "holmes", obs="all"),
    "fig2": ("fig2", {"duration_us": 10_000.0}, 43),
    "hpe": ("hpe", {"duration_us": 20_000.0}, 43),
    "convergence/2ms": (
        "convergence",
        {"heracles_epoch_us": 2_000.0, "parties_step_us": 2_000.0},
        42,
    ),
    "cluster_sweep/score-4": (
        "cluster_sweep",
        {"n_nodes": 4, "n_jobs": 12, "duration_us": 20_000.0},
        44,
    ),
    "cluster_sweep/score-4-chaos": (
        "cluster_sweep",
        {
            "policy": "score",
            "n_nodes": 4,
            "n_jobs": 12,
            "duration_us": 150_000.0,
            "faults": _chaos_faults(),
        },
        42,
    ),
    "profile/iterations-2": ("profile", {"iterations": 2}, 42),
}

#: unreachable objects one warm run of each cell left before cells were
#: closed, per calendar kernel (the census below, same parameters).
PARENT = {
    "heap": {
        "colocation/rocksdb-b-holmes": 6_380,
        "colocation/redis-a-perfiso": 3_279,
        "colocation/memcached-b-alone": 2_248,
        "colocation/rocksdb-b-holmes-obs": 6_398,
        "fig2": 23_465,
        "hpe": 29_805,
        "convergence/2ms": 26_360,
        "cluster_sweep/score-4": 2_734,
        "cluster_sweep/score-4-chaos": 6_718,
        "profile/iterations-2": 24_743,
    },
    "wheel": {
        "colocation/rocksdb-b-holmes": 7_432,
        "colocation/redis-a-perfiso": 4_305,
        "colocation/memcached-b-alone": 3_274,
        "colocation/rocksdb-b-holmes-obs": 7_435,
        "fig2": 29_621,
        "hpe": 54_429,
        "convergence/2ms": 30_464,
        "cluster_sweep/score-4": 3_763,
        "cluster_sweep/score-4-chaos": 7_744,
        "profile/iterations-2": 144_785,
    },
}


def census(run) -> tuple[int, Counter]:
    """Unreachable objects ``run()`` leaves, and their types by name."""
    run()
    drain()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        total = 0
        while n := gc.collect():
            total += n
        types = Counter(
            f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return total, types


@pytest.mark.parametrize("calendar", KERNELS)
@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_finished_cell_leaves_no_cyclic_garbage(cell_id, calendar, monkeypatch):
    use_calendar(monkeypatch, calendar)
    kind, params, seed = CELLS[cell_id]
    cell = Cell.make(kind, params, seed)
    total, types = census(lambda: execute_cell(cell))
    leaked = {t: n for t, n in types.items() if t.startswith("repro.")}
    top = types.most_common(8)
    assert not leaked, f"{cell_id} left repro objects to the collector: {top}"
    bound = PARENT[calendar][cell_id] // 100
    assert total <= bound, f"{cell_id} left {total} unreachable objects: {top}"


def test_run_that_raises_still_closes_and_propagates_its_own_error(monkeypatch):
    closed = []
    close = System.close

    def recording_close(system):
        closed.append(system)
        close(system)

    def failing_sample(self):
        raise ValueError("sampler failed")

    monkeypatch.setattr(System, "close", recording_close)
    monkeypatch.setattr(colocation.VPIReader, "sample", failing_sample)
    with pytest.raises(ValueError, match="sampler failed"):
        colocation.run_colocation(
            "redis",
            "a",
            "holmes",
            scale=colocation.ExperimentScale(duration_us=5_000.0),
        )
    assert len(closed) == 1
    assert closed[0].env.peek() == float("inf")
    assert not any(t.alive for t in closed[0].threads.values())
