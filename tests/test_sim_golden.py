"""Absolute golden digests for simulator paths the benchmark does not pin.

``tests/golden/sim_digests.json`` holds the sha256 of
``canonical_dumps(payload)`` for a fixed set of short cells, one per
simulator path that ``bench/golden/digests.json`` leaves uncovered:
the Heracles baseline beside a live service, the Parties DVFS ladder
(only through the convergence stimulus; ``parties`` is not a
co-location setting), the observability plane's quanta export, threads
killed mid-op by injected container crashes, the microbenchmark and
HPE-selection experiments, a small least-loaded cluster sweep, and a
chaos sweep whose failed node's daemon is stopped and restarted.
Every entry names the path it covers.

The test recomputes every cell under both calendar kernels, so a
change that moves one payload byte on either kernel fails here with
the cell's name.  After an intended model change, regenerate the
table and review the printed per-cell diff::

    PYTHONPATH=src python tests/test_sim_golden.py --update
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys

import pytest

from repro.analysis.export import canonical_dumps
from repro.runner.cells import Cell, execute_cell

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sim_digests.json"

#: the ``repro chaos`` CLI's default fault plan (``standard_chaos_plan``
#: keyword arguments), kept literal so a CLI default change cannot
#: silently move this pin.
CHAOS_PLAN = {
    "seed": 0,
    "counter_error_rate": 0.05,
    "garbage_rate": 0.02,
    "tick_miss_rate": 0.02,
    "stall_rate": 0.005,
    "stall_duration_us": 2_000.0,
    "cgroup_error_rate": 0.02,
    "container_crash_period_us": 30_000.0,
    "node_failures": 1,
    "node_failure_period_us": 50_000.0,
    "node_downtime_us": 20_000.0,
}


def _chaos_faults() -> str:
    from repro.faults import standard_chaos_plan

    return standard_chaos_plan(**CHAOS_PLAN).to_json()


#: every cell runs at this seed.
SEED = 42


def cells() -> dict[str, dict]:
    """Cell id -> kind, params and the path the cell covers."""
    return {
        "colocation/redis-a-heracles": {
            "kind": "colocation",
            "params": {
                "service": "redis",
                "workload": "a",
                "setting": "heracles",
                "duration_us": 30_000.0,
            },
            "covers": "Heracles controller beside a live service",
        },
        "colocation/rocksdb-b-holmes-obs": {
            "kind": "colocation",
            "params": {
                "service": "rocksdb",
                "workload": "b",
                "setting": "holmes",
                "duration_us": 30_000.0,
                "obs": "all",
            },
            "covers": "obs plane, every category incl. the quanta export",
        },
        "colocation/redis-a-holmes-chaos": {
            "kind": "colocation",
            "params": {
                "service": "redis",
                "workload": "a",
                "setting": "holmes",
                "duration_us": 60_000.0,
                "faults": _chaos_faults(),
            },
            "covers": "repro chaos plan: batch threads killed mid-op",
        },
        "fig2": {
            "kind": "fig2",
            "params": {"duration_us": 10_000.0},
            "covers": "SMT sibling microbenchmark (Fig. 2)",
        },
        "hpe": {
            "kind": "hpe",
            "params": {"duration_us": 20_000.0},
            "covers": "HPE selection: counter accrual and slow noise",
        },
        "convergence/2ms": {
            "kind": "convergence",
            "params": {"heracles_epoch_us": 2_000.0, "parties_step_us": 2_000.0},
            "covers": "Table 4 step stimulus, incl. the Parties DVFS ladder",
        },
        "cluster_sweep/least-loaded-8": {
            "kind": "cluster_sweep",
            "params": {
                "policy": "least-loaded",
                "n_nodes": 8,
                "n_jobs": 16,
                "duration_us": 20_000.0,
            },
            "covers": "8-node cluster sweep, least-loaded placement",
        },
        "cluster_sweep/score-4-chaos": {
            "kind": "cluster_sweep",
            "params": {
                "policy": "score",
                "n_nodes": 4,
                "n_jobs": 12,
                "duration_us": 150_000.0,
                "faults": _chaos_faults(),
            },
            "covers": "node fail-stop and recovery: daemon restart, resubmission",
        },
    }


def digest(spec: dict) -> str:
    payload = execute_cell(Cell.make(spec["kind"], spec["params"], SEED))
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def compute_table() -> dict[str, dict]:
    return {
        cell_id: {"covers": spec["covers"], "sha256": digest(spec)}
        for cell_id, spec in cells().items()
    }


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())["cells"]


@pytest.mark.parametrize("calendar", ["heap", "wheel"])
def test_sim_payloads_match_golden_digests(calendar, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CALENDAR", calendar)
    golden = load_golden()
    assert sorted(golden) == sorted(cells())
    got = {cell_id: digest(spec) for cell_id, spec in cells().items()}
    moved = [cid for cid in sorted(got) if got[cid] != golden[cid]["sha256"]]
    assert not moved, f"payload digests moved under {calendar}: {moved}"


def test_every_golden_entry_names_its_path():
    for cell_id, entry in load_golden().items():
        assert entry["covers"] == cells()[cell_id]["covers"], cell_id


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print(__doc__)
        return 2
    os.environ.pop("REPRO_SIM_CALENDAR", None)
    old = load_golden() if GOLDEN.exists() else {}
    new = compute_table()
    for cell_id in sorted(set(old) | set(new)):
        before = old.get(cell_id, {}).get("sha256")
        after = new.get(cell_id, {}).get("sha256")
        mark = "unchanged" if before == after else "CHANGED"
        print(f"{cell_id}: {before} -> {after} ({mark})")
    GOLDEN.write_text(json.dumps({"cells": new}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
