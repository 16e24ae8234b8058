"""Tests of the benchmark itself: ``python3 -m pytest bench/``."""

from __future__ import annotations

import cProfile
import hashlib
import json
import multiprocessing
import os
import pathlib
import pstats
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import worker

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_one_op(workload):
    code, lines = run_bench("--workload", workload, "--ops", "1")
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # the warm-up and the timed op
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    code, lines = run_bench("--workload", "runner-warm", "--ops", "1", "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # the warm sweep is all cache hits: the simulator does no work
    assert values["runner.cache_hit_ratio"] == 1.0
    assert values["sim.share"] + values["hw.share"] + values["oskernel.share"] < 1.0
    total = sum(values[f"{layer}.share"] for layer in layers.LAYERS)
    assert total == pytest.approx(100.0)


def test_tampered_golden_fails_the_run(tmp_path):
    golden = json.loads((BENCH / "golden" / "digests.json").read_text())
    golden["ops"] = {k: "0" * 64 for k in golden["ops"]}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    code, lines = run_bench(
        "--workload", "colo-cell", "--ops", "1", "--golden", str(path)
    )
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2


def test_tampered_payload_and_exception_count_as_failed_ops():
    payload = b'{"p99_us":140.8}'
    checker = worker.Checker({"op": hashlib.sha256(payload).hexdigest()})

    def boom():
        raise RuntimeError("cell crashed")

    ops = [
        worker.Op("op", lambda: payload, bytes, 1.0),
        worker.Op("op", lambda: payload.replace(b"8", b"9"), bytes, 1.0),
        worker.Op("op", boom, bytes, 1.0),
    ]
    timed = worker.measure(ops, checker, n_ops=3)
    assert len(timed) == 3
    assert checker.attempted == 3
    assert checker.failed == 2


def test_measure_runs_whole_cycles():
    checker = worker.Checker(None)
    ops = [worker.Op(f"op{i}", lambda: b"", bytes, 1.0) for i in range(3)]
    assert len(worker.measure(ops, checker, seconds=0.0)) == 3
    assert len(worker.measure(ops, checker, n_ops=4)) == 4


def test_rates_cover_every_timed_op_and_op_s_the_fastest():
    a = worker.Op("a", lambda: b"", bytes, 100.0)
    b = worker.Op("b", lambda: b"", bytes, 100.0)
    # b's second repetition hit a pause: op_s ignores it, the rates do not
    timed = [worker.Timed(a, 1.0), worker.Timed(b, 3.0)] * 2
    timed[3] = worker.Timed(b, 7.0)
    m = worker.e2e_metrics(timed)
    assert m["op_s"] == pytest.approx(2.0)
    assert m["ops_per_s"] == pytest.approx(4 / 12.0)
    assert m["sim_us_per_s"] == pytest.approx(400.0 / 12.0)


def _profiler_active() -> bool:
    if sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return (
        monitoring is not None
        and monitoring.get_tool(monitoring.PROFILER_ID) is not None
    )


def test_forked_children_are_not_profiled():
    profile = worker.new_profile()
    profile.enable()
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child_profiled = pool.apply(_profiler_active)
        parent_profiled = _profiler_active()
    finally:
        profile.disable()
    assert parent_profiled
    assert not child_profiled


def test_traced_runner_cold_runs_its_pool_workers_unprofiled():
    # profiled workers would run every cell about 3x slower
    code, lines = run_bench("--workload", "runner-cold", "--ops", "1", "--trace", "1")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"]
    assert result["metrics"]["trace_overhead"]["value"] < 2.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench")
    code, lines = run_bench("--workload", "colo-cell", "--ops", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_layer_of():
    root = os.path.join("src", "repro")
    assert layers.layer_of(os.path.join(root, "sim", "core.py"), root) == "sim"
    kv = os.path.join(root, "workloads", "kv", "redis.py")
    assert layers.layer_of(kv, root) == "workloads.kv"
    batch = os.path.join(root, "workloads", "batch.py")
    assert layers.layer_of(batch, root) == "workloads"
    assert layers.layer_of(os.path.join(root, "cli.py"), root) == "other"
    assert layers.layer_of(json.__file__, root) == "other"
    assert layers.layer_of("~", root) == "other"


def test_fold_sums_to_total_self_time():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np

        import repro
        from repro.runner.cells import latency_summary
    finally:
        sys.path.pop(0)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(20):
        latency_summary(np.arange(1000.0))
    profile.disable()
    stats = pstats.Stats(profile)
    repro_root = os.path.dirname(repro.__file__)
    folded = layers.fold(stats, repro_root)
    total = sum(row[2] for row in stats.stats.values())
    assert set(folded) == set(layers.LAYERS)
    assert sum(folded.values()) == pytest.approx(total)
    assert folded["runner"] > 0.0


def test_span_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "name": "sweep", "t0": 0.0, "t1": 10.0},
        {"id": 1, "parent": 0, "name": "cell", "t0": 1.0, "t1": 5.0},
        {"id": 2, "parent": 0, "name": "cell", "t0": 3.0, "t1": 7.0},
        {"id": 3, "parent": 1, "name": "compute", "t0": 2.0, "t1": 4.0},
    ]
    self_s = layers.span_self_seconds(spans)
    assert self_s["sweep"] == pytest.approx(10.0 - 6.0)
    assert self_s["cell"] == pytest.approx((4.0 - 2.0) + 4.0)
    assert self_s["compute"] == pytest.approx(2.0)


# -- compare.py rules --------------------------------------------------------

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_improved_needs_nine_wins_in_ten():
    faster = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, faster, 0.1, "lower")["status"] == "improved"
    # 8 wins in 10: a big median gain alone does not count
    mixed = faster[:8] + [1.5, 1.5]
    v = compare.verdict(PARENT, mixed, 0.1, "lower")
    assert v["win_frac"] == 0.8
    assert v["status"] == "unchanged"


def test_improved_needs_a_gain_beyond_the_parent_iqr():
    slightly = [v - 0.001 for v in PARENT]
    v = compare.verdict(PARENT, slightly, 0.1, "lower")
    assert v["win_frac"] == 1.0
    assert v["status"] == "unchanged"


def test_regressed_beyond_the_bound():
    slower = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, slower, 0.1, "lower")["status"] == "regressed"
    assert compare.verdict(PARENT, slower, 0.25, "lower")["status"] == "unchanged"
    # the same numbers are a gain when higher is better
    assert compare.verdict(PARENT, slower, 0.1, "higher")["status"] == "improved"


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    noisy = [1.0, 1.3, 0.7, 1.2, 0.8, 1.0, 1.3, 0.7, 1.1, 0.9]
    same = list(reversed(noisy))
    assert compare.verdict(noisy, same, 0.1, "lower")["status"] == "unresolved"


def _record(digests: dict, failed: int = 0) -> dict:
    return {"digests": digests, "failed": failed, "attempted": 10}


def test_digest_mismatch_and_failed_share():
    parent = [_record({"a": "1", "b": "2"})]
    change = [_record({"a": "1", "b": "3"}, failed=1)]
    assert compare.digest_mismatches(parent, change) == ["b"]
    assert compare.failed_share(parent) == 0.0
    assert compare.failed_share(change) == 0.1


def test_compare_needs_ten_pairs(tmp_path):
    assert compare.main(["--parent", str(tmp_path), "--change", str(tmp_path)]) == 2


def _pair_dirs(tmp_path: pathlib.Path) -> tuple[list[str], list[str]]:
    parent = [tmp_path / f"p{i}" for i in range(compare.MIN_PAIRS)]
    change = [tmp_path / f"c{i}" for i in range(compare.MIN_PAIRS)]
    for d in parent + change:
        d.mkdir()
    return [str(d) for d in parent], [str(d) for d in change]


def test_compare_fails_when_one_side_has_no_records(tmp_path):
    parent, change = _pair_dirs(tmp_path)
    record = _record({"colo-cell/a": "1"})
    record["metrics"] = {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"]}
    for d in parent:
        (pathlib.Path(d) / "colo-cell.json").write_text(json.dumps(record))
    # every change run crashed, so the change side wrote no records
    assert compare.main(["--parent", *parent, "--change", *change]) == 1
    for d in change:
        (pathlib.Path(d) / "colo-cell.json").write_text(json.dumps(record))
    assert compare.main(["--parent", *parent, "--change", *change]) == 0


def test_compare_fails_with_no_records_at_all(tmp_path):
    parent, change = _pair_dirs(tmp_path)
    assert compare.main(["--parent", *parent, "--change", *change]) == 2
