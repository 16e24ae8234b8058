"""The resilience layer: retry policy, chaos engine, journal, resume.

The contract under test: whatever the chaos plan injects and whenever
the parent dies, a sweep's merged report is byte-identical to a clean
uninterrupted run -- recovery re-executes cells, never alters them --
and the journal proves which cells a resumed sweep actually recomputed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import (
    FaultChannel,
    standard_chaos_plan,
    transport_chaos_plan,
)
from repro.runner import (
    Cell,
    ChaosExecutor,
    ChaosFault,
    ExperimentRequest,
    ExperimentRunner,
    InProcessExecutor,
    ResultCache,
    RetryPolicy,
    SweepJournal,
    Task,
)

# -- retry policy --------------------------------------------------------------


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(seed=7)
    first = policy.backoff_s("cellA", 1)
    assert first == policy.backoff_s("cellA", 1)
    assert policy.backoff_s("cellB", 1) != first
    assert policy.backoff_s("cellA", 2) != first
    low = policy.backoff_base_s * (1.0 - policy.jitter)
    high = policy.backoff_base_s * (1.0 + policy.jitter)
    assert low <= first <= high
    # exponential growth is capped at backoff_max_s (plus jitter)
    late = policy.backoff_s("cellA", 50)
    assert late <= policy.backoff_max_s * (1.0 + policy.jitter)


def test_retry_policy_classifies_poisonous_errors():
    policy = RetryPolicy()
    assert policy.is_poisonous(MemoryError())
    assert policy.is_poisonous(KeyboardInterrupt())
    assert not policy.is_poisonous(RuntimeError("transient"))
    assert not policy.is_poisonous(ChaosFault("injected"))

    class OutOfMemoryish(MemoryError):
        pass

    # classification walks the MRO, so subclasses are poisonous too
    assert policy.is_poisonous(OutOfMemoryish())


def test_retry_policy_validation_and_round_trip():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(requeue_budget=-1)
    assert RetryPolicy.from_cell_retries(2).max_attempts == 3
    policy = RetryPolicy(max_attempts=5, seed=3, requeue_budget=2)
    assert RetryPolicy.from_dict(policy.to_dict()) == policy


# -- fault channels ------------------------------------------------------------


def test_fault_channel_fires_at_nth_opportunity():
    plan = transport_chaos_plan(seed=0, kill_at_task=3)
    channel = FaultChannel.of(plan, "worker_kill", "worker0")
    hits = [channel.draw() is not None for _ in range(6)]
    assert hits == [False, False, True, False, False, False]


def test_fault_channel_rate_draws_are_reproducible_and_capped():
    plan = transport_chaos_plan(seed=5, kill_rate=0.5, fault_cap=2)
    one = FaultChannel.of(plan, "worker_kill", "transport")
    two = FaultChannel.of(plan, "worker_kill", "transport")
    pattern_one = [one.draw() is not None for _ in range(40)]
    pattern_two = [two.draw() is not None for _ in range(40)]
    assert pattern_one == pattern_two, "same channel must replay exactly"
    assert sum(pattern_one) == 2, "fault_cap bounds total fires"


# -- chaos executor ------------------------------------------------------------


def _sleep_task(task_id: int, seed: int = 1) -> Task:
    cell = Cell.make("sleep", {"wall_s": 0.0}, seed)
    return Task(task_id, cell.kind, cell.param_dict, cell.seed)


def test_chaos_executor_rejects_non_transport_kinds():
    plan = standard_chaos_plan(seed=0, counter_error_rate=0.5)
    with pytest.raises(ValueError, match="non-transport"):
        ChaosExecutor(InProcessExecutor(), plan)


def test_chaos_executor_refuses_before_the_inner_executor():
    # connect_refuse is capped at one fire in the preset: the first task
    # never reaches the inner executor, the second passes through.
    plan = transport_chaos_plan(seed=0, connect_refuse_rate=1.0)
    with ChaosExecutor(InProcessExecutor(), plan) as ex:
        ex.submit(_sleep_task(0))
        comps = ex.wait()
        assert len(comps) == 1
        assert isinstance(comps[0].error, ChaosFault)
        assert not ex.inner._queue, "refused task must not reach the inner"
        ex.submit(_sleep_task(1))
        comps = ex.wait()
        assert comps[0].ok


def test_chaos_executor_dooms_completions_after_compute():
    plan = transport_chaos_plan(seed=0, kill_at_task=1)
    with ChaosExecutor(InProcessExecutor(), plan) as ex:
        ex.submit(_sleep_task(0))
        comps = ex.wait()
        assert isinstance(comps[0].error, ChaosFault)
        assert "worker_kill" in str(comps[0].error)
        ex.submit(_sleep_task(1))
        assert ex.wait()[0].ok, "the kill fired once, at the first task"


def test_chaos_run_report_matches_clean_run():
    requests = [
        ExperimentRequest.make("sleep", {"wall_s": 0.0, "tag": f"t{i}"}, i)
        for i in range(4)
    ]
    clean = ExperimentRunner(parallel=1).run(requests).merged_bytes()
    plan = transport_chaos_plan(
        seed=3,
        kill_rate=0.4,
        connect_refuse_rate=0.5,
        truncate_rate=0.3,
        garbage_rate=0.3,
        slow_rate=0.3,
        slow_duration_us=1_000.0,
    )
    chaotic = ExperimentRunner(parallel=1, chaos_plan=plan).run(requests)
    assert chaotic.merged_bytes() == clean


# -- sweep journal -------------------------------------------------------------


def test_journal_round_trip_and_stats(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with SweepJournal(path) as journal:
        journal.append({"rec": "start", "n_cells": 2})
        journal.append({"rec": "plan", "cell": "a"})
        journal.append({"rec": "plan", "cell": "b"})
        journal.append({"rec": "retry", "cell": "b", "attempt": 1})
        journal.append({"rec": "done", "cell": "a", "compute_s": 0.5})
    records = SweepJournal.load(path)
    assert [r["rec"] for r in records] == [
        "start",
        "plan",
        "plan",
        "retry",
        "done",
    ]
    stats = SweepJournal.stats_of(records)
    assert stats.planned == ("a", "b")
    assert stats.done == {"a": 0.5}
    assert stats.unfinished == ("b",)
    assert stats.retries == 1
    assert not stats.ended


def test_journal_tolerates_torn_tail_but_not_corrupt_middle(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with SweepJournal(path) as journal:
        journal.append({"rec": "plan", "cell": "a"})
        journal.append({"rec": "done", "cell": "a", "compute_s": 0.1})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"rec":"done","cell":')  # SIGKILL mid-append
    records = SweepJournal.load(path)
    assert [r["rec"] for r in records] == ["plan", "done"]

    corrupt = str(tmp_path / "corrupt.jsonl")
    with open(corrupt, "w", encoding="utf-8") as fh:
        fh.write('{"rec":"plan","cell":"a"}\n')
        fh.write("not json at all\n")
        fh.write('{"rec":"end"}\n')
    with pytest.raises(ValueError, match="corrupt journal line 2"):
        SweepJournal.load(corrupt)


def test_resume_validation():
    with pytest.raises(ValueError, match="journal"):
        ExperimentRunner(resume=True)
    with pytest.raises(ValueError, match="cache"):
        ExperimentRunner(journal="journal.jsonl", resume=True)


def test_resume_reuses_cache_and_recomputes_only_unfinished(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    path = str(tmp_path / "journal.jsonl")
    requests = [
        ExperimentRequest.make("sleep", {"wall_s": 0.0, "tag": f"t{i}"}, i)
        for i in range(4)
    ]
    ExperimentRunner(cache=cache, parallel=1, journal=path).run(requests[:2])
    resumed = ExperimentRunner(
        cache=cache, parallel=1, journal=path, resume=True
    ).run(requests)
    reference = ExperimentRunner(parallel=1).run(requests)
    assert resumed.merged_bytes() == reference.merged_bytes()
    assert resumed.n_cell_runs == 2, "only the two new cells may compute"
    records = SweepJournal.load(path)
    resume_recs = [r for r in records if r["rec"] == "resume"]
    assert len(resume_recs) == 1
    assert resume_recs[0]["recovered"] == 2


# -- crash-safe resume after SIGKILL -------------------------------------------

_DRIVER = """\
import sys

from repro.runner import ExperimentRequest, ExperimentRunner, ResultCache

executor, cache_dir, journal = sys.argv[1:4]
requests = [
    ExperimentRequest.make("sleep", {"wall_s": 0.4, "tag": f"t{i}"}, seed=i)
    for i in range(4)
]
runner = ExperimentRunner(
    cache=ResultCache(cache_dir),
    parallel=2,
    executor=executor,
    journal=journal,
)
runner.run(requests)
"""


@pytest.mark.slow
@pytest.mark.parametrize("executor", ["inprocess", "pool", "socket"])
def test_sigkilled_sweep_resumes_byte_identical(executor, tmp_path):
    """SIGKILL the parent mid-sweep; resume must complete byte-identical
    to an uninterrupted run, recomputing only the unfinished cells."""
    import repro

    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "journal.jsonl")
    env = os.environ.copy()
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    parts = [pkg_root]
    parts += [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    proc = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, executor, cache_dir, path],
        env=env,
        stdin=subprocess.DEVNULL,
    )
    killed = False
    deadline = time.monotonic() + 120.0
    try:
        while time.monotonic() < deadline:
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    if '"rec":"done"' in fh.read():
                        os.kill(proc.pid, signal.SIGKILL)
                        killed = True
                        break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
    finally:
        if proc.poll() is None and not killed:
            proc.kill()
        proc.wait(timeout=60)
    assert killed, "the sweep finished before the kill landed"

    before = SweepJournal.stats_of(SweepJournal.load(path))
    assert before.done, "the kill waited for at least one completion"
    assert before.unfinished, "the kill must interrupt a live sweep"
    assert not before.ended

    requests = [
        ExperimentRequest.make("sleep", {"wall_s": 0.4, "tag": f"t{i}"}, i)
        for i in range(4)
    ]
    resumed = ExperimentRunner(
        cache=ResultCache(cache_dir),
        parallel=2,
        journal=path,
        resume=True,
    ).run(requests)
    reference = ExperimentRunner(parallel=1).run(requests)
    assert resumed.merged_bytes() == reference.merged_bytes()

    records = SweepJournal.load(path)
    assert SweepJournal.stats_of(records).ended
    second_start = max(i for i, r in enumerate(records) if r.get("rec") == "start")
    segment = records[second_start:]
    assert any(rec.get("rec") == "resume" for rec in segment)
    fresh_done = {rec["cell"] for rec in segment if rec.get("rec") == "done"}
    fresh_cached = {rec["cell"] for rec in segment if rec.get("rec") == "cached"}
    # the journal proves it: every journalled completion of the killed
    # run came back from the cache, and only unfinished cells recomputed.
    assert set(before.done) <= fresh_cached
    assert fresh_done.isdisjoint(before.done)
    assert fresh_done | fresh_cached == set(before.planned)
