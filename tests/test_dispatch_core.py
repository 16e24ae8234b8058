"""The dispatch core and its executors: ordering, streaming, recovery.

The contract under test: whatever the transport — in-process, a process
pool, or socket worker subprocesses — and whatever goes wrong short of a
persistent cell failure, ``DispatchCore.run`` returns payloads aligned
with its input and byte-equal to the serial reference.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.runner import Cell
from repro.runner.dispatch import CostModel, DispatchCore
from repro.runner.executors import (
    Completion,
    ExecutorError,
    InProcessExecutor,
    PoolExecutor,
    SocketExecutor,
    Task,
    make_executor,
)

_PARAMS = {"service": "redis", "workload": "a", "duration_us": 5_000.0}


def _cells(n: int) -> list[Cell]:
    return [
        Cell.make("colocation", {**_PARAMS, "setting": "alone"}, seed)
        for seed in range(n)
    ]


# -- cost model ----------------------------------------------------------------


def test_cost_model_hints_override_heuristic():
    cheap = Cell.make("colocation", {**_PARAMS, "setting": "alone"}, 1)
    heavy = Cell.make(
        "cluster_sweep",
        {"n_nodes": 100, "n_jobs": 500, "duration_us": 1e6},
        1,
    )
    model = CostModel()
    assert model.estimate(heavy) > model.estimate(cheap)
    # an explicit timing hint beats any heuristic
    hinted = CostModel(hints={heavy.cell_id: 0.001, cheap.cell_id: 10.0})
    assert hinted.estimate(cheap) > hinted.estimate(heavy)


def test_cost_model_observation_calibrates_kind():
    cell_a = Cell.make("colocation", {**_PARAMS, "setting": "alone"}, 1)
    cell_b = Cell.make("colocation", {**_PARAMS, "setting": "holmes"}, 2)
    model = CostModel()
    base = model.estimate(cell_b)
    # a slow observed run of the same kind scales same-kind estimates up
    model.observe(cell_a, 100.0)
    assert model.estimate(cell_b) > base


def test_dispatch_orders_longest_expected_first():
    cells = _cells(4)
    hints = {c.cell_id: float(i + 1) for i, c in enumerate(cells)}
    seen: list[int] = []

    class Recorder(InProcessExecutor):
        def submit(self, task: Task) -> None:
            seen.append(task.seed)
            super().submit(task)

    DispatchCore(Recorder(), cost_model=CostModel(hints=hints)).run(cells)
    assert seen == [3, 2, 1, 0], "most expensive cell must dispatch first"


# -- alignment and duplicates --------------------------------------------------


def test_results_align_with_input_order_and_duplicates():
    cells = _cells(3)
    doubled = cells + [cells[0]]  # dedupe=False-style duplicate occurrence
    results = DispatchCore(InProcessExecutor()).run(doubled)
    assert len(results) == 4
    payloads = [p for p, _s in results]
    assert payloads[0] == payloads[3]
    serial = [p for p, _s in DispatchCore(InProcessExecutor()).run(cells)]
    assert payloads[:3] == serial


# -- failure recovery ----------------------------------------------------------


class _FlakyExecutor(InProcessExecutor):
    """Fails every task's first attempt with a synthetic remote error."""

    def __init__(self):
        super().__init__()
        self.failed: set[int] = set()

    def wait(self) -> list[Completion]:
        task = self._queue[0]
        if task.task_id not in self.failed:
            self.failed.add(task.task_id)
            self._queue.popleft()
            return [
                Completion(
                    task.task_id,
                    error=RuntimeError("synthetic remote crash"),
                )
            ]
        return super().wait()


def test_failed_remote_attempt_is_backfilled_streaming():
    cells = _cells(3)
    backfilled: list[str] = []

    def local_retry(cell, last_error):
        assert isinstance(last_error, RuntimeError)
        backfilled.append(cell.cell_id)
        from repro.runner.cells import execute_cell

        return execute_cell(cell), 0.0

    results = DispatchCore(
        _FlakyExecutor(), local_retry=local_retry
    ).run(cells)
    assert len(backfilled) == 3
    assert all(r is not None for r in results)


class _BrokenExecutor(InProcessExecutor):
    """Dies as a transport after accepting work."""

    def wait(self) -> list[Completion]:
        raise ExecutorError("transport lost")


def test_dead_transport_recovers_in_parent():
    cells = _cells(2)
    recovered: list[str] = []

    def local_retry(cell, last_error):
        assert isinstance(last_error, ExecutorError)
        recovered.append(cell.cell_id)
        from repro.runner.cells import execute_cell

        return execute_cell(cell), 0.0

    results = DispatchCore(
        _BrokenExecutor(), local_retry=local_retry
    ).run(cells)
    assert len(recovered) == 2
    assert all(r is not None for r in results)


def test_no_retry_callback_reraises():
    with pytest.raises(ExecutorError):
        DispatchCore(_BrokenExecutor()).run(_cells(1))


# -- executors -----------------------------------------------------------------


def test_make_executor_rejects_unknown_spec():
    with pytest.raises(ValueError):
        make_executor("carrier-pigeon", 2)


def test_inprocess_wait_without_submit_raises():
    with pytest.raises(ExecutorError):
        InProcessExecutor().wait()


def test_inprocess_cancel_removes_queued_task():
    ex = InProcessExecutor()
    cell = _cells(1)[0]
    ex.submit(Task(0, cell.kind, cell.param_dict, cell.seed))
    assert ex.cancel(0) is True
    assert ex.cancel(0) is False


@pytest.mark.slow
def test_pool_executor_streams_completions():
    cells = _cells(4)
    ex = PoolExecutor(2)
    try:
        for i, c in enumerate(cells):
            ex.submit(Task(i, c.kind, c.param_dict, c.seed))
        got: list[Completion] = []
        while len(got) < 4:
            batch = ex.wait()
            assert batch, "wait() must return at least one completion"
            got.extend(batch)
        assert sorted(c.task_id for c in got) == [0, 1, 2, 3]
        assert all(c.ok for c in got)
    finally:
        ex.close()


@pytest.mark.slow
def test_socket_executor_round_trip_matches_inprocess():
    cells = _cells(3)
    serial = [p for p, _s in DispatchCore(InProcessExecutor()).run(cells)]
    ex = SocketExecutor(2)
    try:
        remote = [p for p, _s in DispatchCore(ex).run(cells)]
    finally:
        ex.close()
    assert remote == serial


@pytest.mark.slow
def test_socket_executor_survives_worker_kill():
    """A worker killed mid-fleet is buried, respawned, its task requeued."""
    cells = _cells(2)
    ex = SocketExecutor(2, heartbeat_timeout_s=10.0)
    try:
        # kill one worker out from under the executor before dispatching
        victim = ex._workers[0].proc
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        results = DispatchCore(ex).run(cells)
    finally:
        ex.close()
    assert all(r is not None for r in results)
    serial = DispatchCore(InProcessExecutor()).run(cells)
    assert [p for p, _s in results] == [p for p, _s in serial]


@pytest.mark.slow
def test_poisonous_cell_exhausts_requeue_budget_without_stalling_fleet():
    """A cell that kills every worker it lands on is failed after its
    requeue budget while other cells keep completing, and its stale
    bookkeeping does not outlive the failure."""
    ok_cells = [
        Cell.make("sleep", {"wall_s": 0.0, "tag": f"ok{i}"}, i)
        for i in range(3)
    ]
    poison = Cell.make(
        "sleep",
        {"mode": "exit", "parent_pid": os.getpid(), "wall_s": 0.0},
        99,
    )
    cells = [poison] + ok_cells
    events: list[tuple[str, dict]] = []
    backfilled: list[str] = []

    def local_retry(cell, last_error):
        assert isinstance(last_error, ExecutorError)
        backfilled.append(cell.cell_id)
        from repro.runner.cells import execute_cell

        # the parent's pid matches parent_pid, so the cell computes fine
        return execute_cell(cell), 0.0

    ex = SocketExecutor(
        2,
        heartbeat_timeout_s=30.0,
        max_respawns=4,
        requeue_budget=1,
        on_event=lambda name, **fields: events.append((name, fields)),
    )
    try:
        results = DispatchCore(ex, local_retry=local_retry).run(cells)
        assert ex._requeues == {}, "budget exhaustion must drop bookkeeping"
        assert ex._respawns_left == 2, "exactly two workers died"
    finally:
        ex.close()
    assert all(r is not None for r in results)
    assert backfilled == [poison.cell_id]
    names = [name for name, _fields in events]
    assert names.count("requeue") == 1
    assert names.count("requeue_exhausted") == 1
    assert names.count("respawn") == 2


@pytest.mark.slow
def test_long_compute_does_not_trip_heartbeat_bury():
    """Heartbeats come from a worker-side daemon thread, so a cell that
    computes for longer than the heartbeat timeout must complete instead
    of being buried as a flatline (the false-bury regression)."""
    cell = Cell.make("sleep", {"wall_s": 3.5}, 7)
    ex = SocketExecutor(1, heartbeat_timeout_s=2.5, max_respawns=4)
    try:
        results = DispatchCore(ex).run([cell])
        assert ex._respawns_left == 4, "no worker may be buried"
    finally:
        ex.close()
    assert results[0][0]["wall_s"] == 3.5


def test_socket_executor_init_failure_leaks_nothing(monkeypatch):
    """A spawn failure mid-__init__ must kill already-started workers and
    release the listener instead of leaking them from a half-built
    executor."""
    spawned: list = []
    real_spawn = SocketExecutor._spawn

    def flaky_spawn(self):
        if spawned:
            raise OSError("spawn refused")
        proc = real_spawn(self)
        spawned.append(proc)
        return proc

    monkeypatch.setattr(SocketExecutor, "_spawn", flaky_spawn)
    with pytest.raises(OSError, match="spawn refused"):
        SocketExecutor(2)
    assert len(spawned) == 1
    spawned[0].wait(timeout=30)
    assert spawned[0].poll() is not None, "leaked worker subprocess"


@pytest.mark.slow
def test_socket_cancel_drops_requeue_bookkeeping():
    """Cancelling a pending task clears its death count: a later clone
    with the same task id must start with a fresh requeue budget."""
    ex = SocketExecutor(1)
    try:
        cell = _cells(1)[0]
        ex.submit(Task(0, cell.kind, cell.param_dict, cell.seed))
        ex._requeues[0] = 1  # as if a worker already died on this task
        assert ex.cancel(0) is True
        assert ex._requeues == {}
    finally:
        ex.close()


# -- wire protocol -------------------------------------------------------------


def test_frame_round_trip_and_limits():
    import socket as socket_mod

    from repro.runner.worker import MAX_FRAME_BYTES, recv_frame, send_frame

    a, b = socket_mod.socketpair()
    try:
        send_frame(a, {"type": "task", "params": {"x": 1.5, "y": [1, 2]}})
        frame = recv_frame(b)
        assert frame == {"type": "task", "params": {"x": 1.5, "y": [1, 2]}}

        # a clean close reads as None (end of stream)...
        a.close()
        assert recv_frame(b) is None
    finally:
        b.close()

    # ...but a mid-frame close is a protocol error
    a, b = socket_mod.socketpair()
    try:
        a.sendall(b"\x00\x00\x00\x10partial")
        a.close()
        with pytest.raises(ConnectionError):
            recv_frame(b)
    finally:
        b.close()

    # an absurd length prefix is refused before any allocation
    a, b = socket_mod.socketpair()
    try:
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ValueError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_worker_canonical_params_restores_tuples():
    from repro.runner.worker import _canonical_params

    params = {"e_values": [50.0, 70.0], "service": "redis", "n": 3}
    fixed = _canonical_params(params)
    assert fixed["e_values"] == (50.0, 70.0)
    assert fixed["service"] == "redis"
    assert fixed["n"] == 3


# -- the CI gate over a bench record's dispatch_core section --------------------


def _gate():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).parents[1] / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dispatch_section(workers: int, speedup: float) -> dict:
    return {
        "effective_workers": workers,
        "skewed_mix": {
            "n_cheap": 8,
            "fifo_wall_s": 1.0,
            "lpt_wall_s": 1.0 / speedup,
            "speedup": speedup,
            "identical_merged_results": True,
        },
        "sharded_sweep": {"identical_merged_results": True},
    }


def test_dispatch_gate_skip_is_loud_at_one_worker(capsys):
    gate = _gate()
    assert gate.check_dispatch_core(_dispatch_section(1, 1.0), 1.3) == []
    out = capsys.readouterr().out
    assert "SKIPPED: dispatch-core speedup gate" in out
    assert "this record ran 1" in out


def test_dispatch_gate_applies_at_two_workers(capsys):
    gate = _gate()
    assert gate.check_dispatch_core(_dispatch_section(2, 1.5), 1.3) == []
    assert "SKIPPED" not in capsys.readouterr().out
    [failure] = gate.check_dispatch_core(_dispatch_section(2, 1.1), 1.3)
    assert "only 1.10x" in failure
