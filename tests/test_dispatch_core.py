"""The dispatch core and its executors: ordering, streaming, recovery.

The contract under test: whatever the transport — in-process or a
process pool — and whatever goes wrong short of a persistent cell
failure, ``DispatchCore.run`` returns payloads aligned with its input
and byte-equal to the serial reference.
"""

from __future__ import annotations

import os

import pytest

from repro.runner import (
    Cell,
    ExperimentRequest,
    ExperimentRunner,
    RetryPolicy,
    expand_request,
)
from repro.runner.dispatch import CostModel, DispatchCore
from repro.runner.executors import (
    Completion,
    ExecutorError,
    InProcessExecutor,
    PoolExecutor,
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


@pytest.mark.parametrize(
    ("costs", "order"),
    [([1.0, 2.0, 3.0, 4.0], [3, 2, 1, 0]), ([4.0, 3.0, 2.0, 1.0], [0, 1, 2, 3])],
    ids=["lpt", "fifo"],
)
def test_dispatch_orders_longest_expected_first(costs, order):
    """The most expensive cell dispatches first; hints that rank cells in
    input order (``fifo``) make the core first-in-first-out."""
    cells = _cells(4)
    hints = {c.cell_id: cost for c, cost in zip(cells, costs)}
    seen: list[int] = []

    class Recorder(InProcessExecutor):
        def submit(self, task: Task) -> None:
            seen.append(task.seed)
            super().submit(task)

    DispatchCore(Recorder(), cost_model=CostModel(hints=hints)).run(cells)
    assert seen == order


@pytest.mark.slow
def test_dispatch_order_never_changes_merged_bytes():
    """Three short cells and a longer one, last in input order, on a 2-worker
    pool: FIFO hints hand the long cell out last, the cost model's own LPT
    order first, and the merged reports are the same bytes."""
    requests = [
        ExperimentRequest.make(
            "colocation",
            {**_PARAMS, "setting": "holmes", "duration_us": duration_us},
            seed,
        )
        for seed, duration_us in enumerate([5_000.0] * 3 + [20_000.0])
    ]
    cells = [cell for req in requests for _role, cell in expand_request(req)]
    fifo_hints = {c.cell_id: float(len(cells) - i) for i, c in enumerate(cells)}
    model = CostModel()
    assert model.estimate(cells[-1]) > model.estimate(cells[0])
    merged = []
    for hints in (fifo_hints, None):
        runner = ExperimentRunner(parallel=2, executor="pool", cost_hints=hints)
        merged.append(runner.run(requests).merged_bytes())
    assert merged[0] == merged[1]


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

    results = DispatchCore(_FlakyExecutor(), local_retry=local_retry).run(cells)
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

    results = DispatchCore(_BrokenExecutor(), local_retry=local_retry).run(cells)
    assert len(recovered) == 2
    assert all(r is not None for r in results)


def test_no_retry_callback_reraises():
    with pytest.raises(ExecutorError):
        DispatchCore(_BrokenExecutor()).run(_cells(1))


# -- executors -----------------------------------------------------------------


def test_make_executor_rejects_unknown_spec():
    for spec in ("carrier-pigeon", "socket"):
        with pytest.raises(ValueError):
            make_executor(spec, 2)


def test_inprocess_wait_without_submit_raises():
    with pytest.raises(ExecutorError):
        InProcessExecutor().wait()


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


def test_finished_pool_sweep_leaves_no_worker_or_pool_thread():
    """A sweep that ends with nothing in flight joins its pool: no worker
    process, pool manager thread or queue feeder outlives ``run()``."""
    import multiprocessing
    import threading

    children = set(multiprocessing.active_children())
    threads = set(threading.enumerate())
    requests = [
        ExperimentRequest.make("sleep", {"wall_s": 0.0, "tag": f"t{i}"}, seed=i)
        for i in range(4)
    ]
    ExperimentRunner(cache=None, parallel=2, dedupe=False).run(requests)
    assert set(multiprocessing.active_children()) - children == set()
    assert [t.name for t in set(threading.enumerate()) - threads] == []


@pytest.mark.slow
@pytest.mark.parametrize("budget", [0, 1])
def test_pool_rebuild_budget_bounds_worker_death_recovery(budget):
    """A cell that kills the pool worker it lands on breaks the pool: the
    wreckage is backfilled in the parent, and the retry policy's rebuild
    budget decides whether a fresh pool takes the remaining cells
    (``pool_rebuild``) or the executor declares itself dead
    (``pool_dead``) and every later cell is backfilled too."""
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
    events: list[str] = []
    backfilled: list[str] = []

    def local_retry(cell, last_error):
        from repro.runner.cells import execute_cell

        backfilled.append(cell.cell_id)
        # the parent's pid matches parent_pid, so the cell computes fine
        return execute_cell(cell), 0.0

    ex = PoolExecutor(
        2,
        RetryPolicy(rebuild_budget=budget),
        on_event=lambda name, **fields: events.append(name),
    )
    try:
        results = DispatchCore(ex, local_retry=local_retry).run(cells)
    finally:
        ex.close()
    reference = DispatchCore(InProcessExecutor()).run(cells)
    assert [p for p, _s in results] == [p for p, _s in reference]
    # how many ok cells shared the poison's broken pool varies with
    # timing; the poison itself is backfilled exactly once either way.
    assert backfilled.count(poison.cell_id) == 1
    if budget:
        assert events.count("pool_rebuild") == 1
        assert "pool_dead" not in events
    else:
        assert events.count("pool_dead") == 1
        assert "pool_rebuild" not in events
