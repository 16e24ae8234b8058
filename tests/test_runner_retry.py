"""Runner robustness: crashed pool workers, poisoned pools, the
bounded in-process retry budget, and poisonous errors that no retry
can help.
"""

import os

import pytest

from repro.obs.runner import RunnerTelemetry
from repro.runner import CellExecutionError, ExperimentRunner, RetryPolicy
from repro.runner import aggregate as agg_mod
from repro.runner import cells as cells_mod
from repro.runner.aggregate import ExperimentRequest, ExperimentSpec

#: pid of the pytest process; a cell body seeing a different pid is
#: running inside a pool worker.
PARENT_PID = os.getpid()

_FLAKY_FAILURES = {"left": 0}
#: executions of the cells that raise MemoryError / KeyboardInterrupt
_RUNS = {"poisonous": 0, "interrupted": 0}


def _poisoned_cell(params: dict, seed: int) -> dict:
    """Hard-kills any pool worker it runs in (no exception to catch --
    the pool itself breaks); computes normally in the parent."""
    if os.getpid() != PARENT_PID:
        os._exit(1)
    return {"ok": True, "seed": seed, **params}


def _failing_cell(params: dict, seed: int) -> dict:
    raise ValueError("this cell always fails")


def _flaky_cell(params: dict, seed: int) -> dict:
    if _FLAKY_FAILURES["left"] > 0:
        _FLAKY_FAILURES["left"] -= 1
        raise RuntimeError("transient failure")
    return {"ok": True}


def _poisonous_cell(params: dict, seed: int) -> dict:
    _RUNS["poisonous"] += 1
    raise MemoryError("no retry can help")


def _interrupted_cell(params: dict, seed: int) -> dict:
    _RUNS["interrupted"] += 1
    raise KeyboardInterrupt


_KINDS = {
    "poisoned": _poisoned_cell,
    "failing": _failing_cell,
    "flaky": _flaky_cell,
    "poisonous": _poisonous_cell,
    "interrupted": _interrupted_cell,
}


@pytest.fixture
def custom_kinds():
    for name, fn in _KINDS.items():
        cells_mod.CELL_KINDS[name] = fn
        agg_mod.EXPERIMENTS[f"{name}_exp"] = ExperimentSpec(
            f"{name}_exp",
            agg_mod._single_cell(name, ("tag",)),
            agg_mod._agg_passthrough,
        )
    yield
    for name in _KINDS:
        cells_mod.CELL_KINDS.pop(name, None)
        agg_mod.EXPERIMENTS.pop(f"{name}_exp", None)


def test_crashed_worker_is_backfilled_in_parent(custom_kinds):
    runner = ExperimentRunner(parallel=2)
    report = runner.run([ExperimentRequest.make("poisoned_exp", {}, 1)])
    (result,) = report.experiments.values()
    assert result == {"ok": True, "seed": 1}


def test_poisoned_pool_loses_no_benign_cells(custom_kinds):
    # a dying worker breaks the whole pool: every outstanding future
    # fails, including cells that would have computed fine.  All of them
    # must be recovered by the serial backfill.
    requests = [
        ExperimentRequest.make("poisoned_exp", {"tag": f"t{i}"}, i)
        for i in range(4)
    ]
    report = ExperimentRunner(parallel=2).run(requests)
    assert len(report.experiments) == 4
    for i, req in enumerate(sorted(requests, key=lambda r: r.experiment_id)):
        assert report.experiments[req.experiment_id]["ok"] is True
    assert report.n_cell_runs == 4


@pytest.mark.parametrize("parallel", [1, 2])
def test_persistent_failure_raises_with_cell_id(custom_kinds, parallel):
    runner = ExperimentRunner(
        parallel=parallel, retry_policy=RetryPolicy.from_cell_retries(1)
    )
    with pytest.raises(CellExecutionError) as exc_info:
        runner.run([ExperimentRequest.make("failing_exp", {}, 7)])
    assert "failing" in str(exc_info.value)
    assert exc_info.value.cell_id.startswith("failing")
    assert isinstance(exc_info.value.last_error, ValueError)


def test_transient_failure_is_retried(custom_kinds):
    _FLAKY_FAILURES["left"] = 1
    report = ExperimentRunner(
        parallel=1, retry_policy=RetryPolicy.from_cell_retries(2)
    ).run([ExperimentRequest.make("flaky_exp", {}, 3)])
    (result,) = report.experiments.values()
    assert result == {"ok": True}
    assert _FLAKY_FAILURES["left"] == 0


def test_zero_retry_budget_fails_on_transient(custom_kinds):
    _FLAKY_FAILURES["left"] = 1
    runner = ExperimentRunner(
        parallel=1, retry_policy=RetryPolicy.from_cell_retries(0)
    )
    with pytest.raises(CellExecutionError):
        runner.run([ExperimentRequest.make("flaky_exp", {}, 3)])


def test_poisonous_failure_is_not_retried(custom_kinds):
    """A poisonous error (here MemoryError) fails the cell on its first
    execution, and the telemetry labels that one failure poisonous."""
    _RUNS["poisonous"] = 0
    tel = RunnerTelemetry()
    runner = ExperimentRunner(parallel=1, telemetry=tel)
    with pytest.raises(CellExecutionError) as exc_info:
        runner.run([ExperimentRequest.make("poisonous_exp", {}, 5)])
    assert isinstance(exc_info.value.last_error, MemoryError)
    assert _RUNS["poisonous"] == 1
    metrics = tel.snapshot()["metrics"]
    retries = {
        k: v["value"] for k, v in metrics.items() if k.startswith("retries")
    }
    assert retries == {"retries{classification=poisonous}": 1}


def test_interrupt_in_an_in_process_cell_propagates(custom_kinds):
    """An interrupt is not a cell failure: it leaves the sweep at once,
    as itself, without a parent retry."""
    _RUNS["interrupted"] = 0
    with pytest.raises(KeyboardInterrupt):
        ExperimentRunner(parallel=1).run(
            [ExperimentRequest.make("interrupted_exp", {}, 5)]
        )
    assert _RUNS["interrupted"] == 1


def test_runner_ctor_validation():
    with pytest.raises(ValueError):
        RetryPolicy.from_cell_retries(-1)
    with pytest.raises(ValueError):
        ExperimentRunner(parallel=0)
    # an executor name the runner no longer has fails loudly, naming the
    # ones it does
    with pytest.raises(ValueError, match=r"'inprocess', 'pool'"):
        ExperimentRunner(executor="socket")
