"""Pluggable cell executors behind one pull-based protocol.

The dispatch core (:mod:`repro.runner.dispatch`) never touches a pool
directly; it talks to an :class:`Executor`:

* :meth:`Executor.submit` hands over one :class:`Task` (a cell spec plus
  a dispatch-assigned task id);
* :meth:`Executor.wait` blocks until at least one submitted task has
  finished and returns its :class:`Completion`\\ s -- streaming, in
  completion order, never head-of-line blocked on the slowest task;
* :meth:`Executor.close` shuts the transport down.

Two implementations:

* :class:`InProcessExecutor` -- capacity 1, runs cells synchronously in
  the parent.  The serial reference the pool is byte-compared against.
* :class:`PoolExecutor` -- a ``ProcessPoolExecutor`` wrapper, the one
  multi-process transport.  A worker that dies poisons the whole stdlib
  pool; the wrapper converts the wreckage into per-task error
  completions and rebuilds the pool, so the dispatch core's retry path
  sees an ordinary failure instead of a lost sweep.

Executors are transport, not policy: retries, ordering and caching all
live in the dispatch core, so both transports share the same semantics.
The pool's rebuild budget comes from the
:class:`~repro.runner.resilience.RetryPolicy`, and each rebuild (or the
pool's death once the budget is spent) is reported through an optional
``on_event`` callback with audit fields, which the runner records as a
recovery event.  Transport chaos wraps
either executor in the parent-side
:class:`~repro.runner.resilience.ChaosExecutor`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Task:
    """One dispatched cell execution."""

    task_id: int
    #: picklable/JSON-able cell spec: (kind, param_dict, seed).
    kind: str
    params: dict
    seed: int
    #: trace context: the parent-side span id worker-side compute spans
    #: attach to (None = telemetry off; no span comes back).
    span_id: Optional[int] = None


@dataclass
class Completion:
    """Outcome of one task: a payload or an exception, never both."""

    task_id: int
    payload: Optional[dict] = None
    compute_s: float = 0.0
    error: Optional[BaseException] = None
    #: worker-side span dicts riding back beside (never inside) the
    #: payload; the dispatch core adopts them into the parent trace.
    spans: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _compute_span(
    span_id: Optional[int], kind: str, t0: float, t1: float, status: str
) -> Optional[list]:
    """The worker-side compute span for one executed task, or None."""
    if span_id is None:
        return None
    return [{
        "name": "compute", "cat": "worker", "parent": span_id,
        "t0": t0, "t1": t1, "status": status,
        "args": {"pid": os.getpid(), "kind": kind},
    }]


class ExecutorError(RuntimeError):
    """The executor itself broke (not a cell failure): a dead pool whose
    rebuild budget is spent, or ``wait()`` with nothing submitted."""


def _execute_task(task: Task) -> Completion:
    """Run one task in the current process (the in-process executor)."""
    from repro.runner.cells import Cell, execute_cell

    t0 = time.perf_counter()
    w0 = time.time()
    # a cell's error is carried to the core; an interrupt or exit (not
    # an Exception) propagates instead of failing one cell.
    try:
        payload = execute_cell(Cell.make(task.kind, task.params, task.seed))
    except Exception as exc:  # noqa: BLE001 - carried to the core
        return Completion(
            task.task_id,
            error=exc,
            spans=_compute_span(task.span_id, task.kind, w0, time.time(), "error"),
        )
    return Completion(
        task.task_id,
        payload=payload,
        compute_s=time.perf_counter() - t0,
        spans=_compute_span(task.span_id, task.kind, w0, time.time(), "ok"),
    )


class _ExecutorContext:
    """Context-manager mixin: ``with make_executor(...) as ex`` closes it."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class InProcessExecutor(_ExecutorContext):
    """Serial reference executor: one slot, runs cells in the parent."""

    name = "inprocess"
    capacity = 1

    def __init__(self):
        self._queue: deque[Task] = deque()

    def submit(self, task: Task) -> None:
        self._queue.append(task)

    def wait(self) -> list[Completion]:
        if not self._queue:
            raise ExecutorError("wait() with no submitted task")
        return [_execute_task(self._queue.popleft())]

    def close(self) -> None:
        self._queue.clear()


def _pool_worker(spec: tuple) -> tuple[dict, float, Optional[list]]:
    """Module-level pool body (must be picklable)."""
    from repro.runner.cells import Cell, execute_cell

    kind, params, seed, span_id = spec
    t0 = time.perf_counter()
    w0 = time.time()
    payload = execute_cell(Cell.make(kind, params, seed))
    return (
        payload,
        time.perf_counter() - t0,
        _compute_span(span_id, kind, w0, time.time(), "ok"),
    )


class PoolExecutor(_ExecutorContext):
    """Process-pool transport with budgeted broken-pool recovery.

    ``wait`` streams completions as futures resolve.  When the pool
    breaks (a worker hard-exited), every in-flight task is reported as a
    failed completion and a fresh pool replaces the broken one -- the
    dispatch core's normal retry path then recovers each cell instead of
    the whole sweep dying.  Rebuilds are bounded by the retry policy's
    ``rebuild_budget``: once spent, the executor declares itself dead --
    submitted tasks come back as error completions, and ``wait`` with
    nothing left to report raises :class:`ExecutorError`, which the
    dispatch core answers by backfilling every unfinished cell in the
    parent.
    """

    name = "pool"

    def __init__(
        self,
        parallel: int,
        retry_policy=None,
        on_event: Optional[Callable[..., None]] = None,
    ):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.capacity = parallel
        self.on_event = on_event
        self._rebuilds_left = (
            retry_policy.rebuild_budget if retry_policy is not None else 2
        )
        self._dead = False
        self._lost: list[Completion] = []  # submits after pool death
        self._pool = ProcessPoolExecutor(max_workers=parallel)
        self._futures: dict = {}  # future -> task_id

    def _emit(self, name: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event(name, **fields)

    def submit(self, task: Task) -> None:
        if self._dead:
            # submit must not raise (the dispatch core calls it
            # unguarded); report the loss as an ordinary completion.
            self._lost.append(
                Completion(
                    task.task_id,
                    error=ExecutorError("process pool is dead (rebuild budget spent)"),
                )
            )
            return
        fut = self._pool.submit(
            _pool_worker, (task.kind, task.params, task.seed, task.span_id)
        )
        self._futures[fut] = task.task_id

    def wait(self) -> list[Completion]:
        if self._lost:
            out, self._lost = self._lost, []
            out.sort(key=lambda c: c.task_id)
            return out
        if self._dead:
            raise ExecutorError("process pool is dead (rebuild budget spent)")
        if not self._futures:
            raise ExecutorError("wait() with no submitted task")
        done, _ = futures_wait(self._futures, return_when=FIRST_COMPLETED)
        out = []
        broken = False
        for fut in done:
            task_id = self._futures.pop(fut)
            try:
                payload, secs, spans = fut.result()
            except BaseException as exc:  # noqa: BLE001 - carried to the core
                out.append(Completion(task_id, error=exc))
                broken = broken or self._is_broken(exc)
            else:
                out.append(Completion(task_id, payload=payload,
                                      compute_s=secs, spans=spans))
        if broken:
            # the remaining futures are doomed too: drain them as
            # failures and stand up a replacement pool for future work.
            for fut, task_id in list(self._futures.items()):
                try:
                    payload, secs, spans = fut.result()
                    out.append(
                        Completion(task_id, payload=payload,
                                   compute_s=secs, spans=spans)
                    )
                except BaseException as exc:  # noqa: BLE001
                    out.append(Completion(task_id, error=exc))
            self._futures.clear()
            self._pool.shutdown(wait=False, cancel_futures=True)
            if self._rebuilds_left > 0:
                self._rebuilds_left -= 1
                self._pool = ProcessPoolExecutor(max_workers=self.capacity)
                self._emit(
                    "pool_rebuild",
                    drained=len(out),
                    rebuilds_left=self._rebuilds_left,
                )
            else:
                self._dead = True
                self._emit("pool_dead", drained=len(out))
        # deterministic reporting order regardless of set iteration.
        out.sort(key=lambda c: c.task_id)
        return out

    @staticmethod
    def _is_broken(exc: BaseException) -> bool:
        from concurrent.futures.process import BrokenProcessPool

        return isinstance(exc, BrokenProcessPool)

    def close(self) -> None:
        # an idle pool is joined, so no worker or pool thread outlives
        # the sweep; with tasks in flight (a failed or interrupted
        # sweep) it is cancelled without waiting for a running cell.
        self._pool.shutdown(wait=not self._futures, cancel_futures=True)
        self._futures.clear()
        self._lost.clear()


#: executor spec names accepted by the runner / CLI.
EXECUTORS = ("inprocess", "pool")


def make_executor(
    spec: str,
    parallel: int,
    retry_policy=None,
    chaos_plan=None,
    on_event: Optional[Callable[..., None]] = None,
):
    """Build an executor from its spec name (see :data:`EXECUTORS`).

    ``retry_policy`` supplies the pool's rebuild budget; ``chaos_plan``
    (a :class:`~repro.faults.plan.FaultPlan` of transport specs) wraps
    the executor in a
    :class:`~repro.runner.resilience.ChaosExecutor`; ``on_event``
    observes every recovery decision.
    """
    if spec == "inprocess":
        inner = InProcessExecutor()
    elif spec == "pool":
        inner = PoolExecutor(parallel, retry_policy, on_event=on_event)
    else:
        raise ValueError(
            f"unknown executor {spec!r}: expected one of {EXECUTORS}"
        )
    if chaos_plan is not None:
        # imported here: resilience imports this module at load time.
        from repro.runner.resilience import ChaosExecutor

        return ChaosExecutor(inner, chaos_plan, on_event=on_event)
    return inner
