"""The async dispatch core: cost-ordered ready queue over any executor.

The old runner submitted every cell to a static process pool up front
and collected futures in submission order; a skewed mix (one 200-job
cluster sweep next to dozens of cheap probes) left most of the pool
idle behind the straggler.  :class:`DispatchCore` replaces that with a
shared ready queue:

* cells are ordered **longest-expected-first** by a :class:`CostModel`
  seeded from cached timings (falling back to a static per-kind
  heuristic over the cell's simulated duration and size), the classic
  LPT schedule that keeps the straggler from starting last;
* workers pull work as they free up -- the executor only ever holds
  ``capacity`` tasks, so a fast worker that drains its cell immediately
  takes the next one (work-stealing by construction, no per-worker
  queues to go empty);
* completions stream back and are folded (and cache-written) as they
  arrive;
* once the ready queue is empty, a **bounded speculative pass** clones
  the last stragglers onto idle workers: first result wins, the loser
  is cancelled best-effort.  Payloads are keyed by the cell, not by who
  computed it, and cells are deterministic, so speculation can never
  change a report byte.

Failures take one unified path: a failed remote attempt (worker crash,
poisoned pool, socket death past its requeue budget) is backfilled
in the parent with the runner's bounded retry budget; only a cell that
keeps failing there raises
:class:`~repro.runner.runner.CellExecutionError`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.obs.runner import QUEUE_DEPTH_BUCKETS
from repro.runner.cells import DEFAULT_DURATION_US, Cell
from repro.runner.executors import ExecutorError, Task


class CostModel:
    """Expected cell cost, for longest-expected-first ordering.

    Three tiers, most-informed first:

    * ``hints`` -- exact per-cell timings (seconds) from a previous run
      (``RunReport.timings``) or from cache entries' recorded
      ``compute_s``;
    * per-kind calibration -- :meth:`observe` feeds (cell, seconds)
      pairs (the runner reports cache hits' stored timings); the model
      scales the static heuristic of same-kind cells by the observed
      seconds-per-heuristic-unit ratio;
    * the static heuristic -- simulated microseconds of work, scaled by
      the cell kind's breadth (a cluster sweep simulates every node for
      the duration; a co-location cell simulates one).

    Estimates only need to *order* cells usefully; they are never
    reported as predictions.
    """

    def __init__(self, hints: Optional[dict] = None):
        self.hints = dict(hints or {})
        self._kind_ratio: dict[str, tuple[float, int]] = {}

    @staticmethod
    def heuristic(cell: Cell) -> float:
        """Static prior in simulated-microsecond-equivalents."""
        params = cell.param_dict
        duration = float(params.get("duration_us", DEFAULT_DURATION_US))
        if cell.kind == "cluster_sweep":
            n_nodes = int(params.get("n_nodes", 8))
            n_jobs = int(params.get("n_jobs", 200))
            return duration * max(n_nodes, 1) * (1.0 + n_jobs / 100.0)
        if cell.kind == "profile":
            # ~117 probe sims at the default matrix; dominated by count.
            iterations = int(params.get("iterations", 24))
            return 120 * iterations * 25_000.0
        if cell.kind == "convergence":
            return float(params.get("heracles_epoch_us", 15_000_000.0))
        if cell.kind == "fig2":
            return float(params.get("duration_us", 30_000.0)) * 16
        if cell.kind == "hpe":
            return float(params.get("duration_us", 60_000.0)) * 8
        return duration

    def observe(self, cell: Cell, seconds: float) -> None:
        """Calibrate the kind's heuristic with one observed timing."""
        if seconds <= 0.0:
            return
        h = self.heuristic(cell)
        if h <= 0.0:
            return
        total, n = self._kind_ratio.get(cell.kind, (0.0, 0))
        self._kind_ratio[cell.kind] = (total + seconds / h, n + 1)

    def estimate(self, cell: Cell) -> float:
        hinted = self.hints.get(cell.cell_id)
        if hinted is not None and hinted > 0.0:
            return float(hinted)
        h = self.heuristic(cell)
        calib = self._kind_ratio.get(cell.kind)
        if calib is not None:
            total, n = calib
            return h * (total / n)
        # uncalibrated heuristic units: scaled so they never dwarf or
        # vanish next to hinted seconds (1e6 sim-us ~ O(seconds) wall).
        return h / 1e6


class _Slot:
    """Dispatch state of one requested cell execution."""

    __slots__ = ("index", "cell", "inflight", "cloned", "done", "last_error")

    def __init__(self, index: int, cell: Cell):
        self.index = index
        self.cell = cell
        self.inflight = 0
        self.cloned = False
        self.done = False
        self.last_error: Optional[BaseException] = None


class DispatchCore:
    """Feed an executor from a cost-ordered ready queue, stream results.

    ``run`` returns ``(payload, compute_seconds)`` pairs aligned with
    the input cell list.  Duplicate cells (the legacy ``dedupe=False``
    path) are independent slots and each executes once.

    ``local_retry`` is the parent-side backfill: called with (cell,
    last_error) when a remote attempt failed, it must either return a
    ``(payload, seconds)`` pair (retrying as it sees fit) or raise.
    ``on_result`` is invoked once per slot as its first result lands --
    the runner writes the cache through it, so a killed sweep keeps
    every completed cell.  ``on_event`` observes the core's own recovery
    decisions (``backfill``, ``speculate``, ``transport_lost``) with
    audit fields; the runner forwards them to the obs plane and the
    sweep journal.

    ``telemetry`` (a :class:`~repro.obs.runner.RunnerTelemetry`) arms the
    wall-clock span layer: one ``cell`` span per slot, one
    ``cell_attempt`` span per launched task (its id rides
    ``Task.span_id`` across the executor so worker-side compute spans
    stitch back in), and per-loop-iteration samples of ready-queue
    depth, effective workers, steals and speculation wins/losses.
    ``parent_span`` nests everything under the runner's sweep span.
    """

    def __init__(
        self,
        executor,
        *,
        cost_model: Optional[CostModel] = None,
        local_retry: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        speculate: int = 0,
        telemetry=None,
        parent_span: Optional[int] = None,
    ):
        self.executor = executor
        self.cost_model = cost_model or CostModel()
        self.local_retry = local_retry
        self.on_result = on_result
        self.on_event = on_event
        self.speculate = max(0, int(speculate))
        self.telemetry = telemetry
        self.parent_span = parent_span

    def _emit(self, name: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event(name, **fields)

    def run(self, cells: list[Cell]) -> list[tuple[dict, float]]:
        if not cells:
            return []
        tel = self.telemetry
        slots = [_Slot(i, cell) for i, cell in enumerate(cells)]
        # longest-expected-first; ties broken by cell_id then slot index
        # so the order is deterministic for any cost model.
        ready = deque(
            sorted(
                slots,
                key=lambda s: (
                    -self.cost_model.estimate(s.cell),
                    s.cell.cell_id,
                    s.index,
                ),
            )
        )
        results: list = [None] * len(cells)
        tasks: dict[int, _Slot] = {}  # live task_id -> slot
        next_task_id = 0
        speculated = 0
        in_executor = 0
        remaining = len(cells)
        # telemetry bookkeeping (None-guarded; all dead weight when off)
        cell_spans: dict[int, int] = {}  # slot index -> cell span id
        attempt_spans: dict[int, int] = {}  # task_id -> attempt span id
        clone_ids: set[int] = set()
        waited = False  # a launch after the first wait() is a steal

        def launch(slot: _Slot) -> None:
            nonlocal next_task_id, in_executor
            span_id = None
            if tel is not None:
                cell_span = cell_spans.get(slot.index)
                if cell_span is None:
                    cell_span = tel.begin(
                        "cell",
                        cat="dispatch",
                        parent=self.parent_span,
                        cell=slot.cell.cell_id,
                    )
                    cell_spans[slot.index] = cell_span
                span_id = tel.begin(
                    "cell_attempt",
                    cat="dispatch",
                    parent=cell_span,
                    cell=slot.cell.cell_id,
                    task=next_task_id,
                    clone=slot.cloned,
                )
                attempt_spans[next_task_id] = span_id
                if slot.cloned:
                    clone_ids.add(next_task_id)
                if waited:
                    tel.metrics.counter("steals").inc()
            task = Task(
                next_task_id,
                slot.cell.kind,
                slot.cell.param_dict,
                slot.cell.seed,
                span_id=span_id,
            )
            next_task_id += 1
            tasks[task.task_id] = slot
            slot.inflight += 1
            in_executor += 1
            self.executor.submit(task)

        def finish(slot: _Slot, payload: dict, secs: float) -> None:
            nonlocal remaining, in_executor
            slot.done = True
            remaining -= 1
            results[slot.index] = (payload, secs)
            if self.on_result is not None:
                self.on_result(slot.cell, payload, secs)
            # cancel any speculative sibling still queued or running; a
            # successful cancel means no completion will ever arrive for
            # that task, so the executor slot frees immediately.
            for task_id, owner in list(tasks.items()):
                if owner is slot:
                    if self.executor.cancel(task_id):
                        del tasks[task_id]
                        slot.inflight -= 1
                        in_executor -= 1
                        if tel is not None:
                            tel.end(
                                attempt_spans.pop(task_id, -1),
                                status="cancelled",
                            )
            # the cell span closes with its *last* attempt: a clone the
            # executor could not cancel is still running, and its attempt
            # span must end inside the cell span (nesting invariant).
            if tel is not None and slot.inflight == 0:
                tel.end(cell_spans.pop(slot.index, -1), status="ok")

        def backfill(slot: _Slot) -> None:
            if self.local_retry is None:
                raise slot.last_error
            self._emit(
                "backfill",
                cell=slot.cell.cell_id,
                error=repr(slot.last_error),
            )
            span = -1
            if tel is not None:
                span = tel.begin(
                    "backfill",
                    cat="dispatch",
                    parent=cell_spans.get(slot.index),
                    cell=slot.cell.cell_id,
                    error=repr(slot.last_error),
                )
            try:
                payload, secs = self.local_retry(slot.cell, slot.last_error)
            except BaseException:
                if tel is not None:
                    tel.end(span, status="error")
                raise
            if tel is not None:
                tel.end(span, status="ok")
            finish(slot, payload, secs)

        while remaining:
            # fill every free executor slot from the ready queue.
            while ready and in_executor < self.executor.capacity:
                launch(ready.popleft())
            # ready queue dry, workers idle: speculate on stragglers.
            if (
                not ready
                and self.speculate > speculated
                and in_executor < self.executor.capacity
            ):
                stragglers = sorted(
                    (
                        s
                        for s in slots
                        if not s.done and s.inflight == 1 and not s.cloned
                    ),
                    key=lambda s: (
                        -self.cost_model.estimate(s.cell),
                        s.cell.cell_id,
                    ),
                )
                for slot in stragglers:
                    if (
                        self.speculate <= speculated
                        or in_executor >= self.executor.capacity
                    ):
                        break
                    slot.cloned = True
                    speculated += 1
                    self._emit("speculate", cell=slot.cell.cell_id)
                    if tel is not None:
                        tel.instant(
                            "speculation",
                            cat="dispatch",
                            parent=cell_spans.get(slot.index),
                            cell=slot.cell.cell_id,
                        )
                    launch(slot)
            if tel is not None:
                # per-iteration health samples for the runner registry.
                m = tel.metrics
                m.histogram("ready_queue_depth", QUEUE_DEPTH_BUCKETS) \
                    .observe(len(ready))
                m.gauge("effective_workers").set(in_executor)
                m.gauge("cells_remaining").set(remaining)
            if in_executor == 0:
                # every in-flight attempt failed; recover serially.
                for slot in slots:
                    if not slot.done and slot.inflight == 0:
                        backfill(slot)
                continue
            try:
                completions = self.executor.wait()
            except ExecutorError as exc:
                # the transport itself died (worker fleet gone, handshake
                # never completed): recover every unfinished slot in the
                # parent rather than losing the sweep.
                self._emit(
                    "transport_lost",
                    unfinished=sum(1 for s in slots if not s.done),
                    error=repr(exc),
                )
                if tel is not None:
                    tel.instant(
                        "transport_lost",
                        cat="dispatch",
                        parent=self.parent_span,
                        error=repr(exc),
                    )
                    for task_id in list(tasks):
                        tel.end(
                            attempt_spans.pop(task_id, -1), status="lost"
                        )
                tasks.clear()
                for slot in slots:
                    if not slot.done:
                        if slot.last_error is None:
                            slot.last_error = exc
                        slot.inflight = 0
                        backfill(slot)
                break
            waited = True
            for comp in completions:
                slot = tasks.pop(comp.task_id, None)
                if slot is None:
                    if tel is not None:
                        tel.end(
                            attempt_spans.pop(comp.task_id, -1),
                            status="stale",
                        )
                        tel.adopt(comp.spans)
                    continue  # cancelled clone that finished anyway
                slot.inflight -= 1
                in_executor -= 1
                if tel is not None:
                    tel.end(
                        attempt_spans.pop(comp.task_id, -1),
                        status="ok" if comp.ok else "error",
                    )
                    tel.adopt(comp.spans)
                    if slot.cloned and not slot.done and comp.ok:
                        name = (
                            "speculation_wins"
                            if comp.task_id in clone_ids
                            else "speculation_losses"
                        )
                        tel.metrics.counter(name).inc()
                if slot.done:
                    # the sibling already won; this straggler was the
                    # last attempt keeping the cell span open.
                    if tel is not None and slot.inflight == 0:
                        tel.end(cell_spans.pop(slot.index, -1), status="ok")
                    continue
                if comp.ok:
                    finish(slot, comp.payload, comp.compute_s)
                else:
                    slot.last_error = comp.error
                    if slot.inflight == 0:
                        # no sibling left to save the cell: backfill now
                        # (streaming -- not after the whole sweep).
                        backfill(slot)
        if tel is not None:
            # the loop exits as soon as every result is in; speculative
            # clones the executor could not cancel may still be running
            # and die with the executor shutdown.  Close their spans
            # here so nothing outlives the dispatch (nesting invariant).
            # Executor-held spans (e.g. an in-flight socket assign) must
            # close first -- they nest *inside* the attempt spans below.
            abandon = getattr(self.executor, "abandon_telemetry", None)
            if abandon is not None:
                abandon()
            for task_id in list(attempt_spans):
                tel.end(attempt_spans.pop(task_id), status="abandoned")
            for index in list(cell_spans):
                tel.end(cell_spans.pop(index), status="ok")
        return results
