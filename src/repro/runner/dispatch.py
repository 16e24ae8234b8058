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
  arrive.

Each cell goes to the executor once.  Failures take one unified path:
a failed remote attempt (worker crash, poisoned pool, injected transport
fault) is backfilled in the parent as it lands, with the runner's
bounded retry budget; only a cell that keeps failing there raises
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

    __slots__ = ("index", "cell", "done")

    def __init__(self, index: int, cell: Cell):
        self.index = index
        self.cell = cell
        self.done = False


class DispatchCore:
    """Feed an executor from a cost-ordered ready queue, stream results.

    ``run`` returns ``(payload, compute_seconds)`` pairs aligned with
    the input cell list.  Duplicate cells (the legacy ``dedupe=False``
    path) are independent slots and each executes once.

    ``local_retry`` is the parent-side backfill: called with (cell,
    last_error) when a remote attempt failed, it must either return a
    ``(payload, seconds)`` pair (retrying as it sees fit) or raise.
    ``on_result`` is invoked once per slot as its result lands -- the
    runner writes the cache through it, so a killed sweep keeps every
    completed cell.  ``on_event`` observes the core's own recovery
    decisions (``backfill``, ``transport_lost``) with audit fields; the
    runner records them like the executors' own events.

    ``telemetry`` (a :class:`~repro.obs.runner.RunnerTelemetry`) arms the
    wall-clock span layer: one ``cell`` span per slot, one
    ``cell_attempt`` span per launched task (its id rides
    ``Task.span_id`` across the executor so worker-side compute spans
    stitch back in), and per-loop-iteration samples of ready-queue
    depth, effective workers and steals.  ``parent_span`` nests
    everything under the runner's sweep span.
    """

    def __init__(
        self,
        executor,
        *,
        cost_model: Optional[CostModel] = None,
        local_retry: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
        on_event: Optional[Callable] = None,
        telemetry=None,
        parent_span: Optional[int] = None,
    ):
        self.executor = executor
        self.cost_model = cost_model or CostModel()
        self.local_retry = local_retry
        self.on_result = on_result
        self.on_event = on_event
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
        tasks: dict[int, _Slot] = {}  # in-flight task_id -> slot
        next_task_id = 0
        remaining = len(cells)
        # telemetry bookkeeping (None-guarded; all dead weight when off)
        cell_spans: dict[int, int] = {}  # slot index -> cell span id
        attempt_spans: dict[int, int] = {}  # task_id -> attempt span id
        waited = False  # a launch after the first wait() is a steal

        def launch(slot: _Slot) -> None:
            nonlocal next_task_id
            span_id = None
            if tel is not None:
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
                )
                attempt_spans[next_task_id] = span_id
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
            self.executor.submit(task)

        def finish(slot: _Slot, payload: dict, secs: float) -> None:
            nonlocal remaining
            slot.done = True
            remaining -= 1
            results[slot.index] = (payload, secs)
            if self.on_result is not None:
                self.on_result(slot.cell, payload, secs)
            if tel is not None:
                tel.end(cell_spans.pop(slot.index, -1), status="ok")

        def backfill(slot: _Slot, error: BaseException) -> None:
            if self.local_retry is None:
                raise error
            self._emit("backfill", cell=slot.cell.cell_id, error=repr(error))
            span = -1
            if tel is not None:
                span = tel.begin(
                    "backfill",
                    cat="dispatch",
                    parent=cell_spans.get(slot.index),
                    cell=slot.cell.cell_id,
                    error=repr(error),
                )
            try:
                payload, secs = self.local_retry(slot.cell, error)
            except BaseException:
                if tel is not None:
                    tel.end(span, status="error")
                raise
            if tel is not None:
                tel.end(span, status="ok")
            finish(slot, payload, secs)

        while remaining:
            # fill every free executor slot from the ready queue; every
            # unfinished slot is then queued or in flight, so the
            # executor holds at least one task to wait on.
            while ready and len(tasks) < self.executor.capacity:
                launch(ready.popleft())
            if tel is not None:
                # per-iteration health samples for the runner registry.
                m = tel.metrics
                m.histogram("ready_queue_depth", QUEUE_DEPTH_BUCKETS) \
                    .observe(len(ready))
                m.gauge("effective_workers").set(len(tasks))
                m.gauge("cells_remaining").set(remaining)
            try:
                completions = self.executor.wait()
            except ExecutorError as exc:
                # the transport itself died (pool rebuild budget spent):
                # recover every unfinished slot in the parent rather than
                # losing the sweep.
                self._emit("transport_lost", unfinished=remaining, error=repr(exc))
                if tel is not None:
                    for task_id in tasks:
                        tel.end(attempt_spans.pop(task_id, -1), status="lost")
                for slot in slots:
                    if not slot.done:
                        backfill(slot, exc)
                break
            waited = True
            for comp in completions:
                slot = tasks.pop(comp.task_id)
                if tel is not None:
                    tel.end(
                        attempt_spans.pop(comp.task_id, -1),
                        status="ok" if comp.ok else "error",
                    )
                    tel.adopt(comp.spans)
                if comp.ok:
                    finish(slot, comp.payload, comp.compute_s)
                else:
                    # streaming: backfill the moment the attempt fails,
                    # not after the whole sweep.
                    backfill(slot, comp.error)
        return results
