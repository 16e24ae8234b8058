"""The experiment runner: fan-out, cache, and deterministic merge.

``ExperimentRunner.run`` takes a sweep of :class:`ExperimentRequest`\\ s,
expands each into cells, dedupes identical cells across experiments,
satisfies what it can from the on-disk :class:`ResultCache`, computes the
rest, and folds cell payloads back into per-experiment aggregates.  The
merge is deterministic: cells and experiments are keyed and ordered by
their stable ids, so a sweep's merged output is byte-identical whether it
ran on one process or sixteen, cold or warm, and whichever executor
carried the cells.

Execution is delegated to the async dispatch core
(:mod:`repro.runner.dispatch`) over a pluggable executor
(:mod:`repro.runner.executors`): cells are ordered
longest-expected-first by a cost model seeded from cached timings,
workers pull work as they free up, results stream back and are written
through to the cache as they land, and failed remote attempts are
backfilled in the parent with the bounded retry budget.

``dedupe=False`` reproduces the legacy serial behaviour (every
experiment recomputes its own cells, duplicates and all); the bench
harness uses it as the baseline the runner is measured against.

Resilience (:mod:`repro.runner.resilience`) threads through here: one
:class:`RetryPolicy` drives the parent retry loop *and* the transport
budgets, ``journal=`` records the sweep as append-only JSONL next to
the cache (``resume=True`` restarts a killed sweep from journal +
cache, re-executing only unfinished cells), and ``chaos_plan=`` injects
deterministic transport faults -- which never change a report byte,
because recovery recomputes the same deterministic cells.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.export import canonical_dumps
from repro.obs.runner import SweepProgress
from repro.runner.aggregate import (
    ExperimentRequest,
    aggregate_request,
    expand_request,
)
from repro.runner.cache import ResultCache
from repro.runner.cells import Cell, execute_cell
from repro.runner.dispatch import CostModel, DispatchCore
from repro.runner.executors import EXECUTORS, ExecutorError, make_executor
from repro.runner.resilience import ChaosFault, RetryPolicy, SweepJournal


def _execute_cell_worker(args: tuple) -> tuple[dict, float]:
    """Execute one cell from its ``(kind, params, seed)`` tuple, timed."""
    kind, params, seed = args
    t0 = time.perf_counter()
    payload = execute_cell(Cell.make(kind, params, seed))
    return payload, time.perf_counter() - t0


class CellExecutionError(RuntimeError):
    """A cell kept failing after its retry budget was exhausted."""

    def __init__(self, cell_id: str, last_error: BaseException):
        super().__init__(
            f"cell {cell_id!r} failed after retries: {last_error!r}"
        )
        self.cell_id = cell_id
        self.last_error = last_error


@dataclass
class RunReport:
    """Merged output of one sweep."""

    #: experiment_id -> aggregated result (insertion = sorted order)
    experiments: dict[str, Any]
    #: cell_id -> payload
    cells: dict[str, Any]
    #: cell_id -> compute seconds (0.0 when served from cache)
    timings: dict[str, float]
    cache_stats: Optional[dict]
    wall_s: float
    #: cell executions actually performed (cache hits and dedupe excluded)
    n_cell_runs: int
    #: runner-level observability snapshot (wall-clock progress events);
    #: deliberately NOT part of merged() -- wall times differ per run.
    obs: Optional[dict] = None
    #: runner telemetry snapshot (wall-clock spans + metrics registry);
    #: like ``obs``, never part of merged() -- spans live beside, not
    #: inside, the deterministic artifacts.
    telemetry: Optional[dict] = None

    def merged(self) -> dict:
        """The deterministic, regression-comparable view of the sweep."""
        return {"experiments": self.experiments, "cells": self.cells}

    def merged_bytes(self) -> bytes:
        return canonical_dumps(self.merged()).encode()


class ExperimentRunner:
    """Runs sweeps of experiments over an executor with a shared cache.

    ``executor`` picks the transport (``"inprocess"``, ``"pool"``,
    ``"socket"``); None means pool when ``parallel > 1``, in-process
    otherwise.  ``cost_hints`` maps cell_id -> expected seconds (e.g. a
    previous report's ``timings``) and seeds the cost model's ordering.

    ``retry_policy`` overrides the legacy ``cell_retries`` knob with a
    full :class:`~repro.runner.resilience.RetryPolicy` (attempts,
    backoff, poisonous-error classification, transport budgets);
    ``journal`` (a path or a
    :class:`~repro.runner.resilience.SweepJournal`) records the sweep
    as crash-safe JSONL; ``resume=True`` restarts a killed sweep over
    that journal plus the cache, re-executing only unfinished cells;
    ``chaos_plan`` injects deterministic transport faults.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        parallel: int = 1,
        dedupe: bool = True,
        cell_retries: int = 2,
        obs=None,
        executor: Optional[str] = None,
        speculate: int = 1,
        cost_hints: Optional[dict] = None,
        retry_policy: Optional[RetryPolicy] = None,
        journal=None,
        resume: bool = False,
        chaos_plan=None,
        telemetry=None,
        progress: bool = False,
    ):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        if cell_retries < 0:
            raise ValueError(
                f"cell_retries must be >= 0, got {cell_retries}"
            )
        if executor is not None and executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}: expected one of {EXECUTORS}"
            )
        if resume and journal is None:
            raise ValueError("resume=True needs a journal to resume from")
        if resume and cache is None:
            raise ValueError(
                "resume=True needs the result cache (it holds the "
                "payloads of already-finished cells)"
            )
        self.cache = cache
        self.parallel = parallel
        self.dedupe = dedupe
        self.cell_retries = cell_retries
        self.executor_spec = executor
        self.speculate = max(0, int(speculate))
        self.cost_hints = dict(cost_hints or {})
        self.retry_policy = retry_policy or RetryPolicy.from_cell_retries(
            cell_retries
        )
        self.journal = journal
        self.resume = resume
        self.chaos_plan = chaos_plan
        #: the journal of the currently-running sweep (set inside run()).
        self._journal: Optional[SweepJournal] = None
        self._run_t0 = 0.0
        #: runner-scope observability plane (wall-clock progress events;
        #: kept out of every byte-compared artifact).
        self.obs = obs
        self._obs_runner = obs is not None and obs.wants("runner")
        #: runner telemetry (wall-clock spans + metrics); a disabled
        #: instance collapses to None so the off path is one `is not
        #: None` check per instrumentation point.
        self.telemetry = telemetry if (
            telemetry is not None and telemetry.enabled
        ) else None
        self.progress = bool(progress)
        self._sweep_span = -1

    def _emit(self, name: str, t0: float, **args) -> None:
        if self._obs_runner:
            self.obs.emit("runner", name, time.perf_counter() - t0,
                          node="runner", **args)

    def _journal_rec(self, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(record)

    # -- dispatch-core path ----------------------------------------------

    def _backfill(
        self, cell: Cell, last: Optional[BaseException], attempts: int
    ) -> tuple[dict, float]:
        """Recompute a failed cell in the parent, bounded by ``attempts``.

        The retry policy classifies each failure (a poisonous error
        fails immediately -- no retry can help) and spaces attempts with
        deterministic jittered backoff keyed on the cell id, so two runs
        of the same sweep back off identically.
        """
        arg = (cell.kind, cell.param_dict, cell.seed)
        policy = self.retry_policy
        tel = self.telemetry
        for attempt in range(1, attempts + 1):
            try:
                return _execute_cell_worker(arg)
            except Exception as exc:  # noqa: BLE001 - rethrown below
                last = exc
                if tel is not None:
                    tel.metrics.counter(
                        "retries",
                        classification=(
                            "poisonous" if policy.is_poisonous(exc)
                            else self._classify(exc)
                        ),
                    ).inc()
                if policy.is_poisonous(exc):
                    break
                if attempt < attempts:
                    backoff = policy.backoff_s(cell.cell_id, attempt)
                    self._journal_rec({
                        "rec": "retry",
                        "cell": cell.cell_id,
                        "attempt": attempt,
                        "error": repr(exc),
                        "backoff_s": backoff,
                    })
                    self._emit("retry", self._run_t0,
                               cell=cell.cell_id, attempt=attempt,
                               backoff_s=backoff)
                    if backoff > 0.0:
                        if tel is not None:
                            with tel.span(
                                "retry_backoff",
                                cat="runner",
                                parent=self._sweep_span,
                                cell=cell.cell_id,
                                attempt=attempt,
                                backoff_s=backoff,
                            ):
                                time.sleep(backoff)
                        else:
                            time.sleep(backoff)
        self._journal_rec({
            "rec": "failed",
            "cell": cell.cell_id,
            "error": repr(last),
        })
        raise CellExecutionError(cell.cell_id, last)

    @staticmethod
    def _classify(error: BaseException) -> str:
        """Retry classification label for the telemetry registry."""
        from concurrent.futures import BrokenExecutor

        if isinstance(error, ChaosFault):
            return "chaos"
        if isinstance(error, (ExecutorError, BrokenExecutor, OSError)):
            return "transport"
        return "retryable"

    def _run_dispatch(
        self,
        to_run: list[Cell],
        cost_model: CostModel,
        on_result,
        progress=None,
    ) -> None:
        """Run cells through the dispatch core over the chosen executor."""
        spec = self.executor_spec or (
            "pool" if self.parallel > 1 else "inprocess"
        )
        tel = self.telemetry

        def recover_event(name: str, **fields) -> None:
            # one audit trail, two sinks: the obs plane (wall-clock
            # timeline) and the sweep journal (crash-safe record).
            self._emit(name, self._run_t0, **fields)
            self._journal_rec({"rec": "recover", "event": name, **fields})
            if tel is not None and name in (
                "chaos_refuse", "chaos_doom", "pool_rebuild", "pool_dead"
            ):
                # the socket executor and dispatch core span their own
                # recovery; these are the paths with no telemetry handle.
                point = (
                    "chaos_injection"
                    if name.startswith("chaos") else name
                )
                tel.instant(point, cat="transport", lane="fleet",
                            event=name, **fields)
                if name.startswith("chaos"):
                    tel.metrics.counter(
                        "chaos_injected", kind=fields.get("kind", name)
                    ).inc()
            if progress is not None:
                if name.startswith("chaos"):
                    progress.chaos += 1
                elif name == "backfill":
                    progress.retries += 1
                progress.update()

        def local_retry(cell, last_error):
            # an in-process cell failure already consumed one parent
            # attempt; transport losses and injected chaos did not --
            # the cell itself never genuinely failed.
            attempts = self.retry_policy.max_attempts
            if spec == "inprocess" and not isinstance(
                last_error, (ChaosFault, ExecutorError)
            ):
                attempts -= 1
            if tel is not None:
                tel.metrics.counter(
                    "retries", classification=self._classify(last_error)
                ).inc()
            return self._backfill(cell, last_error, attempts)

        with make_executor(
            spec,
            self.parallel,
            retry_policy=self.retry_policy,
            chaos_plan=self.chaos_plan,
            on_event=recover_event,
            telemetry=tel,
        ) as executor:
            core = DispatchCore(
                executor,
                cost_model=cost_model,
                local_retry=local_retry,
                on_result=on_result,
                on_event=recover_event,
                speculate=self.speculate if spec != "inprocess" else 0,
                telemetry=tel,
                parent_span=self._sweep_span if tel is not None else None,
            )
            core.run(to_run)

    def run(self, requests: list[ExperimentRequest]) -> RunReport:
        t0 = time.perf_counter()
        self._run_t0 = t0
        journal = self.journal
        owns_journal = False
        if isinstance(journal, (str, os.PathLike)):
            journal = SweepJournal(journal, resume=self.resume)
            owns_journal = True
        prior = journal.stats() if journal and self.resume else None
        self._journal = journal
        tel = self.telemetry
        if tel is not None:
            if journal is not None:
                # span summaries ride the journal as they close, so a
                # crashed run still reconstructs into a timeline.
                tel.on_close = lambda span: self._journal_rec(
                    {"rec": "span", "span": span}
                )
            self._sweep_span = tel.begin(
                "sweep", cat="runner", n_requests=len(requests)
            )
        try:
            return self._run(requests, t0, prior)
        finally:
            if tel is not None:
                # idempotent: _run already closed it with status "ok" on
                # the way out; this covers the exception paths.
                tel.end(self._sweep_span, status="error")
                tel.on_close = None
                self._sweep_span = -1
            self._journal = None
            if owns_journal:
                journal.close()

    def _run(
        self,
        requests: list[ExperimentRequest],
        t0: float,
        prior,
    ) -> RunReport:
        expansions = [(req, expand_request(req)) for req in requests]

        # -- collect the cells to execute --------------------------------
        unique: dict[str, Cell] = {}
        occurrences = 0
        for _req, role_cells in expansions:
            for _role, cell in role_cells:
                occurrences += 1
                unique.setdefault(cell.cell_id, cell)

        payloads: dict[str, Any] = {}
        timings: dict[str, float] = {}
        cost_model = CostModel(hints=self.cost_hints)
        tel = self.telemetry
        cache_stats0 = (
            self.cache.stats.as_dict() if self.cache is not None else None
        )
        if self.cache is not None:
            lookup_span = -1
            if tel is not None:
                lookup_span = tel.begin(
                    "cache_lookup", cat="cache", parent=self._sweep_span,
                    lane="cache", n_cells=len(unique),
                )
            hits = self.cache.get_many(unique.values())
            if tel is not None:
                tel.end(lookup_span, hits=len(hits))
            for cell_id, (payload, secs) in hits.items():
                payloads[cell_id] = payload
                timings[cell_id] = 0.0
                # cached timings calibrate the cost model so the cells
                # that do run are ordered longest-expected-first.
                cost_model.observe(unique[cell_id], secs)
                self._emit("cache_hit", t0, cell=cell_id)

        if self.dedupe:
            to_run = [
                cell for cell_id, cell in sorted(unique.items())
                if cell_id not in payloads
            ]
        else:
            # legacy semantics: one execution per occurrence, in request
            # order, even for cells another experiment already computed.
            to_run = [
                cell
                for _req, role_cells in expansions
                for _role, cell in role_cells
                if cell.cell_id not in payloads
            ]

        n_cell_runs = len(to_run)
        if self._journal is not None:
            self._journal_rec({
                "rec": "start",
                "executor": self.executor_spec or (
                    "pool" if self.parallel > 1 else "inprocess"
                ),
                "parallel": self.parallel,
                "n_cells": len(unique),
            })
            for cell_id in sorted(unique):
                self._journal_rec({"rec": "plan", "cell": cell_id})
            for cell_id in sorted(payloads):
                self._journal_rec({"rec": "cached", "cell": cell_id})
            if prior is not None:
                # the audit line that makes --resume provable: how many
                # planned cells the previous (killed) run already
                # finished, now restored from journal + cache.
                self._journal_rec({
                    "rec": "resume",
                    "recovered": sum(
                        1 for c in prior.done if c in payloads
                    ),
                    "prior_done": len(prior.done),
                    "prior_planned": len(prior.planned),
                })
        if to_run:
            self._emit("dispatch", t0, n_cells=len(to_run),
                       parallel=self.parallel)
            progress = (
                SweepProgress(len(to_run)) if self.progress else None
            )
            pending = {c.cell_id: c for c in to_run}

            def eta_s() -> float:
                # CostModel-expected seconds of what's left, spread over
                # the parallel slots: crude, monotone, good enough for a
                # terminal line.
                return sum(
                    cost_model.estimate(c) for c in pending.values()
                ) / max(1, self.parallel)

            def on_result(cell: Cell, payload: dict, secs: float) -> None:
                # write-through: a result is cached the moment it lands,
                # so an interrupted sweep keeps every finished cell.
                payloads[cell.cell_id] = payload
                timings[cell.cell_id] = timings.get(cell.cell_id, 0.0) + secs
                if self.cache is not None:
                    self.cache.put(cell, payload, compute_s=secs)
                self._journal_rec({
                    "rec": "done",
                    "cell": cell.cell_id,
                    "compute_s": secs,
                })
                self._emit("cell_done", t0, cell=cell.cell_id,
                           compute_s=secs)
                if progress is not None:
                    pending.pop(cell.cell_id, None)
                    progress.update(
                        done=len(to_run) - len(pending), eta_s=eta_s()
                    )

            try:
                self._run_dispatch(
                    to_run, cost_model, on_result, progress=progress
                )
            finally:
                if progress is not None:
                    progress.close()

        self._journal_rec({"rec": "end", "n_runs": n_cell_runs})

        # -- aggregate back into experiment-level results ----------------
        experiments: dict[str, Any] = {}
        for req, role_cells in sorted(
            expansions, key=lambda e: e[0].experiment_id
        ):
            by_role = {
                role: payloads[cell.cell_id] for role, cell in role_cells
            }
            experiments[req.experiment_id] = aggregate_request(req, by_role)
            self._emit("aggregate", t0, experiment=req.experiment_id)

        cells_sorted = {cid: payloads[cid] for cid in sorted(payloads)}
        if tel is not None:
            if cache_stats0 is not None:
                # this sweep's share of the (cumulative) cache stats.
                now = self.cache.stats.as_dict()
                for key in ("hits", "misses", "corrupted", "writes"):
                    delta = now[key] - cache_stats0[key]
                    if delta:
                        tel.metrics.counter(f"cache_{key}").inc(delta)
            tel.end(self._sweep_span, status="ok")
        return RunReport(
            experiments=experiments,
            cells=cells_sorted,
            timings={cid: timings[cid] for cid in sorted(timings)},
            cache_stats=(
                self.cache.stats.as_dict() if self.cache is not None else None
            ),
            wall_s=time.perf_counter() - t0,
            n_cell_runs=n_cell_runs,
            obs=(
                self.obs.snapshot(include_runner=True)
                if self.obs is not None
                else None
            ),
            telemetry=tel.snapshot() if tel is not None else None,
        )
