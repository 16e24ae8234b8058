"""Resilience layer for the dispatch core: chaos, retries, and the journal.

Three pieces, all deterministic:

* :class:`RetryPolicy` -- the one retry/backoff/budget description every
  recovery path shares: the parent's bounded attempts per cell and the
  pool's rebuild budget, with exponential backoff whose jitter is a
  pure function of ``(seed, channel, attempt)`` so two runs of the same
  sweep back off identically.

* :class:`ChaosExecutor` -- a fault-injecting wrapper around either
  :class:`~repro.runner.executors.Executor`, in the parent.  It consumes
  the transport fault kinds of a :class:`~repro.faults.plan.FaultPlan`
  (``worker_kill``, ``connect_refuse``, ``frame_truncate``,
  ``frame_garbage``, ``worker_slow``) through per-kind RNG channels, so
  the dispatch core's backfill path is exercised by reproducible plans.
  The merged report is byte-identical to a fault-free run: cells are
  deterministic, so a recomputed cell is the same cell.

* :class:`SweepJournal` -- an append-only canonical-JSONL record of one
  sweep: planned cells, completions, retry decisions, failures, and
  recovery events, written next to the cache with flush+fsync per
  record.  The cache already holds every finished payload (the runner
  writes through as results land); the journal is the *audit trail*
  that lets ``--resume`` prove a restarted sweep re-executed only the
  unfinished cells.  A torn final line (parent SIGKILLed mid-append) is
  tolerated on load.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.faults.plan import TRANSPORT_KINDS, FaultChannel, FaultPlan
from repro.runner.executors import Completion, Task

#: exception type names never worth retrying: the same attempt will fail
#: the same way (resource exhaustion, interpreter limits) or must
#: propagate (interrupts).  Cell-level ValueError/RuntimeError stay
#: retryable -- transient sim failures are exactly what retries are for.
DEFAULT_POISONOUS = (
    "KeyboardInterrupt",
    "MemoryError",
    "RecursionError",
    "SyntaxError",
    "SystemExit",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts + deterministic exponential backoff + budgets.

    ``max_attempts`` counts parent-side executions of one cell
    (attempt 1 is the first try, not a retry).  ``backoff_s`` returns
    the sleep before attempt ``n + 1`` after attempt ``n`` failed:
    ``base * factor**(n-1)`` capped at ``backoff_max_s``, then jittered
    by a factor drawn deterministically from ``(seed, channel, n)`` --
    no shared RNG state, so concurrent channels never perturb each
    other.  ``rebuild_budget`` (process-pool rebuilds after a worker
    death breaks the pool) rides along so one policy object configures
    every layer.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.02
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    rebuild_budget: int = 2
    poisonous: tuple[str, ...] = DEFAULT_POISONOUS

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.rebuild_budget < 0:
            raise ValueError("rebuild_budget must be >= 0")
        if not isinstance(self.poisonous, tuple):
            object.__setattr__(self, "poisonous", tuple(self.poisonous))

    @classmethod
    def from_cell_retries(cls, cell_retries: int, **kw) -> "RetryPolicy":
        """``--retries N``: ``cell_retries`` extra attempts after the first."""
        return cls(max_attempts=1 + cell_retries, **kw)

    def backoff_s(self, channel: str, attempt: int) -> float:
        """Deterministic jittered sleep after failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if base <= 0.0 or self.jitter == 0.0:
            return base
        draw = zlib.crc32(f"{self.seed}/{channel}/{attempt}".encode())
        unit = draw / 2**32  # uniform-ish in [0, 1)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * unit)

    def is_poisonous(self, error: BaseException) -> bool:
        """True when no retry can help: fail fast instead of burning budget."""
        names = {t.__name__ for t in type(error).__mro__}
        return not names.isdisjoint(self.poisonous)

    def to_dict(self) -> dict:
        return {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        kw = dict(data)
        if "poisonous" in kw:
            kw["poisonous"] = tuple(kw["poisonous"])
        return cls(**kw)


class ChaosFault(RuntimeError):
    """A transport fault injected by a chaos plan (always retryable)."""


class ChaosExecutor:
    """Fault-injecting wrapper satisfying the Executor protocol.

    Wraps any executor and perturbs its traffic according to the
    transport specs of ``plan``:

    * ``connect_refuse`` -- the task never reaches the inner executor; a
      synthetic :class:`ChaosFault` completion is queued instead (the
      transport refused before any work happened).
    * ``worker_kill`` / ``frame_truncate`` / ``frame_garbage`` -- the
      task runs but its result is *lost*: the inner completion is
      replaced with a :class:`ChaosFault` error, exactly what a worker
      dying after compute but before (or during) the reply looks like.
    * ``worker_slow`` -- the completion is delayed by ``duration_us`` of
      wall time before being handed back.

    Every injected fault funnels into the dispatch core's ordinary
    backfill/retry path, so a chaos run converges to the byte-identical
    report of a clean run.
    """

    #: submit-time channels, in deterministic draw order.
    _SUBMIT_KINDS = (
        "connect_refuse",
        "worker_kill",
        "frame_truncate",
        "frame_garbage",
        "worker_slow",
    )

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        on_event: Optional[Callable[..., None]] = None,
    ):
        plan = FaultPlan.coerce(plan)
        unknown = {
            s.kind for s in plan.specs if s.kind not in TRANSPORT_KINDS
        }
        if unknown:
            raise ValueError(
                f"non-transport fault kinds in chaos plan: {sorted(unknown)}"
            )
        self.inner = inner
        self.plan = plan
        self.name = f"chaos+{inner.name}"
        self.on_event = on_event
        self._channels = {
            kind: FaultChannel.of(plan, kind, "transport")
            for kind in self._SUBMIT_KINDS
        }
        self._synthetic: list[Completion] = []
        self._doomed: dict[int, str] = {}  # task_id -> fault kind
        self._delays: dict[int, float] = {}  # task_id -> seconds

    @property
    def capacity(self) -> int:
        return self.inner.capacity

    def _emit(self, name: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event(name, **fields)

    def submit(self, task: Task) -> None:
        doom: Optional[str] = None
        delay = 0.0
        refused = False
        for kind in self._SUBMIT_KINDS:
            spec = self._channels[kind].draw()
            if spec is None:
                continue
            if kind == "connect_refuse":
                refused = True
            elif kind == "worker_slow":
                delay = max(delay, spec.duration_us / 1e6)
            elif doom is None:
                doom = kind
        if refused:
            self._emit("chaos_refuse", task_id=task.task_id)
            self._synthetic.append(
                Completion(
                    task.task_id,
                    error=ChaosFault(
                        f"injected connect_refuse for task {task.task_id}"
                    ),
                )
            )
            return
        if doom is not None:
            self._emit("chaos_doom", task_id=task.task_id, kind=doom)
            self._doomed[task.task_id] = doom
        if delay > 0.0:
            self._delays[task.task_id] = delay
        self.inner.submit(task)

    def wait(self) -> list[Completion]:
        if self._synthetic:
            out, self._synthetic = self._synthetic, []
            out.sort(key=lambda c: c.task_id)
            return out
        out = []
        for comp in self.inner.wait():
            kind = self._doomed.pop(comp.task_id, None)
            delay = self._delays.pop(comp.task_id, 0.0)
            if delay > 0.0:
                time.sleep(delay)
            if kind is not None:
                comp = Completion(
                    comp.task_id,
                    error=ChaosFault(
                        f"injected {kind} for task {comp.task_id}"
                    ),
                )
            out.append(comp)
        return out

    def close(self) -> None:
        self._synthetic.clear()
        self._doomed.clear()
        self._delays.clear()
        self.inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _canonical_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class JournalStats:
    """What a loaded journal says happened (resume accounting)."""

    planned: tuple[str, ...] = ()
    done: dict[str, float] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    retries: int = 0
    recoveries: int = 0
    ended: bool = False

    @property
    def unfinished(self) -> tuple[str, ...]:
        return tuple(c for c in self.planned if c not in self.done)


class SweepJournal:
    """Append-only canonical-JSONL sweep journal (crash-safe).

    One record per line, ``{"rec": <type>, ...}``:

    ``start``    sweep metadata (executor, parallel, n_cells)
    ``plan``     one planned cell (``cell``)
    ``cached``   a cell served from the result cache
    ``done``     a cell completed (``cell``, ``compute_s``)
    ``retry``    a parent-side retry decision (``cell``, ``attempt``,
                 ``error``, ``backoff_s``)
    ``failed``   a cell that exhausted its budget (``cell``, ``error``)
    ``recover``  a transport recovery event (``event`` + audit fields)
    ``resume``   a restart over this journal (``recovered`` cell count)
    ``end``      the sweep finished (``n_runs``)
    ``span``     a closed wall-clock telemetry span (``span`` dict; only
                 written when tracing is armed -- ``repro trace sweep``
                 rebuilds a timeline from these, and :func:`stats_of`
                 ignores them like any unknown record kind)

    Records are flushed and fsynced as written, so after SIGKILL the
    journal is complete up to (at worst) one torn final line, which
    :meth:`load` drops.
    """

    def __init__(self, path: str, resume: bool = False):
        self.path = os.fspath(path)
        self.records: list[dict] = []
        if resume and os.path.exists(self.path):
            self.records = self.load(self.path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        mode = "a" if resume else "w"
        self._fh = open(self.path, mode, encoding="utf-8")

    @staticmethod
    def load(path: str) -> list[dict]:
        """Parse a journal, tolerating a torn (partially-written) tail."""
        records: list[dict] = []
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        for i, line in enumerate(lines):
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail: the append was interrupted
                raise ValueError(
                    f"corrupt journal line {i + 1} in {path!r}"
                ) from None
        return records

    @staticmethod
    def stats_of(records: list[dict]) -> JournalStats:
        stats = JournalStats()
        planned: list[str] = []
        for rec in records:
            kind = rec.get("rec")
            if kind == "plan":
                planned.append(rec["cell"])
            elif kind in ("done", "cached"):
                stats.done[rec["cell"]] = float(rec.get("compute_s", 0.0))
            elif kind == "failed":
                stats.failed[rec["cell"]] = str(rec.get("error", ""))
            elif kind == "retry":
                stats.retries += 1
            elif kind == "recover":
                stats.recoveries += 1
            elif kind == "end":
                stats.ended = True
        stats.planned = tuple(planned)
        return stats

    def stats(self) -> JournalStats:
        return self.stats_of(self.records)

    def append(self, record: dict) -> None:
        self._fh.write(_canonical_line(record) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.records.append(record)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
