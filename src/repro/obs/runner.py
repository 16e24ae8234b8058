"""Runner telemetry plane: wall-clock spans across the execution stack.

:mod:`repro.obs` gives the *simulated* system a deterministic, sim-time
observability plane.  This module is its wall-clock sibling for the
*real* runner (dispatch core, executors, pool worker processes): a
:class:`RunnerTelemetry` instance collects **spans** (`sweep > cell >
cell_attempt > compute`, plus ``backfill``/``retry_backoff`` spans and
recovery instants like ``chaos_injection`` and ``pool_rebuild``) and a
:class:`~repro.obs.metrics.MetricsRegistry` of runner health series
(ready-queue depth, effective workers, steals, cache hit rate, retries
by classification).

Span model
----------

A span is a plain dict -- JSON-able and journal-able::

    {"id": 7, "parent": 3, "name": "cell_attempt", "cat": "dispatch",
     "lane": "dispatch", "t0": 1719243.12, "t1": 1719244.80,
     "status": "ok", "args": {...}}

``parent`` is a *causal* link, not a rendering hint: it crosses the
process boundary (the parent's attempt span id rides the pickled task
spec, ``Task.span_id``; the worker returns its compute span with that
id as ``parent``) so worker-side spans stitch into the parent trace
on return.  Ids are unique within one telemetry instance, which
serves one sweep (the shards of a sharded sweep are cells of it).

Timestamps are ``time.time()`` epoch seconds: pool workers share the
parent's host clock.

Everything here is wall-clock and therefore lives *beside* the
deterministic artifacts, never inside them: payloads, cache entries and
merged reports are byte-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: ready-queue depth sample grid (cells waiting for an executor slot).
QUEUE_DEPTH_BUCKETS = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0,
)


class RunnerTelemetry:
    """Wall-clock span collector + metrics registry for one sweep.

    ``enabled=False`` builds an inert instance: every ``begin``/``end``/
    ``instant`` returns immediately (the runner additionally drops the
    reference entirely, so the disabled path is one ``is not None``
    check per instrumentation point; ``tests/test_zero_cost_off.py``
    pins that a disabled instance adds no call to a sweep).

    ``on_close`` (settable) is called with each span dict as it closes;
    the runner points it at the sweep journal so span summaries ride
    ``SweepJournal`` records and a crashed run still yields a timeline.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.time,
    ):
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.on_close: Optional[Callable[[dict], None]] = None
        self._clock = clock
        self._spans: List[dict] = []
        self._open: Dict[int, dict] = {}
        self._next_id = 0

    # -- span lifecycle ----------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "runner",
        parent: Optional[int] = None,
        lane: str = "dispatch",
        **args,
    ) -> int:
        """Open a span; returns its id (-1 when disabled)."""
        if not self.enabled:
            return -1
        span = {
            "id": self._next_id,
            "parent": parent,
            "name": name,
            "cat": cat,
            "lane": lane,
            "t0": self._clock(),
            "t1": None,
            "status": "open",
            "args": dict(args),
        }
        self._next_id += 1
        self._spans.append(span)
        self._open[span["id"]] = span
        return span["id"]

    def end(self, span_id: int, status: str = "ok", **args) -> None:
        """Close an open span (idempotent; unknown ids are ignored)."""
        if not self.enabled:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span["t1"] = self._clock()
        span["status"] = status
        if args:
            span["args"].update(args)
        if self.on_close is not None:
            self.on_close(span)

    def instant(
        self,
        name: str,
        cat: str = "runner",
        parent: Optional[int] = None,
        lane: str = "dispatch",
        **args,
    ) -> int:
        """A zero-width span (t0 == t1): a point event on a lane."""
        if not self.enabled:
            return -1
        t = self._clock()
        span = {
            "id": self._next_id,
            "parent": parent,
            "name": name,
            "cat": cat,
            "lane": lane,
            "t0": t,
            "t1": t,
            "status": "ok",
            "args": dict(args),
        }
        self._next_id += 1
        self._spans.append(span)
        if self.on_close is not None:
            self.on_close(span)
        return span["id"]

    class _SpanCtx:
        __slots__ = ("_tel", "id")

        def __init__(self, tel: "RunnerTelemetry", span_id: int):
            self._tel = tel
            self.id = span_id

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            self._tel.end(
                self.id, status="ok" if exc_type is None else "error"
            )
            return False

    def span(self, name: str, **kw) -> "RunnerTelemetry._SpanCtx":
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        return self._SpanCtx(self, self.begin(name, **kw))

    def adopt(self, spans: Optional[list]) -> None:
        """Stitch worker-side spans into this trace.

        Worker spans arrive without ids or lanes (their ``parent`` is a
        *parent-side* span id carried with the task); adoption assigns
        fresh ids and a lane -- ``w{pid}`` from the span's args, else
        ``worker``.
        """
        if not self.enabled or not spans:
            return
        for raw in spans:
            if not isinstance(raw, dict):
                continue
            args = dict(raw.get("args") or {})
            pid = args.get("pid")
            span_lane = f"w{pid}" if pid is not None else "worker"
            t0 = float(raw.get("t0", self._clock()))
            span = {
                "id": self._next_id,
                "parent": raw.get("parent"),
                "name": str(raw.get("name", "compute")),
                "cat": str(raw.get("cat", "worker")),
                "lane": span_lane,
                "t0": t0,
                "t1": float(raw.get("t1", t0)),
                "status": str(raw.get("status", "ok")),
                "args": args,
            }
            self._next_id += 1
            self._spans.append(span)
            if self.on_close is not None:
                self.on_close(span)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view: spans (open ones clamped to now) + metrics."""
        if not self.enabled:
            return {"host": "local", "spans": [], "metrics": {}}
        now = self._clock()
        spans = []
        for span in self._spans:
            out = dict(span)
            out["args"] = dict(span["args"])
            if out["t1"] is None:
                out["t1"] = now
            spans.append(out)
        return {
            "host": "local",
            "spans": spans,
            "metrics": self.metrics.snapshot(),
        }


def _allocate_tracks(spans: List[dict]) -> List[List[dict]]:
    """Partition one lane's spans into properly-nesting tracks.

    Chrome ``B``/``E`` duration events form a stack per thread, so the
    spans on one rendered track must be *laminar*: any two either
    disjoint or nested.  Concurrent cell attempts share the logical
    ``dispatch`` lane; this greedy pass spills overlap onto extra
    tracks so every emitted B has a correctly-ordered matching E.
    """
    ordered = sorted(spans, key=lambda s: (s["t0"], -s["t1"], s["id"]))
    tracks: List[List[dict]] = []
    stacks: List[List[dict]] = []
    for span in ordered:
        placed = False
        for track, stack in zip(tracks, stacks):
            while stack and stack[-1]["t1"] <= span["t0"]:
                stack.pop()
            if not stack or span["t1"] <= stack[-1]["t1"]:
                track.append(span)
                stack.append(span)
                placed = True
                break
        if not placed:
            tracks.append([span])
            stacks.append([span])
    return tracks


def runner_chrome_trace(snapshot: dict) -> dict:
    """Chrome-trace ("trace event format") JSON for a telemetry snapshot.

    One *process* named by the snapshot's ``host``, one *thread* per
    lane -- ``dispatch`` for the core's control flow, ``w{pid}`` per
    worker, ``fleet`` for recovery instants --
    with overflow tracks (``lane·2``, ...) where concurrent spans on a
    logical lane would otherwise break B/E nesting.  Durations render as
    matched ``B``/``E`` pairs, zero-width spans as ``i`` instants;
    timestamps are microseconds from the earliest span.
    """
    spans = snapshot.get("spans", [])
    by_host = {str(snapshot.get("host", "local")): spans} if spans else {}
    t_base = min((s["t0"] for s in spans), default=0.0)

    def ts(t: float) -> float:
        return (t - t_base) * 1e6

    events: List[dict] = []
    for pid, host in enumerate(sorted(by_host)):
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": host},
        })
        lanes: Dict[str, List[dict]] = {}
        for span in by_host[host]:
            lanes.setdefault(str(span.get("lane", "dispatch")), []).append(
                span
            )
        tid = 0
        for lane in sorted(lanes):
            durations = [s for s in lanes[lane] if s["t1"] > s["t0"]]
            instants = [s for s in lanes[lane] if s["t1"] <= s["t0"]]
            tracks = _allocate_tracks(durations) or [[]]
            for i, track in enumerate(tracks):
                label = lane if i == 0 else f"{lane}·{i + 1}"
                events.append({
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": label},
                })
                # stack-walk emission: B on push, E on pop, so the
                # bracket sequence is valid and ts never decreases.
                brackets: List[dict] = []
                stack: List[dict] = []
                for span in sorted(
                    track, key=lambda s: (s["t0"], -s["t1"], s["id"])
                ):
                    while stack and stack[-1]["t1"] <= span["t0"]:
                        done = stack.pop()
                        brackets.append({
                            "ph": "E", "pid": pid, "tid": tid,
                            "ts": ts(done["t1"]),
                        })
                    args = dict(span.get("args") or {})
                    args["span"] = span["id"]
                    if span.get("parent") is not None:
                        args["parent"] = span["parent"]
                    args["status"] = span.get("status", "ok")
                    brackets.append({
                        "ph": "B", "pid": pid, "tid": tid,
                        "ts": ts(span["t0"]),
                        "cat": str(span.get("cat", "runner")),
                        "name": str(span.get("name", "span")),
                        "args": args,
                    })
                    stack.append(span)
                while stack:
                    done = stack.pop()
                    brackets.append({
                        "ph": "E", "pid": pid, "tid": tid,
                        "ts": ts(done["t1"]),
                    })
                if i == 0 and instants:
                    # instants merge into the bracket stream *by ts* so
                    # the per-(pid, tid) ordering invariant survives; an
                    # "i" between a B and its E is legal and stackless.
                    marks = [
                        {
                            "ph": "i", "pid": pid, "tid": tid,
                            "ts": ts(s["t0"]), "s": "t",
                            "cat": str(s.get("cat", "runner")),
                            "name": str(s.get("name", "event")),
                            "args": {
                                **dict(s.get("args") or {}),
                                "span": s["id"],
                                **(
                                    {"parent": s["parent"]}
                                    if s.get("parent") is not None else {}
                                ),
                            },
                        }
                        for s in sorted(
                            instants, key=lambda s: (s["t0"], s["id"])
                        )
                    ]
                    merged: List[dict] = []
                    j = 0
                    for ev in brackets:
                        while j < len(marks) and marks[j]["ts"] <= ev["ts"]:
                            merged.append(marks[j])
                            j += 1
                        merged.append(ev)
                    merged.extend(marks[j:])
                    brackets = merged
                events.extend(brackets)
                tid += 1
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_runner_trace(trace: dict) -> List[str]:
    """Check a runner trace against the Chrome trace-event contract.

    Returns a list of problems (empty = valid): every ``B`` must have a
    matching ``E`` in stack order on its (pid, tid), no stray ``E``, and
    timestamps must be non-decreasing per (pid, tid) in array order --
    the properties the CI smoke step asserts on a sharded sweep's trace.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    stacks: Dict[tuple, List[dict]] = {}
    last_ts: Dict[tuple, float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            problems.append(f"event {i}: not a trace event")
            continue
        ph = ev["ph"]
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                problems.append(f"event {i}: unknown metadata {ev.get('name')!r}")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: missing ts")
            continue
        if ts < last_ts.get(key, float("-inf")):
            problems.append(
                f"event {i}: ts {ts} decreases on pid/tid {key}"
            )
        last_ts[key] = ts
        if ph == "B":
            if "name" not in ev:
                problems.append(f"event {i}: B without name")
            stacks.setdefault(key, []).append(ev)
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"event {i}: E without matching B on {key}")
            else:
                stack.pop()
        elif ph not in ("i", "X"):
            problems.append(f"event {i}: unexpected phase {ph!r}")
    for key, stack in stacks.items():
        if stack:
            problems.append(
                f"{len(stack)} unclosed B event(s) on pid/tid {key}"
            )
    return problems


def timeline_from_journal(records: List[dict]) -> dict:
    """Rebuild a telemetry snapshot from sweep-journal records.

    ``span`` records (telemetry summaries riding the journal) are used
    directly, so a crashed run yields every span that closed before the
    kill.  ``cached`` records -- cells served from the result cache,
    including cells a ``--resume`` restored instead of recomputing --
    render as **zero-width instants**, never as recomputed spans.
    Journals written without telemetry fall back to a synthetic
    record-order timeline (one unit per record) so old journals still
    render.
    """
    spans: List[dict] = []
    cached: List[str] = []
    synthetic: List[dict] = []
    next_id = 0
    for idx, rec in enumerate(records):
        kind = rec.get("rec")
        if kind == "span" and isinstance(rec.get("span"), dict):
            span = dict(rec["span"])
            span["args"] = dict(span.get("args") or {})
            spans.append(span)
            next_id = max(next_id, int(span.get("id", 0)) + 1)
        elif kind == "cached":
            cached.append(str(rec.get("cell", "?")))
        elif kind in ("done", "retry", "failed", "recover", "resume"):
            synthetic.append({"i": idx, "rec": rec})
    if spans:
        t_cached = min(s["t0"] for s in spans)
    else:
        # no telemetry rode this journal: synthesize a record-order
        # timeline (1 unit per record) from the audit records alone.
        t_cached = 0.0
        for row in synthetic:
            rec = row["rec"]
            name = rec.get("rec", "event")
            if name == "recover":
                name = str(rec.get("event", "recover"))
            args = {
                k: v for k, v in rec.items()
                if k not in ("rec", "event") and isinstance(
                    v, (str, int, float, bool)
                )
            }
            spans.append({
                "id": next_id, "parent": None, "name": name,
                "cat": "journal", "lane": "journal",
                "t0": float(row["i"]), "t1": float(row["i"]),
                "status": "ok", "args": args,
            })
            next_id += 1
    for cell in cached:
        spans.append({
            "id": next_id, "parent": None, "name": "cached",
            "cat": "cache", "lane": "cache", "t0": t_cached,
            "t1": t_cached, "status": "ok", "args": {"cell": cell},
        })
        next_id += 1
    return {"host": "journal", "spans": spans, "metrics": {}}


class SweepProgress:
    """One live ``\\r``-rewritten progress line on stderr.

    ``cells 12/40  eta ~8s  retries 1  chaos 3`` -- cells done over
    total, an ETA from the dispatch cost model, and running retry/chaos
    counts.  Updates are throttled (default 4/s) so a fast sweep is not
    dominated by terminal writes; :meth:`close` prints the final state
    and a newline.
    """

    def __init__(
        self,
        total: int,
        stream=None,
        min_interval_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.total = int(total)
        self.done = 0
        self.retries = 0
        self.chaos = 0
        self.eta_s: Optional[float] = None
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval_s = min_interval_s
        self._clock = clock
        self._last_write = float("-inf")
        self._width = 0
        self._closed = False

    def _line(self) -> str:
        parts = [f"cells {self.done}/{self.total}"]
        if self.eta_s is not None:
            parts.append(f"eta ~{max(0.0, self.eta_s):.0f}s")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.chaos:
            parts.append(f"chaos {self.chaos}")
        return "  ".join(parts)

    def update(
        self,
        done: Optional[int] = None,
        eta_s: Optional[float] = None,
        retries: Optional[int] = None,
        chaos: Optional[int] = None,
        force: bool = False,
    ) -> None:
        if done is not None:
            self.done = done
        if eta_s is not None:
            self.eta_s = eta_s
        if retries is not None:
            self.retries = retries
        if chaos is not None:
            self.chaos = chaos
        if self._closed:
            return
        now = self._clock()
        if not force and now - self._last_write < self._min_interval_s:
            return
        self._last_write = now
        line = self._line()
        pad = " " * max(0, self._width - len(line))
        self._width = len(line)
        try:
            self._stream.write(f"\r{line}{pad}")
            self._stream.flush()
        except (OSError, ValueError):
            self._closed = True

    def close(self) -> None:
        if self._closed:
            return
        self.update(force=True)
        self._closed = True
        try:
            self._stream.write("\n")
            self._stream.flush()
        except (OSError, ValueError):
            pass


def write_runner_trace(path: str, snapshot: dict) -> dict:
    """Write a snapshot's Chrome trace to ``path``; returns the trace."""
    trace = runner_chrome_trace(snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return trace
