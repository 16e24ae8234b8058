"""The runner telemetry plane: spans, stitching, traces, progress.

The invariants pinned here are the ones the layer promises:

* payloads are byte-identical with tracing on or off, on every executor
  (spans live beside, never inside, the deterministic artifacts);
* span intervals are well-formed -- start <= end, children inside their
  parents -- even under the canned transport chaos plan, where every
  cell is attempted once and every journalled recovery event has its
  one mark in the trace;
* a pool worker killed mid-cell leaves an errored attempt, a
  ``pool_rebuild`` instant and a parent backfill under the same cell
  span in the trace;
* exported Chrome traces satisfy the trace-event contract (matched B/E
  brackets, non-decreasing timestamps per pid/tid);
* ``repro trace sweep`` reconstructs a timeline from the journal alone,
  and a ``--resume``\\ d journal shows cached-replay cells as zero-width
  instants.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.obs import format_span_timeline
from repro.obs.runner import (
    RunnerTelemetry,
    SweepProgress,
    runner_chrome_trace,
    timeline_from_journal,
    validate_runner_trace,
)
from repro.runner import (
    ExperimentRequest,
    ExperimentRunner,
    ResultCache,
    SweepJournal,
)

CANNED_PLAN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "transport_chaos.json"
)


def _sleep_requests(n: int, wall_s: float = 0.0) -> list:
    return [
        ExperimentRequest.make("sleep", {"wall_s": wall_s, "tag": f"t{i}"}, i)
        for i in range(n)
    ]


def _assert_well_formed(snapshot: dict) -> None:
    """start <= end; children nested inside known parents; unique ids."""
    spans = snapshot["spans"]
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans), "span ids must be unique"
    for s in spans:
        assert s["t0"] <= s["t1"], f"span {s['name']} ends before it starts"
        parent = s.get("parent")
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None:
            continue  # journal reconstructions may lack unclosed parents
        assert p["t0"] <= s["t0"], (
            f"{s['name']} starts before its parent {p['name']}"
        )
        assert s["t1"] <= p["t1"], (
            f"{s['name']} ends after its parent {p['name']}"
        )


# -- span primitives -----------------------------------------------------------


def test_disabled_telemetry_is_inert():
    tel = RunnerTelemetry(enabled=False)
    assert tel.begin("sweep") == -1
    tel.end(-1)
    assert tel.instant("x") == -1
    tel.adopt([{"name": "compute", "t0": 1.0, "t1": 2.0}])
    snap = tel.snapshot()
    assert snap["spans"] == [] and snap["metrics"] == {}


def test_span_context_manager_records_errors():
    t = iter(float(i) for i in range(100))
    tel = RunnerTelemetry(clock=lambda: next(t))
    with pytest.raises(RuntimeError):
        with tel.span("cell", cat="dispatch"):
            raise RuntimeError("boom")
    (span,) = tel.snapshot()["spans"]
    assert span["status"] == "error"
    assert span["t0"] < span["t1"]


def test_end_is_idempotent_and_fires_on_close_once():
    closed = []
    tel = RunnerTelemetry()
    tel.on_close = closed.append
    sid = tel.begin("sweep")
    tel.end(sid, status="ok")
    tel.end(sid, status="error")  # second close must be a no-op
    assert len(closed) == 1
    assert tel.snapshot()["spans"][0]["status"] == "ok"


def test_adopt_assigns_lane_from_worker_pid():
    tel = RunnerTelemetry()
    parent = tel.begin("assign", lane="w123")
    tel.adopt([{
        "name": "compute", "parent": parent, "t0": 1.0, "t1": 2.0,
        "args": {"pid": 123},
    }])
    tel.end(parent)
    compute = [s for s in tel.snapshot()["spans"] if s["name"] == "compute"]
    assert compute[0]["lane"] == "w123"
    assert compute[0]["parent"] == parent


# -- byte identity across executors --------------------------------------------


@pytest.mark.parametrize("executor", ["inprocess", "pool"])
def test_payloads_byte_identical_with_tracing_on(executor):
    requests = _sleep_requests(4)
    plain = ExperimentRunner(parallel=2, executor=executor).run(requests)
    traced = ExperimentRunner(
        parallel=2, executor=executor, telemetry=RunnerTelemetry()
    ).run(requests)
    assert traced.merged_bytes() == plain.merged_bytes()
    assert plain.telemetry is None
    assert traced.telemetry is not None and traced.telemetry["spans"]
    _assert_well_formed(traced.telemetry)
    assert validate_runner_trace(runner_chrome_trace(traced.telemetry)) == []


def test_disabled_telemetry_leaves_no_snapshot():
    report = ExperimentRunner(
        parallel=1, telemetry=RunnerTelemetry(enabled=False)
    ).run(_sleep_requests(2))
    assert report.telemetry is None


# -- chaos: a dead pool worker's recovery story --------------------------------


def test_pool_worker_death_leaves_recovery_story_in_trace():
    """A pool worker hard-killed mid-cell must leave the recovery story
    in the trace: the poison's attempt span ends in error, a
    ``pool_rebuild`` instant marks the replacement pool, and the parent
    backfill nests under the same cell span."""
    import os

    poison = ExperimentRequest.make(
        "sleep",
        {
            "wall_s": 0.0,
            "mode": "exit",
            "parent_pid": os.getpid(),
            "tag": "poison",
        },
        7,
    )
    requests = [poison] + _sleep_requests(2)
    tel = RunnerTelemetry()
    report = ExperimentRunner(parallel=2, executor="pool", telemetry=tel).run(
        requests
    )
    clean = ExperimentRunner(parallel=1).run(requests)
    assert report.merged_bytes() == clean.merged_bytes()

    snap = report.telemetry
    _assert_well_formed(snap)
    spans = snap["spans"]
    [cell] = [
        s for s in spans
        if s["name"] == "cell" and "poison" in s["args"]["cell"]
    ]
    attempts = [
        s for s in spans
        if s["name"] == "cell_attempt" and s["parent"] == cell["id"]
    ]
    assert [a["status"] for a in attempts] == ["error"]
    [backfill] = [
        s for s in spans
        if s["name"] == "backfill" and s["parent"] == cell["id"]
    ]
    assert backfill["status"] == "ok"
    assert [s for s in spans if s["name"] == "pool_rebuild"], (
        "the broken pool's replacement must leave a pool_rebuild instant"
    )
    assert validate_runner_trace(runner_chrome_trace(snap)) == []


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_spans_well_formed_under_canned_chaos_plan(seed):
    """Property: whatever the canned chaos plan does to the transport,
    every recorded interval is well-formed and the exported trace obeys
    the Chrome contract.  Chaos never resubmits a cell (the parent
    backfills it), so each cell has exactly one attempt and no span is
    left cancelled, stale or abandoned; and the journal's ``recover``
    records match the trace's marks one to one."""
    plan_json = CANNED_PLAN.read_text()
    plan = json.loads(plan_json)
    plan["seed"] = seed
    tel = RunnerTelemetry()
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        report = ExperimentRunner(
            parallel=2,
            chaos_plan=json.dumps(plan, separators=(",", ":"), sort_keys=True),
            telemetry=tel,
            journal=journal,
        ).run(_sleep_requests(3))
        records = SweepJournal.load(journal)
    snap = report.telemetry
    _assert_well_formed(snap)
    assert validate_runner_trace(runner_chrome_trace(snap)) == []

    spans = snap["spans"]
    attempts = Counter(s["args"]["cell"] for s in spans if s["name"] == "cell_attempt")
    assert attempts == {cell_id: 1 for cell_id in report.cells}
    assert not {s["status"] for s in spans} & {"cancelled", "stale", "abandoned"}

    recovers = [r for r in records if r.get("rec") == "recover"]
    backfilled = [r["cell"] for r in recovers if r["event"] == "backfill"]
    marked = [r["event"] for r in recovers if r["event"] != "backfill"]
    backfill_spans = [s["args"]["cell"] for s in spans if s["name"] == "backfill"]
    assert sorted(backfilled) == sorted(backfill_spans)
    marks = [s for s in spans if s["lane"] == "fleet"]
    assert all(s["t0"] == s["t1"] for s in marks)
    assert sorted(s["args"]["event"] for s in marks) == sorted(marked)


# -- journal reconstruction and resume -----------------------------------------


def test_journal_spans_reconstruct_timeline(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    tel = RunnerTelemetry()
    ExperimentRunner(parallel=1, journal=path, telemetry=tel).run(
        _sleep_requests(3)
    )
    records = SweepJournal.load(path)
    span_recs = [r for r in records if r.get("rec") == "span"]
    assert span_recs, "spans must ride the journal as they close"
    # unknown record kinds must not confuse the resilience stats
    assert SweepJournal.stats_of(records).ended
    snap = timeline_from_journal(records)
    _assert_well_formed(snap)
    names = {s["name"] for s in snap["spans"]}
    assert {"sweep", "cell", "cell_attempt"} <= names
    assert validate_runner_trace(runner_chrome_trace(snap)) == []


def test_resumed_journal_shows_cached_replays_as_instants(tmp_path):
    """Regression for trace-sweep resume-awareness: replaying a resumed
    journal renders the cells the resume restored from cache as
    zero-width instants, never as recomputed spans."""
    cache = ResultCache(str(tmp_path / "cache"))
    path = str(tmp_path / "journal.jsonl")
    requests = _sleep_requests(4)
    ExperimentRunner(cache=cache, parallel=1, journal=path).run(requests[:2])
    ExperimentRunner(
        cache=cache, parallel=1, journal=path, resume=True,
        telemetry=RunnerTelemetry(),
    ).run(requests)
    records = SweepJournal.load(path)
    snap = timeline_from_journal(records)
    cached = [s for s in snap["spans"] if s["name"] == "cached"]
    assert len(cached) == 2, "both restored cells must render as cached"
    for s in cached:
        assert s["t0"] == s["t1"], "cached replays are zero-width"
    # the two recomputed cells show up as real (non-zero-width) spans
    cells = [s for s in snap["spans"] if s["name"] == "cell"]
    assert len(cells) == 2
    assert validate_runner_trace(runner_chrome_trace(snap)) == []


def test_journal_without_telemetry_gets_synthetic_timeline(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    ExperimentRunner(parallel=1, journal=path).run(_sleep_requests(2))
    snap = timeline_from_journal(SweepJournal.load(path))
    assert snap["spans"], "audit records alone must still yield a timeline"
    assert all(s["lane"] == "journal" for s in snap["spans"])
    # the rendered lane column is the bare lane name
    rows = format_span_timeline(snap).splitlines()
    assert [row.split()[2] for row in rows] == ["journal"] * len(rows)
    assert validate_runner_trace(runner_chrome_trace(snap)) == []


# -- metrics -------------------------------------------------------------------


def test_cache_counters_land_in_the_metrics_registry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    requests = _sleep_requests(3)
    ExperimentRunner(cache=cache, parallel=1).run(requests)  # warm
    tel = RunnerTelemetry()
    ExperimentRunner(cache=cache, parallel=1, telemetry=tel).run(requests)
    metrics = tel.snapshot()["metrics"]
    assert metrics["cache_hits"]["value"] == 3
    assert "cache_misses" not in metrics, "delta, not cumulative stats"


def test_retry_counters_classify_transport_failures():
    import os

    # the "exit" sleep cell kills every pool worker it lands on but
    # computes fine in the parent backfill -- a pure transport failure.
    tel = RunnerTelemetry()
    requests = [
        ExperimentRequest.make(
            "sleep",
            {"wall_s": 0.0, "mode": "exit", "parent_pid": os.getpid(),
             "tag": "t"},
            7,
        )
    ]
    report = ExperimentRunner(
        parallel=2, executor="pool", telemetry=tel
    ).run(requests)
    assert report.n_cell_runs == 1
    metrics = tel.snapshot()["metrics"]
    retries = {
        k: v["value"] for k, v in metrics.items() if k.startswith("retries")
    }
    assert sum(retries.values()) >= 1
    assert any("transport" in k for k in retries)


# -- progress line -------------------------------------------------------------


def test_progress_line_renders_and_throttles():
    out = []

    class FakeStream:
        def write(self, s):
            out.append(s)

        def flush(self):
            pass

    t = iter([0.0, 0.1, 10.0, 20.0, 30.0, 40.0, 50.0])
    prog = SweepProgress(
        40, stream=FakeStream(), clock=lambda: next(t)
    )
    prog.update(done=12, eta_s=8.0, retries=1, chaos=3, force=True)
    prog.update(done=13)  # inside the throttle window at t=0.1: dropped
    prog.update(done=14)  # t=10: rendered
    prog.close()
    text = "".join(out)
    assert "cells 12/40" in text
    assert "eta ~8s" in text
    assert "retries 1" in text and "chaos 3" in text
    assert "cells 13/40" not in text, "throttled update must not render"
    assert text.endswith("\n"), "close() finishes the line"


def test_progress_threads_through_a_run(capsys):
    ExperimentRunner(parallel=1, progress=True).run(_sleep_requests(2))
    err = capsys.readouterr().err
    assert "cells 2/2" in err
