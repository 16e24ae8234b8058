"""Tests for the observability plane: bus, metrics, plane, exporters,
and the wiring through the co-location / cluster experiments."""

import json

import numpy as np
import pytest

from repro.obs import (
    CATEGORIES,
    EventBus,
    Histogram,
    MetricsRegistry,
    ObservabilityPlane,
    chrome_trace,
    dumps_canonical,
    events_jsonl,
    write_trace_bundle,
)
from repro.obs.metrics import metric_key


# -- event bus -----------------------------------------------------------------


def test_bus_emission_order_and_counts():
    bus = EventBus()
    bus.emit("sched", "a", 1.0, "n0", {"x": 1})
    bus.emit("fault", "b", 0.5, "n1", None)
    bus.emit("sched", "a", 2.0, "n0", {"x": 2})
    snap = bus.snapshot()
    # emission order, not time order: merge order is the exporter's job
    assert [e["name"] for e in snap] == ["a", "b", "a"]
    assert snap[0] == {"t": 1.0, "cat": "sched", "name": "a",
                      "node": "n0", "args": {"x": 1}}
    assert bus.counts() == {"fault/b": 1, "sched/a": 2}
    assert [e.args["x"] for e in bus.events(category="sched")] == [1, 2]
    assert [e.name for e in bus.events(node="n1")] == ["b"]


def test_bus_drops_newest_past_cap():
    bus = EventBus(max_events=3)
    for i in range(5):
        bus.emit("sched", f"e{i}", float(i), "", None)
    snap = bus.snapshot()
    assert [e["name"] for e in snap] == ["e0", "e1", "e2"]  # oldest kept
    assert bus.dropped == 2


def test_bus_sanitises_arg_values():
    bus = EventBus()
    bus.emit("sched", "e", 0.0, "", {
        "np_int": np.int64(3),
        "np_float": np.float64(1.5),
        "a_set": {"b", "a"},
        "a_tuple": (1, 2),
    })
    args = bus.snapshot()[0]["args"]
    assert args == {"np_int": 3, "np_float": 1.5,
                    "a_set": ["a", "b"], "a_tuple": [1, 2]}
    assert type(args["np_int"]) is int
    # sanitized payloads serialise without a custom encoder
    json.dumps(args)


# -- metrics -------------------------------------------------------------------


def test_metric_key_sorts_labels():
    assert metric_key("m", {}) == "m"
    assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"


def test_registry_counter_gauge_and_type_clash():
    reg = MetricsRegistry()
    reg.counter("jobs", node="n0").inc()
    reg.counter("jobs", node="n0").inc(2)
    reg.gauge("util").set(0.5)
    snap = reg.snapshot()
    assert snap["jobs{node=n0}"] == {"type": "counter", "value": 3}
    assert snap["util"] == {"type": "gauge", "value": 0.5}
    with pytest.raises(TypeError):
        reg.gauge("jobs", node="n0")


def test_histogram_bounds_validation():
    with pytest.raises(ValueError):
        Histogram(())
    with pytest.raises(ValueError):
        Histogram((1.0, 1.0, 2.0))


def test_histogram_quantiles_clamped_and_interpolated():
    h = Histogram((10.0, 20.0, 30.0))
    h.observe_many([5.0] * 10)
    snap = h.snapshot()
    # one busy bucket: the estimate clamps to the observed max
    assert snap["p50"] == 5.0
    assert snap["p99"] == 5.0
    assert snap["count"] == 10
    assert snap["min"] == 5.0 and snap["max"] == 5.0
    h2 = Histogram((10.0, 20.0))
    h2.observe_many([1.0, 11.0, 12.0, 1000.0])  # one overflow sample
    s2 = h2.snapshot()
    assert s2["overflow"] == 1
    assert s2["p99"] <= 1000.0  # interpolates toward the observed max
    assert s2["p50"] <= 20.0


def test_empty_histogram_snapshot():
    snap = Histogram((1.0, 2.0)).snapshot()
    assert snap["count"] == 0
    assert snap["p50"] is None and snap["min"] is None


# -- plane ---------------------------------------------------------------------


def test_plane_spec_round_trip():
    assert ObservabilityPlane.from_spec(None) is None
    full = ObservabilityPlane.from_spec("all")
    assert full.spec() == "all"
    assert full.categories == frozenset(CATEGORIES)
    empty = ObservabilityPlane.from_spec("none")
    assert empty.spec() == "none"
    assert not empty.wants("sched")
    some = ObservabilityPlane.from_spec("sched, fault")
    assert some.spec() == "fault,sched"
    assert some.wants("sched") and not some.wants("daemon")
    assert ObservabilityPlane.coerce(full) is full


def test_plane_rejects_unknown_category():
    with pytest.raises(ValueError, match="unknown observability"):
        ObservabilityPlane(categories=("sched", "nope"))


def test_plane_gating_and_node_scope():
    plane = ObservabilityPlane.from_spec("sched")
    plane.emit("sched", "kept", 1.0)
    plane.emit("daemon", "gated", 2.0)
    scope = plane.for_node("node3")
    scope.emit("sched", "scoped", 3.0, detail="x")
    events = plane.bus.snapshot()
    assert [e["name"] for e in events] == ["kept", "scoped"]
    assert events[1]["node"] == "node3"
    assert plane.metrics is None  # no "metrics" category


def test_plane_snapshot_has_no_runner_category():
    # wall-clock runner events belong to the runner telemetry plane; the
    # sim-time plane neither accepts nor records them.
    with pytest.raises(ValueError, match="unknown observability"):
        ObservabilityPlane(categories=("runner",))
    plane = ObservabilityPlane.from_spec("all")
    plane.emit("sched", "a", 1.0)
    plane.emit("runner", "progress", 0.1, node="runner")
    snap = plane.snapshot()
    assert [e["cat"] for e in snap["events"]] == ["sched"]
    assert snap["n_events"] == 1
    assert "runner" not in snap["categories"]
    assert "metrics" in snap


def test_node_scope_metrics_inject_node_label():
    plane = ObservabilityPlane.from_spec("all")
    scope = plane.for_node("n7")
    scope.counter("jobs").inc()
    scope.histogram("lat", (1.0, 2.0)).observe(1.5)
    keys = set(plane.metrics.snapshot())
    assert keys == {"jobs{node=n7}", "lat{node=n7}"}


# -- exporters -----------------------------------------------------------------


def _two_streams():
    a = ObservabilityPlane.from_spec("all")
    a.emit("sched", "x", 2.0, node="n0", detail="later")
    a.emit("sched", "y", 1.0, node="n0")
    b = ObservabilityPlane.from_spec("all")
    b.emit("fault", "z", 1.0, node="n1", draw=4)
    return {"cell_b": b.snapshot(), "cell_a": a.snapshot()}


def test_events_jsonl_total_order():
    lines = events_jsonl(_two_streams()).splitlines()
    rows = [json.loads(ln) for ln in lines]
    # (t, stream, seq): t=1 of cell_a before t=1 of cell_b before t=2
    assert [(r["t"], r["stream"], r["name"]) for r in rows] == [
        (1.0, "cell_a", "y"), (1.0, "cell_b", "z"), (2.0, "cell_a", "x"),
    ]
    for ln in lines:  # canonical: sorted keys, no spaces
        assert ln == dumps_canonical(json.loads(ln))


def test_chrome_trace_shape():
    streams = _two_streams()
    streams["cell_a"]["quanta"] = {
        "lcpu": [0, 1], "tid": [10, 11], "is_mem": [True, False],
        "start": [0.0, 5.0], "duration": [2.0, 3.0], "dropped": 0,
    }
    trace = chrome_trace(streams)
    evs = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in evs}
    assert phases == {"M", "X", "i"}
    slices = [e for e in evs if e["ph"] == "X"]
    assert len(slices) == 2
    assert slices[0]["tid"] == 0 and slices[0]["args"]["is_mem"] is True
    # stream pids follow sorted stream-name order
    names = {e["args"]["name"] for e in evs
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert names == {"cell_a", "cell_b"}
    instants = [e for e in evs if e["ph"] == "i"]
    assert all(e["s"] == "p" for e in instants)


def test_write_trace_bundle_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    p1 = write_trace_bundle(str(d1), _two_streams())
    p2 = write_trace_bundle(str(d2), _two_streams())
    assert set(p1) == {"trace.json", "events.jsonl", "metrics.json",
                       "timeline.txt"}
    for name in p1:
        b1 = open(p1[name], "rb").read()
        b2 = open(p2[name], "rb").read()
        assert b1 == b2, name
    json.loads(open(p1["trace.json"]).read())  # well-formed


def test_analysis_views_handle_empty():
    from repro.analysis.obs import (
        format_event_summary,
        format_metrics_table,
        format_timeline,
    )

    assert format_event_summary({}) == "(no events)"
    assert format_timeline({}) == "(no events)\n"
    assert format_metrics_table({}) == "(no metrics)"
    streams = _two_streams()
    assert "sched/x" in format_event_summary(streams)
    assert "[n1]" in format_timeline(streams)


# -- experiment wiring ---------------------------------------------------------


def _small_colo(obs=None, faults=None, duration_us=30_000.0):
    from repro.experiments.colocation import run_colocation
    from repro.experiments.common import ExperimentScale

    return run_colocation(
        "redis", "a", "holmes",
        scale=ExperimentScale(duration_us=duration_us, seed=42),
        obs=obs, faults=faults,
    )


def test_colocation_obs_none_leaves_result_unobserved():
    res = _small_colo(obs=None)
    assert res.obs is None


def test_colocation_obs_snapshot_with_audit_and_quanta():
    res = _small_colo(obs="all")
    obs = res.obs
    assert obs is not None and obs["n_events"] > 0
    sched = [e for e in obs["events"] if e["cat"] == "sched"]
    assert sched
    for ev in sched:
        args = ev["args"]
        # every scheduler action carries the full decision audit
        for key in ("e_threshold", "t_expand", "s_hold_us", "health",
                    "degraded", "n_lc_cpus", "expanded"):
            assert key in args, (ev["name"], key)
        assert args["e_threshold"] == 40.0
    percpu = [e for e in sched
              if e["name"] in ("dealloc_sibling", "realloc_sibling")]
    assert percpu  # the run must exercise the core loop
    for ev in percpu:
        args = ev["args"]
        assert "lcpu" in args and "vpi" in args and "sibling" in args
        assert "s_remaining_us" in args
    # metrics and quanta ride in the same snapshot
    assert any(k.startswith("query_latency_us") for k in obs["metrics"])
    q = obs["quanta"]
    n = len(q["start"])
    assert n > 0
    assert len(q["lcpu"]) == len(q["duration"]) == n


def test_colocation_obs_event_stream_reproducible():
    a = _small_colo(obs="all", duration_us=20_000.0)
    b = _small_colo(obs="all", duration_us=20_000.0)
    assert dumps_canonical(a.obs) == dumps_canonical(b.obs)


def test_colocation_cell_payload_omits_obs_when_disabled():
    from repro.runner.cells import Cell, execute_cell

    params = {"service": "redis", "workload": "a", "setting": "holmes",
              "duration_us": 20_000.0}
    plain = execute_cell(Cell.make("colocation", params, 42))
    assert "obs" not in plain
    observed = execute_cell(
        Cell.make("colocation", {**params, "obs": "all"}, 42)
    )
    assert observed["obs"]["n_events"] > 0
    # the obs section is additive: everything else is untouched
    obs_less = {k: v for k, v in observed.items() if k != "obs"}
    assert dumps_canonical(obs_less) == dumps_canonical(plain)


@pytest.mark.slow
def test_observed_sweep_serial_parallel_byte_identical():
    from repro.runner import ExperimentRequest, ExperimentRunner

    params = {"service": "redis", "workload": "a", "setting": "holmes",
              "duration_us": 20_000.0, "obs": "all"}
    req = ExperimentRequest.make("colocation", params, 42)
    serial = ExperimentRunner(parallel=1).run([req])
    par = ExperimentRunner(parallel=2).run([req])
    assert serial.merged_bytes() == par.merged_bytes()


def test_fault_events_carry_draw_indices():
    from repro.faults import standard_chaos_plan

    plan = standard_chaos_plan(
        seed=0, counter_error_rate=0.1, garbage_rate=0.05,
        tick_miss_rate=0.05,
    )
    res = _small_colo(obs="all", faults=plan.to_json())
    faults = [e for e in res.obs["events"] if e["cat"] == "fault"]
    assert faults
    for ev in faults:
        assert ev["args"]["draw"] >= 1
        assert ev["args"]["injected"] >= 1
    # per-kind draw indices are monotone in emission order
    by_kind = {}
    for ev in faults:
        draws = by_kind.setdefault(ev["name"], [])
        draws.append(ev["args"]["draw"])
    for kind, draws in by_kind.items():
        assert draws == sorted(draws), kind


def test_injector_stats_dict_shape_unchanged():
    """Draw counts live in draws_dict(); stats_dict() keeps its committed
    shape so existing chaos payloads stay byte-identical."""
    from repro.faults import FaultInjector, FaultPlan, standard_chaos_plan

    inj = FaultInjector(FaultPlan(seed=0, specs=()), scope="n")
    assert inj.stats_dict() == {}
    assert inj.draws_dict() == {}  # like stats_dict: configured kinds only
    plan = standard_chaos_plan(seed=0, counter_error_rate=0.1)
    inj2 = FaultInjector(plan, scope="n")
    stats = inj2.stats_dict()
    assert set(stats) == {"counter_read_error"}
    assert not any("draw" in k for k in stats)
    assert inj2.draws_dict() == {"counter_read_error": 0}


def test_cluster_sweep_obs_sections():
    from repro.cluster.sweep import run_cluster_sweep

    kw = dict(policy="score", n_nodes=2, n_jobs=5,
              duration_us=30_000.0, seed=42)
    plain = run_cluster_sweep(**kw)
    assert "obs" not in plain and "node_health" not in plain
    observed = run_cluster_sweep(**kw, obs="all")
    assert observed["obs"]["n_events"] > 0
    health = observed["node_health"]
    assert [row["name"] for row in health] == ["server0", "server1"]
    for row in health:
        assert row["alive"] is True
        assert "lc_vpi_ema" in row and "daemon" in row
    # additive sections only: the shared keys are byte-identical
    trimmed = {k: v for k, v in observed.items()
               if k not in ("obs", "node_health")}
    assert dumps_canonical(trimmed) == dumps_canonical(plain)


def test_format_node_health_table():
    from repro.analysis.cluster import format_node_health_table

    rows = [
        {"name": "server0", "alive": True, "failures": 0,
         "health": "healthy", "lc_vpi_ema": 12.5,
         "reserved_pressure": 0.1, "batch_occupancy": 0.4,
         "n_containers": 2, "n_lc_cpus": 4, "expanded": 1,
         "serving": True, "stale_windows": 0,
         "degraded_total_us": 1500.0, "missed_ticks": 0,
         "watchdog_recoveries": 0},
        {"name": "server1", "alive": False, "failures": 2},
    ]
    out = format_node_health_table(rows)
    lines = out.splitlines()
    assert lines[0].split()[0] == "node"
    assert "server0" in lines[1] and "4+1" in lines[1]
    assert "DOWN" in lines[2] and lines[2].count("-") >= 5
