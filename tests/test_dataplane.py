"""Tests for the vectorized cluster data plane (``repro.cluster.dataplane``).

The plane is a pure performance change, so almost everything here is an
identity check against the scalar reference path: byte-identical sweep
reports across modes, calendars and runner pool sizes, and bitwise-equal
batched counter/usage reads.  The rest is unit coverage of the mode knob,
the pooled-array wiring, and the hub fallback paths, plus one paired
timing test of the win the plane exists for.
"""

import gc
import importlib.util
import pathlib
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import canonical_dumps
from repro.cluster import Cluster
from repro.cluster.dataplane import (
    DATA_PLANE_ENV_VAR,
    DEFAULT_DATA_PLANE,
    ClusterDataPlane,
    data_plane_mode,
)
from repro.cluster.scheduler import ClusterBatchScheduler
from repro.cluster.score import DEFAULT_WEIGHTS, interference_score
from repro.cluster.sweep import run_cluster_sweep
from repro.core import HolmesConfig, TelemetrySnapshot
from repro.core.vpi import VPIReader, aggregate_per_core
from repro.hw import CounterEngine, HWConfig, Server, Topology
from repro.hw.events import ALL_EVENTS
from repro.oskernel.accounting import UsageTracker
from repro.runner import ExperimentRequest, ExperimentRunner
from repro.sim import Environment
from tests.wheel_calendar import KERNELS, use_calendar

N_EVENTS = len(ALL_EVENTS)
SMALL_HW = HWConfig(sockets=1, cores_per_socket=2)
N_LCPUS = Topology(SMALL_HW).n_lcpus
N_CORES = Topology(SMALL_HW).n_cores


# -- mode resolution ---------------------------------------------------------


def test_mode_defaults_to_vectorized(monkeypatch):
    monkeypatch.delenv(DATA_PLANE_ENV_VAR, raising=False)
    assert DEFAULT_DATA_PLANE == "vectorized"
    assert data_plane_mode() == "vectorized"


def test_mode_env_and_override(monkeypatch):
    monkeypatch.setenv(DATA_PLANE_ENV_VAR, "scalar")
    assert data_plane_mode() == "scalar"
    # an explicit keyword beats the environment
    assert data_plane_mode("vectorized") == "vectorized"


def test_mode_rejects_unknown(monkeypatch):
    with pytest.raises(ValueError):
        data_plane_mode("simd")
    monkeypatch.setenv(DATA_PLANE_ENV_VAR, "avx512")
    with pytest.raises(ValueError):
        data_plane_mode()


# -- pooled-array wiring -----------------------------------------------------


def test_cluster_pools_back_node_arrays():
    cluster = Cluster(
        n_servers=3,
        config=SMALL_HW,
        holmes_config=HolmesConfig(n_reserved=1),
        start_daemons=False,
    )
    plane = cluster.dataplane
    assert plane is not None
    assert plane.counters.shape == (3, N_LCPUS, N_EVENTS)
    for i, node in enumerate(cluster.nodes):
        server = node.system.server
        assert server.data_plane is plane
        assert np.shares_memory(server.busy_us, plane.busy[i])
        assert np.shares_memory(server.counters._values, plane.counters[i])
    # accruals land in the pool with no copying, and only in their row
    cluster.nodes[1].system.server.counters.account_compute(0, 1_000.0)
    assert plane.counters[1].sum() > 0.0
    assert plane.counters[0].sum() == 0.0
    assert plane.counters[2].sum() == 0.0


def test_scalar_mode_builds_no_plane():
    cluster = Cluster(
        n_servers=2,
        config=SMALL_HW,
        holmes_config=HolmesConfig(n_reserved=1),
        start_daemons=False,
        data_plane="scalar",
    )
    assert cluster.dataplane is None
    for node in cluster.nodes:
        assert node.system.server.data_plane is None


def test_daemonless_cluster_builds_no_plane():
    assert Cluster(n_servers=2, config=SMALL_HW).dataplane is None


def test_counter_engine_rejects_misshaped_storage():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        CounterEngine(SMALL_HW, N_LCPUS, rng, values=np.zeros((3, N_EVENTS)))


def test_vpi_hub_is_shared_until_params_mismatch():
    plane = ClusterDataPlane(1, N_LCPUS, N_EVENTS)
    hub = plane.vpi_hub((0, 1, 2), 1.0, 50.0)
    assert hub is not None
    assert plane.vpi_hub((0, 1, 2), 1.0, 50.0) is hub
    # a heterogeneous registrant gets None and falls back to scalar reads
    assert plane.vpi_hub((0, 1, 3), 1.0, 50.0) is None
    assert plane.vpi_hub((0, 1, 2), 2.0, 50.0) is None
    assert plane.vpi_hub((0, 1, 2), 1.0, 60.0) is None


# -- sweep report identity ---------------------------------------------------

SMALL_SWEEP = dict(n_nodes=3, n_jobs=12, duration_us=120_000.0, seed=7)


def _sweep_bytes(monkeypatch, mode, **kwargs):
    monkeypatch.setenv(DATA_PLANE_ENV_VAR, mode)
    return canonical_dumps(run_cluster_sweep(**{**SMALL_SWEEP, **kwargs}))


@pytest.mark.parametrize("policy", ["score", "least-loaded"])
def test_sweep_reports_identical_across_planes(monkeypatch, policy):
    vec = _sweep_bytes(monkeypatch, "vectorized", policy=policy)
    scl = _sweep_bytes(monkeypatch, "scalar", policy=policy)
    assert vec == scl


def test_observed_sweep_identical_across_planes(monkeypatch):
    # the full event stream, decision audits and all, must not notice
    # the data plane swap
    vec = _sweep_bytes(monkeypatch, "vectorized", policy="score", obs="all")
    scl = _sweep_bytes(monkeypatch, "scalar", policy="score", obs="all")
    assert vec == scl


@pytest.mark.parametrize("calendar", KERNELS)
def test_sweep_identical_across_planes_and_calendars(monkeypatch, calendar):
    use_calendar(monkeypatch, calendar)
    vec = _sweep_bytes(monkeypatch, "vectorized", policy="score")
    scl = _sweep_bytes(monkeypatch, "scalar", policy="score")
    assert vec == scl


@pytest.mark.slow
def test_predictor_sweep_identical_across_planes(monkeypatch):
    vec = _sweep_bytes(monkeypatch, "vectorized", policy="predictor")
    scl = _sweep_bytes(monkeypatch, "scalar", policy="predictor")
    assert vec == scl


@pytest.mark.slow
def test_runner_reports_identical_across_planes_and_pools(monkeypatch):
    params = {
        "n_nodes": 4,
        "n_jobs": 16,
        "duration_us": 120_000.0,
        "policies": ("least-loaded", "score"),
    }
    request = ExperimentRequest.make("cluster", params, 11)
    reports = {}
    for mode, parallel in (("vectorized", 2), ("scalar", 1)):
        monkeypatch.setenv(DATA_PLANE_ENV_VAR, mode)
        report = ExperimentRunner(parallel=parallel).run([request])
        reports[mode] = canonical_dumps(report.merged())
    assert reports["vectorized"] == reports["scalar"]


# -- batched reads are bitwise equal to scalar reads -------------------------


def _pooled_and_private_servers():
    """Two servers over identical counter state: one pooled, one private."""
    plane = ClusterDataPlane(1, N_LCPUS, N_EVENTS)
    server_v = Server(
        Environment(),
        config=SMALL_HW,
        counter_values=plane.counters[0],
        busy_values=plane.busy[0],
    )
    server_v.data_plane = plane
    server_s = Server(Environment(), config=SMALL_HW)
    return plane, server_v, server_s


counter_increments = st.lists(
    st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=N_LCPUS * N_EVENTS,
        max_size=N_LCPUS * N_EVENTS,
    ),
    min_size=1,
    max_size=3,
)


@settings(deadline=None, max_examples=25)
@given(rounds=counter_increments)
def test_vpi_hub_reads_bitwise_match_scalar_reader(rounds):
    plane, server_v, server_s = _pooled_and_private_servers()
    reader_v = VPIReader(server_v, plane=plane, node_index=0)
    assert reader_v._hub is not None
    reader_s = VPIReader(server_s)
    for flat in rounds:
        inc = np.array(flat, dtype=np.float64).reshape(N_LCPUS, N_EVENTS)
        plane.counters[0] += inc
        server_s.counters._values += inc
        plane.generation += 1
        vpi_v, ldst_v, counter_v = reader_v.sample_full()
        vpi_s, ldst_s, counter_s = reader_s.sample_full()
        assert vpi_v.tobytes() == vpi_s.tobytes()
        assert np.array_equal(ldst_v, ldst_s)
        assert np.array_equal(counter_v, counter_s)


def _aggregate_per_core_scalar_loop(values, weights, n_cores):
    """Plain-python reference for the vectorized per-core aggregation."""
    out = np.zeros(n_cores, dtype=np.float64)
    for c in range(n_cores):
        v0, v1 = values[c], values[n_cores + c]
        w0, w1 = weights[c], weights[n_cores + c]
        total = w0 + w1
        if total > 0:
            out[c] = (v0 * w0 + v1 * w1) / total
    return out


lcpu_vectors = st.lists(
    st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
    min_size=2 * N_CORES,
    max_size=2 * N_CORES,
)


@settings(deadline=None, max_examples=50)
@given(values=lcpu_vectors, weights=lcpu_vectors)
def test_aggregate_per_core_bitwise_matches_scalar_loop(values, weights):
    v = np.array(values, dtype=np.float64)
    w = np.array(weights, dtype=np.float64)
    vectorized = aggregate_per_core(v, w, N_CORES)
    reference = _aggregate_per_core_scalar_loop(v, w, N_CORES)
    assert np.array_equal(vectorized, reference, equal_nan=False)
    # bitwise, not just value-equal
    assert vectorized.tobytes() == reference.tobytes()


busy_windows = st.lists(
    st.tuples(
        st.floats(1.0, 1_000.0, allow_nan=False, allow_infinity=False),
        st.lists(
            st.floats(0.0, 2_000.0, allow_nan=False, allow_infinity=False),
            min_size=N_LCPUS,
            max_size=N_LCPUS,
        ),
    ),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=25)
@given(rounds=busy_windows)
def test_usage_hub_reads_bitwise_match_scalar_tracker(rounds):
    plane, server_v, server_s = _pooled_and_private_servers()
    clock = SimpleNamespace(now=0.0)
    tracker_v = UsageTracker(clock, server_v, hub=plane.usage_hub)
    tracker_s = UsageTracker(clock, server_s)
    for dt, flat in rounds:
        inc = np.array(flat, dtype=np.float64)
        plane.busy[0] += inc
        server_s.busy_us += inc
        plane.generation += 1
        clock.now += dt
        assert np.array_equal(tracker_v.peek(), tracker_s.peek())
        assert np.array_equal(tracker_v.sample(), tracker_s.sample())


score_grids = st.lists(
    st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
    min_size=5 * N_LCPUS,
    max_size=5 * N_LCPUS,
)


def _fake_nodes(n, lc, reserved, dead):
    nodes = []
    for i in range(n):
        sched = SimpleNamespace(lc_cpus=list(lc), reserved=list(reserved))
        nodes.append(
            SimpleNamespace(
                index=i,
                holmes=SimpleNamespace(scheduler=sched),
                alive=i not in dead,
                batch_load=lambda i=i: 0.25 * i,
            )
        )
    return nodes


@settings(deadline=None, max_examples=40)
@given(
    vpi_vals=score_grids,
    usage_vals=st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=5 * N_LCPUS,
        max_size=5 * N_LCPUS,
    ),
    dead=st.sets(st.integers(0, 4), max_size=2),
)
def test_score_vector_bitwise_matches_scalar_score(vpi_vals, usage_vals, dead):
    plane = ClusterDataPlane(5, N_LCPUS, N_EVENTS)
    plane.vpi_ema[:] = np.array(vpi_vals).reshape(5, N_LCPUS)
    plane.usage_ema[:] = np.array(usage_vals).reshape(5, N_LCPUS)
    lc, reserved = [0, 1], [0, 1]
    non_reserved = [c for c in range(N_LCPUS) if c not in set(reserved)]
    nodes = _fake_nodes(5, lc, reserved, dead)
    vec = plane.score_vector(nodes, DEFAULT_WEIGHTS)
    for node in nodes:
        i = node.index
        if node.alive:
            snap = TelemetrySnapshot(
                time=0.0,
                lc_vpi_ema=float(np.mean(plane.vpi_ema[i][np.array(lc)])),
                reserved_pressure=float(
                    np.mean(plane.usage_ema[i][np.array(reserved)])
                ),
                batch_occupancy=float(
                    np.mean(plane.usage_ema[i][np.array(non_reserved)])
                ),
                n_containers=0,
                n_lc_cpus=len(lc),
                expanded=0,
                serving=True,
            )
            expected = interference_score(snap, DEFAULT_WEIGHTS)
        else:
            expected = interference_score(
                None, DEFAULT_WEIGHTS, fallback_occupancy=node.batch_load()
            )
        assert vec[i] == expected


# -- hub window semantics ----------------------------------------------------


def test_usage_hub_off_cohort_row_recomputes_with_its_own_dt():
    plane = ClusterDataPlane(2, N_LCPUS, N_EVENTS)
    hub = plane.usage_hub
    hub.register(0, 0.0)
    hub.register(1, 0.0)
    plane.busy += 40.0
    plane.generation += 1
    # node 1's daemon restarts mid-window: fresh baseline at t=50
    hub.rebaseline(1, 50.0)
    plane.busy += 10.0
    plane.generation += 1
    u0 = hub.sample(0, 100.0)  # cohort row: 50 busy over dt=100
    u1 = hub.sample(1, 100.0)  # off-cohort row: 10 busy over dt=50
    assert np.array_equal(u0, np.full(N_LCPUS, 0.5))
    assert np.array_equal(u1, np.full(N_LCPUS, 0.2))


def test_usage_hub_zero_window_reads_zero():
    plane = ClusterDataPlane(1, N_LCPUS, N_EVENTS)
    hub = plane.usage_hub
    hub.register(0, 25.0)
    plane.busy[0] += 5.0
    plane.generation += 1
    assert np.array_equal(hub.peek(0, 25.0), np.zeros(N_LCPUS))


def test_generation_bump_invalidates_same_instant_batch():
    plane = ClusterDataPlane(2, N_LCPUS, N_EVENTS)
    hub = plane.usage_hub
    hub.register(0, 0.0)
    hub.register(1, 0.0)
    plane.busy += 50.0
    plane.generation += 1
    u0 = hub.sample(0, 100.0)
    # a workload event lands between the two nodes' same-instant reads
    plane.busy[1] += 25.0
    plane.generation += 1
    u1 = hub.sample(1, 100.0)
    assert np.array_equal(u0, np.full(N_LCPUS, 0.5))
    assert np.array_equal(u1, np.full(N_LCPUS, 0.75))


# -- the measured win: tick-path events/s, vectorized vs scalar --------------

RATE_NODES = 100
RATE_INTERVAL_US = 1_000.0
RATE_DURATION_US = 30_000.0
RATE_PAIRS = 10


def _bench_compare():
    """``bench/compare.py``, whose verdict rule judges the pairs."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tick_path_rate(mode: str) -> float:
    """Per-node telemetry events per wall second on an idle cluster.

    Every node's daemon ticks at the interval and a scanner runs one full
    ``pick_node`` score scan per boundary; an event is one daemon tick or
    one node visited by a scan.  No workload runs, so the rate isolates
    the per-tick path the vectorized plane batches.
    """
    cluster = Cluster(
        n_servers=RATE_NODES,
        seed=42,
        holmes_config=HolmesConfig(interval_us=RATE_INTERVAL_US),
        data_plane=mode,
    )
    scheduler = ClusterBatchScheduler(cluster, policy="score")
    scans = 0

    def scanner():
        nonlocal scans
        while True:
            yield cluster.env.timeout(RATE_INTERVAL_US)
            scheduler.pick_node()
            scans += 1

    cluster.env.process(scanner(), name="scanner")
    gc.collect()  # neither arm pays to collect the previous run's garbage
    t0 = time.perf_counter()
    cluster.run(until=RATE_DURATION_US)
    wall = time.perf_counter() - t0
    ticks = sum(node.holmes.ticks for node in cluster.nodes)
    cluster.stop_daemons()
    return (ticks + scans * RATE_NODES) / wall


@pytest.mark.slow
def test_vectorized_plane_doubles_tick_path_rate():
    """At least 2x the scalar plane's events/s at 100 nodes, over interleaved
    pairs judged by the benchmark's noise rule (``improved``)."""
    rates = {"scalar": [], "vectorized": []}
    for mode in rates:
        _tick_path_rate(mode)  # warm-up
    for pair in range(RATE_PAIRS):
        for mode in sorted(rates, reverse=pair % 2 == 1):
            rates[mode].append(_tick_path_rate(mode))
    scalar, vectorized = rates["scalar"], rates["vectorized"]
    # 0.25 is BENCHMARK.json's bound on rates; it cannot make a verdict
    # "improved", which needs 9 wins in 10 and a median gain over the IQR
    judged = _bench_compare().verdict(scalar, vectorized, 0.25, "higher")
    ratios = [v / s for s, v in zip(scalar, vectorized)]
    assert judged["status"] == "improved", judged
    assert statistics.median(ratios) >= 2.0, ratios
