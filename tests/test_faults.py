"""Tests for the deterministic fault-injection engine (repro.faults)
and the graceful-degradation paths it exercises in the Holmes daemon.
"""

import pathlib

import pytest

from repro.core import Holmes, HolmesConfig
from repro.core.monitor import MetricMonitor
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System
from repro.workloads.batch import BatchJobSpec
from repro.yarnlike import ContainerLaunchError, NodeManager


def small_system():
    return System(config=HWConfig(sockets=1, cores_per_socket=8))


def plan_of(*specs, seed=7):
    return FaultPlan(seed=seed, specs=tuple(specs))


LONG_JOB = BatchJobSpec(
    name="membeast", iterations=100_000, mem_lines=8000,
    mem_dram_frac=0.9, comp_cycles=100_000,
)


def service_like_body(thread, until_us):
    env = thread.env
    while env.now < until_us:
        yield from thread.exec(MemOp(lines=1200, dram_frac=0.15))
        yield from thread.exec(CompOp(cycles=8_000))


# -- plans: validation and serialisation -------------------------------------


def test_plan_json_roundtrip_and_coerce():
    plan = plan_of(
        FaultSpec(kind="counter_read_error", rate=0.1, end_us=5_000.0),
        FaultSpec(kind="node_fail_stop", period_us=10_000.0,
                  duration_us=2_000.0, count=2, target="server1"),
        seed=99,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.coerce(plan) is plan
    assert FaultPlan.coerce(plan.to_dict()) == plan
    assert FaultPlan.coerce(plan.to_json()) == plan
    # canonical form: byte-stable across repeated serialisation
    assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="disk_on_fire")
    with pytest.raises(ValueError):
        FaultSpec(kind="counter_read_error", rate=1.5)
    with pytest.raises(ValueError):
        FaultSpec(kind="node_fail_stop")  # driver kind needs period_us
    with pytest.raises(ValueError):
        FaultSpec(kind="tick_miss", start_us=10.0, end_us=5.0)
    with pytest.raises(TypeError):
        FaultPlan.coerce(42)
    # the canned transport plan as it was before the socket transport
    # and its heartbeat-stall kind were removed: it must fail loudly,
    # not silently drop a spec
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    old_plan = (golden / "socket_era_transport_chaos.json").read_text()
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_json(old_plan)


def test_spec_window_and_target():
    spec = FaultSpec(kind="tick_miss", rate=0.5, start_us=100.0, end_us=200.0)
    assert not spec.active(99.9)
    assert spec.active(100.0)
    assert spec.active(199.9)
    assert not spec.active(200.0)
    scoped = FaultSpec(kind="tick_miss", rate=0.5, target="server3")
    assert scoped.matches("server3")
    assert not scoped.matches("server0")
    assert FaultSpec(kind="tick_miss", rate=0.5).matches("anything")


# -- injector: determinism and channel separation ----------------------------


def test_injector_replays_bit_identically():
    plan = plan_of(FaultSpec(kind="counter_read_error", rate=0.3))
    a = FaultInjector(plan, scope="node0")
    b = FaultInjector(plan, scope="node0")
    seq_a = [a.counter_fault(t * 50.0) for t in range(200)]
    seq_b = [b.counter_fault(t * 50.0) for t in range(200)]
    assert seq_a == seq_b
    assert any(f == "error" for f in seq_a)


def test_injector_channels_are_independent():
    specs = (
        FaultSpec(kind="counter_read_error", rate=0.3),
        FaultSpec(kind="tick_miss", rate=0.3),
    )
    plan = plan_of(*specs)
    # consume many counter draws on one injector, none on the other: the
    # tick-fault decision stream must be unaffected.
    a = FaultInjector(plan, scope="node0")
    b = FaultInjector(plan, scope="node0")
    for t in range(500):
        a.counter_fault(t * 50.0)
    ticks_a = [a.tick_fault(t * 50.0) for t in range(200)]
    ticks_b = [b.tick_fault(t * 50.0) for t in range(200)]
    assert ticks_a == ticks_b


def test_injector_scopes_differ():
    plan = plan_of(FaultSpec(kind="counter_read_error", rate=0.5))
    a = FaultInjector(plan, scope="server0")
    b = FaultInjector(plan, scope="server1")
    seq_a = [a.counter_fault(t * 50.0) for t in range(100)]
    seq_b = [b.counter_fault(t * 50.0) for t in range(100)]
    assert seq_a != seq_b  # per-node channels, not one shared stream


def test_capability_flags():
    empty = FaultInjector(plan_of(), scope="n")
    assert not empty.has_counter_faults and not empty.has_tick_faults
    counters = FaultInjector(
        plan_of(FaultSpec(kind="counter_garbage", rate=0.1)), scope="n"
    )
    assert counters.has_counter_faults and not counters.has_tick_faults
    ticks = FaultInjector(
        plan_of(FaultSpec(kind="tick_stall", rate=0.1, duration_us=100.0)),
        scope="n",
    )
    assert ticks.has_tick_faults and not ticks.has_counter_faults


# -- monitor: stale hold, degraded mode, recovery ----------------------------


def test_counter_errors_degrade_then_recover():
    system = small_system()
    cfg = HolmesConfig()
    plan = plan_of(
        FaultSpec(kind="counter_read_error", rate=1.0, end_us=1_000.0)
    )
    monitor = MetricMonitor(system, cfg, faults=FaultInjector(plan, "node0"))
    seen = set()
    for i in range(1, 30):
        system.env.run(until=i * 50.0)
        monitor.collect()
        seen.add(monitor.health)
    # every read in [0, 1000) fails unrecoverably (retry rate == 1.0), so
    # the monitor walks healthy -> stale -> degraded, then heals once the
    # window closes.
    assert seen == {"stale", "degraded", "healthy"}
    assert monitor.health == "healthy"
    assert monitor.counter_read_failures > 0
    assert monitor.counter_retries > 0
    assert monitor.stale_windows == 0
    assert len(monitor.degraded_intervals) == 1
    start, end = monitor.degraded_intervals[0]
    # degraded after K=4 failed windows (t=200), healed at the first good
    # read past the fault window (t=1000).
    assert start == pytest.approx(cfg.stale_hold_windows * 50.0)
    assert end == pytest.approx(1_000.0)
    assert monitor.degraded_total_us(system.env.now) == pytest.approx(
        end - start
    )


def test_garbage_reads_are_discarded():
    system = small_system()
    plan = plan_of(
        FaultSpec(kind="counter_garbage", rate=1.0, magnitude=1.0e9)
    )
    monitor = MetricMonitor(
        system, HolmesConfig(), faults=FaultInjector(plan, "node0")
    )
    for i in range(1, 11):
        system.env.run(until=i * 50.0)
        monitor.collect()
    assert monitor.garbage_samples == 10
    # magnitude far above vpi_garbage_ceiling: the plausibility check
    # rejects every corrupted sample rather than feeding it to Algorithm 2.
    assert monitor.discarded_samples == 10
    assert monitor.health == "degraded"
    assert monitor.counter_read_failures == 0  # reads "succeeded"


def test_stale_hold_keeps_last_good_vpi():
    system = small_system()
    cfg = HolmesConfig(stale_hold_windows=50)  # stay in stale, not degraded
    plan = plan_of(
        FaultSpec(kind="counter_read_error", rate=1.0, start_us=100.0)
    )
    monitor = MetricMonitor(system, cfg, faults=FaultInjector(plan, "node0"))
    system.env.run(until=50.0)
    good = monitor.collect()
    assert monitor.health == "healthy"
    system.env.run(until=150.0)
    held = monitor.collect()
    assert monitor.health == "stale"
    assert (held.vpi == good.vpi).all()  # last-good hold, not zeros


# -- daemon: tick faults and the watchdog ------------------------------------


def test_tick_misses_are_counted_and_survived():
    system = small_system()
    plan = plan_of(
        FaultSpec(kind="tick_miss", rate=1.0, end_us=5_000.0)
    )
    holmes = Holmes(system, faults=FaultInjector(plan, "node0"))
    holmes.start()
    system.env.run(until=10_000.0)
    holmes.stop()
    # every boundary in [0, 5000) drops; the loop keeps ticking after.
    assert holmes.missed_ticks >= 50
    assert holmes.ticks > 0
    assert holmes.health_report()["missed_ticks"] == holmes.missed_ticks


def test_watchdog_rearms_stalled_loop():
    system = small_system()
    # one long stall right at the start: 50 ms dwarfs the auto watchdog
    # timeout (20 x 50 us), so only the watchdog can revive the loop.
    plan = plan_of(
        FaultSpec(kind="tick_stall", rate=1.0, end_us=60.0,
                  duration_us=50_000.0)
    )
    holmes = Holmes(system, faults=FaultInjector(plan, "node0"))
    holmes.start()
    system.env.run(until=10_000.0)
    holmes.stop()
    assert holmes.stalled_ticks >= 1
    assert holmes.watchdog_recoveries >= 1
    assert holmes.ticks > 50  # loop kept running after recovery


def test_health_report_shape():
    system = small_system()
    plan = plan_of(FaultSpec(kind="tick_miss", rate=0.5, end_us=1_000.0))
    holmes = Holmes(system, faults=FaultInjector(plan, "node0"))
    holmes.start()
    system.env.run(until=2_000.0)
    holmes.stop()
    report = holmes.health_report()
    assert report["health"] == "healthy"
    assert report["injected"] == {"tick_miss": holmes.missed_ticks}
    # no faults -> no "injected" key (byte-identity with plain reports)
    assert "injected" not in Holmes(small_system()).health_report()


# -- cgroup faults: retry queue and launch hardening -------------------------


def test_cpuset_write_failures_are_retried():
    system = small_system()
    # fault window opens after launch-time cgroup setup, closes at 2 ms
    plan = plan_of(
        FaultSpec(kind="cgroup_error", rate=1.0, start_us=10.0,
                  end_us=2_000.0)
    )
    holmes = Holmes(system, faults=FaultInjector(plan, "node0"))
    nm = NodeManager(system)
    nm.launch_job(LONG_JOB, tasks_per_container=2)
    sched = holmes.scheduler
    system.run(until=20.0)
    sched.tick(holmes.monitor.collect())  # placement write fails
    assert sched._pending_cpuset
    system.run(until=2_050.0)
    sched.tick(holmes.monitor.collect())  # retry past the window succeeds
    assert not sched._pending_cpuset
    assert any(e.action == "cpuset_write_failed" for e in sched.events)


def test_launch_fails_cleanly_under_cgroup_faults():
    system = small_system()
    plan = plan_of(FaultSpec(kind="cgroup_error", rate=1.0))
    injector = FaultInjector(plan, "node0")
    injector.install(system)
    nm = NodeManager(system)
    with pytest.raises(ContainerLaunchError):
        nm.launch_job(LONG_JOB, tasks_per_container=2)
    assert nm.launch_failures == 1
    assert not nm.running_jobs  # rolled back, nothing half-launched


# -- satellite: restart-safe daemon ------------------------------------------


def test_daemon_stop_start_is_restart_safe():
    system = small_system()
    holmes = Holmes(system)
    holmes.start()
    with pytest.raises(RuntimeError):
        holmes.start()  # double start is a caller bug
    system.run(until=1_000.0)
    ticks_before = holmes.ticks
    assert ticks_before > 0
    holmes.stop()
    holmes.stop()  # double stop is a no-op
    system.run(until=2_000.0)
    assert holmes.ticks == ticks_before  # stopped means stopped
    holmes.start()
    system.run(until=3_000.0)
    assert holmes.ticks > ticks_before  # restarted loop ticks again
    holmes.stop()


# -- satellite: registering an already-dead pid ------------------------------


def test_register_dead_pid_is_survivable():
    system = small_system()
    holmes = Holmes(system)
    holmes.start()
    victim = system.spawn_process("victim")
    victim.spawn_thread(
        lambda th: service_like_body(th, 100.0), affinity={0}
    )
    system.run(until=500.0)  # service body finishes; process exits
    assert not victim.alive
    assert holmes.register_lc_service(victim.pid) is False
    assert not holmes.monitor.lc_services
    assert any(
        e.action == "lc_register_failed" for e in holmes.scheduler.events
    )
    # the daemon is still alive and ticking after the failed handover
    ticks = holmes.ticks
    system.run(until=1_000.0)
    assert holmes.ticks > ticks
    with pytest.raises(KeyError):
        holmes.register_lc_service(424242)  # never-seen pid: caller bug
    holmes.stop()
