"""Degraded-mode scheduling transitions and metric_mode="cps" edge cases.

The degraded contract (fail safe): while the VPI signal is lost and a
registered service is serving traffic, no batch container may hold an
LC-sibling CPU; on signal restore a full S of observed calm is required
before any re-grant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Holmes, HolmesConfig
from repro.core.monitor import MetricMonitor, MonitorSample
from repro.faults import FaultInjector, FaultSpec, standard_chaos_plan
from repro.faults.plan import FaultPlan
from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System
from repro.workloads.batch import BatchJobSpec
from repro.yarnlike import NodeManager


def small_system():
    return System(config=HWConfig(sockets=1, cores_per_socket=8))


LONG_JOB = BatchJobSpec(
    name="membeast", iterations=100_000, mem_lines=8000,
    mem_dram_frac=0.9, comp_cycles=100_000,
)


def service_like_body(thread, until_us):
    env = thread.env
    while env.now < until_us:
        yield from thread.exec(MemOp(lines=1200, dram_frac=0.15))
        yield from thread.exec(CompOp(cycles=8_000))


def fake_sample(holmes, t, health, vpi=None):
    """A hand-built MonitorSample to drive the scheduler directly."""
    mon = holmes.monitor
    z = np.zeros(mon.n_lcpus)
    return MonitorSample(
        time=t,
        usage=z,
        usage_ema=z.copy(),
        vpi=z.copy() if vpi is None else vpi,
        ldst=z.copy(),
        new_containers=[],
        gone_containers=[],
        lc_statuses=list(mon.lc_services.values()),
        health=health,
    )


def all_grants(holmes):
    return {
        cpu
        for info in holmes.monitor.containers.values()
        for cpu in info.sibling_grants
    }


class ScriptedFaults:
    """A fake injector that fails counter reads on a fixed script."""

    has_counter_faults = True
    has_tick_faults = False

    def __init__(self, script):
        self.script = list(script)

    def counter_fault(self, now):
        return self.script.pop(0) if self.script else None

    def counter_retry_ok(self, now):
        return False  # every retry of a scripted error fails too

    def install(self, system):
        pass


# -- degradation state machine at exact boundaries ---------------------------


def test_degrades_at_exactly_k_stale_windows():
    system = small_system()
    cfg = HolmesConfig(stale_hold_windows=3)
    monitor = MetricMonitor(
        system, cfg, faults=ScriptedFaults(["error"] * 3 + [None])
    )
    healths = []
    for i in range(1, 5):
        system.env.run(until=i * 50.0)
        monitor.collect()
        healths.append(monitor.health)
    # K-1 failed windows hold the last-good view; the Kth flips degraded;
    # the first good read heals and closes the interval.
    assert healths == ["stale", "stale", "degraded", "healthy"]
    assert monitor.degraded_intervals == [(150.0, 200.0)]


def test_degraded_serving_strips_grants_until_s_of_calm():
    system = small_system()
    holmes = Holmes(system, HolmesConfig(s_hold_us=1_000.0))
    nm = NodeManager(system)
    nm.launch_job(LONG_JOB, tasks_per_container=2)
    sched = sched_with_serving_service(system, holmes)

    sched.tick(fake_sample(holmes, 0.0, "healthy"))
    assert all_grants(holmes)  # calm since -inf: siblings granted

    sched.tick(fake_sample(holmes, 100.0, "degraded"))
    assert not all_grants(holmes)  # fail safe: all grants stripped

    sched.tick(fake_sample(holmes, 200.0, "healthy"))
    # signal restored, but S restarts from the restore instant: still none
    assert not all_grants(holmes)

    sched.tick(fake_sample(holmes, 1_300.0, "healthy"))
    assert all_grants(holmes)  # a full S of observed calm re-grants


def sched_with_serving_service(system, holmes):
    """Place the launched container, register a serving LC service."""
    sched = holmes.scheduler
    sched.tick(holmes.monitor.collect())  # discover + place the container
    proc = system.spawn_process("svc")
    proc.spawn_thread(
        lambda th: service_like_body(th, 1.0e9), affinity={0}
    )
    holmes.register_lc_service(proc.pid)
    holmes.monitor.lc_services[proc.pid].serving = True
    return sched


def test_vpi_at_exactly_e_deallocates():
    system = small_system()
    cfg = HolmesConfig(s_hold_us=1_000.0)
    holmes = Holmes(system, cfg)
    nm = NodeManager(system)
    nm.launch_job(LONG_JOB, tasks_per_container=2)
    sched = sched_with_serving_service(system, holmes)
    sched.tick(fake_sample(holmes, 0.0, "healthy"))
    assert all_grants(holmes)
    lc0 = sched.lc_cpus[0]
    sib0 = sched.topology.sibling(lc0)
    vpi = np.zeros(holmes.monitor.n_lcpus)
    vpi[lc0] = cfg.e_threshold  # the >= boundary, not strictly above
    sched.tick(fake_sample(holmes, 100.0, "healthy", vpi=vpi))
    grants = all_grants(holmes)
    assert sib0 not in grants  # exactly-E counts as interference
    assert grants  # other calm LC CPUs keep their grants


# -- metric_mode="cps" edges --------------------------------------------------


def test_cps_same_timestamp_collect_stays_finite():
    system = small_system()
    monitor = MetricMonitor(system, HolmesConfig(metric_mode="cps"))
    proc = system.spawn_process("busy")
    proc.spawn_thread(lambda th: service_like_body(th, 2_000.0), affinity={0})
    system.run(until=2_000.0)
    first = monitor.collect()
    assert np.isfinite(first.vpi).all()
    # zero-width window: dt clamps at 1e-9 instead of dividing by zero
    again = monitor.collect()
    assert np.isfinite(again.vpi).all()


def test_cps_mode_degrades_like_vpi_mode():
    system = small_system()
    cfg = HolmesConfig(metric_mode="cps")
    plan = FaultPlan(
        seed=3,
        specs=(FaultSpec(kind="counter_read_error", rate=1.0, end_us=1_000.0),),
    )
    monitor = MetricMonitor(system, cfg, faults=FaultInjector(plan, "node0"))
    for i in range(1, 25):
        system.env.run(until=i * 50.0)
        monitor.collect()
    # the degradation machine is metric-mode agnostic
    assert monitor.health == "healthy"
    assert len(monitor.degraded_intervals) == 1


def test_cps_dealloc_uses_cps_threshold():
    system = small_system()
    cfg = HolmesConfig(metric_mode="cps", e_cps_threshold=100.0,
                       s_hold_us=1_000.0)
    holmes = Holmes(system, cfg)
    nm = NodeManager(system)
    nm.launch_job(LONG_JOB, tasks_per_container=2)
    sched = sched_with_serving_service(system, holmes)
    sched.tick(fake_sample(holmes, 0.0, "healthy"))
    lc0 = sched.lc_cpus[0]
    sib0 = sched.topology.sibling(lc0)
    vpi = np.zeros(holmes.monitor.n_lcpus)
    vpi[lc0] = 99.9  # below E_cps: no dealloc in cps mode
    sched.tick(fake_sample(holmes, 100.0, "healthy", vpi=vpi))
    assert sib0 in all_grants(holmes)
    vpi2 = vpi.copy()
    vpi2[lc0] = 100.0  # at E_cps: dealloc
    sched.tick(fake_sample(holmes, 200.0, "healthy", vpi=vpi2))
    assert sib0 not in all_grants(holmes)


# -- the degraded invariant, under random fault schedules ---------------------


@settings(max_examples=8, deadline=None)
@given(
    fault_seed=st.integers(min_value=0, max_value=2**16),
    err=st.floats(min_value=0.0, max_value=1.0),
    garb=st.floats(min_value=0.0, max_value=0.5),
    miss=st.floats(min_value=0.0, max_value=0.3),
)
def test_never_grants_siblings_while_degraded(fault_seed, err, garb, miss):
    """Property: after any tick taken in degraded mode with a serving
    service, no batch container holds an LC-sibling CPU."""
    plan = standard_chaos_plan(
        seed=fault_seed,
        counter_error_rate=err,
        garbage_rate=garb,
        tick_miss_rate=miss,
    )
    system = small_system()
    holmes = Holmes(
        system, HolmesConfig(s_hold_us=500.0),
        faults=FaultInjector(plan, scope="node0"),
    )
    holmes.start()
    proc = system.spawn_process("svc")
    until = 10_000.0
    proc.spawn_thread(lambda th: service_like_body(th, until), affinity={0})
    holmes.register_lc_service(proc.pid)
    nm = NodeManager(system)
    for _ in range(2):
        nm.launch_job(LONG_JOB, tasks_per_container=2)

    violations = []
    orig_tick = holmes.scheduler.tick

    def checked_tick(sample):
        orig_tick(sample)
        if sample.health == "degraded" and any(
            s.serving for s in sample.lc_statuses
        ):
            for info in holmes.monitor.containers.values():
                if info.sibling_grants:
                    violations.append(
                        (sample.time, info.name, set(info.sibling_grants))
                    )

    holmes.scheduler.tick = checked_tick
    system.run(until=until)
    holmes.stop()
    assert not violations


def test_degraded_mode_is_reported_end_to_end():
    """A hard outage long enough to degrade shows up in the health report
    and telemetry snapshot."""
    system = small_system()
    plan = FaultPlan(
        seed=9,
        specs=(FaultSpec(kind="counter_read_error", rate=1.0,
                         start_us=1_000.0, end_us=2_000.0),),
    )
    holmes = Holmes(system, faults=FaultInjector(plan, "node0"))
    holmes.start()
    proc = system.spawn_process("svc")
    proc.spawn_thread(lambda th: service_like_body(th, 5_000.0), affinity={0})
    holmes.register_lc_service(proc.pid)
    system.run(until=1_500.0)
    snap = holmes.telemetry()
    assert snap.health == "degraded"
    assert snap.stale_windows > 0
    system.run(until=5_000.0)
    holmes.stop()
    report = holmes.health_report()
    assert report["health"] == "healthy"
    assert report["degraded_total_us"] > 0
    assert report["degraded_intervals"]
    with pytest.raises(ValueError):
        HolmesConfig(stale_hold_windows=0)
