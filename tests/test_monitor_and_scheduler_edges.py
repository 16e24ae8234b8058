"""Edge-case tests for the Holmes monitor and scheduler internals."""

import numpy as np
import pytest

from repro.analysis.export import export_result, load_result
from repro.core import Holmes, HolmesConfig
from repro.core.monitor import MetricMonitor
from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System
from repro.workloads.batch import BatchJobSpec
from repro.yarnlike import NodeManager


def small_system():
    return System(config=HWConfig(sockets=1, cores_per_socket=8))


def mem_body(thread, until, lines=1200, df=0.15):
    while thread.env.now < until:
        yield from thread.exec(MemOp(lines=lines, dram_frac=df))
        yield from thread.exec(CompOp(cycles=8_000))


# -- monitor -------------------------------------------------------------------


def test_monitor_usage_ema_converges():
    system = small_system()
    monitor = MetricMonitor(system, HolmesConfig(usage_ema_tau_us=1_000.0))
    proc = system.spawn_process("p")
    proc.spawn_thread(lambda th: mem_body(th, 20_000), affinity={3})

    emas = []

    def sampler(env):
        while env.now < 20_000:
            yield env.timeout(50.0)
            emas.append(monitor.collect().usage_ema[3])

    system.env.process(sampler(system.env))
    system.run(until=20_000)
    # converges toward full utilisation, monotone-ish
    assert emas[-1] > 0.9
    assert emas[10] < emas[-1]


def test_monitor_vpi_zero_for_idle_cpu():
    system = small_system()
    monitor = MetricMonitor(system, HolmesConfig())
    system.run(until=1_000)
    sample = monitor.collect()
    assert np.all(sample.vpi == 0.0)
    assert np.all(sample.core_vpi == 0.0)


def test_monitor_core_vpi_aggregates_both_threads():
    system = small_system()
    monitor = MetricMonitor(system, HolmesConfig())
    proc = system.spawn_process("p")
    # heavy DRAM work on lcpu 4 and its sibling 12 (core 4)
    proc.spawn_thread(lambda th: mem_body(th, 10_000, lines=5000, df=0.9),
                      affinity={4})
    proc.spawn_thread(lambda th: mem_body(th, 10_000, lines=5000, df=0.9),
                      affinity={12})
    system.run(until=10_000)
    sample = monitor.collect()
    core_vpi = sample.core_vpi[4]
    assert core_vpi > 0
    lo = min(sample.vpi[4], sample.vpi[12])
    hi = max(sample.vpi[4], sample.vpi[12])
    assert lo <= core_vpi <= hi  # weighted combination stays in range


def test_monitor_container_scan_survives_missing_root():
    system = small_system()
    cfg = HolmesConfig(batch_cgroup_root="/custom-batch")
    monitor = MetricMonitor(system, cfg)
    # the monitor creates its root; removing it must not crash the scan
    system.cgroups.remove("/custom-batch")
    sample = monitor.collect()
    assert sample.new_containers == []


# -- scheduler edges ----------------------------------------------------------------


def test_container_cpuset_fallback_when_emptied():
    """Deallocating a container's only CPU falls back to the non-sibling
    pool (Algorithm 2 lines 6-7) instead of leaving an empty cpuset."""
    system = small_system()
    holmes = Holmes(system, HolmesConfig(n_reserved=4, s_hold_us=1e12))
    proc = system.spawn_process("svc")
    proc.spawn_thread(lambda th: mem_body(th, 60_000), affinity={0})
    holmes.register_lc_service(proc.pid)
    holmes.start()
    nm = NodeManager(system, default_cpuset=holmes.non_reserved_cpus())
    hog = BatchJobSpec(name="hog", iterations=10_000, mem_lines=8000,
                       mem_dram_frac=0.9, comp_cycles=50_000)
    job = nm.launch_job(hog, tasks_per_container=1)

    def intruder(env):
        yield env.timeout(5_000.0)
        info = next(iter(holmes.monitor.containers.values()))
        info.cpus = set()
        info.sibling_grants = {8}
        info.cgroup.set_cpuset({8})

    system.env.process(intruder(system.env))
    system.run(until=40_000)
    info = next(iter(holmes.monitor.containers.values()))
    cpus = info.cgroup.effective_cpuset()
    assert cpus  # never empty
    assert 8 not in cpus  # evicted from the interfering sibling
    assert not (cpus & set(holmes.reserved_cpus))  # reserved stays clean
    # whatever remains is either the non-sibling pool or calm-sibling loans
    allowed = holmes.scheduler.non_sibling_cpus | {9, 10, 11}
    assert cpus <= allowed


def test_expansion_stops_when_no_candidates():
    """With every non-LC CPU an LC sibling or guaranteed, expansion is a
    no-op rather than an error."""
    system = small_system()
    # reserve 4; guarantee all 8 non-sibling CPUs: nothing left to take
    cfg = HolmesConfig(n_reserved=4, t_expand=0.3, batch_guaranteed_cpus=8)
    holmes = Holmes(system, cfg)
    proc = system.spawn_process("svc")
    for i in range(8):
        proc.spawn_thread(lambda th: mem_body(th, 50_000),
                          affinity={0, 1, 2, 3}, name=f"w{i}")
    holmes.register_lc_service(proc.pid)
    holmes.start()
    system.run(until=50_000)
    assert holmes.lc_cpus == holmes.reserved_cpus
    assert not [e for e in holmes.scheduler.events if e.action == "expand"]


def test_event_log_is_capped():
    system = small_system()
    holmes = Holmes(system)
    holmes.scheduler.max_events = 10
    for i in range(50):
        holmes.scheduler._log("noise", str(i))
    assert len(holmes.scheduler.events) == 10


def test_active_ticks_counted_past_the_event_log_cap(monkeypatch):
    """A full action log must not hide acting ticks from the Section 6.6
    overhead estimate."""
    from repro.core.scheduler import HolmesScheduler
    from repro.experiments.colocation import run_colocation
    from repro.experiments.common import ExperimentScale

    scale = ExperimentScale(duration_us=30_000.0)
    uncapped = run_colocation("redis", "a", "holmes", scale=scale)
    init = HolmesScheduler.__init__

    def capped_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.max_events = 3

    monkeypatch.setattr(HolmesScheduler, "__init__", capped_init)
    capped = run_colocation("redis", "a", "holmes", scale=scale)
    assert uncapped.holmes_overhead["active_tick_fraction"] > 0
    for key in ("ticks", "active_tick_fraction", "cpu_fraction"):
        assert capped.holmes_overhead[key] == uncapped.holmes_overhead[key], key


def test_lc_allocation_follows_expansion():
    """Threads of a registered service track the LC set as it grows."""
    system = small_system()
    cfg = HolmesConfig(n_reserved=2, t_expand=0.5)
    holmes = Holmes(system, cfg)
    proc = system.spawn_process("svc")
    threads = [
        proc.spawn_thread(lambda th: mem_body(th, 60_000),
                          affinity={0, 1}, name=f"w{i}")
        for i in range(6)
    ]
    holmes.register_lc_service(proc.pid)
    holmes.start()
    system.run(until=60_000)
    assert len(holmes.lc_cpus) > 2
    for t in threads:
        assert t.affinity == frozenset(holmes.lc_cpus)


# -- export ----------------------------------------------------------------------------


def test_export_roundtrip(tmp_path):
    from repro.experiments.colocation import run_colocation
    from repro.experiments.common import ExperimentScale

    res = run_colocation("redis", "a", "alone",
                         scale=ExperimentScale(duration_us=120_000.0))
    path = export_result(res, tmp_path / "alone.json")
    data = load_result(path)
    assert data["setting"] == "alone"
    assert data["recorder"]["count"] == len(res.recorder)
    assert data["recorder"]["p99"] == pytest.approx(res.p99_latency)
    assert isinstance(data["vpi_values"], list)


def test_export_rejects_unknown_types(tmp_path):
    class Weird:
        pass

    with pytest.raises(TypeError):
        export_result(Weird(), tmp_path / "x.json")
