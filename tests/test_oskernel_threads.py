"""Unit/integration tests for the OS layer: threads, affinity, scheduling."""

import gc
from contextlib import closing

import pytest

from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System, ThreadState
from tests.collector import drain
from tests.wheel_calendar import KERNELS, make_environment


@pytest.fixture
def system():
    return System(config=HWConfig())


def test_single_thread_runs_memop_to_completion(system):
    done = []

    def body(thread):
        yield from thread.exec(MemOp(lines=16384, dram_frac=1.0))
        done.append(thread.env.now)

    proc = system.spawn_process("probe")
    proc.spawn_thread(body, affinity={0})
    system.run()
    assert len(done) == 1
    # ~1,400us uncontended (Fig. 2 calibration), through the full OS path
    assert done[0] == pytest.approx(1400, rel=0.02)


def test_two_threads_share_one_lcpu_round_robin(system):
    """Two CPU-bound threads on one logical CPU each take ~2x as long."""
    finish = {}

    def body(thread):
        yield from thread.exec(CompOp(cycles=2_400_000))  # 1000us alone
        finish[thread.name] = thread.env.now

    proc = system.spawn_process("contenders")
    proc.spawn_thread(body, affinity={0}, name="a")
    proc.spawn_thread(body, affinity={0}, name="b")
    system.run()
    assert finish["a"] == pytest.approx(2000, rel=0.06)
    assert finish["b"] == pytest.approx(2000, rel=0.06)


def test_threads_spread_across_allowed_lcpus(system):
    """Least-loaded placement spreads threads over the affinity set."""
    finish = {}

    def body(thread):
        yield from thread.exec(CompOp(cycles=2_400_000))
        finish[thread.name] = (thread.env.now, thread.last_lcpu)

    proc = system.spawn_process("spread")
    proc.spawn_thread(body, affinity={0, 1}, name="a")
    proc.spawn_thread(body, affinity={0, 1}, name="b")
    system.run()
    lcpus = {v[1] for v in finish.values()}
    assert lcpus == {0, 1}
    for t, (end, _) in finish.items():
        assert end == pytest.approx(1000, rel=0.05)


def test_smt_interference_through_os_path(system):
    """Memory threads on sibling lcpus slow each other (Fig. 2 case 3)."""
    finish = {}
    sib = system.server.topology.sibling(0)

    def body(thread):
        yield from thread.exec(MemOp(lines=16384, dram_frac=1.0))
        finish[thread.name] = thread.env.now

    proc = system.spawn_process("siblings")
    proc.spawn_thread(body, affinity={0}, name="a")
    proc.spawn_thread(body, affinity={sib}, name="b")
    system.run()
    for name in ("a", "b"):
        assert finish[name] > 2100  # ~2,300us contended vs 1,400 alone


def test_separate_cores_no_interference(system):
    finish = {}

    def body(thread):
        yield from thread.exec(MemOp(lines=16384, dram_frac=1.0))
        finish[thread.name] = thread.env.now

    proc = system.spawn_process("cores")
    proc.spawn_thread(body, affinity={0}, name="a")
    proc.spawn_thread(body, affinity={1}, name="b")
    system.run()
    for name in ("a", "b"):
        assert finish[name] == pytest.approx(1400, rel=0.02)


def test_sched_setaffinity_migrates_waiting_thread(system):
    """A thread queued on a now-forbidden CPU requeues immediately."""
    finish = {}

    def hog(thread):
        yield from thread.exec(CompOp(cycles=24_000_000))  # 10,000us

    def victim(thread):
        yield from thread.exec(CompOp(cycles=240_000))  # 100us alone
        finish["victim"] = (thread.env.now, thread.last_lcpu)

    proc = system.spawn_process("p")
    proc.spawn_thread(hog, affinity={0}, name="hog")
    vt = proc.spawn_thread(victim, affinity={0}, name="victim")

    def controller(env):
        # mid-quantum of the hog: the victim is queued (WAITING_CPU) on
        # lcpu 0; moving its mask must requeue it onto lcpu 1 right away
        yield env.timeout(25.0)
        system.sched_setaffinity(vt.tid, {1})

    system.env.process(controller(system.env))
    system.run()
    end, lcpu = finish["victim"]
    assert lcpu == 1
    assert end < 300


def test_sched_setaffinity_running_thread_moves_at_quantum_edge(system):
    trace = []

    def body(thread):
        for _ in range(20):
            yield from thread.exec(CompOp(cycles=120_000))  # 50us quanta
            trace.append((thread.env.now, thread.last_lcpu))

    proc = system.spawn_process("p")
    t = proc.spawn_thread(body, affinity={0}, name="mover")

    def controller(env):
        yield env.timeout(320.0)
        system.sched_setaffinity(t.tid, {5})

    system.env.process(controller(system.env))
    system.run()
    before = [l for (ts, l) in trace if ts <= 320]
    after = [l for (ts, l) in trace if ts > 420]
    assert set(before) == {0}
    assert set(after) == {5}


def test_sched_setaffinity_validation(system):
    proc = system.spawn_process("p")

    def body(thread):
        yield from thread.sleep(10.0)

    t = proc.spawn_thread(body, affinity={0})
    with pytest.raises(ValueError):
        system.sched_setaffinity(t.tid, set())
    with pytest.raises(ValueError):
        system.sched_setaffinity(t.tid, {9999})
    with pytest.raises(KeyError):
        system.sched_setaffinity(424242, {0})
    system.run()


def test_kill_sleeping_thread(system):
    log = []

    def body(thread):
        log.append("start")
        yield from thread.sleep(1_000_000.0)
        log.append("never")

    proc = system.spawn_process("p")
    t = proc.spawn_thread(body, affinity={0})

    def killer(env):
        yield env.timeout(50.0)
        t.kill()

    system.env.process(killer(system.env))
    system.run()
    assert log == ["start"]
    assert t.state == ThreadState.KILLED
    assert not t.alive


def test_kill_cpu_bound_thread(system):
    def body(thread):
        yield from thread.exec(CompOp(cycles=24_000_000_000))  # ~10s

    proc = system.spawn_process("p")
    t = proc.spawn_thread(body, affinity={0})

    def killer(env):
        yield env.timeout(500.0)
        t.kill()

    system.env.process(killer(system.env))
    system.run()
    assert t.state == ThreadState.KILLED
    # killed within a couple of quanta of the request
    assert system.env.now < 700


def test_process_exit_detection(system):
    def body(thread):
        yield from thread.exec(CompOp(cycles=240_000))

    proc = system.spawn_process("p")
    proc.spawn_thread(body, affinity={0})
    proc.spawn_thread(body, affinity={1})
    assert proc.alive
    system.run()
    assert not proc.alive
    assert proc.exited_at == pytest.approx(100, rel=0.05)


def test_thread_cputime_accounting(system):
    def body(thread):
        yield from thread.exec(CompOp(cycles=2_400_000))  # 1000us
        yield from thread.sleep(500.0)
        yield from thread.exec(CompOp(cycles=2_400_000))

    proc = system.spawn_process("p")
    t = proc.spawn_thread(body, affinity={3})
    system.run()
    assert t.cputime_us == pytest.approx(2000, rel=0.02)
    assert proc.cputime_us == t.cputime_us


def test_empty_affinity_rejected(system):
    proc = system.spawn_process("p")
    with pytest.raises(ValueError):
        proc.spawn_thread(lambda th: iter(()), affinity=set())


def test_disk_io_releases_cpu(system):
    """A thread blocked on disk lets another thread use its CPU."""
    finish = {}

    def io_body(thread):
        for _ in range(10):
            yield from thread.disk_io(4096)
        finish["io"] = thread.env.now

    def cpu_body(thread):
        yield from thread.exec(CompOp(cycles=2_400_000))  # 1000us alone
        finish["cpu"] = thread.env.now

    proc = system.spawn_process("p")
    proc.spawn_thread(io_body, affinity={0}, name="io")
    proc.spawn_thread(cpu_body, affinity={0}, name="cpu")
    system.run()
    # the CPU-bound thread is barely slowed by the IO thread
    assert finish["cpu"] < 1300


def test_wait_primitive_with_store(system):
    from repro.sim import Store

    store = Store(system.env)
    got = []

    def consumer(thread):
        item = yield from thread.wait(store.get())
        got.append((thread.env.now, item))

    def producer(env):
        yield env.timeout(77.0)
        store.put_nowait("ping")

    proc = system.spawn_process("p")
    proc.spawn_thread(consumer, affinity={0})
    system.env.process(producer(system.env))
    system.run()
    assert got == [(77.0, "ping")]


def test_deterministic_scheduling():
    def run_once():
        system = System(config=HWConfig(seed=3))
        finish = {}

        def body(thread):
            for _ in range(5):
                yield from thread.exec(MemOp(lines=500, dram_frac=0.5))
                yield from thread.sleep(13.0)
            finish[thread.name] = thread.env.now

        proc = system.spawn_process("p")
        for i in range(8):
            proc.spawn_thread(body, affinity={0, 1, 2, 32}, name=f"t{i}")
        system.run()
        return finish

    assert run_once() == run_once()


# -- teardown: System.close() ----------------------------------------------------


@pytest.mark.parametrize("calendar", KERNELS)
def test_close_finalizes_threads_once_in_creation_order(calendar):
    system = System(env=make_environment(calendar), config=HWConfig())
    log = []

    def body(thread):
        try:
            while True:
                yield from thread.exec(CompOp(cycles=2_400_000))
        finally:
            log.append(thread.name)

    proc = system.spawn_process("p", cgroup_path="/batch/c1")
    for name, lcpu in (("t2", 2), ("t0", 0), ("t1", 0)):  # t1 queues on 0
        proc.spawn_thread(body, affinity={lcpu}, name=name)
    system.run(until=100.0)
    assert log == [] and proc.alive
    group = system.cgroups.get("/batch/c1")
    system.close()
    assert log == ["t2", "t0", "t1"]
    # torn down, not crashed
    assert [t.state for t in proc.threads] == [ThreadState.KILLED] * 3
    assert proc.exited_at == 100.0 and not proc.alive
    assert group.processes == []
    assert system.env.peek() == float("inf")
    system.close()
    assert log == ["t2", "t0", "t1"]


@pytest.mark.parametrize("calendar", KERNELS)
def test_closed_system_is_freed_by_reference_counting(calendar):
    class Service:
        """Owns its threads, and each thread's body is its bound method."""

        def __init__(self, system):
            self.proc = system.spawn_process("svc", cgroup_path="/svc")
            self.threads = [
                self.proc.spawn_thread(self.body, affinity={i})
                for i in range(3)
            ]

        def body(self, thread):
            while True:
                yield from thread.exec(MemOp(lines=500, dram_frac=0.5))
                yield from thread.disk_io(4096)
                yield from thread.sleep(13.0)

    def spin(thread):
        while True:
            yield from thread.exec(CompOp(cycles=2_400_000))

    drain()
    gc.disable()
    try:
        system = System(env=make_environment(calendar), config=HWConfig())
        svc = Service(system)
        batch = system.spawn_process("batch", cgroup_path="/batch/c1")
        for _ in range(3):  # one holds lcpu 5, two wait in its queue
            batch.spawn_thread(spin, affinity={5})
        system.run(until=500.0)
        assert all(t.alive for t in svc.threads)
        assert system.cpu_slots[5].queue_length == 2
        system.close()
        del system, svc, batch
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_that_raises_still_closes_and_propagates_its_own_error():
    system = System(config=HWConfig())
    log = []

    def crasher(thread):
        yield from thread.exec(CompOp(cycles=240_000))
        raise ValueError("boom")

    def spinner(thread):
        try:
            while True:
                yield from thread.exec(CompOp(cycles=240_000))
        finally:
            log.append("spinner")

    proc = system.spawn_process("p")
    proc.spawn_thread(crasher, affinity={0})
    proc.spawn_thread(spinner, affinity={1})
    with pytest.raises(ValueError, match="boom"):
        with closing(system):
            system.run()
    assert log == ["spinner"]
    assert system.env.peek() == float("inf")
