"""The per-quantum fast path of ``SimThread`` against its oracles.

``exec`` resumes its generator once per op: the grant and quantum-end
callbacks run each CPU step (DESIGN.md section 9).  Three shortcuts on
that path skip calendar events without changing what a run computes:

* the in-place grant: a quantum that starts inside the dispatch of the
  event that woke the thread alone (its own timeout, or an event whose
  last waiter it was), with nothing else due now and a free slot,
  takes the CPU without a grant event;
* the sticky continuation: when a quantum ends with work left on the
  same free CPU and nothing else due now, the quantum timeout's
  callback prices the next quantum without giving the CPU up;
* the in-place disk channel: ``disk_io`` under the same condition takes
  a free SSD channel without a grant event.

These tests pin that the callback cycle and every shortcut are exact
and taken only where they are:

* whole payloads are byte-identical to a reference arm that runs the
  generator ``exec``, ``_quantum_end``, ``wait`` and ``disk_io`` the
  callback cycle replaced (kept below), to the arm with the
  continuation disabled, and to the arm with every grant forced
  through a request (the calendar predicate patched to False);
* the in-place grant is refused when another entry is due now, when
  the slot is held, and when the thread was not the waking event's
  last waiter;
* a mid-quantum affinity change or kill falls back to the epilogue,
  and a direct interrupt of a running thread leaves exactly what it
  did before the continuation existed;
* the sticky CPU pick returns what the full least-loaded scan returns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import canonical_dumps
from repro.cluster.sweep import run_cluster_sweep
from repro.hw import CompOp, CounterEngine, DiskOp, HWConfig, MemOp, Server
from repro.hw.contention import CpuKind
from repro.oskernel import SimThread, System, ThreadState
from repro.oskernel.thread import _KILL, ThreadKilled
from repro.runner.cells import Cell, execute_cell
from repro.sim import Environment, Interrupt, Resource, Store
from tests.test_sim_golden import _chaos_faults
from tests.wheel_calendar import (
    KERNELS,
    WheelEnvironment,
    make_environment,
    use_calendar,
)


def _force_request_path(monkeypatch) -> None:
    for kernel in (Environment, WheelEnvironment):
        monkeypatch.setattr(kernel, "nothing_due_now", lambda self: False)


def _hand_back(thread, timer) -> None:
    """``SimThread._quantum_end`` with the sticky continuation disabled:
    always run exec's epilogue and loop top."""
    timer._processed = False
    thread._give_back()
    thread._next(timer)


def _disable_continuation(monkeypatch) -> None:
    monkeypatch.setattr(SimThread, "_quantum_end", _hand_back)


# -- the reference arm: the generator CPU path -------------------------------


def _reference_exec(self, op):
    """``exec`` as a generator resumed by every grant and by every
    quantum end the continuation does not take."""
    if isinstance(op, MemOp):
        remaining = float(op.lines)
        kind = CpuKind(mem=op.mem_pressure, comp=op.comp_pressure)
        is_mem = True
    elif isinstance(op, CompOp):
        remaining = float(op.cycles)
        kind = CpuKind(mem=op.mem_pressure, comp=op.comp_pressure)
        is_mem = False
    elif isinstance(op, DiskOp):
        yield from self.disk_io(op.nbytes, write=op.write)
        return
    else:
        raise TypeError(f"unknown op type: {op!r}")

    env = self.env
    server = self._server
    slots = self.system.cpu_slots
    park = self._park
    self._q_op = op
    self._q_kind = kind
    self._q_mem = is_mem
    self._q_quantum = self.quantum_us
    while remaining > 1e-9:
        self._check_kill()
        lcpu = self._choose_lcpu()
        slot = slots[lcpu]
        own = self._own_timeout
        req = None
        if (
            own is not None
            and own.callbacks is None
            and not own._processed
            and env.nothing_due_now()
        ):
            req = slot.seize(self.tid)
        if req is None:
            req = slot.request(tag=self.tid)
            self.state = ThreadState.WAITING_CPU
            self.pending_lcpu = lcpu
            self._pending_req = req
            try:
                yield req
            except Interrupt as i:
                slot.release(req)
                self.pending_lcpu = None
                self._pending_req = None
                if i.cause == _KILL:
                    raise ThreadKilled(self.name)
                continue
            self.pending_lcpu = None
            self._pending_req = None
            if lcpu not in self._affinity:
                slot.release(req)
                continue

        self.state = ThreadState.RUNNING
        self.last_lcpu = lcpu
        server.set_running(lcpu, kind)
        self._q_slot = slot
        self._q_remaining = remaining
        self._start_quantum(lcpu)
        self._own_timeout = timer = self._timer
        killed = False
        try:
            yield park
        except Interrupt as i:
            timer.callbacks = []
            self._timer = None
            killed = i.cause == _KILL
        finally:
            server.set_idle(lcpu)
            slot.release(req)
        remaining = self._q_remaining - self._q_done
        self.cputime_us += self._q_duration
        if killed:
            raise ThreadKilled(self.name)


def _reference_quantum_end(self, timer) -> None:
    timer._processed = False
    remaining = self._q_remaining - self._q_done
    if (
        remaining > 1e-9
        and not self._kill_requested
        and self.last_lcpu in self._affinity
        and not self._q_slot._queue
        and self.env.nothing_due_now()
    ):
        self._q_remaining = remaining
        self.cputime_us += self._q_duration
        self._start_quantum(self.last_lcpu)
        return
    self._park.callbacks.clear()
    self.sim_proc._resume(timer)


def _reference_wait(self, event):
    self._check_kill()
    self.state = ThreadState.BLOCKED
    try:
        value = yield event
    except Interrupt as i:
        if i.cause == _KILL:
            raise ThreadKilled(self.name)
        raise
    return value


def _reference_disk_io(self, nbytes, write=False):
    self._check_kill()
    self.state = ThreadState.BLOCKED
    disk = self.system.server.disk
    req = yield from disk.channels.acquire()
    try:
        self._own_timeout = timeout = self.env.timeout(disk.service_time(nbytes, write))
        try:
            yield timeout
        except Interrupt as i:
            if i.cause == _KILL:
                raise ThreadKilled(self.name)
            raise
    finally:
        disk.channels.release(req)
    if write:
        disk.writes += 1
        disk.bytes_written += nbytes
    else:
        disk.reads += 1
        disk.bytes_read += nbytes


def _reference_path(monkeypatch) -> None:
    monkeypatch.setattr(SimThread, "exec", _reference_exec)
    monkeypatch.setattr(SimThread, "_quantum_end", _reference_quantum_end)
    monkeypatch.setattr(SimThread, "wait", _reference_wait)
    monkeypatch.setattr(SimThread, "disk_io", _reference_disk_io)


class GrantSpy:
    """Counts per requester tag on the CPUs: in-place grants, in-place
    attempts the slot refused, and request-path requests; the same
    three for the SSD's channels; and the quanta priced, in total and,
    for a ``watch()``ed system, per thread.

    A quantum is in place unless it came through a request, so a
    thread's in-place quanta are its quanta minus its requests (exact
    where no request is withdrawn, as in the tests that use it).
    """

    def __init__(self, monkeypatch):
        self.seized: dict = {}
        self.refused: dict = {}
        self.requested: dict = {}
        self.disk = {"seized": 0, "refused": 0, "requested": 0}
        self.quanta: dict = {}
        self.total_quanta = 0
        seize, request = Resource.seize, Resource.request
        mem_quantum, comp_quantum = Server.mem_quantum, Server.comp_quantum

        def spy_seize(res, tag=None):
            req = seize(res, tag)
            if res.name == "ssd":
                self.disk["refused" if req is None else "seized"] += 1
            else:
                counts = self.refused if req is None else self.seized
                counts[tag] = counts.get(tag, 0) + 1
            return req

        def spy_request(res, tag=None):
            if res.name == "ssd":
                self.disk["requested"] += 1
            else:
                self.requested[tag] = self.requested.get(tag, 0) + 1
            return request(res, tag)

        def spy_mem_quantum(server, *args):
            self.total_quanta += 1
            return mem_quantum(server, *args)

        def spy_comp_quantum(server, *args):
            self.total_quanta += 1
            return comp_quantum(server, *args)

        monkeypatch.setattr(Resource, "seize", spy_seize)
        monkeypatch.setattr(Resource, "request", spy_request)
        monkeypatch.setattr(Server, "mem_quantum", spy_mem_quantum)
        monkeypatch.setattr(Server, "comp_quantum", spy_comp_quantum)

    def watch(self, system: System) -> None:
        def hook(lcpu, tid, kind, start, duration):
            self.quanta[tid] = self.quanta.get(tid, 0) + 1

        system.quantum_hook = hook

    def in_place(self, tid: int) -> int:
        return self.quanta.get(tid, 0) - self.requested.get(tid, 0)

    def sticky_bound(self) -> int:
        """A lower bound on the quanta the continuation priced: those
        neither seized at op start nor requested."""
        total = sum(self.seized.values()) + sum(self.requested.values())
        return self.total_quanta - total


# -- the oracles: whole payloads with the shortcuts turned off ---------------


def _colocation(service: str, workload: str, setting: str, **extra) -> str:
    params = {
        "service": service,
        "workload": workload,
        "setting": setting,
        "duration_us": 20_000.0,
        **extra,
    }
    return canonical_dumps(execute_cell(Cell.make("colocation", params, 42)))


def _holmes_obs_cell() -> str:
    return _colocation("redis", "a", "holmes", obs="all")


def _perfiso_cell() -> str:
    # batch round-robin hand-offs: the grants the callback cycle runs
    return _colocation("memcached", "b", "perfiso")


def _rocksdb_cell() -> str:
    # reads, flushes and compactions: the in-place SSD channel
    return _colocation("rocksdb", "b", "holmes")


def _holmes_chaos_cell() -> str:
    # injected container crashes kill batch threads mid-op
    return _colocation(
        "redis", "a", "holmes", duration_us=60_000.0, faults=_chaos_faults()
    )


def _four_node_sweep() -> str:
    return canonical_dumps(
        run_cluster_sweep(
            policy="score", n_nodes=4, n_jobs=12, duration_us=20_000.0, seed=7
        )
    )


@pytest.mark.parametrize("calendar", KERNELS)
@pytest.mark.parametrize(
    "payload",
    [
        _holmes_obs_cell,
        _perfiso_cell,
        _rocksdb_cell,
        _holmes_chaos_cell,
        _four_node_sweep,
    ],
)
def test_payload_identical_with_fast_path_forced_off(payload, calendar, monkeypatch):
    use_calendar(monkeypatch, calendar)
    with monkeypatch.context() as m:
        spy = GrantSpy(m)
        fast = payload()
        assert sum(spy.seized.values()) > 0, "the in-place grant was never taken"
        assert spy.sticky_bound() > 0, "the continuation was never taken"
        if payload is _rocksdb_cell:
            assert spy.disk["seized"] > 0, "no disk channel was taken in place"
    with monkeypatch.context() as m:
        _reference_path(m)
        reference = payload()
    with monkeypatch.context() as m:
        _disable_continuation(m)
        spy = GrantSpy(m)
        no_sticky = payload()
        assert sum(spy.seized.values()) > 0
        assert spy.sticky_bound() <= 0
    with monkeypatch.context() as m:
        _force_request_path(m)
        spy = GrantSpy(m)
        slow = payload()
        assert not spy.seized and not spy.disk["seized"]
        assert spy.sticky_bound() <= 0
    assert fast == reference
    assert fast == no_sticky
    assert fast == slow


# -- where the in-place grant must not be taken ------------------------------


def _system(calendar: str) -> System:
    return System(env=make_environment(calendar), config=HWConfig())


def _nap_then_compute(thread):
    yield from thread.sleep(10.0)
    yield from thread.exec(CompOp(cycles=240_000))  # two 50 us quanta


@pytest.mark.parametrize("calendar", KERNELS)
def test_fast_path_taken_after_own_timeout(calendar, monkeypatch):
    """The control case: after its own nap, every quantum is in place."""
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    spy.watch(system)
    t = system.spawn_process("p").spawn_thread(_nap_then_compute, affinity={0})
    system.run()
    assert spy.in_place(t.tid) == 2
    assert t.tid not in spy.requested


@pytest.mark.parametrize("calendar", KERNELS)
@pytest.mark.parametrize("cancelled", [False, True])
def test_no_fast_path_while_another_entry_is_due_now(calendar, cancelled, monkeypatch):
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    spy.watch(system)
    env = system.env
    t = system.spawn_process("p").spawn_thread(_nap_then_compute, affinity={0})

    def same_instant():
        # created after the thread's nap, so it is due at 10 us but is
        # dispatched after the nap's timeout
        timer = env.timeout(10.0)
        if cancelled:
            env.cancel(timer)  # a cancelled entry due now still counts
        else:
            yield timer

    env.process(same_instant())
    system.run()
    # the first quantum after the nap queued through request(); the
    # second one, after its own quantum with nothing else due, is in place
    assert spy.requested.get(t.tid) == 1
    assert t.tid not in spy.refused
    assert spy.in_place(t.tid) == 1


@pytest.mark.parametrize("calendar", KERNELS)
def test_no_fast_path_when_the_slot_is_held(calendar, monkeypatch):
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    proc = system.spawn_process("p")

    def hog(thread):
        yield from thread.exec(CompOp(cycles=2_400_000))  # 1 ms on lcpu 0

    proc.spawn_thread(hog, affinity={0})
    t = proc.spawn_thread(_nap_then_compute, affinity={0})
    system.run()
    # woken by its own nap with nothing else due, the napper tried the
    # in-place grant, was refused by the hog's slot, and queued
    assert spy.refused.get(t.tid) == 1
    assert spy.requested.get(t.tid, 0) >= 1


@pytest.mark.parametrize("calendar", KERNELS)
def test_no_fast_path_when_woken_by_a_shared_event(calendar, monkeypatch):
    """Woken by an event with a second waiter after it, a thread must
    queue: the second waiter's callback runs before its grant would.
    The second, the last waiter, then finds the first's grant due now,
    so it queues too."""
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    spy.watch(system)
    env = system.env
    shared = env.event()

    def waiter(thread):
        yield from thread.sleep(1.0)  # an own timeout, long processed
        yield from thread.wait(shared)
        yield from thread.exec(CompOp(cycles=240_000))

    proc = system.spawn_process("p")
    first = proc.spawn_thread(waiter, affinity={0})
    # a shorter quantum, so the two never end quanta at the same instant
    second = proc.spawn_thread(waiter, affinity={1}, quantum_us=30.0)

    def trigger():
        yield env.timeout(5.0)
        shared.succeed()

    env.process(trigger())
    system.run()
    for t in (first, second):
        assert spy.requested.get(t.tid) == 1  # the quantum after the wake-up
        assert t.tid not in spy.refused  # not even tried
        assert spy.in_place(t.tid) >= 1  # those after its own quanta


@pytest.mark.parametrize("calendar", KERNELS)
def test_fast_path_taken_after_a_single_waiter_get(calendar, monkeypatch):
    """A KV worker's wake-up: the request queue's ``get`` fires with the
    thread as its only waiter, so its first quantum is in place."""
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    spy.watch(system)
    env = system.env
    queue = Store(env)

    def worker(thread):
        item = yield from thread.wait(queue.get())
        assert item == "query"
        yield from thread.exec(CompOp(cycles=240_000))

    t = system.spawn_process("p").spawn_thread(worker, affinity={0})

    def client():
        yield env.timeout(5.0)
        queue.put_nowait("query")

    env.process(client())
    system.run()
    assert spy.seized.get(t.tid) == 1
    assert t.tid not in spy.requested
    assert spy.in_place(t.tid) == 2


@pytest.mark.parametrize("calendar", KERNELS)
def test_first_of_two_waiters_queues_and_the_last_takes_the_cpu(calendar, monkeypatch):
    """Only the last waiter of the waking event may take a CPU in place:
    the first queues, though its slot is the one that is held, so its
    request schedules no grant and leaves nothing due now."""
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    spy.watch(system)
    env = system.env
    shared = env.event()
    proc = system.spawn_process("p")

    def hog(thread):
        yield from thread.exec(CompOp(cycles=2_400_000))  # 1 ms on lcpu 0

    def waiter(thread):
        yield from thread.wait(shared)
        yield from thread.exec(CompOp(cycles=240_000))

    proc.spawn_thread(hog, affinity={0})
    first = proc.spawn_thread(waiter, affinity={0})
    last = proc.spawn_thread(waiter, affinity={1})

    def trigger():
        yield env.timeout(5.0)
        shared.succeed()

    env.process(trigger())
    system.run()
    assert first.tid not in spy.seized and first.tid not in spy.refused
    assert spy.requested.get(first.tid, 0) >= 1
    assert spy.seized.get(last.tid) == 1
    assert last.tid not in spy.requested


@pytest.mark.parametrize("calendar", KERNELS)
def test_no_fast_path_after_a_wake_up_while_another_entry_is_due_now(
    calendar, monkeypatch
):
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    spy.watch(system)
    env = system.env
    queue = Store(env)

    def worker(thread):
        yield from thread.wait(queue.get())
        yield from thread.exec(CompOp(cycles=240_000))

    t = system.spawn_process("p").spawn_thread(worker, affinity={0})

    def client():
        yield env.timeout(5.0)
        queue.put_nowait("query")
        env.timeout(0.0)  # due now, dispatched after the get

    env.process(client())
    system.run()
    assert spy.requested.get(t.tid) == 1
    assert t.tid not in spy.seized and t.tid not in spy.refused


def _compute_then_read(thread):
    yield from thread.exec(CompOp(cycles=240_000))
    yield from thread.disk_io(4096)


@pytest.mark.parametrize("calendar", KERNELS)
def test_disk_channel_taken_in_place_after_an_op(calendar, monkeypatch):
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    system.spawn_process("p").spawn_thread(_compute_then_read, affinity={0})
    system.run()
    assert spy.disk == {"seized": 1, "refused": 0, "requested": 0}
    assert system.server.disk.reads == 1


@pytest.mark.parametrize("calendar", KERNELS)
def test_disk_channel_queued_when_every_channel_is_held(calendar, monkeypatch):
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    channels = system.server.disk.channels
    held = [channels.request() for _ in range(channels.capacity)]
    system.spawn_process("p").spawn_thread(_compute_then_read, affinity={0})
    system.run(until=1_000.0)
    assert spy.disk["refused"] == 1 and spy.disk["seized"] == 0
    assert spy.disk["requested"] == channels.capacity + 1
    assert channels.queue_length == 1
    channels.release(held[0])  # hands the channel to the queued read
    system.run()
    assert system.server.disk.reads == 1


# -- where the continuation must hand the quantum back -----------------------


def _act_mid_quantum(calendar: str, act) -> tuple:
    """Run a thread on lcpu 0 and ``act`` on it mid-way through its
    third quantum; return what the run left behind."""
    system = _system(calendar)
    env = system.env
    trace = []
    system.quantum_hook = lambda *quantum: trace.append(quantum)
    proc = system.spawn_process("p")

    def worker(thread):
        yield from thread.exec(MemOp(lines=5_000, dram_frac=0.5))

    def sibling(thread):
        yield from thread.exec(CompOp(cycles=240_000))

    t = proc.spawn_thread(worker, affinity={0, 1})
    proc.spawn_thread(sibling, affinity={32}, quantum_us=30.0)

    def actor():
        yield env.timeout(120.0)
        assert t.state is ThreadState.RUNNING
        act(system, t)

    env.process(actor())
    system.run()
    counters = system.server.counters.snapshot_all()
    return (
        t.state,
        t.cputime_us,
        [q[0] for q in trace if q[1] == t.tid],
        trace,
        system.server.busy_snapshot().tolist(),
        counters.tolist(),
        env.now,
    )


def _migrate(system, thread):
    system.sched_setaffinity(thread.tid, {1})


def _kill(system, thread):
    thread.kill()


@pytest.mark.parametrize("calendar", KERNELS)
@pytest.mark.parametrize("act", [_migrate, _kill])
def test_mid_quantum_change_falls_back(calendar, act, monkeypatch):
    """Neither an affinity change nor a kill interrupts a RUNNING
    thread: each takes effect when the quantum ends, where the
    continuation must hand the timeout back to ``exec``."""
    with monkeypatch.context() as m:
        spy = GrantSpy(m)
        sticky = _act_mid_quantum(calendar, act)
        assert spy.sticky_bound() > 0  # the quanta ending at 50 and 100 us
    with monkeypatch.context() as m:
        _disable_continuation(m)
        handed_back = _act_mid_quantum(calendar, act)
    assert sticky == handed_back
    state, cputime, lcpus = sticky[:3]
    if act is _migrate:
        assert state is ThreadState.DONE
        assert lcpus[:4] == [0, 0, 0, 1]  # moved at the quantum edge
    else:
        assert state is ThreadState.KILLED
        assert lcpus == [0, 0, 0] and cputime == 150.0


def _interrupt_running(calendar: str, cause: str) -> tuple:
    """Interrupt a RUNNING thread directly, mid-quantum, and report what
    the interrupt left behind."""
    system = _system(calendar)
    env = system.env
    proc = system.spawn_process("p")

    def worker(thread):
        yield from thread.exec(MemOp(lines=5_000, dram_frac=0.5))
        yield from thread.exec(CompOp(cycles=240_000))

    def sibling(thread):
        yield from thread.exec(CompOp(cycles=240_000))

    t = proc.spawn_thread(worker, affinity={0})
    # the SMT sibling, on a shorter quantum: the worker's quanta end
    # with nothing else due, and it is contended for its first 123 us
    proc.spawn_thread(sibling, affinity={32}, quantum_us=30.0)

    def interrupter():
        yield env.timeout(120.0)  # mid-way through the third quantum
        assert t.state is ThreadState.RUNNING
        t.sim_proc.interrupt(cause)

    env.process(interrupter())
    system.run()
    server = system.server
    return (
        t.state,
        t.cputime_us,
        [float(server.busy_us[i]) for i in (0, 32)],
        [float(x) for x in server.counters.snapshot_all()[0]],
        env.now,
    )


#: recorded with the quantum's own timeout as the process's only
#: callback: the interrupted quantum is folded in whole, and its timeout
#: still fires, with no callbacks, at 150 us
INTERRUPTED = {
    "migrate": (
        ThreadState.DONE,
        336.05316687554233,
        [336.05316687554233, 123.22792206135784],
        [
            252021.15557186742,
            562763.9964911287,
            733808.3289459534,
            591933.297070492,
            13640.0,
            5819.999999999998,
            448499.99999999994,
        ],
        306.05316687554233,
    ),
    "kill": (
        ThreadState.KILLED,
        150.0,
        [150.0, 123.22792206135784],
        [
            159088.8343276913,
            360085.4390452664,
            465981.2970669891,
            376236.8694433251,
            3163.1537047645525,
            948.9461114293656,
            10438.407225723022,
        ],
        150.0,
    ),
}


@pytest.mark.parametrize("calendar", KERNELS)
@pytest.mark.parametrize("cause", ["migrate", "kill"])
def test_direct_interrupt_of_a_running_thread(calendar, cause):
    assert _interrupt_running(calendar, cause) == INTERRUPTED[cause]


def test_non_contiguous_external_storage_rejected():
    """Quanta accrue through flat views of the counter and busy arrays,
    which only a C-contiguous float64 buffer can back."""
    config = HWConfig()
    n = config.n_lcpus
    width = len(CounterEngine(config, n, np.random.default_rng(0)).event_index)
    strided = np.zeros((n, 2 * width))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        CounterEngine(config, n, np.random.default_rng(0), values=strided)
    with pytest.raises(ValueError, match="C-contiguous"):
        Server(Environment(), config, busy_values=np.zeros(2 * n)[::2])


def test_seize_refuses_a_held_or_queued_slot():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.seize("a")
    assert held is not None and res.count == 1
    assert res.seize("b") is None
    queued = res.request("c")
    assert res.queue_length == 1
    res.release(held)  # grants the queued request
    assert res.count == 1 and res.seize("d") is None
    res.release(queued)
    assert res.seize("e") is not None


# -- the sticky CPU pick against the full least-loaded scan -------------------


def _full_scan(thread) -> int:
    """The least-loaded scan over the whole mask, as it was written."""
    slots = thread.system.cpu_slots
    best = None
    best_load = None
    for lcpu in sorted(thread.affinity):
        slot = slots[lcpu]
        load = slot.count + slot.queue_length
        if lcpu == thread.last_lcpu:
            load -= 0.5
        if best_load is None or load < best_load:
            best, best_load = lcpu, load
    return best


def _never_runs(thread):
    yield from ()


N_LCPUS = 8
masks = st.frozensets(st.integers(0, N_LCPUS - 1), min_size=1)


@settings(max_examples=200, deadline=None)
@given(
    mask=masks,
    new_mask=st.one_of(st.none(), masks),
    loads=st.lists(st.integers(0, 3), min_size=N_LCPUS, max_size=N_LCPUS),
    last=st.one_of(st.none(), st.integers(0, N_LCPUS - 1)),
)
def test_sticky_pick_equals_full_scan(mask, new_mask, loads, last):
    system = System(config=HWConfig(sockets=1, cores_per_socket=N_LCPUS // 2))
    thread = system.spawn_process("p").spawn_thread(_never_runs, affinity=mask)
    for lcpu, load in enumerate(loads):
        for _ in range(load):
            system.cpu_slots[lcpu].request()  # first holds, the rest queue
    thread.last_lcpu = last
    assert thread._choose_lcpu() == _full_scan(thread)
    if new_mask is not None:
        system.sched_setaffinity(thread.tid, new_mask)
        assert thread._choose_lcpu() == _full_scan(thread)
