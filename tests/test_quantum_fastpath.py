"""The per-quantum fast path of ``SimThread.exec`` against its oracle.

A thread running inside the dispatch of its own timeout, with nothing
else due now and a free slot, takes the CPU in place instead of
scheduling a grant event (DESIGN.md section 9).  These tests pin that
the shortcut is exact and taken only where it is:

* forcing every quantum through the request/grant path (the calendar
  predicate patched to False) leaves whole payloads byte-identical;
* the in-place grant is refused when another entry is due now, when
  the slot is held, and when the thread was woken by a shared event;
* the sticky CPU pick returns what the full least-loaded scan returns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import canonical_dumps
from repro.cluster.sweep import run_cluster_sweep
from repro.hw import CompOp, HWConfig
from repro.oskernel import System
from repro.runner.cells import Cell, execute_cell
from repro.sim import Environment, HeapEnvironment, Resource, WheelEnvironment

CALENDARS = ("heap", "wheel")


def _force_request_path(monkeypatch) -> None:
    for kernel in (HeapEnvironment, WheelEnvironment):
        monkeypatch.setattr(kernel, "nothing_due_now", lambda self: False)


class GrantSpy:
    """Counts per requester tag: in-place grants, in-place attempts the
    slot refused, and request-path requests."""

    def __init__(self, monkeypatch):
        self.seized: dict = {}
        self.refused: dict = {}
        self.requested: dict = {}
        seize, request = Resource.seize, Resource.request

        def spy_seize(res, tag=None):
            req = seize(res, tag)
            counts = self.refused if req is None else self.seized
            counts[tag] = counts.get(tag, 0) + 1
            return req

        def spy_request(res, tag=None):
            self.requested[tag] = self.requested.get(tag, 0) + 1
            return request(res, tag)

        monkeypatch.setattr(Resource, "seize", spy_seize)
        monkeypatch.setattr(Resource, "request", spy_request)


# -- the oracle: whole payloads with the fast path forced off ---------------


def _holmes_obs_cell() -> str:
    params = {
        "service": "redis",
        "workload": "a",
        "setting": "holmes",
        "duration_us": 20_000.0,
        "obs": "all",
    }
    return canonical_dumps(execute_cell(Cell.make("colocation", params, 42)))


def _four_node_sweep() -> str:
    return canonical_dumps(
        run_cluster_sweep(
            policy="score", n_nodes=4, n_jobs=12, duration_us=20_000.0, seed=7
        )
    )


@pytest.mark.parametrize("calendar", CALENDARS)
@pytest.mark.parametrize("payload", [_holmes_obs_cell, _four_node_sweep])
def test_payload_identical_with_fast_path_forced_off(payload, calendar, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CALENDAR", calendar)
    with monkeypatch.context() as m:
        spy = GrantSpy(m)
        fast = payload()
        assert sum(spy.seized.values()) > 0, "the fast path was never taken"
    with monkeypatch.context() as m:
        _force_request_path(m)
        spy = GrantSpy(m)
        slow = payload()
        assert not spy.seized
    assert fast == slow


# -- where the in-place grant must not be taken ------------------------------


def _system(calendar: str) -> System:
    return System(env=Environment(calendar=calendar), config=HWConfig())


def _nap_then_compute(thread):
    yield from thread.sleep(10.0)
    yield from thread.exec(CompOp(cycles=240_000))  # two 50 us quanta


@pytest.mark.parametrize("calendar", CALENDARS)
def test_fast_path_taken_after_own_timeout(calendar, monkeypatch):
    """The control case: after its own nap, every quantum is in place."""
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
    t = system.spawn_process("p").spawn_thread(_nap_then_compute, affinity={0})
    system.run()
    assert spy.seized.get(t.tid) == 2
    assert t.tid not in spy.requested


@pytest.mark.parametrize("calendar", CALENDARS)
@pytest.mark.parametrize("cancelled", [False, True])
def test_no_fast_path_while_another_entry_is_due_now(calendar, cancelled, monkeypatch):
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
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
    assert spy.seized.get(t.tid) == 1


@pytest.mark.parametrize("calendar", CALENDARS)
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


@pytest.mark.parametrize("calendar", CALENDARS)
def test_no_fast_path_when_woken_by_a_shared_event(calendar, monkeypatch):
    """Woken by an event with a second waiter after it, a thread must
    queue: the second waiter's callback runs before its grant would."""
    spy = GrantSpy(monkeypatch)
    system = _system(calendar)
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
        assert spy.seized.get(t.tid, 0) >= 1  # those after its own quanta


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
