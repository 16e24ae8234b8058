"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import gc

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError
from repro.sim.core import NORMAL, URGENT
from repro.sim.resources import Request
from tests.collector import drain
from tests.wheel_calendar import KERNELS, make_environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)
        assert env.now == 10.0
        yield env.timeout(2.5)
        assert env.now == 12.5

    env.process(proc(env))
    env.run()
    assert env.now == 12.5


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="hello")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=35.0)
    assert env.now == 35.0


def test_run_until_past_raises():
    env = Environment(initial_time=100.0)
    with pytest.raises(SimulationError):
        env.run(until=50.0)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99
    assert p.ok


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(5.0)
        order.append(label)

    for label in "abc":
        env.process(proc(env, label))
    env.run()
    assert order == ["a", "b", "c"]


def test_wait_on_process_event():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(3.0)
        return "child-done"

    def parent(env):
        result = yield env.process(child(env))
        results.append((env.now, result))

    env.process(parent(env))
    env.run()
    assert results == [(3.0, "child-done")]


def test_wait_on_already_processed_event():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(1.0)
        return "x"

    def parent(env, child_proc):
        yield env.timeout(10.0)
        # child finished long ago; waiting must resume immediately
        v = yield child_proc
        results.append((env.now, v))

    cp = env.process(child(env))
    env.process(parent(env, cp))
    env.run()
    assert results == [(10.0, "x")]


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        with pytest.raises(ValueError, match="boom"):
            yield env.process(child(env))
        return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_delivery():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def attacker(env, target):
        yield env.timeout(10.0)
        target.interrupt(cause="revoked")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [(10.0, "revoked")]


def test_interrupt_then_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(5.0)
        log.append(env.now)

    def attacker(env, target):
        yield env.timeout(10.0)
        target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [15.0]


def test_interrupt_dead_process_raises():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    v = env.process(victim(env))
    env.run()
    with pytest.raises(SimulationError):
        v.interrupt()


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5.0, value="fast")
        t2 = env.timeout(50.0, value="slow")
        got = yield env.any_of([t1, t2])
        results.append((env.now, got[t1]))
        assert t2 not in got

    env.process(proc(env))
    env.run()
    assert results == [(5.0, "fast")]


def test_all_of_waits_for_all():
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(5.0, value=1)
        t2 = env.timeout(50.0, value=2)
        got = yield env.all_of([t1, t2])
        results.append((env.now, got[t1], got[t2]))

    env.process(proc(env))
    env.run()
    assert results == [(50.0, 1, 2)]


def test_empty_condition_fires_immediately():
    env = Environment()

    def proc(env):
        got = yield env.all_of([])
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_event_succeed_once_only():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_yield_non_event_raises():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7.0)

    env.process(proc(env))
    # the process Initialize event is scheduled at t=0
    assert env.peek() == 0.0
    env.run()
    assert env.peek() == float("inf")


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(iter([1, 2, 3]))


def test_urgent_beats_normal_at_same_time():
    env = Environment()
    order = []
    ev_n = env.event()
    ev_u = env.event()
    ev_n.callbacks.append(lambda e: order.append("normal"))
    ev_u.callbacks.append(lambda e: order.append("urgent"))
    ev_n.succeed(priority=NORMAL)
    ev_u.succeed(priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_deterministic_many_processes():
    """Two identical runs must produce identical event orderings."""

    def run_once():
        env = Environment()
        order = []

        def proc(env, i):
            for k in range(5):
                yield env.timeout((i * 7 + k * 3) % 11 + 1)
                order.append((env.now, i, k))

        for i in range(20):
            env.process(proc(env, i))
        env.run()
        return order

    assert run_once() == run_once()


# -- teardown: Environment.close() ---------------------------------------------

@pytest.mark.parametrize("calendar", KERNELS)
def test_close_runs_live_finally_blocks_once_in_creation_order(calendar):
    env = make_environment(calendar)
    log = []

    def proc(env, label, delay):
        try:
            while True:
                yield env.timeout(delay)
        finally:
            log.append(label)

    def short(env):
        try:
            yield env.timeout(1.0)
        finally:
            log.append("short")

    # creation order is not label order
    for label, delay in (("c", 7.0), ("a", 3.0), ("b", 5.0)):
        env.process(proc(env, label, delay))
    env.process(short(env))
    env.run(until=20.0)
    assert log == ["short"]
    env.close()
    assert log == ["short", "c", "a", "b"]
    env.close()
    assert log == ["short", "c", "a", "b"]


@pytest.mark.parametrize("calendar", KERNELS)
def test_close_empties_the_calendar_and_is_idempotent(calendar):
    env = make_environment(calendar)
    # drain list, ring bucket and overflow heap on the wheel
    pending = [env.timeout(d) for d in (0.0, 10.0, 75.0, 1e9)]

    def wait(env, event):
        yield event

    waiter = env.process(wait(env, env.event()))  # waits forever
    env.run(until=1.0)
    assert env.peek() < float("inf")
    env.close()
    assert env.peek() == float("inf")
    for ev in pending[1:]:
        assert ev._entry is None
        assert ev.callbacks is None
    assert waiter.callbacks is None
    env.close()
    assert env.peek() == float("inf")


@pytest.mark.parametrize("calendar", KERNELS)
def test_finally_may_schedule_during_close(calendar):
    env = make_environment(calendar)

    def proc(env):
        try:
            yield env.timeout(100.0)
        finally:
            env.timeout(1.0)  # scheduled after the generators close

    env.process(proc(env))
    env.run(until=10.0)
    env.close()
    assert env.peek() == float("inf")


@pytest.mark.parametrize("calendar", KERNELS)
def test_finished_process_holds_no_reference_to_itself(calendar):
    drain()
    gc.disable()
    try:
        env = make_environment(calendar)

        def proc(env):
            yield env.timeout(1.0)
            return 7

        p = env.process(proc(env))
        env.run()
        assert p.value == 7
        assert p._on_fire is None
        assert p not in gc.get_referents(*gc.get_referents(p))
        del env, p
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_granted_request_value_is_none_and_acquire_returns_it():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder(env):
        req = yield from res.acquire("h")
        got.append(req)
        yield env.timeout(5.0)
        res.release(req)

    env.process(holder(env))
    env.process(holder(env))
    env.run()
    assert len(got) == 2
    for req in got:
        assert isinstance(req, Request)
        assert req.processed and req.value is None
    seized = res.seize("s")
    assert seized is not None and seized.value is None
    assert seized in res._users
