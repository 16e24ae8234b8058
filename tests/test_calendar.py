"""The calendar: the heap kernel's dispatch order, pinned two ways.

Every run's bytes depend on the calendar firing events in exactly
``(time, priority, seq)`` order.  The heap's order is pinned by
committed digests, and against an independently structured calendar,
the reference timer wheel in ``tests/wheel_calendar.py``, which must
fire the very same trace.  Both at three levels:

* a seeded property-based workload (timeouts, recurring timers, events,
  failures, interrupts, cancellations) whose full dispatch trace must
  hash to a committed digest, and replay identically on the wheel under
  adversarial geometries (odd bucket widths, tiny rings that force
  overflow and wrap-around);
* the lazy-cancellation API that samplers and daemons rely on;
* full-experiment and cluster-sweep payload bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.export import canonical_dumps
from repro.runner import Cell, execute_cell
from repro.sim import (
    Environment,
    Interrupt,
    PeriodicSampler,
    RecurringTimeout,
)
from tests.wheel_calendar import (
    KERNELS,
    WheelEnvironment,
    make_environment,
    use_wheel,
)

# Wheel geometries under test: the default, an odd non-integral bucket
# width, and a tiny ring whose horizon (16 us) forces most schedules
# through the overflow heap and wraps the cursor many times over.
WHEELS = {
    "default": {},
    "odd-width": {"bucket_us": 7.3, "wheel_slots": 64},
    "tiny-ring": {"bucket_us": 2.0, "wheel_slots": 8},
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- property-based dispatch traces ----------------------------------------

# Delay pool mixing zero, sub-bucket, bucket-boundary (exact and one ulp
# off), multi-bucket and beyond-ring values.
_DELAYS = [
    0.0, 0.1, 0.5, 1.0, 3.7, 7.3, 12.5,
    49.999999, 50.0, 50.000001,
    100.0, 137.0, 513.0, 1024.0, 4999.5, 12345.6,
]

_KINDS = [
    "timeout", "timeout", "timeout", "zero", "recurring", "auto",
    "signal", "fail", "interrupt", "cancelled",
]


def _make_script(seed: int, n_workers: int = 8, n_steps: int = 25):
    """Pre-draw all randomness, so both calendars replay one workload."""
    rng = np.random.default_rng(seed)
    return [
        [
            (
                _KINDS[int(rng.integers(len(_KINDS)))],
                float(_DELAYS[int(rng.integers(len(_DELAYS)))]),
                int(rng.integers(1, 4)),
            )
            for _ in range(n_steps)
        ]
        for _ in range(n_workers)
    ]


def _run_script(env: Environment, script):
    """Interpret the script; return the full dispatch trace."""
    trace = []

    def worker(wid, steps):
        for i, (kind, delay, reps) in enumerate(steps):
            if kind == "timeout":
                v = yield env.timeout(delay, value=(wid, i))
                trace.append((env.now, env._seq, wid, i, "t", v))
            elif kind == "zero":
                yield env.timeout(0.0)
                trace.append((env.now, env._seq, wid, i, "z", None))
            elif kind == "recurring":
                timer = RecurringTimeout(env, delay + 0.5)
                for r in range(reps):
                    yield timer
                    trace.append((env.now, env._seq, wid, i, "r", r))
                    if r + 1 < reps:
                        timer.rearm()
            elif kind == "auto":
                timer = RecurringTimeout(env, delay + 0.5, auto=True)
                for r in range(reps):
                    yield timer
                    trace.append((env.now, env._seq, wid, i, "a", r))
                timer.cancel()
            elif kind == "signal":
                ev = env.event()

                def trigger(ev=ev, delay=delay, tag=(wid, i)):
                    yield env.timeout(delay)
                    ev.succeed(tag)

                env.process(trigger())
                v = yield ev
                trace.append((env.now, env._seq, wid, i, "s", v))
            elif kind == "fail":
                ev = env.event()

                def failer(ev=ev, delay=delay):
                    yield env.timeout(delay)
                    ev.fail(RuntimeError("boom"))

                env.process(failer())
                try:
                    yield ev
                except RuntimeError:
                    trace.append((env.now, env._seq, wid, i, "f", None))
            elif kind == "interrupt":
                me = env.active_process

                def interrupter(me=me, delay=delay):
                    yield env.timeout(delay)
                    if me.is_alive:
                        me.interrupt((wid, i))

                env.process(interrupter())
                try:
                    yield env.timeout(delay + 250.0)
                    trace.append((env.now, env._seq, wid, i, "T", None))
                except Interrupt as err:
                    trace.append((env.now, env._seq, wid, i, "I", err.cause))
            elif kind == "cancelled":
                timer = RecurringTimeout(env, delay + 5.0, auto=True)
                timer.cancel()
                yield env.timeout(1.0)
                trace.append((env.now, env._seq, wid, i, "c", None))

    for wid, steps in enumerate(script):
        env.process(worker(wid, steps), name=f"w{wid}")
    env.run()
    return trace, env.now, env._seq


#: sha256 of ``repr(_run_script(...))`` per script seed.
TRACE_DIGESTS = {
    1: "538665eadfd82675f684b8e0b4fd18696d7f042959cc36cd381e5b93abe89086",
    7: "ebf608328dca18a0f916c50cacc0a7df9c0f700db57e6bb72c4c31f41b5a20c1",
    20260807: "9c10d866521c0f0cf8a334e6035450fd3e4dec8b86cd65a63dfba07de433768b",
}


@pytest.mark.parametrize("seed", sorted(TRACE_DIGESTS))
def test_random_schedule_trace_matches_digest(seed):
    trace = _run_script(Environment(), _make_script(seed))
    assert _sha256(repr(trace)) == TRACE_DIGESTS[seed]


def test_random_schedule_trace_matches_digest_nonzero_start():
    trace = _run_script(Environment(initial_time=123.456), _make_script(99))
    assert _sha256(repr(trace)) == (
        "752e5878a6180547dc2806ebfb54239e78ea6f8fb07f799186ed3e04239973ac"
    )


@pytest.mark.parametrize("geometry", sorted(WHEELS), ids=sorted(WHEELS))
@pytest.mark.parametrize("seed", [1, 7, 20260807])
def test_random_schedules_trace_identical(seed, geometry):
    script = _make_script(seed)
    ref = _run_script(Environment(), script)
    got = _run_script(WheelEnvironment(**WHEELS[geometry]), script)
    assert got == ref


def test_random_schedules_trace_identical_nonzero_start():
    script = _make_script(99)
    ref = _run_script(Environment(initial_time=123.456), script)
    got = _run_script(
        WheelEnvironment(initial_time=123.456, **WHEELS["odd-width"]), script
    )
    assert got == ref


# -- lazy cancellation ------------------------------------------------------

@pytest.mark.parametrize("calendar", KERNELS)
def test_cancel_drops_pending_entry(calendar):
    env = make_environment(calendar)
    fired = []
    t1 = env.timeout(5.0)
    t1.callbacks.append(lambda e: fired.append("a"))
    t2 = env.timeout(10.0)
    t2.callbacks.append(lambda e: fired.append("b"))
    assert env.cancel(t1) is True
    assert env.cancel(t1) is False  # second cancel is a no-op
    env.run()
    assert fired == ["b"]
    assert env.now == 10.0


@pytest.mark.parametrize("calendar", KERNELS)
def test_cancel_after_fire_returns_false(calendar):
    env = make_environment(calendar)
    t = env.timeout(1.0)
    env.run()
    assert env.cancel(t) is False


@pytest.mark.parametrize("calendar", KERNELS)
def test_cancelled_auto_timer_lets_run_drain(calendar):
    env = make_environment(calendar)
    timer = RecurringTimeout(env, 50.0, auto=True)
    ticks = []

    def proc():
        for _ in range(3):
            yield timer
            ticks.append(env.now)
        timer.cancel()

    env.process(proc())
    env.run()  # would never return if cancel leaked the armed entry
    assert ticks == [50.0, 100.0, 150.0]
    assert env.peek() == float("inf")


@pytest.mark.parametrize("calendar", KERNELS)
def test_sampler_stop_drops_calendar_entry(calendar):
    env = make_environment(calendar)
    sampler = PeriodicSampler(env, 10.0, lambda now: 1.0)

    def stopper():
        yield env.timeout(35.0)
        sampler.stop()

    env.process(stopper())
    env.run()  # drains because stop() cancelled the armed tick
    assert len(sampler.series) == 3
    assert env.peek() == float("inf")


# -- recurring-timer semantics ---------------------------------------------

@pytest.mark.parametrize("calendar", KERNELS)
def test_auto_rearm_matches_manual_rearm(calendar):
    def run(auto: bool) -> list:
        env = make_environment(calendar)
        times = []

        def proc():
            timer = RecurringTimeout(env, 7.0, auto=auto)
            for _ in range(5):
                yield timer
                times.append(env.now)
                if not auto:
                    timer.rearm()
            if auto:
                timer.cancel()

        env.process(proc())
        env.run(until=60.0)
        return times

    assert run(True) == run(False)


def test_auto_timer_rejects_manual_rearm():
    env = Environment()
    timer = RecurringTimeout(env, 5.0, auto=True)
    from repro.sim import SimulationError

    with pytest.raises(SimulationError):
        timer.rearm()


# -- the reference wheel's own structure --------------------------------------

def test_wheel_overflow_and_wraparound():
    env = WheelEnvironment(bucket_us=1.0, wheel_slots=8)  # 8 us horizon
    log = []

    def proc():
        yield env.timeout(100.0)  # far beyond the ring: overflow heap
        log.append(env.now)
        yield env.timeout(3.0)  # in-ring, after many wraps
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [100.0, 103.0]


def test_wheel_bucket_boundary_ordering_matches_heap():
    delays = [5.0, 4.9999999999, 5.0000000001, 10.0, 40.0, 40.0, 15.0, 0.0]

    def drive(env):
        order = []

        def w(i, d):
            yield env.timeout(d)
            order.append((i, env.now))

        for i, d in enumerate(delays):
            env.process(w(i, d))
        env.run()
        return order

    assert drive(WheelEnvironment(bucket_us=5.0, wheel_slots=8)) == drive(
        Environment()
    )


def test_wheel_peek_scans_ring_and_overflow():
    env = WheelEnvironment(bucket_us=1.0, wheel_slots=8)
    far = env.timeout(500.0)
    assert env.peek() == 500.0  # overflow only
    env.timeout(3.0)
    assert env.peek() == 3.0  # ring beats overflow
    urgent = env.timeout(0.0)
    assert env.peek() == 0.0  # current bucket beats both
    env.cancel(urgent)
    assert env.peek() == 3.0  # cancelled entries are skipped
    env.cancel(far)
    env.run()
    assert env.now == 3.0


# -- full-experiment byte identity -----------------------------------------


def _colo_payload() -> str:
    params = {
        "service": "redis",
        "workload": "a",
        "setting": "holmes",
        "duration_us": 20_000.0,
    }
    return canonical_dumps(execute_cell(Cell.make("colocation", params, 42)))


def test_full_experiment_bytes_identical_heap_vs_wheel(monkeypatch):
    heap = _colo_payload()
    assert _sha256(heap) == (
        "5de321654e1d4657c8c8ce2c3d3106d8fecb1b5a16c0968acbce6268123b2434"
    )
    use_wheel(monkeypatch)
    assert _colo_payload() == heap


def _sweep_payload() -> str:
    from repro.cluster.sweep import run_cluster_sweep

    return canonical_dumps(
        run_cluster_sweep(
            policy="score",
            n_nodes=4,
            n_jobs=10,
            duration_us=60_000.0,
            seed=11,
        )
    )


def test_cluster_sweep_bytes_identical_heap_vs_wheel(monkeypatch):
    heap = _sweep_payload()
    assert _sha256(heap) == (
        "e5750b1d3d3029f2c62bda028942bc34561996d3ba72dd6f8b7372c254fafd5f"
    )
    use_wheel(monkeypatch)
    assert _sweep_payload() == heap
