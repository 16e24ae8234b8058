"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, tuned for the microsecond-scale server simulations used throughout
this reproduction.  All simulated time is in **microseconds** (float).

Typical usage::

    env = Environment()

    def proc(env):
        yield env.timeout(10.0)
        return "done"

    p = env.process(proc(env))
    env.run()
    assert p.value == "done"
"""

from repro.sim.core import (
    Environment,
    Event,
    Timeout,
    RecurringTimeout,
    Process,
    Interrupt,
    AnyOf,
    AllOf,
    SimulationError,
)
from repro.sim.resources import Resource, Preempted
from repro.sim.stores import Store, QueueFull
from repro.sim.monitor import Series, PeriodicSampler

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "RecurringTimeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Resource",
    "Preempted",
    "Store",
    "QueueFull",
    "Series",
    "PeriodicSampler",
]
