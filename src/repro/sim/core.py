"""Core event loop: Environment, Event, Timeout, Process, conditions.

Design notes
------------
The engine separates the *event machinery* (this module) from the
*calendar* -- the priority structure that orders pending events.  Two
calendar kernels live in :mod:`repro.sim.calendar`:

* :class:`~repro.sim.calendar.HeapEnvironment` -- the classic binary
  heap over ``heapq``; the reference kernel;
* :class:`~repro.sim.calendar.WheelEnvironment` -- a bucketed timer
  wheel with an overflow heap; the default production kernel.

Calendar entries are ``[time, priority, seq, event]`` lists; ``seq`` is
a monotonically increasing tie-breaker so that events scheduled at the
same instant fire in FIFO order and runs are bit-for-bit deterministic.
Both kernels fire events in exactly the same ``(time, priority, seq)``
order, which the calendar-equivalence tests verify trace-for-trace.
Entries are lists (not tuples) so a pending entry can be *lazily
cancelled*: ``env.cancel(event)`` blanks the entry in place and the
dispatch loop skips it when popped, with no O(n) removal.

Instantiating :class:`Environment` directly picks the default kernel
(``wheel``, overridable with the ``REPRO_SIM_CALENDAR`` environment
variable or the ``calendar=`` keyword) and returns the matching
subclass.

Processes are plain Python generators.  A process yields :class:`Event`
objects; when the yielded event fires, the event's value is sent back into
the generator (or, for a failed event, the exception is thrown into it).
"""

from __future__ import annotations

import os
from typing import Any, Generator, Iterable, Optional

# Event priorities: URGENT fires before NORMAL at the same timestamp.  The
# engine uses URGENT for process-resumption bookkeeping (e.g. interrupts) so
# that control-flow events beat same-time timeouts.
URGENT = 0
NORMAL = 1

# Sentinel for "event not yet triggered".
_PENDING = object()

#: calendar kernel used when ``Environment()`` is called with no explicit
#: choice and ``REPRO_SIM_CALENDAR`` is unset.
DEFAULT_CALENDAR = "wheel"

_CALENDAR_ENV_VAR = "REPRO_SIM_CALENDAR"


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    ``cause`` carries an arbitrary user payload describing why the process
    was interrupted (for example, the CPU scheduler revoking a core).
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once ``succeed``/``fail``
    schedules it, and *processed* after its callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused",
                 "_entry")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        #: live calendar entry ([time, prio, seq, self]) while scheduled.
        self._entry: Optional[list] = None

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class RecurringTimeout(Event):
    """A reusable timeout for fixed-period loops (daemon ticks, samplers).

    A periodic 50 us control loop over a multi-second horizon allocates
    tens of thousands of single-use :class:`Timeout` objects (plus their
    callback lists).  A recurring timeout is one event object that is
    re-armed after every firing.  Two modes:

    * **auto** (``auto=True``) -- the dispatch loop reschedules the timer
      ``period`` into the future *at pop time, before callbacks run*, so
      the owning loop is just ``while ...: yield timer``.  This is the
      fast path used by the daemon and samplers; the owner must
      :meth:`cancel` the timer when the loop stops, or it keeps firing
      into an empty callback list forever.
    * **manual** (default) -- the owner calls :meth:`rearm` after every
      firing, which reschedules exactly like allocating a fresh
      :class:`Timeout` at the call point would.

    Only the owning process may wait on it: sharing one event object
    across waiters and firings would cross-deliver values.
    """

    __slots__ = ("period", "auto")

    def __init__(self, env: "Environment", period: float, value: Any = None,
                 auto: bool = False):
        if period < 0:
            raise SimulationError(f"negative timeout delay: {period!r}")
        super().__init__(env)
        self.period = period
        self.auto = auto
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, period)

    def rearm(self, period: Optional[float] = None) -> "RecurringTimeout":
        """Reset to pending-fire state and reschedule ``period`` from now."""
        if self.auto:
            raise SimulationError("auto recurring timeouts rearm themselves")
        if self.callbacks is not None:
            raise SimulationError(
                "rearm() called before the previous firing was processed"
            )
        if period is not None:
            if period < 0:
                raise SimulationError(f"negative timeout delay: {period!r}")
            self.period = period
        self.callbacks = []
        self._processed = False
        self.env._schedule(self, NORMAL, self.period)
        return self

    def cancel(self) -> bool:
        """Lazily drop the pending firing from the calendar."""
        return self.env.cancel(self)


class Initialize(Event):
    """Internal: first resumption of a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._on_fire)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class _InterruptEvent(Event):
    """Internal: carries an Interrupt into a process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any):
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._resume_interrupt)
        env._schedule(self, URGENT)


class Process(Event):
    """A running generator.  Also an event that fires when the generator ends.

    The process's :attr:`value` is the generator's return value (or the
    exception it raised, for a failed process).
    """

    __slots__ = ("gen", "_target", "name", "_send", "_throw", "_on_fire")

    def __init__(self, env: "Environment", gen: Generator, name: str = ""):
        if not hasattr(gen, "throw"):
            raise SimulationError(f"process() requires a generator, got {gen!r}")
        super().__init__(env)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        # bound-method caches: _resume runs once per event on the hot path,
        # and callbacks.append(self._resume) would allocate a fresh bound
        # method object every firing.
        self._send = gen.send
        self._throw = gen.throw
        self._on_fire = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._target is None:
            raise SimulationError(
                f"cannot interrupt process {self.name} before it starts"
            )
        _InterruptEvent(self.env, self, cause)

    # -- resumption machinery -------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        # The process may have ended, or be about to be resumed by its real
        # target, between interrupt scheduling and delivery; in either case
        # deliver only if still waiting.
        if self.triggered:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            # Stop listening to the old target: the interrupt supersedes it.
            # (Timeouts are born "triggered", so test callbacks, not triggered.)
            try:
                target.callbacks.remove(self._on_fire)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event._defused = True
                result = self._throw(event._value)
        except StopIteration as exc:
            env._active_process = None
            self._ok = True
            self._value = exc.value
            env._schedule(self, URGENT)
            return
        except BaseException as exc:
            env._active_process = None
            self._ok = False
            self._value = exc
            env._schedule(self, URGENT)
            return
        env._active_process = None

        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {result!r}"
            )
        if result.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        if result.callbacks is None:
            # Already processed: resume immediately at the current time.
            resume = Event(env)
            resume._ok = result._ok
            resume._value = result._value
            if not result._ok:
                result._defused = True
            resume.callbacks.append(self._on_fire)
            env._schedule(resume, URGENT)
            self._target = resume
        else:
            result.callbacks.append(self._on_fire)
            self._target = result

    # kept as an alias: older code and tests refer to the resumption step
    # by this name.
    _step = _resume


class Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("all condition events must share one env")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            # An event has *fired* once its callbacks have been consumed
            # (callbacks is None).  Timeouts are "triggered" from birth, so
            # the triggered flag alone would wrongly include pending ones.
            self.succeed(
                {
                    ev: ev._value
                    for ev in self.events
                    if ev.callbacks is None and ev._ok
                }
            )


class AnyOf(Condition):
    """Fires when any constituent event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)


def _resolve_calendar(name: Optional[str]) -> str:
    name = name or os.environ.get(_CALENDAR_ENV_VAR) or DEFAULT_CALENDAR
    if name not in ("heap", "wheel"):
        raise ValueError(
            f"unknown calendar kernel {name!r} (expected 'heap' or 'wheel')"
        )
    return name


class Environment:
    """The simulation clock and event calendar (abstract front).

    ``Environment(...)`` instantiates the selected calendar kernel:
    ``calendar=`` keyword first, then the ``REPRO_SIM_CALENDAR``
    environment variable, then :data:`DEFAULT_CALENDAR`.  The concrete
    kernels (:class:`~repro.sim.calendar.HeapEnvironment`,
    :class:`~repro.sim.calendar.WheelEnvironment`) implement
    ``_schedule``/``peek``/``step``/``run`` and share
    everything else from this base class.
    """

    calendar_name = "abstract"

    def __new__(cls, initial_time: float = 0.0,
                calendar: Optional[str] = None, **kwargs):
        if cls is Environment:
            from repro.sim.calendar import HeapEnvironment, WheelEnvironment

            cls = (
                HeapEnvironment
                if _resolve_calendar(calendar) == "heap"
                else WheelEnvironment
            )
        return super().__new__(cls)

    def __init__(self, initial_time: float = 0.0,
                 calendar: Optional[str] = None):
        self._now = float(initial_time)
        self._seq = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling (kernel interface) ------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0) -> None:
        raise NotImplementedError

    def cancel(self, event: Event) -> bool:
        """Lazily cancel ``event``'s pending calendar entry.

        Returns True if a live entry was dropped.  The entry is blanked in
        place; the dispatch loop skips it when popped.  Cancelling an event
        another process is waiting on strands that process -- this is a
        kernel-level API for timer owners (samplers, daemons), not a
        general wait-abort mechanism.
        """
        entry = event._entry
        if entry is None or entry[3] is None:
            return False
        entry[3] = None
        event._entry = None
        self._note_cancel(entry)
        return True

    def _note_cancel(self, entry: list) -> None:
        """Kernel hook: bookkeeping after an entry is blanked."""

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the calendar is empty."""
        raise NotImplementedError

    def nothing_due_now(self) -> bool:
        """True when no calendar entry is due at the current time.

        Checks only the calendar's front entry, so a cancelled entry due
        now still counts as due.  Inside a dispatch, True means an event
        scheduled now with no delay would be the next one dispatched.
        """
        raise NotImplementedError

    def step(self) -> None:
        """Process exactly one event."""
        raise NotImplementedError

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock reaches ``until``."""
        raise NotImplementedError

    # shared by both kernels' run() implementations
    def _check_until(self, until: Optional[float]) -> float:
        if until is None:
            return float("inf")
        until = float(until)
        if until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        return until
