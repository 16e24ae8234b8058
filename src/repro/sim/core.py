"""Core event loop: Environment, Event, Timeout, Process, conditions.

Design notes
------------
The calendar -- the priority structure that orders pending events -- is
a binary heap over ``heapq`` of ``[time, priority, seq, event]``
entries.  ``seq`` is a monotonically increasing tie-breaker so that
events scheduled at the same instant fire in FIFO order and runs are
bit-for-bit deterministic.  Entries are lists (not tuples) so a pending
entry can be *lazily cancelled*: ``env.cancel(event)`` blanks the entry
in place and the dispatch loop skips it when popped, with no O(n)
removal.

Processes are plain Python generators.  A process yields :class:`Event`
objects; when the yielded event fires, the event's value is sent back into
the generator (or, for a failed event, the exception is thrown into it).

A finished simulation is freed by reference counting, not by the cyclic
collector, once its owner calls :meth:`Environment.close`: that closes
every live generator in creation order (each ``finally`` runs once,
there) and then blanks every pending calendar entry.  A process that
ends drops the bound method it holds of itself, and a granted resource
request holds no reference to itself (its value is None).  A simulation
nobody closes is still freed, by the collector.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Generator, Iterable, Optional

# Event priorities: URGENT fires before NORMAL at the same timestamp.  The
# engine uses URGENT for process-resumption bookkeeping (e.g. interrupts) so
# that control-flow events beat same-time timeouts.
URGENT = 0
NORMAL = 1

# Sentinel for "event not yet triggered".
_PENDING = object()


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
        env._procs[self] = None
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

    def _finish(self) -> None:
        """The generator ended: leave the live set and fire as an event.

        Dropping ``_on_fire``, a bound method of this process, leaves a
        finished process no reference to itself.
        """
        del self.env._procs[self]
        self._on_fire = None
        self.env._schedule(self, URGENT)

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
            self._finish()
            return
        except BaseException as exc:
            env._active_process = None
            self._ok = False
            self._value = exc
            self._finish()
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


class Environment:
    """The simulation clock and its event calendar, a binary heap."""

    #: the calendar kernel's name (stamped on benchmark records).
    calendar_name = "heap"

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: live processes in creation order (a dict used as an ordered
        #: set): the order close() finalizes them in.
        self._procs: dict[Process, None] = {}
        self._heap: list = []

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

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        entry = [self._now + delay, priority, seq, event]
        event._entry = entry
        _heappush(self._heap, entry)

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
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the calendar is empty."""
        heap = self._heap
        while heap and heap[0][3] is None:
            _heappop(heap)
        return heap[0][0] if heap else float("inf")

    def nothing_due_now(self) -> bool:
        """True when no calendar entry is due at the current time.

        Checks only the calendar's front entry, so a cancelled entry due
        now still counts as due.  Inside a dispatch, True means an event
        scheduled now with no delay would be the next one dispatched.
        """
        heap = self._heap
        return not heap or heap[0][0] > self._now

    def step(self) -> None:
        """Process exactly one event."""
        heap = self._heap
        while heap and heap[0][3] is None:
            _heappop(heap)
        if not heap:
            raise SimulationError("no scheduled events")
        entry = _heappop(heap)
        event = entry[3]
        entry[3] = None
        event._entry = None
        self._now = t = entry[0]
        if event.__class__ is RecurringTimeout and event.auto:
            self._seq = seq = self._seq + 1
            e2 = [t + event.period, NORMAL, seq, event]
            event._entry = e2
            _heappush(heap, e2)
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                cb(event)
        else:
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            event._processed = True
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock reaches ``until``.

        The loop body is :meth:`step` inlined with the heap and heappop
        bound to locals: this path pops every event of every run, and the
        per-event call/attribute overhead of delegating to ``step()`` is
        measurable on multi-second horizons.
        """
        if until is None:
            limit = float("inf")
        else:
            limit = float(until)
            if limit < self._now:
                raise SimulationError(
                    f"run(until={limit}) is in the past (now={self._now})"
                )
        heap = self._heap
        pop = _heappop
        push = _heappush
        while heap:
            if heap[0][0] > limit:
                self._now = until
                return
            entry = pop(heap)
            event = entry[3]
            if event is None:
                continue  # lazily cancelled
            entry[3] = None
            event._entry = None
            self._now = t = entry[0]
            if event.__class__ is RecurringTimeout and event.auto:
                # Re-arm before callbacks run so that, like a manual
                # rearm() at the top of the waiting loop, the next firing
                # gets the first seq allocated at this instant.
                self._seq = seq = self._seq + 1
                e2 = [t + event.period, NORMAL, seq, event]
                event._entry = e2
                push(heap, e2)
                callbacks, event.callbacks = event.callbacks, []
                for cb in callbacks:
                    cb(event)
            else:
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                event._processed = True
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self._now = until

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Tear down a finished simulation so reference counting frees it.

        First closes every live process's generator, in creation order:
        each ``finally`` runs once, here, rather than whenever the cyclic
        collector finalizes the generator.  A closed process keeps no
        target, callbacks or bound method of itself.  Then blanks every
        pending calendar entry (its link to its event and the event's
        callbacks); this comes last because ``finally`` blocks may
        schedule events.  Idempotent.  The environment must not be run
        again afterwards.
        """
        procs, self._procs = self._procs, {}
        for proc in procs:
            proc._target = proc._on_fire = proc.callbacks = None
            proc.gen.close()
        for entry in self._heap:
            event = entry[3]
            if event is not None:
                entry[3] = None
                event._entry = None
                event.callbacks = None
        self._heap.clear()
