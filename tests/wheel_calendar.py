"""A reference calendar for the heap kernel: a bucketed timer wheel.

The simulator orders pending events with one calendar, the binary heap
in :class:`repro.sim.Environment`.  This module keeps a second,
independently structured implementation of the same ``(time, priority,
seq)`` order -- the timer wheel the simulator ran on before the heap
became its only kernel -- so tests can replay a schedule, or a whole
experiment, on both and compare traces and payload bytes.

Simulated time is cut into fixed-width buckets (``bucket_us``); a
power-of-two ring of ``wheel_slots`` buckets covers the near future and
the inherited heap holds the entries beyond the ring's horizon (the
overflow).  A bucket is sorted only when the cursor reaches it, into
the drain list; an entry scheduled into or before the cursor's bucket
is insorted there.  Bucket membership is computed only from
``int(t / bucket_us)``, on the push side, the overflow pull side and
cursor jumps alike, so float rounding at bucket boundaries can never
disagree about an entry's bucket.

:func:`use_wheel` runs whole experiments on it: every ``Environment()``
built while the patch is active becomes a :class:`WheelEnvironment`.
"""

from __future__ import annotations

from bisect import insort as _insort
from heapq import heappop as _heappop, heappush as _heappush
from typing import Optional

from repro.sim import Environment, Event, RecurringTimeout, SimulationError
from repro.sim.core import NORMAL

#: the calendar arms tests are parametrized over.
KERNELS = ("heap", "wheel")

#: default bucket width (microseconds): the Holmes daemon tick.
DEFAULT_BUCKET_US = 50.0
#: default ring size (buckets); a power of two.
DEFAULT_WHEEL_SLOTS = 1024

_heap_init = Environment.__init__


def _blank(entries) -> None:
    """Unlink each pending entry from its event and drop its callbacks."""
    for entry in entries:
        if entry is not None:
            event = entry[3]
            if event is not None:
                entry[3] = None
                event._entry = None
                event.callbacks = None


class WheelEnvironment(Environment):
    """Timer-wheel calendar: bucketed ring, drain list and overflow heap."""

    calendar_name = "wheel"

    def __init__(
        self,
        initial_time: float = 0.0,
        bucket_us: float = DEFAULT_BUCKET_US,
        wheel_slots: int = DEFAULT_WHEEL_SLOTS,
    ):
        # not super().__init__: use_wheel() patches Environment.__init__
        _heap_init(self, initial_time)
        self._W = float(bucket_us)
        self._N = wheel_slots
        self._mask = wheel_slots - 1
        self._buckets: list[list] = [[] for _ in range(wheel_slots)]
        #: drain list: sorted entries with bucket index <= the cursor.
        self._cur: list = []
        self._pos = 0
        #: cursor: absolute index of the bucket being drained.
        self._k = int(self._now / self._W)
        #: live (non-cancelled) entries across all structures.
        self._n = 0
        #: entries resident in the ring (dead ones included until loaded).
        self._nwheel = 0

    # -- scheduling -------------------------------------------------------

    def _place(self, entry: list) -> None:
        """File an entry by its bucket index."""
        idx = int(entry[0] / self._W)
        d = idx - self._k
        if d <= 0:
            # a fresh entry carries the newest seq, so it sorts last
            # whenever its time is >= the drain list's last
            cur = self._cur
            if len(cur) == self._pos or cur[-1] < entry:
                cur.append(entry)
            else:
                _insort(cur, entry, self._pos)
        elif d < self._N:
            self._buckets[idx & self._mask].append(entry)
            self._nwheel += 1
        else:
            _heappush(self._heap, entry)
        self._n += 1

    def _schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        self._seq = seq = self._seq + 1
        entry = [self._now + delay, priority, seq, event]
        event._entry = entry
        self._place(entry)

    def cancel(self, event: Event) -> bool:
        if super().cancel(event):
            self._n -= 1
            return True
        return False

    # -- cursor movement --------------------------------------------------

    def _advance(self) -> None:
        """Move the cursor to the next bucket holding entries (or further)
        and load it, with every overflow entry whose bucket has come into
        range, into the sorted drain list."""
        overflow = self._heap
        k = self._k + 1
        if not self._nwheel:
            # the ring is empty: jump straight to the earliest overflow
            # entry's bucket instead of walking empty slots
            while overflow and overflow[0][3] is None:
                _heappop(overflow)
            if overflow:
                k = max(k, int(overflow[0][0] / self._W))
        slot = k & self._mask
        lst = self._buckets[slot]
        if lst:
            self._buckets[slot] = []
            self._nwheel -= len(lst)
        else:
            # never the ring slot itself: the drain list must not alias a
            # live bucket
            lst = []
        while overflow and int(overflow[0][0] / self._W) <= k:
            lst.append(_heappop(overflow))
        # seq values are unique, so comparison never reaches the event
        lst.sort()
        self._k = k
        self._cur = lst
        self._pos = 0

    # -- inspection -------------------------------------------------------

    def peek(self) -> float:
        cur = self._cur
        for i in range(self._pos, len(cur)):
            if cur[i][3] is not None:
                return cur[i][0]
        best = None
        if self._nwheel:
            # ring entries satisfy k < idx < k + N: the next N-1 slots
            # cover them all without index aliasing
            for k in range(self._k + 1, self._k + self._N):
                bucket = self._buckets[k & self._mask]
                live = [e for e in bucket if e[3] is not None]
                if live:
                    best = min(live)
                    break
        overflow = self._heap
        while overflow and overflow[0][3] is None:
            _heappop(overflow)
        if overflow and (best is None or overflow[0] < best):
            best = overflow[0]
        return best[0] if best is not None else float("inf")

    def nothing_due_now(self) -> bool:
        # the drain list's next entry is the calendar's earliest: ring and
        # overflow entries sit in later buckets, so at strictly later times
        cur = self._cur
        pos = self._pos
        return pos == len(cur) or cur[pos][0] > self._now

    # -- dispatch ---------------------------------------------------------

    def step(self) -> None:
        while True:
            cur = self._cur
            pos = self._pos
            if pos < len(cur):
                self._pos = pos + 1
                entry = cur[pos]
                cur[pos] = None
                if entry[3] is not None:
                    break
            elif not self._n:
                raise SimulationError("no scheduled events")
            else:
                self._advance()
        event = entry[3]
        entry[3] = None
        event._entry = None
        self._now = t = entry[0]
        self._n -= 1
        if event.__class__ is RecurringTimeout and event.auto:
            self._seq = seq = self._seq + 1
            e2 = [t + event.period, NORMAL, seq, event]
            event._entry = e2
            self._place(e2)
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

        The drain-list walk is bound to locals; ``self._pos`` is kept in
        step before each dispatch, since callbacks may insort same-time
        entries at the live drain position.
        """
        if until is None:
            limit = float("inf")
        else:
            limit = float(until)
            if limit < self._now:
                raise SimulationError(
                    f"run(until={limit}) is in the past (now={self._now})"
                )
        cur = self._cur
        pos = self._pos
        try:
            while True:
                if pos < len(cur):
                    entry = cur[pos]
                    t = entry[0]
                    if t > limit:
                        self._now = until
                        return
                    # slots behind the cursor are never read again; free
                    # the entry now rather than at the next _advance()
                    cur[pos] = None
                    pos += 1
                    event = entry[3]
                    if event is None:
                        continue  # lazily cancelled
                    self._pos = pos
                    entry[3] = None
                    event._entry = None
                    self._now = t
                    self._n -= 1
                    if event.__class__ is RecurringTimeout and event.auto:
                        # re-arm before callbacks: the seq a manual
                        # rearm() at the waiting loop's top would take
                        self._seq = seq = self._seq + 1
                        e2 = [t + event.period, NORMAL, seq, event]
                        event._entry = e2
                        self._place(e2)
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
                else:
                    if not self._n:
                        break
                    self._advance()
                    cur = self._cur
                    pos = 0
                    if (self._k - 1) * self._W > limit:
                        # every remaining entry lies beyond the horizon
                        self._now = until
                        return
        finally:
            self._pos = pos
        if until is not None:
            self._now = until

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        # finalizes the processes and blanks the overflow heap; the ring
        # and the drain list go after, as finally blocks may schedule
        super().close()
        _blank(self._cur)
        self._cur.clear()
        self._pos = 0
        for lst in self._buckets:
            _blank(lst)
            lst.clear()
        self._n = 0
        self._nwheel = 0


def make_environment(calendar: str, initial_time: float = 0.0) -> Environment:
    """An environment on the heap kernel or on the reference wheel."""
    if calendar == "wheel":
        return WheelEnvironment(initial_time)
    return Environment(initial_time)


def use_wheel(monkeypatch) -> None:
    """Until ``monkeypatch`` is undone, make every ``Environment()`` a
    :class:`WheelEnvironment` with the default geometry."""

    def init(self, initial_time: float = 0.0):
        self.__class__ = WheelEnvironment
        WheelEnvironment.__init__(self, initial_time)

    monkeypatch.setattr(Environment, "__init__", init)


def use_calendar(monkeypatch, calendar: str) -> None:
    """Run on ``calendar``: the heap needs no patch."""
    if calendar == "wheel":
        use_wheel(monkeypatch)
