"""Calendar kernels: the structures that order pending events.

Two interchangeable kernels, both firing events in exactly the same
``(time, priority, seq)`` order (the calendar-equivalence tests in
``tests/test_calendar.py`` verify this trace-for-trace):

:class:`HeapEnvironment`
    The classic binary heap over ``heapq``.  O(log n) push/pop with no
    tuning knobs; kept as the reference kernel.

:class:`WheelEnvironment`
    A bucketed timer wheel.  Simulated time is cut into fixed-width
    buckets (``bucket_us``, sized from the dominant tick period -- the
    Holmes 50 us control loop); a power-of-two ring of ``wheel_slots``
    buckets covers the near future, and an overflow heap holds entries
    beyond the ring's horizon.  Scheduling into a future bucket is an
    O(1) list append; buckets are sorted only when the cursor reaches
    them, so the per-event cost approaches one append + one comparison
    during an O(n log bucket) amortised sort, instead of a full-heap
    sift.  Entries that land in or before the cursor's bucket are
    insorted into the live drain list, preserving exact ordering for
    same-time and urgent events.

Both kernels support *lazy cancellation*: ``env.cancel(event)`` blanks
the entry ([t, prio, seq, event] -> event slot None) where it sits, and
the dispatch loop skips blanked entries when it reaches them.
``env.close()`` blanks every pending entry the same way, also dropping
each event's callbacks, and empties the calendar.

Bucket membership is computed **only** from ``int(t / bucket_us)`` --
push side, overflow pull side, and cursor jumps all use the same
expression -- so float rounding at bucket boundaries can never disagree
about which bucket an entry belongs to, and the wheel's firing order
stays bit-for-bit identical to the heap's.
"""

from __future__ import annotations

from bisect import insort as _insort
from heapq import heappop as _heappop, heappush as _heappush
from typing import Optional

from repro.sim.core import (
    NORMAL,
    Environment,
    Event,
    RecurringTimeout,
    SimulationError,
)

#: default wheel bucket width (microseconds) -- the Holmes daemon tick.
DEFAULT_BUCKET_US = 50.0
#: default ring size (buckets); must be a power of two.
DEFAULT_WHEEL_SLOTS = 1024


def _blank(entries) -> None:
    """Unlink each pending entry from its event and drop its callbacks."""
    for entry in entries:
        if entry is not None:
            event = entry[3]
            if event is not None:
                entry[3] = None
                event._entry = None
                event.callbacks = None


class HeapEnvironment(Environment):
    """Reference kernel: a binary heap of [time, priority, seq, event]."""

    calendar_name = "heap"

    def __init__(self, initial_time: float = 0.0,
                 calendar: Optional[str] = None):
        super().__init__(initial_time)
        self._heap: list = []

    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        entry = [self._now + delay, priority, seq, event]
        event._entry = entry
        _heappush(self._heap, entry)

    def _drop_calendar(self) -> None:
        _blank(self._heap)
        self._heap.clear()

    def peek(self) -> float:
        heap = self._heap
        while heap and heap[0][3] is None:
            _heappop(heap)
        return heap[0][0] if heap else float("inf")

    def nothing_due_now(self) -> bool:
        heap = self._heap
        return not heap or heap[0][0] > self._now

    def step(self) -> None:
        heap = self._heap
        while heap and heap[0][3] is None:
            _heappop(heap)
        if not heap:
            raise SimulationError("no scheduled events")
        self._fire(_heappop(heap))

    def _fire(self, entry: list) -> None:
        """Dispatch one live entry (shared slow path for step())."""
        event = entry[3]
        entry[3] = None
        event._entry = None
        self._now = t = entry[0]
        if event.__class__ is RecurringTimeout and event.auto:
            self._seq = seq = self._seq + 1
            e2 = [t + event.period, NORMAL, seq, event]
            event._entry = e2
            _heappush(self._heap, e2)
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
        limit = self._check_until(until)
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


class WheelEnvironment(Environment):
    """Timer-wheel kernel: bucketed calendar + overflow heap.

    ``bucket_us`` is the bucket width; ``wheel_slots`` (a power of two)
    is the ring size, giving a horizon of ``bucket_us * wheel_slots``
    ahead of the cursor.  Entries beyond the horizon go to an overflow
    heap and are pulled into the ring when their bucket comes up.
    """

    calendar_name = "wheel"

    def __init__(self, initial_time: float = 0.0,
                 calendar: Optional[str] = None,
                 bucket_us: float = DEFAULT_BUCKET_US,
                 wheel_slots: int = DEFAULT_WHEEL_SLOTS):
        super().__init__(initial_time)
        if bucket_us <= 0:
            raise ValueError(f"bucket_us must be positive, got {bucket_us}")
        if wheel_slots < 2 or wheel_slots & (wheel_slots - 1):
            raise ValueError(
                f"wheel_slots must be a power of two >= 2, got {wheel_slots}"
            )
        self._W = float(bucket_us)
        self._N = wheel_slots
        self._mask = wheel_slots - 1
        self._buckets: list[list] = [[] for _ in range(wheel_slots)]
        #: drain list: sorted entries with bucket index <= the cursor.
        self._cur: list = []
        self._pos = 0
        #: cursor: absolute index of the bucket currently being drained.
        self._k = int(self._now / self._W)
        self._overflow: list = []
        #: live (non-cancelled) entries across all structures.
        self._n = 0
        #: entries resident in the ring (dead ones included until loaded).
        self._nwheel = 0

    # -- scheduling -------------------------------------------------------

    def _place(self, entry: list) -> None:
        """File an entry by its bucket index (slow/shared path).

        ``_schedule`` inlines this body: the schedule path runs once per
        event and the extra call frame was measurable on dispatch-bound
        workloads (manual ``rearm()`` loops).  Keep the two copies in
        sync.
        """
        idx = int(entry[0] / self._W)
        d = idx - self._k
        if d <= 0:
            # Append fast path: a freshly scheduled entry carries the
            # newest seq, so whenever its time is >= the drain list's
            # last, it sorts strictly last and a plain append replaces
            # the insort's memmove.  Slots behind the cursor are None,
            # but the last slot is live unless the list is fully
            # drained (pos == len), which the first test catches.
            cur = self._cur
            if len(cur) == self._pos or cur[-1] < entry:
                cur.append(entry)
            else:
                _insort(cur, entry, self._pos)
        elif d < self._N:
            self._buckets[idx & self._mask].append(entry)
            self._nwheel += 1
        else:
            _heappush(self._overflow, entry)
        self._n += 1

    def _schedule(self, event: Event, priority: int = NORMAL,
                  delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        t = self._now + delay
        entry = [t, priority, seq, event]
        event._entry = entry
        # inlined _place (hot path)
        idx = int(t / self._W)
        d = idx - self._k
        if d <= 0:
            cur = self._cur
            if len(cur) == self._pos or cur[-1] < entry:
                cur.append(entry)
            else:
                _insort(cur, entry, self._pos)
        elif d < self._N:
            self._buckets[idx & self._mask].append(entry)
            self._nwheel += 1
        else:
            _heappush(self._overflow, entry)
        self._n += 1

    def _note_cancel(self, entry: list) -> None:
        self._n -= 1

    def _drop_calendar(self) -> None:
        # slots of the drain list behind the cursor are already None
        _blank(self._cur)
        _blank(self._overflow)
        self._cur.clear()
        self._pos = 0
        self._overflow.clear()
        if self._nwheel:
            for lst in self._buckets:
                if lst:
                    _blank(lst)
                    lst.clear()
        self._n = 0
        self._nwheel = 0

    # -- cursor movement --------------------------------------------------

    def _advance(self) -> None:
        """Move the cursor to the next bucket holding entries (or further).

        Loads that bucket -- plus any overflow entries whose index has come
        into range -- into the sorted drain list.
        """
        overflow = self._overflow
        k = self._k + 1
        if not self._nwheel:
            # Ring is empty: every pending entry is in the overflow heap,
            # so jump the cursor straight to the earliest one's bucket
            # instead of walking empty slots.
            while overflow and overflow[0][3] is None:
                _heappop(overflow)
            if overflow:
                k2 = int(overflow[0][0] / self._W)
                if k2 > k:
                    k = k2
        slot = k & self._mask
        lst = self._buckets[slot]
        if lst:
            self._buckets[slot] = []
            self._nwheel -= len(lst)
        else:
            # Fresh list, never the (empty) ring slot itself: the drain
            # list must not alias a live bucket, or overflow pulls landing
            # here would leave later pushes to this slot appending into
            # the cursor's list behind its back.
            lst = []
        while overflow and int(overflow[0][0] / self._W) <= k:
            lst.append(_heappop(overflow))
        if lst:
            # seq values are unique, so list comparison never reaches the
            # (incomparable) event element.
            lst.sort()
        self._k = k
        self._cur = lst
        self._pos = 0

    def _pop_next(self) -> list:
        """Pop the next live entry (slow path for step())."""
        while True:
            cur = self._cur
            pos = self._pos
            if pos < len(cur):
                self._pos = pos + 1
                entry = cur[pos]
                # Eager free: slots behind the cursor are never compared,
                # sorted or peeked again, and parking dead entries there
                # until the next _advance() skews the GC's alloc/dealloc
                # balance into collect-every-700-events storms at large
                # populations (each scan walking the whole drain list).
                cur[pos] = None
                if entry[3] is None:
                    continue
                return entry
            if not self._n:
                raise SimulationError("no scheduled events")
            self._advance()

    # -- inspection -------------------------------------------------------

    def peek(self) -> float:
        cur = self._cur
        for i in range(self._pos, len(cur)):
            if cur[i][3] is not None:
                return cur[i][0]
        best = None
        if self._nwheel:
            # Ring-resident entries always satisfy k < idx < k + N, so the
            # next N-1 slots cover them all without index aliasing.
            for k in range(self._k + 1, self._k + self._N):
                lst = self._buckets[k & self._mask]
                if not lst:
                    continue
                live = [e for e in lst if e[3] is not None]
                if live:
                    best = min(live)
                    break
        overflow = self._overflow
        while overflow and overflow[0][3] is None:
            _heappop(overflow)
        if overflow and (best is None or overflow[0] < best):
            best = overflow[0]
        return best[0] if best is not None else float("inf")

    def nothing_due_now(self) -> bool:
        # The drain list's next entry is the calendar's earliest: ring and
        # overflow entries sit in later buckets, so strictly later times.
        cur = self._cur
        pos = self._pos
        return pos == len(cur) or cur[pos][0] > self._now

    def step(self) -> None:
        self._fire(self._pop_next())

    def _fire(self, entry: list) -> None:
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

    # -- the fused dispatch loop ------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock reaches ``until``.

        Fully fused hot loop: drain-list indexing, cancellation skip,
        auto re-arm and bucket placement are inlined with everything
        bound to locals.  ``self._pos`` is only synchronised on exit
        (``finally``), so a callback raising leaves the calendar
        consistent and resumable.
        """
        limit = self._check_until(until)
        W = self._W
        N = self._N
        mask = self._mask
        buckets = self._buckets
        overflow = self._overflow
        insort = _insort
        pop_ov = _heappop
        push_ov = _heappush
        cur = self._cur
        pos = self._pos
        k = self._k
        try:
            while True:
                if pos < len(cur):
                    entry = cur[pos]
                    t = entry[0]
                    if t > limit:
                        self._now = until
                        return
                    # Eager free: drop the drain list's reference so the
                    # entry is reclaimed by refcount now rather than in
                    # bulk at the next _advance().  Parked dead entries
                    # make the allocation/deallocation counts net +1 per
                    # event, which trips a gen-0 GC pass every ~700 events
                    # -- each one scanning every dead entry still in the
                    # drain list.  At 100k+ pending timers that collection
                    # cost dominated the whole loop (~5 us/event).  Slots
                    # behind the cursor are never compared, sorted, or
                    # peeked, so the None is unobservable.
                    cur[pos] = None
                    pos += 1
                    event = entry[3]
                    if event is None:
                        continue  # lazily cancelled
                    # Callbacks may schedule same-time URGENT events, which
                    # _place() insorts at the live drain position: keep it
                    # in sync so nothing lands behind the cursor.
                    self._pos = pos
                    entry[3] = None
                    event._entry = None
                    self._now = t
                    if event.__class__ is RecurringTimeout and event.auto:
                        # Re-arm before callbacks: same seq allocation
                        # point as a manual rearm() at loop top.  The
                        # pop's _n decrement and the re-arm's increment
                        # cancel, so _n is left untouched.
                        self._seq = seq = self._seq + 1
                        t2 = t + event.period
                        e2 = [t2, NORMAL, seq, event]
                        event._entry = e2
                        idx = int(t2 / W)
                        d = idx - k
                        if d <= 0:
                            if len(cur) == pos or cur[-1] < e2:
                                cur.append(e2)
                            else:
                                insort(cur, e2, pos)
                        elif d < N:
                            buckets[idx & mask].append(e2)
                            self._nwheel += 1
                        else:
                            push_ov(overflow, e2)
                        callbacks, event.callbacks = event.callbacks, []
                        for cb in callbacks:
                            cb(event)
                    else:
                        self._n -= 1
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
                    k = self._k
                    if (k - 1) * W > limit:
                        # Every remaining entry is beyond the horizon:
                        # entries in bucket k start at ~k*W > limit + W-eps.
                        self._now = until
                        return
        finally:
            self._pos = pos
        if until is not None:
            self._now = until
