"""Counted resources with FIFO queueing.

:class:`Resource` models a pool of ``capacity`` interchangeable slots
(e.g. a logical CPU with capacity 1).  Requests are granted strictly in
FIFO order, which is what makes quantum-by-quantum CPU sharing in
:mod:`repro.oskernel` behave as round-robin.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import Environment, Event, SimulationError


class Preempted(Exception):
    """Cause payload used when a resource holder is forcibly evicted."""

    def __init__(self, by: Any = None):
        super().__init__(by)

    @property
    def by(self) -> Any:
        return self.args[0]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "tag")

    def __init__(self, resource: "Resource", tag: Any = None):
        super().__init__(resource.env)
        self.resource = resource
        self.tag = tag
        resource._admit(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """A FIFO resource with integer capacity."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, tag: Any = None) -> Request:
        return Request(self, tag)

    def seize(self, tag: Any = None) -> Request | None:
        """Hold a free slot at once, with no calendar entry; None if busy.

        The result is a request in the state :meth:`request`'s would reach
        once its grant fired: processed, with the value None.  Only exact
        for a caller that knows that grant would be the very next event
        dispatched (see :meth:`~repro.oskernel.SimThread.exec`).
        """
        if self._queue or len(self._users) >= self.capacity:
            return None
        req = Request.__new__(Request)
        Event.__init__(req, self.env)
        req.resource = self
        req.tag = tag
        req._value = None
        req.callbacks = None
        req._processed = True
        self._users.append(req)
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            # Releasing an un-granted request equals cancelling it.
            self._cancel(request)

    def acquire(self, tag: Any = None):
        """Generator helper: ``req = yield from res.acquire()``."""
        req = self.request(tag)
        yield req
        return req

    # -- internals ---------------------------------------------------------

    def _admit(self, request: Request) -> None:
        self._queue.append(request)
        self._grant_next()

    def _cancel(self, request: Request) -> None:
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        # A grant fires with the value None, not the request: a request
        # holding itself as its value would be a reference cycle that
        # only the cyclic collector frees.  acquire() returns the request.
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            self._users.append(req)
            req.succeed()
