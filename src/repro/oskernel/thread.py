"""Simulated OS threads.

A :class:`SimThread` wraps a workload *body* (a generator function taking
the thread) and provides the execution primitives the body uses:

* ``yield from thread.exec(op)`` -- run a :class:`~repro.hw.ops.MemOp` or
  :class:`~repro.hw.ops.CompOp` to completion, in scheduling quanta, on
  logical CPUs permitted by the thread's affinity mask;
* ``yield from thread.sleep(us)`` -- block off-CPU;
* ``yield from thread.disk_io(nbytes, write=...)`` -- block on the SSD;
* ``yield from thread.wait(event)`` -- block on an arbitrary sim event
  (e.g. a request-queue get).

CPU time-sharing emerges from quantum-sized FIFO requests on the per-CPU
resources: contending threads interleave round-robin at quantum
granularity, and an affinity change takes effect at the next quantum
boundary -- the same migration latency profile as `sched_setaffinity` on
a real kernel.  A quantum that starts inside the dispatch of the thread's
own previous timeout, on a free CPU with nothing else due, takes the CPU
in place rather than through a grant event; the firing order is the
same either way (DESIGN.md section 9).
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Iterable, Optional, TYPE_CHECKING

from repro.hw.contention import CpuKind
from repro.hw.ops import CompOp, DiskOp, MemOp
from repro.sim import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.oskernel.process import OSProcess
    from repro.oskernel.system import System


class ThreadKilled(Exception):
    """Raised inside a thread body when the thread is killed."""


class ThreadState(enum.Enum):
    NEW = "new"
    WAITING_CPU = "waiting_cpu"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    DONE = "done"
    KILLED = "killed"
    CRASHED = "crashed"


_MIGRATE = "migrate"
_KILL = "kill"


class SimThread:
    """One schedulable thread of an :class:`~repro.oskernel.OSProcess`."""

    def __init__(
        self,
        system: "System",
        process: "OSProcess",
        body: Callable[["SimThread"], Generator],
        affinity: Iterable[int],
        name: str = "",
        quantum_us: Optional[float] = None,
    ):
        self.system = system
        self.env = system.env
        self.process = process
        self.tid = system._alloc_tid()
        self.name = name or f"{process.name}/t{self.tid}"
        #: scheduling quantum; coarser for batch tasks, finer for services.
        self.quantum_us = quantum_us if quantum_us is not None else system.quantum_us
        if self.quantum_us <= 0:
            raise ValueError(f"thread {self.name}: quantum must be positive")
        self.affinity = frozenset(affinity)
        if not self.affinity:
            raise ValueError(f"thread {self.name}: empty affinity mask")
        self.state = ThreadState.NEW
        self.cputime_us = 0.0
        self.last_lcpu: Optional[int] = None
        #: the logical CPU this thread is queued on while WAITING_CPU.
        self.pending_lcpu: Optional[int] = None
        self._pending_req = None
        #: the last quantum, sleep or disk timeout this thread waited on.
        self._own_timeout = None
        self._kill_requested = False
        self._body = body
        self.sim_proc = self.env.process(self._main(), name=self.name)

    @property
    def affinity(self) -> frozenset[int]:
        """The logical CPUs this thread may run on."""
        return self._affinity

    @affinity.setter
    def affinity(self, cpus: frozenset[int]) -> None:
        self._affinity = cpus
        #: the mask in ascending order, for the least-loaded scan.
        self._affinity_order = tuple(sorted(cpus))

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state not in (
            ThreadState.DONE,
            ThreadState.KILLED,
            ThreadState.CRASHED,
        )

    def kill(self) -> None:
        """Request termination; takes effect at the next blocking point."""
        if not self.alive:
            return
        self._kill_requested = True
        if self.state in (
            ThreadState.WAITING_CPU,
            ThreadState.SLEEPING,
            ThreadState.BLOCKED,
        ):
            self.sim_proc.interrupt(cause=_KILL)

    def _main(self):
        try:
            yield from self._body(self)
            self.state = ThreadState.DONE
        except ThreadKilled:
            self.state = ThreadState.KILLED
        except Interrupt as i:
            # a kill interrupt may land on a body-level yield
            if i.cause == _KILL:
                self.state = ThreadState.KILLED
            else:  # pragma: no cover - unexpected
                self.state = ThreadState.CRASHED
                raise
        except BaseException:
            self.state = ThreadState.CRASHED
            raise
        finally:
            self.pending_lcpu = None
            self._pending_req = None
            self.system._thread_exited(self)

    def _check_kill(self) -> None:
        if self._kill_requested:
            raise ThreadKilled(self.name)

    # -- CPU execution -------------------------------------------------------

    def _choose_lcpu(self) -> int:
        """Pick the least-loaded permitted logical CPU (sticky tie-break)."""
        slots = self.system.cpu_slots
        last = self.last_lcpu
        if last in self._affinity:
            slot = slots[last]
            if not slot._users and not slot._queue:
                # load -0.5 after the stickiness bonus: the unique
                # minimum, so the scan below would return it too
                return last
        best = None
        best_load = None
        for lcpu in self._affinity_order:
            slot = slots[lcpu]
            load = len(slot._users) + len(slot._queue)
            if lcpu == last:
                load -= 0.5  # mild cache-affinity stickiness
            if best_load is None or load < best_load:
                best, best_load = lcpu, load
        return best

    def exec(self, op):
        """Run a CPU op to completion.  Generator (use ``yield from``)."""
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
        server = self.system.server
        slots = self.system.cpu_slots
        quantum = self.quantum_us
        while remaining > 1e-9:
            self._check_kill()
            lcpu = self._choose_lcpu()
            slot = slots[lcpu]
            # In-place grant: running inside the dispatch of our own
            # single-waiter timeout, with nothing else due now, the grant
            # request() would schedule is the very next event dispatched,
            # so taking the slot here runs the same statements in the
            # same order (DESIGN.md section 9).
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
                    continue  # migrate: re-choose under the new mask
                self.pending_lcpu = None
                self._pending_req = None

                if lcpu not in self._affinity:
                    # mask changed while queued; the grant is stale
                    slot.release(req)
                    continue

            self.state = ThreadState.RUNNING
            self.last_lcpu = lcpu
            server.set_running(lcpu, kind)
            if is_mem:
                duration, done = server.mem_quantum(
                    lcpu, kind, remaining, op.dram_frac, op.store_frac, quantum
                )
            else:
                duration, done = server.comp_quantum(lcpu, kind, remaining, quantum)
            hook = self.system.quantum_hook
            if hook is not None:
                hook(lcpu, self.tid, "mem" if is_mem else "comp",
                     env.now, duration)
            killed = False
            self._own_timeout = timeout = env.timeout(duration)
            try:
                yield timeout
            except Interrupt as i:
                # rare: kill lands mid-quantum; the quantum is already
                # accounted, so just fold it in and exit
                killed = i.cause == _KILL
            finally:
                server.set_idle(lcpu)
                slot.release(req)
            remaining -= done
            self.cputime_us += duration
            if killed:
                raise ThreadKilled(self.name)

    # -- blocking primitives -----------------------------------------------------

    def sleep(self, us: float):
        """Block off-CPU for ``us`` microseconds."""
        self._check_kill()
        self.state = ThreadState.SLEEPING
        self._own_timeout = timeout = self.env.timeout(us)
        try:
            yield timeout
        except Interrupt as i:
            if i.cause == _KILL:
                raise ThreadKilled(self.name)
            # spurious migrate while sleeping: nothing to migrate; just
            # give up the remainder of the nap (bounded error, never sent
            # by System, but be safe).
        finally:
            if self.alive:
                self.state = ThreadState.BLOCKED

    def wait(self, event):
        """Block on an arbitrary event; returns the event's value."""
        self._check_kill()
        self.state = ThreadState.BLOCKED
        try:
            value = yield event
        except Interrupt as i:
            if i.cause == _KILL:
                raise ThreadKilled(self.name)
            raise
        return value

    def disk_io(self, nbytes: int, write: bool = False):
        """Block on one SSD request."""
        self._check_kill()
        self.state = ThreadState.BLOCKED
        disk = self.system.server.disk
        req = yield from disk.channels.acquire()
        try:
            self._own_timeout = timeout = self.env.timeout(
                disk.service_time(nbytes, write)
            )
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SimThread {self.name} tid={self.tid} {self.state.value}>"
