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
in place rather than through a grant event, and a quantum that ends
with work left on such a CPU is followed by the next one inside the
quantum timeout's own callback, without resuming ``exec``; the firing
order is the same either way (DESIGN.md section 9).
"""

from __future__ import annotations

import enum
from typing import Callable, Generator, Iterable, Optional, TYPE_CHECKING

from repro.hw.contention import CpuKind
from repro.hw.ops import CompOp, DiskOp, MemOp
from repro.sim import Interrupt
from repro.sim.core import NORMAL

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
        self._server = system.server
        #: the reusable quantum timeout (None until the first quantum, and
        #: after an interrupt left it pending) and its one callback list.
        self._timer = None
        self._continuation = [self._quantum_end]
        #: what exec() parks on while a quantum runs: it never fires.
        self._park = self.env.event()
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
        server = self._server
        slots = self.system.cpu_slots
        park = self._park
        # the op and its quantum, for _start_quantum()
        self._q_op = op
        self._q_kind = kind
        self._q_mem = is_mem
        self._q_quantum = self.quantum_us
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
            self._q_slot = slot
            self._q_remaining = remaining
            self._start_quantum(lcpu)
            self._own_timeout = timer = self._timer
            # Park until _quantum_end() hands the quantum's timeout back:
            # it runs back-to-back quanta on this CPU itself, so the
            # state below may be several quanta on.
            killed = False
            try:
                yield park
            except Interrupt as i:
                # rare: an interrupt lands mid-quantum.  Detach the
                # continuation (the timeout then fires with no callbacks)
                # and leave the pending timer behind; the quantum is
                # already accounted, so just fold it in.
                timer.callbacks = []
                self._timer = None
                killed = i.cause == _KILL
            finally:
                server.set_idle(lcpu)
                slot.release(req)
            remaining = self._q_remaining - self._q_done
            self.cputime_us += self._q_duration
            if killed:
                raise ThreadKilled(self.name)

    def _start_quantum(self, lcpu: int) -> None:
        """Price the next quantum of the current op on ``lcpu``, which
        this thread holds, and arm the quantum timer for its end."""
        remaining = self._q_remaining
        if self._q_mem:
            op = self._q_op
            duration, done = self._server.mem_quantum(
                lcpu, self._q_kind, remaining, op.dram_frac, op.store_frac,
                self._q_quantum,
            )
        else:
            duration, done = self._server.comp_quantum(
                lcpu, self._q_kind, remaining, self._q_quantum
            )
        self._q_done = done
        self._q_duration = duration
        env = self.env
        hook = self.system.quantum_hook
        if hook is not None:
            hook(lcpu, self.tid, "mem" if self._q_mem else "comp",
                 env.now, duration)
        # Scheduled where a fresh Timeout would be, so it takes the same
        # seq.  The timer is never pending here: dispatch unscheduled it,
        # or an interrupt replaced it with None.
        timer = self._timer
        if timer is None:
            self._timer = timer = env.timeout(duration)
        else:
            env._schedule(timer, NORMAL, duration)
        timer.callbacks = self._continuation

    def _quantum_end(self, timer) -> None:
        """The quantum timeout's only callback.

        With work left, no kill requested, the CPU still in the mask, no
        one queued on it and nothing else due now, exec() would release
        the CPU, pick it again, seize it in place and price the next
        quantum in this same dispatch (DESIGN.md section 9): do that
        here, keeping the CPU.  Otherwise resume exec() with the
        timeout, as the dispatch itself would.
        """
        # dispatch marks the timer processed after this returns; like a
        # fresh timeout it reads unprocessed while its callbacks run
        timer._processed = False
        remaining = self._q_remaining - self._q_done
        if (
            remaining > 1e-9
            and not self._kill_requested
            and self.last_lcpu in self._affinity
            and not self._q_slot._queue
            and self.env.nothing_due_now()
        ):
            self._q_remaining = remaining
            self.cputime_us += self._q_duration
            self._start_quantum(self.last_lcpu)
            return
        self._park.callbacks.clear()
        self.sim_proc._resume(timer)

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
