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
a real kernel.

``exec`` resumes its generator once per op: the per-quantum cycle (take
a CPU, price a quantum, give the CPU back) runs in the grant's and the
quantum timeout's callbacks.  A quantum that starts inside the dispatch
of the event that woke the thread alone (its own timeout, or an event
it was the last waiter of), on a free CPU with nothing else due, takes
the CPU in place rather than through a grant event, and a quantum that
ends with work left on such a CPU is followed by the next one without
giving the CPU up; the firing order is the same either way (DESIGN.md
section 9).
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
        #: the last event that woke this thread alone: a quantum, sleep or
        #: disk timeout, or an event it was the last waiter of.
        self._own_timeout = None
        self._kill_requested = False
        self._body = body
        self._server = system.server
        #: the reusable quantum timeout (None until the first quantum, and
        #: after an interrupt left it pending) and its one callback list.
        self._timer = None
        self._continuation = [self._quantum_end]
        #: the CPU grant's callback (bound once, not per request).
        self._grant = self._granted
        #: what exec() parks on for the rest of an op: it never fires.
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
        except GeneratorExit:
            # torn down by close() (or finalized unclosed): killed, not
            # crashed
            self.state = ThreadState.KILLED
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
        """Run a CPU op to completion.  Generator (use ``yield from``).

        Runs the loop top once, then parks for the rest of the op: the
        grant (:meth:`_granted`) and quantum-end (:meth:`_quantum_end`)
        callbacks run every later step, and resume the generator only at
        op end, or to raise :class:`ThreadKilled`.  An interrupt still
        lands here, at the park.
        """
        if isinstance(op, MemOp):
            remaining = float(op.lines)
            key = op.dram_frac
        elif isinstance(op, CompOp):
            remaining = float(op.cycles)
            key = None
        elif isinstance(op, DiskOp):
            yield from self.disk_io(op.nbytes, write=op.write)
            return
        else:
            raise TypeError(f"unknown op type: {op!r}")
        # a MemOp's kind depends only on its dram_frac, a CompOp's is
        # fixed: one CpuKind per distinct value, kept by the system
        kinds = self.system.cpu_kinds
        kind = kinds.get(key)
        if kind is None:
            kind = kinds[key] = CpuKind(mem=op.mem_pressure, comp=op.comp_pressure)
        # the op and its quantum, for _start_quantum()
        self._q_op = op
        self._q_kind = kind
        self._q_mem = key is not None
        self._q_quantum = self.quantum_us
        self._q_remaining = remaining
        park = self._park
        parked = self._loop_top()
        while parked:
            try:
                yield park
            except Interrupt as i:
                if self.state is ThreadState.WAITING_CPU:
                    # stop listening for the grant, then give it back
                    req = self._pending_req
                    req.callbacks.remove(self._grant)
                    req.resource.release(req)
                    self.pending_lcpu = None
                    self._pending_req = None
                else:
                    # rare: an interrupt lands mid-quantum.  Detach the
                    # continuation (the timeout then fires with no
                    # callbacks) and leave the pending timer behind; the
                    # quantum is already accounted, so just fold it in.
                    self._timer.callbacks = []
                    self._timer = None
                    self._give_back()
                if i.cause == _KILL:
                    raise ThreadKilled(self.name)
                # migrate: the loop top re-chooses under the new mask
                parked = self._loop_top()
            except GeneratorExit:
                # closed mid-quantum: release the CPU, as the quantum's
                # end would have
                if self.state is ThreadState.RUNNING:
                    self._server.set_idle(self.last_lcpu)
                    self._q_slot.release(self._q_req)
                raise
            else:
                # resumed by a callback whose loop top found the op
                # finished or a kill requested
                parked = False
        if self._q_remaining > 1e-9:
            raise ThreadKilled(self.name)

    def _woken_alone(self) -> bool:
        """True inside the dispatch of the event that last woke this
        thread alone, with nothing else due now.  A grant scheduled now
        would then be the very next event dispatched, so taking a free
        slot in place runs the same statements in the same order
        (DESIGN.md section 9)."""
        own = self._own_timeout
        return (
            own is not None
            and own.callbacks is None
            and not own._processed
            and self.env.nothing_due_now()
        )

    def _loop_top(self) -> bool:
        """One pass of exec's loop top: pick a CPU, then take it in place
        (pricing a quantum) or queue for its grant.  False, with nothing
        done, when the op is finished or a kill is requested."""
        if self._q_remaining <= 1e-9 or self._kill_requested:
            return False
        lcpu = self._choose_lcpu()
        slot = self.system.cpu_slots[lcpu]
        req = slot.seize(self.tid) if self._woken_alone() else None
        if req is None:
            req = slot.request(tag=self.tid)
            self.state = ThreadState.WAITING_CPU
            self.pending_lcpu = lcpu
            self._pending_req = req
            req.callbacks.append(self._grant)
        else:
            self._run(lcpu, slot, req)
        return True

    def _granted(self, req) -> None:
        """The CPU grant's callback: what exec ran after its grant."""
        lcpu = self.pending_lcpu
        self.pending_lcpu = None
        self._pending_req = None
        if lcpu in self._affinity:
            self._run(lcpu, req.resource, req)
        else:
            # mask changed while queued; the grant is stale
            req.resource.release(req)
            self._next(req)

    def _run(self, lcpu: int, slot, req) -> None:
        """Hold ``lcpu`` through ``req`` and start the op's next quantum."""
        self.state = ThreadState.RUNNING
        self.last_lcpu = lcpu
        self._server.set_running(lcpu, self._q_kind)
        self._q_slot = slot
        self._q_req = req
        self._start_quantum(lcpu)
        self._own_timeout = self._timer

    def _give_back(self) -> None:
        """exec's quantum epilogue: idle and release the CPU, and fold
        the quantum into the op."""
        self._server.set_idle(self.last_lcpu)
        self._q_slot.release(self._q_req)
        self._q_remaining -= self._q_done
        self.cputime_us += self._q_duration

    def _next(self, event) -> None:
        """Run exec's loop top from a callback; at op end or for a kill,
        resume exec with ``event``, as its dispatch would."""
        if not self._loop_top():
            self._park.callbacks.clear()
            self.sim_proc._resume(event)

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
        one queued on it and nothing else due now, exec's epilogue and
        loop top would release the CPU, pick it again, seize it in place
        and price the next quantum in this same dispatch (DESIGN.md
        section 9): do that here, keeping the CPU.  Otherwise run the
        epilogue and the loop top.
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
        self._give_back()
        self._next(timer)

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
        # held: a one-shot event drops its callback list when it fires
        callbacks = event.callbacks
        try:
            value = yield event
        except Interrupt as i:
            if i.cause == _KILL:
                raise ThreadKilled(self.name)
            raise
        if callbacks and callbacks[-1] is self.sim_proc._on_fire:
            # the event's last waiter: nothing else its dispatch runs
            # comes after this thread, so it woke the thread alone
            self._own_timeout = event
        return value

    def disk_io(self, nbytes: int, write: bool = False):
        """Block on one SSD request."""
        self._check_kill()
        self.state = ThreadState.BLOCKED
        disk = self.system.server.disk
        # a free channel is taken in place under exec's condition
        req = disk.channels.seize() if self._woken_alone() else None
        if req is None:
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
