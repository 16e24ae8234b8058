"""The System object: env + server + threads + cgroups, and the syscalls.

This is the "machine" handle that workloads, Yarn, Holmes, and baselines
all share.  It exposes the same narrow interface the real Holmes uses:

* :meth:`sched_setaffinity` -- move threads between logical CPUs,
* :attr:`cgroups` -- the control-group tree,
* the performance-counter and busy-time read paths via :attr:`server`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.hw.config import HWConfig
from repro.hw.server import Server
from repro.oskernel.cgroup import CgroupFS
from repro.oskernel.process import OSProcess
from repro.oskernel.thread import SimThread, ThreadState
from repro.sim import Environment, Resource


class System:
    """A simulated server machine plus its OS state."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        config: Optional[HWConfig] = None,
        quantum_us: float = 50.0,
        counter_values=None,
        busy_values=None,
    ):
        if quantum_us <= 0:
            raise ValueError(f"quantum_us must be positive, got {quantum_us}")
        self.env = env or Environment()
        # counter_values/busy_values: optional cluster-pool row views that
        # back this machine's counter and busy arrays (repro.cluster.dataplane).
        self.server = Server(
            self.env,
            config,
            counter_values=counter_values,
            busy_values=busy_values,
        )
        self.quantum_us = quantum_us
        n = self.server.topology.n_lcpus
        #: one single-slot FIFO resource per logical CPU.
        self.cpu_slots = [
            Resource(self.env, capacity=1, name=f"lcpu{i}") for i in range(n)
        ]
        self.threads: dict[int, SimThread] = {}
        self.processes: dict[int, OSProcess] = {}
        self.cgroups = CgroupFS(self)
        self._next_tid = 1
        self._next_pid = 1
        #: optional callable(lcpu, tid, kind, start_us, duration_us)
        #: invoked for every executed quantum (see repro.tracing).
        self.quantum_hook = None
        #: the CpuKind of each op class threads ran: keyed by a MemOp's
        #: dram_frac, and None for every CompOp (see SimThread.exec).
        self.cpu_kinds: dict = {}

    # -- id allocation (used by Thread/Process constructors) ----------------

    def _alloc_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    # -- process management ---------------------------------------------------

    def spawn_process(self, name: str, cgroup_path: Optional[str] = None) -> OSProcess:
        """Create a process, optionally attached to a cgroup path."""
        cgroup = self.cgroups.create(cgroup_path) if cgroup_path else None
        proc = OSProcess(self, name, cgroup=None)
        self.processes[proc.pid] = proc
        if cgroup is not None:
            cgroup.attach(proc)
        return proc

    def _thread_exited(self, thread: SimThread) -> None:
        proc = thread.process
        if proc.exited_at is None and not any(t.alive for t in proc.threads):
            proc.exited_at = self.env.now
            if proc.cgroup is not None:
                proc.cgroup.detach(proc)

    # -- syscalls ------------------------------------------------------------

    def sched_setaffinity(self, tid: int, cpus: Iterable[int]) -> None:
        """Restrict a thread to ``cpus``; migrates at the next quantum edge."""
        thread = self.threads.get(tid)
        if thread is None:
            raise KeyError(f"no such thread: tid={tid}")
        cpus = frozenset(cpus)
        if not cpus:
            raise ValueError("sched_setaffinity: empty CPU set")
        n = self.server.topology.n_lcpus
        bad = [c for c in cpus if not 0 <= c < n]
        if bad:
            raise ValueError(f"sched_setaffinity: invalid cpus {bad}")
        if cpus == thread.affinity:
            return
        thread.affinity = cpus
        if not thread.alive:
            return
        if (
            thread.state == ThreadState.WAITING_CPU
            and thread.pending_lcpu is not None
            and thread.pending_lcpu not in cpus
        ):
            # requeue onto a permitted CPU immediately
            thread.sim_proc.interrupt(cause="migrate")

    def sched_getaffinity(self, tid: int) -> frozenset[int]:
        thread = self.threads.get(tid)
        if thread is None:
            raise KeyError(f"no such thread: tid={tid}")
        return thread.affinity

    # -- convenience --------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def close(self) -> None:
        """Tear down a finished machine so reference counting frees it.

        Closes the environment first: every live thread's generator runs
        its ``finally`` blocks now, in creation order (a running ``exec``
        marks its CPU idle and releases it; the thread exits, killed,
        leaving its cgroup).  Then drops each link from a part back to
        its owner, which made the machine one reference cycle: thread to
        system and process (and its quantum and grant callbacks and body,
        bound methods of the thread or of a service owning it), process
        to system, cgroup to parent and filesystem, filesystem to system,
        and each CPU's and the disk's held and queued requests.  Call it
        once the run's result has been read; idempotent.
        """
        self.env.close()
        for t in self.threads.values():
            t.system = t.process = t._continuation = t._grant = t._body = None
        for p in self.processes.values():
            p.system = None
        for group in self.cgroups.root.walk():
            group.parent = group.fs = None
        self.cgroups.system = None
        for res in (*self.cpu_slots, self.server.disk.channels):
            res._users.clear()
            res._queue.clear()

    @property
    def now(self) -> float:
        return self.env.now

    def memory_used_bytes(self) -> int:
        """Resident memory of live processes (Sec. 6.3's metric)."""
        return sum(
            p.resident_bytes for p in self.processes.values() if p.alive
        )

    def memory_utilization(self) -> float:
        return self.memory_used_bytes() / self.server.config.memory_capacity_bytes

    def lcpu_queue_depth(self, lcpu: int) -> int:
        """Runnable load on one logical CPU (running + queued)."""
        slot = self.cpu_slots[lcpu]
        return slot.count + slot.queue_length
