"""The simulated server: topology + contention + counters + disk.

:class:`Server` is the hardware boundary.  The OS layer
(:mod:`repro.oskernel`) asks it to execute *quanta* of memory or compute
work on a given logical CPU; the server consults the sibling hyperthread's
current activity to price the quantum, charges the performance counters,
and accounts busy time.  Nothing above this layer knows the contention
constants.
"""

from __future__ import annotations

import numpy as np

from repro.hw.config import HWConfig
from repro.hw.contention import ContentionModel, CpuKind, IDLE
from repro.hw.counters import CounterEngine, CounterSnapshot
from repro.hw.disk import Disk
from repro.hw.topology import Topology
from repro.sim import Environment


#: a logical CPU counts as a DRAM "stream" for the bandwidth model when its
#: memory pressure exceeds this threshold.
_STREAM_THRESHOLD = 0.3

#: sibling activity remains visible for this long after a quantum ends.
#: Two threads running back-to-back quanta in lock-step release and
#: re-acquire their CPUs at the same instants; without a small grace window
#: each would price its next quantum in the instant the other is between
#: quanta and never observe the contention.  Physically this models miss
#: queues and fill buffers draining after the sibling's burst.
_KIND_GRACE_US = 2.0


class Server:
    """A 2-socket SMT server (see HWConfig for the default shape)."""

    def __init__(
        self,
        env: Environment,
        config: HWConfig | None = None,
        counter_values: np.ndarray | None = None,
        busy_values: np.ndarray | None = None,
    ):
        self.env = env
        self.config = config or HWConfig()
        self.topology = Topology(self.config)
        self.rng = np.random.default_rng(self.config.seed)
        self.contention = ContentionModel(self.config)
        self.counters = CounterEngine(
            self.config, self.topology.n_lcpus, self.rng, values=counter_values
        )
        self.disk = Disk(env, self.config, self.rng)

        #: cluster data plane this server's counters are pooled into, when
        #: the cluster runs the vectorized plane; every quantum accrual
        #: bumps its generation so batched reads never see stale values.
        self.data_plane = None

        n = self.topology.n_lcpus
        #: per-lcpu tables read on every quantum: the SMT sibling, and the
        #: hosting core's DVFS setting as a fraction of nominal clock.
        self._sibling = [self.topology.sibling(i) for i in range(n)]
        self._lcpu_freq = [1.0] * n
        self._kinds: list[CpuKind] = [IDLE] * n
        #: end of the validity window of _kinds[lcpu] (quantum end time).
        self._kind_until = [0.0] * n
        self._streaming = [False] * n
        #: cumulative busy microseconds per logical CPU.
        if busy_values is None:
            busy_values = np.zeros(n, dtype=np.float64)
        elif busy_values.shape != (n,):
            raise ValueError(
                f"external busy storage must have shape {(n,)}, "
                f"got {busy_values.shape}"
            )
        elif busy_values.dtype != np.float64 or not busy_values.flags.c_contiguous:
            raise ValueError(
                "external busy storage must be a C-contiguous float64 array"
            )
        self.busy_us = busy_values
        # quanta accrue busy time through a view of the same memory (see
        # CounterEngine._flat)
        self._busy = memoryview(busy_values)
        # the model constants every quantum reads, resolved once
        c = self.config
        self._cache_hit_us = c.cache_hit_latency_us
        self._dram_line_us = c.dram_line_latency_us
        self._cycles_per_us = c.freq_cycles_per_us

    # -- DVFS ---------------------------------------------------------------

    #: lowest supported frequency fraction (a deep P-state).
    MIN_FREQ_FRACTION = 0.3

    def set_core_frequency(self, core: int, fraction: float) -> None:
        """Set a physical core's clock to ``fraction`` of nominal.

        Compute throughput scales with the clock; DRAM latency does not
        (it is bounded by the memory parts), so memory-dominated work is
        largely insensitive -- which is exactly why frequency boosts don't
        fix SMT memory interference (the Parties ladder's first rung).
        """
        if not 0 <= core < self.topology.n_cores:
            raise ValueError(f"core {core} out of range")
        if not self.MIN_FREQ_FRACTION <= fraction <= 1.0:
            raise ValueError(
                f"frequency fraction must be in "
                f"[{self.MIN_FREQ_FRACTION}, 1.0], got {fraction}"
            )
        for lcpu in self.topology.lcpus_of_core(core):
            self._lcpu_freq[lcpu] = float(fraction)

    def core_frequency(self, core: int) -> float:
        return self._lcpu_freq[self.topology.lcpus_of_core(core)[0]]

    # -- occupancy tracking -------------------------------------------------

    def set_running(self, lcpu: int, kind: CpuKind) -> None:
        """Mark ``lcpu`` as starting a quantum of the given kind.

        Only drives the bandwidth stream accounting; the sibling-visible
        kind window is recorded by the quantum itself.
        """
        streaming = kind.mem > _STREAM_THRESHOLD
        if streaming != self._streaming[lcpu]:
            if streaming:
                self.contention.stream_started()
            else:
                self.contention.stream_stopped()
            self._streaming[lcpu] = streaming

    def set_idle(self, lcpu: int) -> None:
        """Mark ``lcpu`` idle for bandwidth accounting (quantum finished)."""
        if self._streaming[lcpu]:
            self.contention.stream_stopped()
            self._streaming[lcpu] = False

    def kind_of(self, lcpu: int) -> CpuKind:
        """Activity on ``lcpu`` as visible to its sibling *now*."""
        if self.env.now < self._kind_until[lcpu] + _KIND_GRACE_US:
            return self._kinds[lcpu]
        return IDLE

    # -- quantum execution -----------------------------------------------------

    def mem_quantum(
        self,
        lcpu: int,
        kind: CpuKind,
        lines_remaining: float,
        dram_frac: float,
        store_frac: float | None,
        max_us: float,
    ) -> tuple[float, float]:
        """Execute up to ``max_us`` of a memory burst on ``lcpu``.

        Returns ``(duration_us, lines_done)``.  Contention is sampled at
        quantum start, which is accurate at the 25-100 us quantum sizes the
        OS layer uses.
        """
        if max_us <= 0 or lines_remaining <= 0:
            raise ValueError("mem_quantum needs positive work and budget")
        now = self.env.now
        sib = self._sibling[lcpu]
        # the sibling's kind window, as kind_of() reads it
        sibling = (
            self._kinds[sib] if now < self._kind_until[sib] + _KIND_GRACE_US else IDLE
        )
        contention = self.contention
        mult = contention.mem_latency_multiplier(
            sibling
        ) * contention.bandwidth_multiplier()
        freq = self._lcpu_freq[lcpu]
        # cache hits are core-clocked; DRAM lines are memory-clocked
        per_line_us = (
            1.0 - dram_frac
        ) * self._cache_hit_us / freq + dram_frac * self._dram_line_us * mult
        lines_possible = max_us / per_line_us
        lines_done = min(lines_remaining, lines_possible)
        duration = lines_done * per_line_us
        self.counters.account_mem(lcpu, lines_done, dram_frac, mult, store_frac, now)
        self._busy[lcpu] += duration
        self._kinds[lcpu] = kind
        self._kind_until[lcpu] = now + duration
        plane = self.data_plane
        if plane is not None:
            plane.generation += 1
        return duration, lines_done

    def comp_quantum(
        self, lcpu: int, kind: CpuKind, cycles_remaining: float, max_us: float
    ) -> tuple[float, float]:
        """Execute up to ``max_us`` of a compute burst on ``lcpu``.

        Returns ``(duration_us, cycles_done)``.
        """
        if max_us <= 0 or cycles_remaining <= 0:
            raise ValueError("comp_quantum needs positive work and budget")
        now = self.env.now
        sib = self._sibling[lcpu]
        sibling = (
            self._kinds[sib] if now < self._kind_until[sib] + _KIND_GRACE_US else IDLE
        )
        mult = self.contention.comp_latency_multiplier(sibling)
        us_per_cycle = mult / (self._cycles_per_us * self._lcpu_freq[lcpu])
        cycles_possible = max_us / us_per_cycle
        cycles_done = min(cycles_remaining, cycles_possible)
        duration = cycles_done * us_per_cycle
        self.counters.account_compute(lcpu, cycles_done)
        self._busy[lcpu] += duration
        self._kinds[lcpu] = kind
        self._kind_until[lcpu] = now + duration
        plane = self.data_plane
        if plane is not None:
            plane.generation += 1
        return duration, cycles_done

    # -- metrics ------------------------------------------------------------------

    def busy_snapshot(self) -> np.ndarray:
        """Copy of cumulative busy time per logical CPU (microseconds)."""
        return self.busy_us.copy()

    def counter_snapshot(self, lcpu: int) -> CounterSnapshot:
        return self.counters.snapshot(lcpu)
