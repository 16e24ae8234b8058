"""Per-logical-CPU hardware performance counter engine.

Accrues the Table 1 candidate events plus LOAD/STORE/INSTR retirement counts
as quanta of work execute.  The counter *semantics* are modelled so that the
paper's correlation structure emerges (DESIGN.md section 5):

* ``STALLS_MEM_ANY`` (0x14A3): execution stalls attributable to any
  outstanding load.  Contention-added latency converts almost entirely into
  stall cycles, so per-instruction stalls track memory latency nearly
  perfectly (paper: Pearson 0.9999).
* ``CYCLES_MEM_ANY`` (0x10A3): occupancy version -- stalls plus overlapped
  execute cycles plus a per-access constant; the additive terms dilute the
  correlation slightly (paper: 0.9997).
* ``STALLS_L3_MISS`` (0x06A3): the DRAM-bound subset of stalls with
  prefetcher jitter (paper: 0.9992).
* ``CYCLES_L3_MISS`` (0x02A3): modelled with a shared-miss-queue attribution
  quirk -- the per-miss count *declines* mildly as sibling contention grows
  and carries comparatively large jitter, reproducing the paper's weak
  negative correlation (-0.1748).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.config import HWConfig
from repro.hw.events import (
    HPE,
    CYCLES_L3_MISS,
    STALLS_L3_MISS,
    CYCLES_MEM_ANY,
    STALLS_MEM_ANY,
    INSTR_LOAD,
    INSTR_STORE,
    INSTR_ANY,
    ALL_EVENTS,
)


@dataclass
class CounterSnapshot:
    """Cumulative counter values of one logical CPU at a point in time."""

    values: dict[int, float] = field(default_factory=dict)

    def __getitem__(self, event: HPE | int) -> float:
        code = event.code if isinstance(event, HPE) else event
        return self.values.get(code, 0.0)

    def delta(self, earlier: "CounterSnapshot") -> "CounterSnapshot":
        """Per-event difference ``self - earlier``, clamped at zero.

        A counter that reset or wrapped between the two snapshots would
        read negative; clamping means one bad window under-reports
        instead of driving VPI negative (or NaN downstream).
        """
        return CounterSnapshot(
            {
                code: max(
                    0.0,
                    self.values.get(code, 0.0) - earlier.values.get(code, 0.0),
                )
                for code in set(self.values) | set(earlier.values)
            }
        )

    def vpi(self, event: HPE | int) -> float:
        """Equation 1: counter value per LOAD+STORE instruction.

        Returns 0.0 when no memory instructions retired in the window (an
        idle CPU exhibits no interference).
        """
        denom = self[INSTR_LOAD] + self[INSTR_STORE]
        if denom <= 0.0:
            return 0.0
        return self[event] / denom


class CounterEngine:
    """Accumulates event counts for every logical CPU of a server."""

    def __init__(
        self,
        config: HWConfig,
        n_lcpus: int,
        rng: np.random.Generator,
        values: np.ndarray | None = None,
    ):
        self.config = config
        self.n_lcpus = n_lcpus
        self.rng = rng
        codes = [e.code for e in ALL_EVENTS]
        self._codes = codes
        # dense [n_lcpus x n_events] array: snapshotting must be cheap, the
        # Holmes monitor reads counters every 50 us of simulated time.
        # ``values`` lets a cluster-wide pool back this engine with one of
        # its (n_lcpus, n_events) row views, so batched cross-node reads
        # see accruals without copying (repro.cluster.dataplane).
        self._idx = {code: i for i, code in enumerate(codes)}
        if values is None:
            values = np.zeros((n_lcpus, len(codes)), dtype=np.float64)
        elif values.shape != (n_lcpus, len(codes)):
            raise ValueError(
                f"external counter storage must have shape "
                f"{(n_lcpus, len(codes))}, got {values.shape}"
            )
        elif values.dtype != np.float64 or not values.flags.c_contiguous:
            raise ValueError(
                "external counter storage must be a C-contiguous float64 array"
            )
        self._values = values
        # every quantum accrues through a flat view of the same memory: a
        # Python-float add into a memoryview is bit-identical to numpy's
        # scalar +=, at under half the cost.  For each lcpu, the flat
        # indices of the accrued columns, in account_mem()'s write order.
        self._flat = memoryview(values).cast("B").cast("d")
        cols = [
            self._idx[e.code]
            for e in (
                INSTR_LOAD,
                INSTR_STORE,
                INSTR_ANY,
                STALLS_MEM_ANY,
                CYCLES_MEM_ANY,
                STALLS_L3_MISS,
                CYCLES_L3_MISS,
            )
        ]
        width = len(codes)
        self._accrue_at = [
            tuple(lcpu * width + col for col in cols) for lcpu in range(n_lcpus)
        ]
        # time-correlated noise: a flat list of plain floats holding the
        # current factor and its expiry for each (lcpu, noisy event), at
        # 8 * lcpu + 2 * which and the slot after it
        self._noise = [1.0, 0.0] * (4 * n_lcpus)
        self._noise_sigma = (
            config.stalls_mem_any_noise,
            config.cycles_mem_any_noise,
            config.stalls_l3_miss_noise,
            config.cycles_l3_miss_noise,
        )
        # the model constants every quantum reads, resolved once
        self._noise_us = config.noise_correlation_us
        self._stores_per_line = config.stores_per_line
        self._overhead_instr = config.overhead_instr_per_line
        self._line_cycles = config.dram_line_latency_cycles
        self._base_stall = config.base_stall_fraction
        self._stall_beta = config.contention_stall_beta
        self._hit_stall = config.hit_stall_cycles
        self._cma_overlap = config.cycles_mem_any_overlap
        self._cma_per_line = config.cycles_mem_any_per_line
        self._sl3_scale = config.stalls_l3_miss_scale
        self._cl3_per_miss = config.cycles_l3_miss_per_miss
        self._cl3_exp = config.cycles_l3_miss_contention_exp
        self._ipc = config.compute_ipc
        self._load_frac = config.compute_load_frac
        self._store_frac = config.compute_store_frac
        self._stall_frac = config.compute_stall_frac

    def _slow_noise(self, lcpu: int, which: int, now: float) -> float:
        """Multiplicative jitter, redrawn every noise_correlation_us.

        account_mem() reads an unexpired factor inline and calls this only
        once it has expired, so the RNG draws keep their order.
        """
        sigma = self._noise_sigma[which]
        if sigma <= 0.0:
            return 1.0
        noise = self._noise
        i = 8 * lcpu + 2 * which
        if now >= noise[i + 1]:
            noise[i] = max(0.05, float(self.rng.normal(1.0, sigma)))
            noise[i + 1] = now + self._noise_us
        return noise[i]

    # -- accrual -------------------------------------------------------------

    def account_mem(
        self,
        lcpu: int,
        lines: float,
        dram_frac: float,
        latency_mult: float,
        store_frac: float | None = None,
        now: float = 0.0,
    ) -> None:
        """Charge counters for ``lines`` memory accesses on ``lcpu``.

        ``latency_mult`` is the effective per-line latency multiplier that
        the contention model applied to this burst (1.0 = uncontended);
        ``now`` drives the slow (time-correlated) jitter.
        """
        if store_frac is None:
            store_frac = self._stores_per_line
        misses = lines * dram_frac
        hits = lines - misses

        loads = lines
        stores = lines * store_frac
        instructions = lines * (1.0 + store_frac + self._overhead_instr)

        # Added (contention) latency converts into stall at beta >= 1:
        # replayed loads and retried fills stall the pipeline more than the
        # end-to-end latency increase alone suggests.
        stall_per_miss = self._line_cycles * (
            self._base_stall + self._stall_beta * (latency_mult - 1.0)
        )
        # the slow noise factors, (factor, expiry) pairs at 8 * lcpu for
        # SMA, CMA, SL3 and CL3: read inline while current, redrawn in this
        # order once expired
        noise = self._noise
        i = 8 * lcpu
        sma = noise[i] if now < noise[i + 1] else self._slow_noise(lcpu, 0, now)
        cma = noise[i + 2] if now < noise[i + 3] else self._slow_noise(lcpu, 1, now)
        sl3 = noise[i + 4] if now < noise[i + 5] else self._slow_noise(lcpu, 2, now)
        cl3 = noise[i + 6] if now < noise[i + 7] else self._slow_noise(lcpu, 3, now)

        stalls_mem = misses * stall_per_miss + hits * self._hit_stall
        stalls_mem *= sma

        cycles_mem = (
            stalls_mem * (1.0 + self._cma_overlap) + lines * self._cma_per_line
        )
        cycles_mem *= cma

        stalls_l3 = misses * stall_per_miss * self._sl3_scale * sl3

        # The 0x02A3 quirk: per-miss attribution shrinks under contention.
        cycles_l3 = (
            misses * self._cl3_per_miss * latency_mult**self._cl3_exp * cl3
        )

        v = self._flat
        i_load, i_store, i_any, i_sma, i_cma, i_sl3, i_cl3 = self._accrue_at[lcpu]
        v[i_load] += loads
        v[i_store] += stores
        v[i_any] += instructions
        v[i_sma] += stalls_mem
        v[i_cma] += cycles_mem
        v[i_sl3] += stalls_l3
        v[i_cl3] += cycles_l3

    def account_compute(self, lcpu: int, cycles: float) -> None:
        """Charge counters for a compute burst of ``cycles`` on ``lcpu``."""
        instructions = cycles * self._ipc
        loads = instructions * self._load_frac
        stores = instructions * self._store_frac
        stalls = cycles * self._stall_frac

        v = self._flat
        i_load, i_store, i_any, i_sma, i_cma, i_sl3, i_cl3 = self._accrue_at[lcpu]
        v[i_load] += loads
        v[i_store] += stores
        v[i_any] += instructions
        v[i_sma] += stalls
        v[i_cma] += stalls * 1.3
        v[i_sl3] += stalls * 0.2
        v[i_cl3] += stalls * 0.1

    # -- reading ----------------------------------------------------------------

    def read(self, lcpu: int, event: HPE | int) -> float:
        """Cumulative value of one event on one logical CPU."""
        code = event.code if isinstance(event, HPE) else event
        return float(self._values[lcpu, self._idx[code]])

    def snapshot(self, lcpu: int) -> CounterSnapshot:
        """Cumulative values of all events on one logical CPU."""
        row = self._values[lcpu]
        return CounterSnapshot({code: float(row[i]) for code, i in self._idx.items()})

    def snapshot_all(self) -> np.ndarray:
        """Raw [n_lcpus x n_events] copy for vectorised monitor reads."""
        return self._values.copy()

    def take_columns(self, cols: np.ndarray) -> np.ndarray:
        """[n_lcpus x len(cols)] copy of selected event columns.

        Monitor-style consumers read the same three or four events every
        50 us; copying only those columns avoids the full-matrix copy of
        :meth:`snapshot_all` on the hot path.
        """
        return self._values.take(cols, axis=1)

    def column(self, event: HPE | int) -> np.ndarray:
        """Cumulative values of one event across all logical CPUs."""
        code = event.code if isinstance(event, HPE) else event
        return self._values[:, self._idx[code]].copy()

    @property
    def event_index(self) -> dict[int, int]:
        return dict(self._idx)

