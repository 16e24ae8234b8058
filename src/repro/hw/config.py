"""Hardware calibration constants.

All constants are chosen so the simulator reproduces the paper's measured
facts (see DESIGN.md §5):

* random access to a 1 MB block (16,384 cache lines) takes ~1,400 us when the
  sibling hyperthread is idle (Fig. 2 cases 1/2/4),
* ~2,300 us when the sibling streams memory (Fig. 2 cases 3/5): x1.64,
* mildly inflated when the sibling is compute-bound (Fig. 2 case 6),
* no memory-bandwidth bottleneck at 32 concurrent threads (Fig. 2 case 5
  matches case 3).
"""

from __future__ import annotations

from dataclasses import dataclass



@dataclass
class HWConfig:
    """Tunable constants of the simulated server."""

    # -- topology (2x Xeon Gold 6143-like; Section 6.1) -------------------
    sockets: int = 2
    cores_per_socket: int = 16
    threads_per_core: int = 2

    # -- clock -------------------------------------------------------------
    freq_cycles_per_us: float = 2400.0  # 2.4 GHz

    # -- DRAM access -------------------------------------------------------
    cache_line_bytes: int = 64
    #: per-line latency of a dependent random DRAM access, sibling idle.
    #: 1 MB / 64 B = 16,384 lines; 16,384 * 0.0854 us = ~1,400 us per MB.
    dram_line_latency_us: float = 0.0854
    #: latency of a cache-hit access (L1/L2), in microseconds.
    cache_hit_latency_us: float = 0.0012

    # -- SMT sibling contention (latency multipliers) -----------------------
    #: extra latency per unit of sibling *memory* pressure: 1 + 0.64 -> x1.64
    smt_mem_on_mem: float = 0.64
    #: extra latency on memory access per unit of sibling *compute* pressure
    smt_comp_on_mem: float = 0.12
    #: extra latency on compute per unit of sibling compute pressure
    smt_comp_on_comp: float = 0.35
    #: extra latency on compute per unit of sibling memory pressure
    smt_mem_on_comp: float = 0.18

    # -- memory bandwidth (kept far from the operating range: the paper
    #    finds bandwidth is NOT the bottleneck on this class of machine) ----
    #: number of concurrently streaming logical CPUs before aggregate
    #: bandwidth starts to saturate.  32 active threads stay below the knee.
    bandwidth_knee_streams: int = 48
    #: latency growth per stream beyond the knee.
    bandwidth_slope: float = 0.03

    # -- counter model -------------------------------------------------------
    #: fraction of an uncontended DRAM line latency spent stalled.
    base_stall_fraction: float = 0.85
    #: amplification of *added* (contention) latency that shows up as stall.
    #: > 1 because contended loads are replayed/retried and the A3-family
    #: events tally stall slots per issue port, so the count can exceed the
    #: end-to-end latency increase.  3.0 also spreads the contended VPI over
    #: a range (mild batch pressure ~x2 baseline, heavy ~x3), which is what
    #: makes the paper's E sweep (Fig. 14, 40..80) graded rather than a cliff.
    contention_stall_beta: float = 3.0
    #: stall cycles charged per cache-hit access.
    hit_stall_cycles: float = 4.0
    #: stores issued per line accessed (YCSB-like read/update mixes).
    stores_per_line: float = 0.3
    #: non-load/store instructions retired per line (loop + address math).
    overhead_instr_per_line: float = 2.0

    # CYCLES_MEM_ANY = stalls * (1 + overlap) + per-line occupancy constant
    cycles_mem_any_overlap: float = 0.18
    cycles_mem_any_per_line: float = 6.0

    # STALLS_L3_MISS: DRAM-bound subset of stalls, with prefetcher jitter.
    stalls_l3_miss_scale: float = 0.97
    stalls_l3_miss_noise: float = 0.015

    # CYCLES_L3_MISS (0x02A3): modelled with the shared-miss-queue
    # attribution quirk -- per-miss value *declines* slightly as sibling
    # contention rises, plus comparatively large jitter, reproducing the
    # paper's weak negative correlation (Table 1: -0.1748).
    cycles_l3_miss_per_miss: float = 150.0
    cycles_l3_miss_contention_exp: float = -0.06
    cycles_l3_miss_noise: float = 0.25

    # relative jitter applied to STALLS_MEM_ANY / CYCLES_MEM_ANY accruals
    stalls_mem_any_noise: float = 0.004
    cycles_mem_any_noise: float = 0.008

    #: the per-event jitter above is *time-correlated* (prefetcher phase,
    #: page-table walk mix, thermal state drift at real-hardware scale):
    #: a fresh multiplicative factor is drawn per logical CPU per event
    #: every ``noise_correlation_us``.  Slow noise is what separates the
    #: Table 1 correlations -- IID per-quantum jitter would average out
    #: over a measurement window and leave every correlation at exactly 1.
    noise_correlation_us: float = 8_000.0

    # -- compute instruction mix ---------------------------------------------
    # Modelling convention: a workload's load/store stream (cache hits
    # included) is carried by its MemOps; CompOp bursts represent the
    # integer/FP-dominated regions between memory phases and retire few
    # memory instructions.  This keeps Equation 1's denominator anchored to
    # the memory work so per-window VPI is stable across window mixes.
    compute_ipc: float = 1.8
    compute_load_frac: float = 0.02  # loads per instruction
    compute_store_frac: float = 0.01
    compute_stall_frac: float = 0.02  # memory stalls per cycle of compute

    # -- disk (SSD) -----------------------------------------------------------
    disk_channels: int = 8
    disk_read_latency_us: float = 90.0
    disk_read_sigma: float = 0.25  # lognormal shape
    disk_write_latency_us: float = 30.0
    disk_bytes_per_us: float = 2000.0  # ~2 GB/s streaming component

    # -- memory ---------------------------------------------------------------
    #: installed DRAM (the paper's servers have 256 GB).
    memory_capacity_bytes: int = 256 * 1024**3

    # -- misc -----------------------------------------------------------------
    seed: int = 1

    @property
    def n_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def n_lcpus(self) -> int:
        return self.n_cores * self.threads_per_core

    @property
    def dram_line_latency_cycles(self) -> float:
        return self.dram_line_latency_us * self.freq_cycles_per_us
