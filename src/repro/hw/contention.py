"""SMT sibling contention and memory-bandwidth models.

The central empirical facts being modelled (paper Section 2.2, Figure 2):

* memory access from hyperthread siblings inflates latency ~1,400 us ->
  ~2,300 us per 1 MB block (x ~1.64),
* a compute-bound sibling inflates memory latency much less,
* memory controller / bandwidth congestion is *not* a bottleneck at 32
  concurrently streaming threads -- the bandwidth term only engages beyond
  a knee far above the machine's thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.config import HWConfig


@dataclass
class CpuKind:
    """What a logical CPU is currently doing, as seen by its sibling.

    ``mem`` and ``comp`` are pressures in [0, 1] exerted on the shared
    execution units and miss queue.  An idle CPU is ``CpuKind(0, 0)``.
    """

    mem: float = 0.0
    comp: float = 0.0

    @property
    def idle(self) -> bool:
        return self.mem == 0.0 and self.comp == 0.0


IDLE = CpuKind(0.0, 0.0)


class ContentionModel:
    """Latency multipliers from sibling activity and aggregate bandwidth."""

    def __init__(self, config: HWConfig):
        self.config = config
        # the constants every quantum reads, resolved once
        self._mem_on_mem = config.smt_mem_on_mem
        self._comp_on_mem = config.smt_comp_on_mem
        self._comp_on_comp = config.smt_comp_on_comp
        self._mem_on_comp = config.smt_mem_on_comp
        self._knee = config.bandwidth_knee_streams
        self._slope = config.bandwidth_slope
        #: number of logical CPUs currently streaming DRAM, maintained by
        #: the server as ops start and stop.
        self.active_dram_streams = 0

    # -- sibling-induced latency multipliers --------------------------------

    def mem_latency_multiplier(self, sibling: CpuKind) -> float:
        """Multiplier on DRAM line latency given the sibling's activity."""
        return 1.0 + self._mem_on_mem * sibling.mem + self._comp_on_mem * sibling.comp

    def comp_latency_multiplier(self, sibling: CpuKind) -> float:
        """Multiplier on compute-burst duration given sibling activity."""
        return (
            1.0 + self._comp_on_comp * sibling.comp + self._mem_on_comp * sibling.mem
        )

    # -- aggregate bandwidth --------------------------------------------------

    def bandwidth_multiplier(self) -> float:
        """Latency multiplier from aggregate DRAM bandwidth saturation.

        Flat (1.0) until ``bandwidth_knee_streams`` logical CPUs stream
        concurrently; the knee is deliberately above the machine's 64
        hardware threads' realistic concurrency so Fig. 2 cases 4/5 show no
        bandwidth effect, matching the paper's finding.
        """
        excess = self.active_dram_streams - self._knee
        if excess <= 0:
            return 1.0
        return 1.0 + self._slope * excess

    def stream_started(self) -> None:
        self.active_dram_streams += 1

    def stream_stopped(self) -> None:
        if self.active_dram_streams <= 0:
            raise RuntimeError("stream_stopped() without matching stream_started()")
        self.active_dram_streams -= 1
