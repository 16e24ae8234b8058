"""Figure 2: memory-access latency from different sources.

Six placements of m-threads (random 1 MB block reads) and c-threads
(floating-point spinners) over a 16-core/32-thread machine, reproducing
the paper's finding that HT sibling contention -- not memory controller
or bandwidth congestion -- is what degrades memory latency:

1. 1 m-thread on 1 core                      (baseline, ~1,400 us)
2. 2 m-threads on 2 separate cores           (~baseline)
3. 2 m-threads on the 2 hyperthreads of one core (~2,300 us)
4. 16 m-threads on 16 cores                  (~baseline: no bandwidth wall)
5. 32 m-threads on all 32 hyperthreads of 16 cores (~case 3: HT dominates)
6. 16 m-threads + 16 c-threads on their siblings  (mild inflation)
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.hw import HWConfig
from repro.oskernel import System
from repro.workloads import run_m_threads


@dataclass
class Fig2Case:
    label: str
    latencies: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.latencies.mean())

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        lat = np.sort(self.latencies)
        return lat, np.arange(1, lat.size + 1) / lat.size


def _system(seed: int) -> System:
    # the paper's machine: 16 cores per socket; one socket is enough for
    # the 16-core cases and keeps the run cheap.
    return System(config=HWConfig(sockets=1, cores_per_socket=16, seed=seed))


def run_fig2(duration_us: float = 60_000.0, seed: int = 42) -> list[Fig2Case]:
    """Run all six cases; returns per-case latency samples."""
    cases = []

    def collect(label, m_lcpus, c_lcpus=()):
        with closing(_system(seed)) as system:
            results = run_m_threads(
                system, m_lcpus=m_lcpus, c_lcpus=c_lcpus,
                duration_us=duration_us,
            )
            lats = np.concatenate([r.recorder.latencies() for r in results])
        cases.append(Fig2Case(label, lats))

    sib = lambda c: c + 16  # sibling mapping on the 16-core machine

    collect("1 thread on 1 core", [0])
    collect("2 threads on 2 cores", [0, 1])
    collect("2 threads on 2 lcpus of the same core", [0, sib(0)])
    collect("16 threads on 16 cores", list(range(16)))
    collect("32 threads on 32 lcpus of 16 cores", list(range(32)))
    collect(
        "16 m-threads + 16 c-threads on siblings",
        list(range(16)),
        [sib(c) for c in range(16)],
    )
    return cases
