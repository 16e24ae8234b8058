"""Best-effort batch jobs (the HiBench / Spark analogues).

A batch job is a container-sized unit of work: several tasks (threads)
iterating over phases that mix memory-intensive shuffles with
compute-intensive math, matching the profile of Spark KMeans and friends
from HiBench (the paper's batch workloads, Section 6.1).  Jobs are sized
in *work units* so their wall time stretches when Holmes deallocates
their CPUs -- progress is preserved, completion is delayed, exactly the
paper's intended behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hw.ops import CompOp, MemOp
from repro.oskernel import SimThread


@dataclass(frozen=True)
class BatchJobSpec:
    """Shape of one batch-job family."""

    name: str
    #: iterations of the phase loop per task.
    iterations: int
    #: memory-intensive phase: lines touched per iteration (DRAM-heavy).
    mem_lines: int
    mem_dram_frac: float
    #: compute phase: cycles per iteration.
    comp_cycles: float

    def task_body(self, thread: SimThread, rng: np.random.Generator):
        """Generator body for one task thread of this job."""
        for _ in range(self.iterations):
            # jitter phases +-20% so tasks don't run in lock-step
            mem_scale = float(rng.uniform(0.8, 1.2))
            comp_scale = float(rng.uniform(0.8, 1.2))
            yield from thread.exec(
                MemOp(
                    lines=max(1, int(self.mem_lines * mem_scale)),
                    dram_frac=self.mem_dram_frac,
                )
            )
            yield from thread.exec(CompOp(cycles=self.comp_cycles * comp_scale))

    def scaled(self, factor: float, name: Optional[str] = None) -> "BatchJobSpec":
        """A copy with ``factor`` times the work (heavy-tailed churn sizing).

        Scaling acts on the iteration count so per-iteration phase shape
        (memory/compute mix) is preserved; the factor is floored to one
        iteration so even the smallest sampled job does real work.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return BatchJobSpec(
            name=name or f"{self.name}x{factor:g}",
            iterations=max(1, round(self.iterations * factor)),
            mem_lines=self.mem_lines,
            mem_dram_frac=self.mem_dram_frac,
            comp_cycles=self.comp_cycles,
        )


#: Spark KMeans (the paper's Fig. 3 batch job): memory-heavy point sweeps
#: plus distance math.  ~1.7 s per task at the default experiment scale
#: (the paper's ~3 min jobs, scaled ~1:100 like the traffic).
KMEANS = BatchJobSpec(
    name="kmeans",
    iterations=550,
    mem_lines=8000,
    mem_dram_frac=0.85,
    comp_cycles=6_000_000,
)

#: Wordcount-like: streaming scans, moderate DRAM pressure, light math.
WORDCOUNT = BatchJobSpec(
    name="wordcount",
    iterations=850,
    mem_lines=9000,
    mem_dram_frac=0.7,
    comp_cycles=3_000_000,
)

#: Terasort-like: shuffle-dominated, the most memory-aggressive.
TERASORT = BatchJobSpec(
    name="terasort",
    iterations=850,
    mem_lines=12000,
    mem_dram_frac=0.95,
    comp_cycles=2_000_000,
)

#: PageRank-like: compute-leaning iterations over an in-cache graph slice.
PAGERANK = BatchJobSpec(
    name="pagerank",
    iterations=400,
    mem_lines=3000,
    mem_dram_frac=0.5,
    comp_cycles=10_000_000,
)

#: round-robin submission order used by the continuous job stream.
DEFAULT_JOB_MIX = (KMEANS, WORDCOUNT, TERASORT, PAGERANK)
