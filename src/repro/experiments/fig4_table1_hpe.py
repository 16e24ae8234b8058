"""Table 1 + Figure 4: finding the metric (candidate HPE selection).

The Section 3.1 methodology: a measurement program sends fixed-size
memory requests at a configurable rate.

* One-thread sweep (Fig. 4a): RPS 5,000 .. ~74,000 -- latency and every
  VPI stay flat (no self-interference).
* Two-thread sweep (Figs. 4b/4c): one thread pinned at its maximum rate,
  its hyperthread sibling sweeping 5,000 .. ~45,000 RPS.  The max-rate
  thread's achievable RPS falls and its latency rises with sibling load.
* Table 1: Pearson correlation between the max-rate thread's memory
  latency and each candidate event's VPI across the two-thread sweep.
  The paper finds STALLS_MEM_ANY (0x14A3) at 0.9999, CYCLES_MEM_ANY
  0.9997, STALLS_L3_MISS 0.9992, and CYCLES_L3_MISS weakly negative.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import pearson
from repro.hw import HWConfig, CANDIDATE_EVENTS
from repro.hw.events import HPE, INSTR_LOAD, INSTR_STORE, STALLS_MEM_ANY
from repro.oskernel import System
from repro.perf import CounterGroup
from repro.workloads import MemoryProber

#: beyond any achievable service rate: the prober saturates.
MAX_RATE = 250_000.0


@dataclass
class SweepPoint:
    """One sweep setting: latency plus per-event VPI of the measured thread."""

    rps_setting: float
    achieved_rps: float
    latency_us: float
    vpi: dict[int, float] = field(default_factory=dict)  # event code -> VPI


@dataclass
class HPESelectionResult:
    one_thread: list[SweepPoint]
    max_thread: list[SweepPoint]  # Fig 4(b): the saturated thread
    var_thread: list[SweepPoint]  # Fig 4(c): the swept sibling
    correlations: dict[int, float]  # Table 1's Corr column

    @property
    def selected_event(self) -> HPE:
        best = max(self.correlations, key=lambda c: self.correlations[c])
        from repro.hw.events import by_code

        return by_code(best)


def _measure(system: System, prober: MemoryProber, lcpu: int,
             duration_us: float) -> SweepPoint:
    group = CounterGroup(
        system.server, list(CANDIDATE_EVENTS) + [INSTR_LOAD, INSTR_STORE]
    )
    prober.start(duration_us)
    system.run(until=system.env.now + duration_us + 5_000.0)
    deltas = group.sample()[lcpu]
    ldst = deltas[-2] + deltas[-1]
    vpi = {
        ev.code: (deltas[i] / ldst if ldst > 0 else 0.0)
        for i, ev in enumerate(CANDIDATE_EVENTS)
    }
    return SweepPoint(
        rps_setting=prober.rps,
        achieved_rps=prober.achieved_rps(),
        latency_us=prober.mean_latency(),
        vpi=vpi,
    )


def run_hpe_selection(
    duration_us: float = 60_000.0,
    rps_step: float = 5_000.0,
    seed: int = 42,
) -> HPESelectionResult:
    """Run both sweeps and compute the Table 1 correlations."""
    one_thread: list[SweepPoint] = []
    max_thread: list[SweepPoint] = []
    var_thread: list[SweepPoint] = []

    # -- one-thread sweep: 5k .. 75k ------------------------------------
    # (fresh machine and noise seed per point: sweep points are separate
    #  measurement runs in the paper's methodology)
    for i, rps in enumerate(np.arange(rps_step, 75_001.0, rps_step)):
        with closing(System(config=HWConfig(sockets=1, cores_per_socket=8,
                                            seed=seed + i))) as system:
            prober = MemoryProber(system, lcpu=0, rps=float(rps))
            one_thread.append(_measure(system, prober, 0, duration_us))

    # -- two-thread sweep: max-rate thread vs swept sibling ----------------
    for i, rps in enumerate(np.arange(rps_step, 45_001.0, rps_step)):
        with closing(System(config=HWConfig(sockets=1, cores_per_socket=8,
                                            seed=seed + 100 + i))) as system:
            sib = system.server.topology.sibling(0)
            group = CounterGroup(
                system.server,
                list(CANDIDATE_EVENTS) + [INSTR_LOAD, INSTR_STORE],
            )
            pmax = MemoryProber(system, lcpu=0, rps=MAX_RATE, name="max")
            pvar = MemoryProber(system, lcpu=sib, rps=float(rps), name="var")
            pmax.start(duration_us)
            pvar.start(duration_us)
            system.run(until=duration_us + 5_000.0)
            deltas = group.sample()
            for lcpu, prober, bucket in ((0, pmax, max_thread),
                                         (sib, pvar, var_thread)):
                row = deltas[lcpu]
                ldst = row[-2] + row[-1]
                bucket.append(SweepPoint(
                    rps_setting=float(rps),
                    achieved_rps=prober.achieved_rps(),
                    latency_us=prober.mean_latency(),
                    vpi={
                        ev.code: (row[i] / ldst if ldst > 0 else 0.0)
                        for i, ev in enumerate(CANDIDATE_EVENTS)
                    },
                ))

    # -- Table 1 correlations over the contended (max-rate) series -----------
    latency = [p.latency_us for p in max_thread]
    correlations = {
        ev.code: pearson(latency, [p.vpi[ev.code] for p in max_thread])
        for ev in CANDIDATE_EVENTS
    }
    return HPESelectionResult(one_thread, max_thread, var_thread, correlations)
