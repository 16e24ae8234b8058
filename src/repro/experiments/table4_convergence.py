"""Table 4: convergence speed on resource allocation.

Protocol (the dynamic every controller must handle): a batch container is
running legitimately and -- because the latency-critical service is idle --
has been given the LC sibling CPU.  At ``onset`` the service starts
serving; SMT interference appears on its core that instant.  Convergence
is the time from onset until the controller has pulled batch work off the
sibling.

Paper numbers: Heracles ~30 s, Parties 10-20 s, Caladan ~20 us,
Holmes 50-100 us.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Optional

from repro.baselines import CaladanLike, HeraclesLike, PartiesLike
from repro.core import Holmes, HolmesConfig
from repro.hw import CompOp, HWConfig, MemOp
from repro.oskernel import System
from repro.workloads.batch import BatchJobSpec
from repro.yarnlike import NodeManager

APPROACHES = ("holmes", "caladan", "parties", "heracles")

#: a batch task that hammers memory indefinitely.
MEM_HOG = BatchJobSpec(
    name="memhog", iterations=10_000_000, mem_lines=8000,
    mem_dram_frac=0.9, comp_cycles=50_000,
)


@dataclass
class ConvergenceResult:
    approach: str
    onset_us: float
    converged_us: Optional[float]
    #: sanity: was batch actually on the sibling just before onset?
    sibling_occupied_at_onset: bool = False

    @property
    def convergence_us(self) -> Optional[float]:
        if self.converged_us is None:
            return None
        return self.converged_us - self.onset_us


def _lc_body(thread, onset_us: float, until_us: float):
    """Idle until onset, then serve memory-bound queries continuously."""
    env = thread.env
    if env.now < onset_us:
        yield from thread.sleep(onset_us - env.now)
    while env.now < until_us:
        yield from thread.exec(MemOp(lines=1200, dram_frac=0.15))
        yield from thread.exec(CompOp(cycles=8_000))


def measure_convergence(
    approach: str,
    onset_us: float = 10_005.0,
    heracles_epoch_us: float = 15_000_000.0,
    parties_step_us: float = 5_000_000.0,
    seed: int = 42,
) -> ConvergenceResult:
    """Run the step-stimulus experiment for one approach."""
    if approach not in APPROACHES:
        raise ValueError(f"approach must be one of {APPROACHES}")
    with closing(System(config=HWConfig(sockets=1, cores_per_socket=8,
                                        seed=seed))) as system:
        topo = system.server.topology
        lc = [0, 1, 2, 3]
        sibling = topo.sibling(0)

        # horizon: long enough for the slowest controller to converge
        if approach == "heracles":
            horizon = onset_us + 3 * heracles_epoch_us
        elif approach == "parties":
            horizon = onset_us + 4 * parties_step_us
        else:
            horizon = onset_us + 100_000.0

        svc = system.spawn_process("lc")
        svc.spawn_thread(lambda th: _lc_body(th, onset_us, horizon),
                         affinity={0}, name="lc/worker")

        holmes: Optional[Holmes] = None
        controller = None
        if approach == "holmes":
            # faster serving detection for the step stimulus (the defaults are
            # tuned for bursty production traffic, not a step response)
            cfg = HolmesConfig(n_reserved=4, usage_ema_tau_us=500.0,
                               serving_on_usage=0.05, serving_off_usage=0.02)
            holmes = Holmes(system, cfg)
            holmes.register_lc_service(svc.pid)
            holmes.start()
        elif approach == "caladan":
            controller = CaladanLike(system, lc_cpus=lc)
            controller.start()
        elif approach == "heracles":
            controller = HeraclesLike(system, lc_cpus=lc,
                                      epoch_us=heracles_epoch_us)
            controller.start()
        elif approach == "parties":
            controller = PartiesLike(system, lc_cpus=lc, step_us=parties_step_us)
            controller.start()

        nm = NodeManager(system, seed=seed + 1)
        if approach == "holmes":
            # launched the paper's way: Holmes places it, and loans it the
            # siblings while the service idles.  Enough tasks that the loaned
            # sibling CPUs actually host work at onset.
            job = nm.launch_job(MEM_HOG, tasks_per_container=12)
        else:
            # the baselines' batch pool includes the sibling from the start
            job = nm.launch_job(MEM_HOG, tasks_per_container=1, cpuset={sibling})

        occupied = []

        def checker(env):
            yield env.timeout(onset_us - 5.0)
            occupied.append(system.lcpu_queue_depth(sibling) > 0)

        system.env.process(checker(system.env))
        system.run(until=horizon)

        if approach == "holmes":
            dealloc = [
                e for e in holmes.scheduler.events
                if e.action == "dealloc_sibling" and e.time >= onset_us
            ]
            converged = dealloc[0].time if dealloc else None
        else:
            converged = controller.converged_at
        return ConvergenceResult(
            approach=approach,
            onset_us=onset_us,
            converged_us=converged,
            sibling_occupied_at_onset=bool(occupied and occupied[0]),
        )


def run_table4(
    heracles_epoch_us: float = 15_000_000.0,
    parties_step_us: float = 5_000_000.0,
    seed: int = 42,
) -> dict[str, ConvergenceResult]:
    return {
        approach: measure_convergence(
            approach,
            heracles_epoch_us=heracles_epoch_us,
            parties_step_us=parties_step_us,
            seed=seed,
        )
        for approach in APPROACHES
    }
