"""Calibrated micro-probes: per-workload contention profiles.

SMTcheck's profiling stage characterises each workload against each
shared resource before any co-location decision is made; this is its
simulated counterpart.  Every workload in the seed matrix is reduced to
a :class:`ProbeTarget` — the per-iteration resource geometry of its
inner kernel (cache lines touched, DRAM-miss fraction, compute cycles)
— and probed on a dedicated two-core SMT system:

* **solo** — the target loop alone on one hyperthread: the calibrated
  per-iteration baseline every slowdown is normalised against;
* **sensitivity** — the target against reference antagonists on the
  sibling hyperthread: a DRAM-bound prober (swept over duty levels, so
  the profile carries a pressure *curve*, not one point) and a
  floating-point spinner;
* **pressure** — reference victims on the target's sibling: how much
  the target itself degrades a DRAM-bound and a compute-bound victim.

Everything is a deterministic simulation: same seed, same profile,
byte for byte — which is what lets profiles be golden-tested and cached
as runner cells.  Pair ground truth for the compatibility model comes
from ``"pair"`` probes: two targets co-run on the two hyperthreads of
one core and the mean excess slowdown over their solo baselines is the
label the model fits.  Each run is one :class:`Probe`, and
:func:`run_probe` runs it on a fresh system and returns its mean(s).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Optional

from repro.hw import HWConfig
from repro.hw.ops import CompOp, MemOp
from repro.oskernel import System

#: reference DRAM-bound antagonist/victim op: one 600-line all-miss
#: request (~51 us alone), the cluster LC request shape.
REF_MEM_LINES = 600
#: reference compute antagonist/victim op (~50 us alone at 2.4 GHz).
REF_COMP_CYCLES = 120_000.0

#: antagonist duty levels swept for the sensitivity curve (fraction of
#: sibling time the antagonist keeps the shared resources busy).
PRESSURE_DUTIES = (0.5, 1.0)

#: iterations of the target kernel each probe run aims to observe.
PROBE_ITERATIONS = 24
#: floor on a probe run's horizon so even sub-microsecond kernels
#: collect a meaningful sample.
MIN_PROBE_HORIZON_US = 1_200.0


@dataclass(frozen=True)
class ProbeTarget:
    """Per-iteration resource geometry of one workload's inner kernel."""

    name: str
    #: cache lines touched per iteration.
    mem_lines: int
    #: DRAM-miss fraction of those touches.
    dram_frac: float
    #: compute cycles per iteration.
    comp_cycles: float

    def __post_init__(self):
        if self.mem_lines < 0 or self.comp_cycles < 0:
            raise ValueError("probe target work must be non-negative")
        if self.mem_lines == 0 and self.comp_cycles == 0:
            raise ValueError(f"probe target {self.name!r} does no work")
        if not 0.0 <= self.dram_frac <= 1.0:
            raise ValueError("dram_frac must be in [0, 1]")

    @classmethod
    def from_batch_spec(cls, spec) -> "ProbeTarget":
        """One iteration of a :class:`~repro.workloads.batch.BatchJobSpec`."""
        return cls(
            name=spec.name,
            mem_lines=spec.mem_lines,
            dram_frac=spec.mem_dram_frac,
            comp_cycles=spec.comp_cycles,
        )

    def est_iteration_us(self) -> float:
        """Uncontended per-iteration estimate (probe-horizon sizing only)."""
        mem = self.mem_lines * (
            self.dram_frac * 0.0854 + (1.0 - self.dram_frac) * 0.0012
        )
        return mem + self.comp_cycles / 2400.0

    def body(self, thread, recorder: list, until_us: float):
        """Run the kernel until ``until_us``, appending iteration times."""
        env = thread.env
        mem = MemOp(lines=self.mem_lines, dram_frac=self.dram_frac) \
            if self.mem_lines else None
        comp = CompOp(cycles=self.comp_cycles) if self.comp_cycles else None
        while env.now < until_us:
            t0 = env.now
            if mem is not None:
                yield from thread.exec(mem)
            if comp is not None:
                yield from thread.exec(comp)
            recorder.append(env.now - t0)


def seed_matrix() -> tuple[ProbeTarget, ...]:
    """The seed workload matrix: batch families, churn, LC, KV kernels.

    Everything the cluster sweep and the co-location experiments place on
    SMT siblings, reduced to probe targets.  New workloads onboard here:
    one :class:`ProbeTarget` (or a profile measured elsewhere) is all the
    predictor needs — no threshold re-tuning.
    """
    from repro.cluster.churn import CHURN_BASE_JOB, ChurnConfig
    from repro.workloads.batch import DEFAULT_JOB_MIX
    from repro.workloads.kv import SERVICE_CLASSES

    targets = [ProbeTarget.from_batch_spec(s) for s in DEFAULT_JOB_MIX]
    targets.append(ProbeTarget.from_batch_spec(CHURN_BASE_JOB))
    lc = ChurnConfig()
    targets.append(ProbeTarget(
        name="lc", mem_lines=lc.lc_request_lines, dram_frac=1.0,
        comp_cycles=0.0,
    ))
    for name in sorted(SERVICE_CLASSES):
        costs = SERVICE_CLASSES[name].default_costs
        targets.append(ProbeTarget(
            name=name,
            mem_lines=costs.read_lines,
            dram_frac=costs.read_dram_frac,
            comp_cycles=costs.read_cycles,
        ))
    return tuple(targets)


@dataclass(frozen=True)
class WorkloadProfile:
    """One workload's measured contention profile.

    ``sens_*`` fields are *excess* slowdowns (ratio - 1, >= 0) of the
    workload when the reference antagonist saturates its SMT sibling;
    ``pressure_*`` fields are the excess slowdowns the workload inflicts
    on the reference victims.  ``sens_mem_curve`` holds the swept
    (duty, excess) points behind ``sens_mem``'s full-duty endpoint.
    """

    name: str
    solo_us: float
    sens_mem: float
    sens_cpu: float
    pressure_mem: float
    pressure_cpu: float
    sens_mem_curve: tuple[tuple[float, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "solo_us": float(self.solo_us),
            "sens_mem": float(self.sens_mem),
            "sens_cpu": float(self.sens_cpu),
            "pressure_mem": float(self.pressure_mem),
            "pressure_cpu": float(self.pressure_cpu),
            "sens_mem_curve": [
                [float(d), float(x)] for d, x in self.sens_mem_curve
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadProfile":
        return cls(
            name=d["name"],
            solo_us=float(d["solo_us"]),
            sens_mem=float(d["sens_mem"]),
            sens_cpu=float(d["sens_cpu"]),
            pressure_mem=float(d["pressure_mem"]),
            pressure_cpu=float(d["pressure_cpu"]),
            sens_mem_curve=tuple(
                (float(d_), float(x)) for d_, x in d.get("sens_mem_curve", ())
            ),
        )


# -- the probe rig -----------------------------------------------------------


def _probe_system(seed: int) -> System:
    """A dedicated two-core SMT machine: lcpu 0 and its sibling lcpu 2."""
    return System(config=HWConfig(sockets=1, cores_per_socket=2, seed=seed))


def _antagonist_body(thread, op, duty: float, until_us: float):
    """Keep the sibling's shared resources busy for ``duty`` of the time."""
    env = thread.env
    idle_over_busy = (1.0 - duty) / duty
    while env.now < until_us:
        t0 = env.now
        yield from thread.exec(op)
        if idle_over_busy > 0.0:
            yield from thread.sleep((env.now - t0) * idle_over_busy)


def _horizon_us(target: ProbeTarget, iterations: int) -> float:
    return max(MIN_PROBE_HORIZON_US, iterations * target.est_iteration_us())


def _mean(samples: list) -> float:
    # drop the warm-up iteration: the first sample can straddle thread
    # start-up scheduling and skews short probes.
    body = samples[1:] if len(samples) > 1 else samples
    return sum(body) / len(body)


#: reference victims, as probe targets so the same rig measures them.
MEM_VICTIM = ProbeTarget("ref-mem", REF_MEM_LINES, 1.0, 0.0)
CPU_VICTIM = ProbeTarget("ref-cpu", 0, 0.0, REF_COMP_CYCLES)


@dataclass(frozen=True)
class Probe:
    """One probe simulation: ``target`` on lcpu 0 and, by ``kind``, on
    its SMT sibling:

    * ``"solo"`` -- nothing;
    * ``"mem"`` / ``"cpu"`` -- the reference DRAM-bound / compute
      antagonist, busy for ``duty`` of the time;
    * ``"victim"`` -- ``other``'s full kernel looping against the
      reference victim ``target``;
    * ``"pair"`` -- ``other``'s kernel, measured like ``target``'s.

    Every probe builds its own two-core system from ``seed`` and shares
    nothing with any other, so a plan of probes gives the same means in
    any order and in any process.
    """

    kind: str
    target: ProbeTarget
    seed: int
    iterations: int
    other: Optional[ProbeTarget] = None
    duty: float = 1.0

    def horizon_us(self) -> float:
        """Simulated length of the run (also its cost estimate)."""
        horizon = _horizon_us(self.target, self.iterations)
        if self.kind == "victim":
            # the aggressor only has to loop, not be sampled
            return max(horizon, _horizon_us(self.other, 2))
        if self.kind == "pair":
            return max(horizon, _horizon_us(self.other, self.iterations))
        return horizon


def run_probe(probe: Probe):
    """Mean per-iteration latency of ``probe.target``; for a pair, the
    means of both sides."""
    target, other = probe.target, probe.other
    with closing(_probe_system(probe.seed)) as system:
        until = probe.horizon_us()
        samples: list = []
        other_samples: list = []
        proc = system.spawn_process(f"{probe.kind}-{target.name}")
        proc.spawn_thread(
            lambda th: target.body(th, samples, until),
            affinity={0},
            name="target",
        )
        sib = {system.server.topology.sibling(0)}
        if probe.kind in ("mem", "cpu"):
            op = (
                MemOp(lines=REF_MEM_LINES, dram_frac=1.0)
                if probe.kind == "mem"
                else CompOp(cycles=REF_COMP_CYCLES)
            )
            proc.spawn_thread(
                lambda th: _antagonist_body(th, op, probe.duty, until),
                affinity=sib,
                name="antagonist",
            )
        elif other is not None:
            proc.spawn_thread(
                lambda th: other.body(th, other_samples, until),
                affinity=sib,
                name=other.name,
            )
        system.run(until=until + 10.0)
        if not samples or (probe.kind == "pair" and not other_samples):
            raise RuntimeError(
                f"probe horizon too short: no iteration of {probe} "
                f"completed in {until} us"
            )
        if probe.kind == "pair":
            return _mean(samples), _mean(other_samples)
        return _mean(samples)
