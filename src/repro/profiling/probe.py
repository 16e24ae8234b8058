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
from :func:`measure_pair`: two targets co-run on the two hyperthreads
of one core and the mean excess slowdown over their solo baselines is
the label the model fits.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

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


def _run_target(
    target: ProbeTarget,
    seed: int,
    iterations: int,
    antagonist=None,
    duty: float = 1.0,
) -> float:
    """Mean per-iteration latency of ``target``, optionally contended."""
    with closing(_probe_system(seed)) as system:
        until = _horizon_us(target, iterations)
        samples: list = []
        proc = system.spawn_process(f"probe-{target.name}")
        proc.spawn_thread(
            lambda th: target.body(th, samples, until),
            affinity={0},
            name="target",
        )
        if antagonist is not None:
            sib = system.server.topology.sibling(0)
            proc.spawn_thread(
                lambda th: _antagonist_body(th, antagonist, duty, until),
                affinity={sib},
                name="antagonist",
            )
        system.run(until=until + 10.0)
        if not samples:
            raise RuntimeError(
                f"probe horizon too short for target {target.name!r}: "
                f"no iteration completed in {until} us"
            )
        return _mean(samples)


def _excess(contended_us: float, solo_us: float) -> float:
    """Excess slowdown (ratio - 1), floored at zero against sim noise."""
    if solo_us <= 0.0:
        return 0.0
    return max(0.0, contended_us / solo_us - 1.0)


#: reference victims, as probe targets so the same rig measures them.
_MEM_VICTIM = ProbeTarget("ref-mem", REF_MEM_LINES, 1.0, 0.0)
_CPU_VICTIM = ProbeTarget("ref-cpu", 0, 0.0, REF_COMP_CYCLES)


def probe_target(
    target: ProbeTarget,
    seed: int = 42,
    iterations: int = PROBE_ITERATIONS,
    duties: tuple = PRESSURE_DUTIES,
    _victim_solo: tuple = None,
) -> WorkloadProfile:
    """Measure one workload's full contention profile.

    ``_victim_solo`` optionally carries the pre-calibrated
    ``(mem_victim_solo_us, cpu_victim_solo_us)`` pair so a batch of
    probes shares one calibration run per victim.
    """
    solo = _run_target(target, seed, iterations)

    mem_op = MemOp(lines=REF_MEM_LINES, dram_frac=1.0)
    curve = []
    for duty in duties:
        contended = _run_target(
            target, seed, iterations, antagonist=mem_op, duty=duty
        )
        curve.append((float(duty), _excess(contended, solo)))
    sens_mem = curve[-1][1] if curve else 0.0

    comp_op = CompOp(cycles=REF_COMP_CYCLES)
    sens_cpu = _excess(
        _run_target(target, seed, iterations, antagonist=comp_op, duty=1.0),
        solo,
    )

    if _victim_solo is None:
        _victim_solo = victim_calibration(seed, iterations)
    mem_solo, cpu_solo = _victim_solo
    # pressure runs co-locate the target's *full* kernel (mem + comp
    # phases, back to back) against each reference victim, so both
    # phases' pressure lands in the measurement.
    pressure_mem = _excess(
        _run_victim(_MEM_VICTIM, target, seed, iterations), mem_solo
    )
    pressure_cpu = _excess(
        _run_victim(_CPU_VICTIM, target, seed, iterations), cpu_solo
    )
    return WorkloadProfile(
        name=target.name,
        solo_us=solo,
        sens_mem=sens_mem,
        sens_cpu=sens_cpu,
        pressure_mem=pressure_mem,
        pressure_cpu=pressure_cpu,
        sens_mem_curve=tuple(curve),
    )


def victim_calibration(seed: int = 42,
                       iterations: int = PROBE_ITERATIONS) -> tuple:
    """Solo baselines of the reference victims (one run each)."""
    return (
        _run_target(_MEM_VICTIM, seed, iterations),
        _run_target(_CPU_VICTIM, seed, iterations),
    )


def _run_victim(victim: ProbeTarget, aggressor: ProbeTarget, seed: int,
                iterations: int) -> float:
    """Victim on lcpu 0, the aggressor's full kernel looping on the sibling."""
    with closing(_probe_system(seed)) as system:
        until = max(_horizon_us(victim, iterations),
                    _horizon_us(aggressor, 2))
        samples: list = []
        proc = system.spawn_process(f"victim-{victim.name}")
        proc.spawn_thread(
            lambda th: victim.body(th, samples, until),
            affinity={0},
            name="victim",
        )
        sib = system.server.topology.sibling(0)
        noise: list = []
        proc.spawn_thread(
            lambda th: aggressor.body(th, noise, until),
            affinity={sib},
            name="aggressor",
        )
        system.run(until=until + 10.0)
        if not samples:
            raise RuntimeError(
                f"victim horizon too short against {aggressor.name!r}"
            )
        return _mean(samples)


def measure_pair(
    a: ProbeTarget,
    b: ProbeTarget,
    solo_a: float,
    solo_b: float,
    seed: int = 42,
    iterations: int = PROBE_ITERATIONS,
) -> float:
    """Ground-truth excess slowdown of co-running ``a`` and ``b`` on the
    two hyperthreads of one core: mean of both sides' excess over their
    solo baselines."""
    with closing(_probe_system(seed)) as system:
        until = max(_horizon_us(a, iterations), _horizon_us(b, iterations))
        sa: list = []
        sb: list = []
        proc = system.spawn_process(f"pair-{a.name}-{b.name}")
        proc.spawn_thread(
            lambda th: a.body(th, sa, until), affinity={0}, name="a"
        )
        sib = system.server.topology.sibling(0)
        proc.spawn_thread(
            lambda th: b.body(th, sb, until), affinity={sib}, name="b"
        )
        system.run(until=until + 10.0)
        if not sa or not sb:
            raise RuntimeError(f"pair horizon too short for {a.name}/{b.name}")
        return (_excess(_mean(sa), solo_a) + _excess(_mean(sb), solo_b)) / 2.0
