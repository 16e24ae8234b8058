"""The profiling stage: probe the seed matrix, fit the model, score pairs.

One call to :func:`run_profile_stage` produces the complete, canonical-
JSON-serialisable payload the ``profile`` runner cell caches and the
golden-profile tests pin byte for byte: per-workload contention
profiles, the measured pair ground truth, the fitted compatibility
model, and its in-sample fit quality.
"""

from __future__ import annotations

from repro.profiling.model import (
    CompatibilityModel,
    fit_model,
    fit_quality,
)
from repro.profiling.probe import (
    CPU_VICTIM,
    MEM_VICTIM,
    PRESSURE_DUTIES,
    PROBE_ITERATIONS,
    Probe,
    ProbeTarget,
    WorkloadProfile,
    run_probe,
    seed_matrix,
)


def stage_plan(targets, seed: int, iterations: int, duties) -> list[Probe]:
    """Every probe one stage run simulates, in plan order.

    The two victim calibrations; per target its solo run, a DRAM
    antagonist run per duty level, a compute antagonist run and a run
    against each reference victim; then every unordered pair, self-pairs
    included (a job can share a core with its own sibling thread / a
    second instance).
    """
    plan = [
        Probe("solo", MEM_VICTIM, seed, iterations),
        Probe("solo", CPU_VICTIM, seed, iterations),
    ]
    for t in targets:
        plan.append(Probe("solo", t, seed, iterations))
        plan += [Probe("mem", t, seed, iterations, duty=d) for d in duties]
        plan += [
            Probe("cpu", t, seed, iterations),
            Probe("victim", MEM_VICTIM, seed, iterations, other=t),
            Probe("victim", CPU_VICTIM, seed, iterations, other=t),
        ]
    for i, a in enumerate(targets):
        plan += [Probe("pair", a, seed, iterations, other=b) for b in targets[i:]]
    return plan


def _excess(contended_us: float, solo_us: float) -> float:
    """Excess slowdown (ratio - 1), floored at zero against sim noise."""
    if solo_us <= 0.0:
        return 0.0
    return max(0.0, contended_us / solo_us - 1.0)


def _fork_map(fn, plan: list, workers: int) -> list:
    """``list(map(fn, plan))`` on ``workers`` forked processes.

    Forked, not spawned: a worker inherits every module this process
    has imported, where a spawned one would import numpy and ``repro``
    again and cost what the fan-out saves.  The probe with the longest
    horizon is submitted first, so no long probe is left for the end.
    The pool is joined before this returns, also when a probe raises:
    the first error in plan order propagates as itself, and probes not
    yet started are cancelled.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(plan)),
        mp_context=multiprocessing.get_context("fork"),
    )
    try:
        longest_first = sorted(
            range(len(plan)), key=lambda i: plan[i].horizon_us(), reverse=True
        )
        futures = {i: pool.submit(fn, plan[i]) for i in longest_first}
        return [futures[i].result() for i in range(len(plan))]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_profile_stage(
    seed: int = 42,
    targets: tuple = None,
    iterations: int = PROBE_ITERATIONS,
    duties: tuple = PRESSURE_DUTIES,
    workers: int = 1,
) -> dict:
    """Probe every target, measure every unordered pair, fit the model.

    ``workers > 1`` runs the plan's probes on that many forked
    processes instead of this one; the payload is the same either way.
    Deterministic: same inputs, byte-identical
    :func:`~repro.analysis.export.canonical_dumps` output.
    """
    if targets is None:
        targets = seed_matrix()
    names = [t.name for t in targets]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate probe target names: {names}")

    plan = stage_plan(targets, seed, iterations, duties)
    results = (
        map(run_probe, plan) if workers <= 1 else _fork_map(run_probe, plan, workers)
    )
    means = dict(zip(plan, results))

    def result(kind, target, other=None, duty=1.0):
        return means[Probe(kind, target, seed, iterations, other, duty)]

    calib = (result("solo", MEM_VICTIM), result("solo", CPU_VICTIM))
    profiles: dict[str, WorkloadProfile] = {}
    for t in targets:
        solo = result("solo", t)
        curve = tuple(
            (float(d), _excess(result("mem", t, duty=d), solo)) for d in duties
        )
        profiles[t.name] = WorkloadProfile(
            name=t.name,
            solo_us=solo,
            sens_mem=curve[-1][1] if curve else 0.0,
            sens_cpu=_excess(result("cpu", t), solo),
            # pressure runs co-locate the target's *full* kernel (mem +
            # comp phases, back to back) against each reference victim,
            # so both phases' pressure lands in the measurement.
            pressure_mem=_excess(result("victim", MEM_VICTIM, t), calib[0]),
            pressure_cpu=_excess(result("victim", CPU_VICTIM, t), calib[1]),
            sens_mem_curve=curve,
        )

    # ground truth: the mean of both sides' excess over their solos.
    pairs = []
    for i, a in enumerate(targets):
        for b in targets[i:]:
            mean_a, mean_b = result("pair", a, b)
            y = (
                _excess(mean_a, profiles[a.name].solo_us)
                + _excess(mean_b, profiles[b.name].solo_us)
            ) / 2.0
            pairs.append((a.name, b.name, y))

    model = fit_model(profiles, pairs)
    quality = fit_quality(model, profiles, pairs)

    return {
        "seed": seed,
        "probe": {
            "iterations": iterations,
            "duties": [float(d) for d in duties],
            "victim_solo_us": {
                "mem": float(calib[0]), "cpu": float(calib[1]),
            },
        },
        "targets": [
            {
                "name": t.name,
                "mem_lines": t.mem_lines,
                "dram_frac": float(t.dram_frac),
                "comp_cycles": float(t.comp_cycles),
            }
            for t in targets
        ],
        "profiles": {n: p.to_dict() for n, p in profiles.items()},
        "pairs": [
            {
                "a": a,
                "b": b,
                "measured_excess": float(y),
                "predicted_excess": float(
                    model.predict_excess(profiles[a], profiles[b])
                ),
                "score": float(model.score(profiles[a], profiles[b])),
            }
            for a, b, y in pairs
        ],
        "model": model.to_dict(),
        "fit": quality,
    }


def load_stage(payload: dict) -> tuple:
    """Rehydrate ``(profiles, model)`` from a profile-stage payload."""
    profiles = {
        n: WorkloadProfile.from_dict(d)
        for n, d in payload["profiles"].items()
    }
    model = CompatibilityModel.from_dict(payload["model"])
    return profiles, model


__all__ = [
    "ProbeTarget",
    "run_profile_stage",
    "load_stage",
]
