"""The cluster-scale experiment: churn across many nodes, per policy.

One sweep = one placement policy driven by the same seeded churn
(Poisson batch arrivals, heavy-tailed job sizes, phased LC load per
node) over a shared simulation clock.  The payload is a plain JSON-able
dict -- it runs as a ``cluster_sweep`` runner cell, so sweeps are
cached, fanned out across worker processes, and byte-reproducible for a
given seed.

Per-node Holmes daemons run in *telemetry mode* (no LC service is
registered, so the per-server deallocation algorithms stay quiet): the
cluster experiment isolates what the placement policy alone buys, and
the daemons' monitors still maintain the VPI/usage EMAs the score
policy reads.  The daemon interval is coarsened from the paper's 50 us
to ``telemetry_interval_us`` -- cluster placement acts on tens of
milliseconds, so millisecond-fresh telemetry is ample and keeps a
hundred daemons affordable on one clock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.churn import ChurnConfig, JobArrivalProcess, LCPhaseLoad
from repro.cluster.cluster import Cluster
from repro.cluster.scheduler import ClusterBatchScheduler
from repro.cluster.score import ScoreWeights
from repro.core import HolmesConfig
from repro.faults import FaultPlan, start_cluster_drivers
from repro.runner.cells import latency_summary

#: default per-node daemon (telemetry) interval at cluster scale.
TELEMETRY_INTERVAL_US = 1_000.0

#: LC request SLO as a multiple of the uncontended request service time.
SLO_MULTIPLIER = 2.0


def _summary(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {"count": 0, "mean_us": None, "p99_us": None, "max_us": None}
    return {
        "count": int(arr.size),
        "mean_us": float(arr.mean()),
        "p99_us": float(np.percentile(arr, 99)),
        "max_us": float(arr.max()),
    }


def run_cluster_sweep(
    policy: str = "score",
    n_nodes: int = 8,
    n_jobs: int = 200,
    duration_us: float = 600_000.0,
    seed: int = 42,
    churn: Optional[ChurnConfig] = None,
    telemetry_interval_us: float = TELEMETRY_INTERVAL_US,
    check_interval_us: float = 25_000.0,
    admit_threshold: float = 0.85,
    relocate_threshold: float = 0.95,
    relocate_margin: float = 0.35,
    predict_admit_threshold: float = 0.70,
    predict_relocate_threshold: float = 0.35,
    predict_relocate_margin: float = 0.08,
    predict_lc_weight: float = 2.0,
    predict_probe_seed: int = 42,
    slo_multiplier: float = SLO_MULTIPLIER,
    score_weights: Optional[ScoreWeights] = None,
    faults=None,
    max_resubmits: int = 3,
    obs=None,
) -> dict:
    """Run one policy over the churned cluster; return the metrics payload.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, its dict form, or its
    canonical JSON string) attaches seeded chaos: per-node counter/tick/
    cgroup faults plus cluster-level container crashes and node fail-stop
    with recovery.  The payload then gains a ``faults`` section; with
    ``faults=None`` the payload is byte-identical to a plain sweep.

    ``obs`` (an :class:`~repro.obs.ObservabilityPlane`, a spec string, or
    None) threads the observability plane through every node's daemon,
    the fault injectors and the batch scheduler; the payload then gains
    ``obs`` and ``node_health`` sections.  With ``obs=None`` the payload
    is byte-identical to an unobserved sweep.
    """
    churn = churn or ChurnConfig(n_jobs=n_jobs)
    if churn.n_jobs != n_jobs:
        churn = ChurnConfig(**{**churn.__dict__, "n_jobs": n_jobs})
    plan = FaultPlan.coerce(faults) if faults is not None else None
    plane = None
    if obs is not None:
        from repro.obs import ObservabilityPlane

        plane = ObservabilityPlane.coerce(obs)

    holmes_cfg = HolmesConfig(interval_us=telemetry_interval_us)
    cluster = Cluster(
        n_servers=n_nodes, seed=seed, holmes_config=holmes_cfg, faults=plan,
        obs=plane,
    )

    weights = score_weights or ScoreWeights()
    predictor = None
    if policy == "predictor":
        from repro.profiling import default_predictor

        # the profiling stage is an offline calibration artifact: its
        # seed is independent of the sweep seed, so one profile set
        # steers every sweep (and the in-process probe run is cached).
        predictor = default_predictor(
            seed=predict_probe_seed, lc_weight=predict_lc_weight
        )
        admit, relocate, margin = (
            predict_admit_threshold,
            predict_relocate_threshold,
            predict_relocate_margin,
        )
    else:
        admit, relocate, margin = (
            admit_threshold, relocate_threshold, relocate_margin
        )
    gated = policy in ("score", "predictor")
    scheduler = ClusterBatchScheduler(
        cluster,
        check_interval_us=check_interval_us,
        tasks_per_container=churn.tasks_per_container,
        policy=policy,
        score_weights=weights,
        admit_threshold=admit if gated else None,
        relocate_threshold=relocate if gated else None,
        relocate_margin=margin,
        max_resubmits=max_resubmits,
        obs=plane,
        predictor=predictor,
    )

    root_rng = np.random.default_rng(seed)
    node_rngs = root_rng.spawn(n_nodes)
    arrival_rng = np.random.default_rng(seed + 104729)

    loads = [
        LCPhaseLoad(node, churn, duration_us, rng)
        for node, rng in zip(cluster.nodes, node_rngs)
    ]
    for load in loads:
        load.start()
    arrivals = JobArrivalProcess(scheduler, churn, duration_us, arrival_rng)
    scheduler.start()
    arrivals.start()
    if plan is not None:
        start_cluster_drivers(cluster, plan)

    cluster.run(until=duration_us)
    scheduler.stop()
    cluster.stop_daemons()

    # -- LC latency ------------------------------------------------------
    lat_arrays = [ld.recorder.latencies() for ld in loads]
    all_lat = (
        np.concatenate(lat_arrays)
        if any(a.size for a in lat_arrays)
        else np.empty(0)
    )
    hw_cfg = cluster.nodes[0].system.server.config
    nominal_us = churn.lc_request_lines * hw_cfg.dram_line_latency_us
    slo_us = slo_multiplier * nominal_us
    per_node_p99 = [
        float(np.percentile(a, 99)) for a in lat_arrays if a.size
    ]

    # -- batch outcomes --------------------------------------------------
    finished = scheduler.finished_jobs()
    durations = [
        j.instance.finished_at - j.started_at
        for j in finished
        if j.started_at is not None
    ]
    queue_delays = [
        j.queue_delay_us
        for j in scheduler.jobs
        if j.queue_delay_us is not None and j.queue_delay_us > 0.0
    ]
    final_scores = [scheduler.node_score(n) for n in cluster.nodes]

    payload = {
        "policy": policy,
        "n_nodes": int(n_nodes),
        "n_jobs": int(n_jobs),
        "duration_us": float(duration_us),
        "seed": int(seed),
        "lc": {
            "latency": latency_summary(all_lat),
            "slo_us": float(slo_us),
            "slo_violation_ratio": (
                float((all_lat > slo_us).mean()) if all_lat.size else None
            ),
            "per_node_p99_us": _summary(per_node_p99),
        },
        "batch": {
            "submitted": len(scheduler.jobs),
            "admitted": int(scheduler.admitted),
            "enqueued": int(scheduler.enqueued),
            "rejected": int(scheduler.rejected),
            "still_queued": len(scheduler.queued_jobs()),
            "completed": len(finished),
            "jobs_per_s": len(finished) / (duration_us / 1e6),
            "job_duration": _summary(durations),
            "queue_delay": _summary(queue_delays),
            "relocations": {
                "total": int(scheduler.relocations),
                "stall": int(scheduler.stall_relocations),
                "preemptive": int(scheduler.preemptive_relocations),
            },
        },
        "nodes": {
            "final_score_mean": float(np.mean(final_scores)),
            "final_score_max": float(np.max(final_scores)),
        },
    }
    if policy == "predictor":
        # predictor-only section: other policies' payloads stay
        # byte-identical to pre-profiling sweeps.
        payload["predictor"] = {
            "probe_seed": int(predict_probe_seed),
            "admit_threshold": float(predict_admit_threshold),
            "relocate_threshold": float(predict_relocate_threshold),
            "relocate_margin": float(predict_relocate_margin),
            "lc_weight": float(predict_lc_weight),
            "model": predictor.model.to_dict(),
            "families": sorted(predictor.profiles),
        }
    if plan is not None:
        # chaos-only section: with faults=None the payload above is
        # byte-identical to a plain sweep.
        payload["faults"] = {
            "plan": plan.to_dict(),
            "node_failures": int(sum(n.failures for n in cluster.nodes)),
            "nodes_down_at_end": int(sum(1 for n in cluster.nodes if not n.alive)),
            "batch": {
                "resubmitted": int(scheduler.resubmitted),
                "failed": int(scheduler.failed_jobs),
                "launch_failures": int(scheduler.launch_failures),
                "max_resubmits": int(max_resubmits),
            },
            "per_node": [
                {
                    "name": n.name,
                    "alive": bool(n.alive),
                    "failures": int(n.failures),
                    "daemon": (
                        n.holmes.health_report() if n.holmes is not None else None
                    ),
                }
                for n in cluster.nodes
            ],
        }
    if plane is not None:
        # observed-only sections: with obs=None the payload above is
        # byte-identical to an unobserved sweep.
        if plane.metrics is not None:
            from repro.obs import LATENCY_BUCKETS_US

            for node, arr in zip(cluster.nodes, lat_arrays):
                hist = plane.metrics.histogram(
                    "lc_request_latency_us", LATENCY_BUCKETS_US,
                    node=node.name,
                )
                hist.observe_many(arr)
            plane.metrics.counter("jobs_completed").inc(len(finished))
            plane.metrics.counter("relocations").inc(scheduler.relocations)
        payload["node_health"] = [
            _node_health(n) for n in cluster.nodes
        ]
        payload["obs"] = plane.snapshot()
    return payload


def _node_health(node) -> dict:
    """Per-node health row: telemetry + daemon robustness counters.

    Rendered by ``repro cluster``'s node-health table
    (:func:`repro.analysis.cluster.format_node_health_table`).
    """
    row = {
        "name": node.name,
        "alive": bool(node.alive),
        "failures": int(node.failures),
    }
    snap = node.telemetry()
    if snap is not None:
        row.update({
            "health": snap.health,
            "lc_vpi_ema": float(snap.lc_vpi_ema),
            "reserved_pressure": float(snap.reserved_pressure),
            "batch_occupancy": float(snap.batch_occupancy),
            "n_containers": int(snap.n_containers),
            "n_lc_cpus": int(snap.n_lc_cpus),
            "expanded": int(snap.expanded),
            "serving": bool(snap.serving),
            "stale_windows": int(snap.stale_windows),
            "degraded_total_us": float(snap.degraded_total_us),
            "missed_ticks": int(snap.missed_ticks),
            "watchdog_recoveries": int(snap.watchdog_recoveries),
        })
    if node.holmes is not None:
        row["daemon"] = node.holmes.health_report()
    return row
