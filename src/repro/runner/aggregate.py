"""Experiment registry: expansion into cells plus result aggregation.

An *experiment* is what a user asks for (``latency redis a``); it expands
into role-labelled cells and a pure aggregation function that folds the
cell payloads back into the figure/table structure the ``analysis``
report path renders.  Aggregation is deterministic arithmetic over
already-deterministic payloads, so the merged output of a sweep is
byte-comparable regardless of how (or whether) the cells were fanned out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.runner.cells import (
    Cell,
    DEFAULT_DURATION_US,
    quantiles_violation_ratio,
)

SETTINGS = ("alone", "holmes", "perfiso")

#: Fig. 14's E sweep, reused by the "sensitivity" experiment.
E_VALUES = (40.0, 50.0, 60.0, 70.0, 80.0)


@dataclass(frozen=True)
class ExperimentRequest:
    """One user-level experiment in a sweep."""

    name: str
    params: tuple
    seed: int = 42

    @classmethod
    def make(cls, name: str, params: dict | None = None,
             seed: int = 42) -> "ExperimentRequest":
        return cls(name, tuple(sorted((params or {}).items())), int(seed))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def experiment_id(self) -> str:
        parts = [self.name]
        parts += [f"{k}={v}" for k, v in self.params]
        parts.append(f"seed={self.seed}")
        return ";".join(parts)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    #: (params, seed) -> ordered [(role, Cell), ...]
    expand: Callable[[dict, int], list[tuple[str, Cell]]]
    #: (params, {role: payload}) -> JSON-able aggregate
    aggregate: Callable[[dict, dict[str, Any]], Any]


def _colo_triple(params: dict, seed: int) -> list[tuple[str, Cell]]:
    """The alone/holmes/perfiso triple every per-service figure needs."""
    base = {
        "service": params["service"],
        "workload": params.get("workload", "a"),
        "duration_us": float(params.get("duration_us", DEFAULT_DURATION_US)),
    }
    return [
        (setting, Cell.make("colocation", {**base, "setting": setting}, seed))
        for setting in SETTINGS
    ]


def _agg_compare(params: dict, by_role: dict[str, Any]) -> dict:
    rows = {}
    for setting in SETTINGS:
        p = by_role[setting]
        lat = p["latency"]
        rows[setting] = {
            "mean_us": lat["mean"],
            "p90_us": lat["quantiles"][90] if lat["quantiles"] else None,
            "p99_us": lat["quantiles"][99] if lat["quantiles"] else None,
            "queries": lat["count"],
            "avg_cpu_utilization": p["avg_cpu_utilization"],
        }
    h, pi = rows["holmes"], rows["perfiso"]
    reductions = {}
    if h["mean_us"] and pi["mean_us"]:
        reductions = {
            "mean_pct": 100.0 * (1.0 - h["mean_us"] / pi["mean_us"]),
            "p99_pct": 100.0 * (1.0 - h["p99_us"] / pi["p99_us"]),
        }
    return {"settings": rows, "holmes_vs_perfiso": reductions}


def _agg_latency(params: dict, by_role: dict[str, Any]) -> dict:
    out = {}
    for setting in SETTINGS:
        lat = by_role[setting]["latency"]
        out[setting] = {
            "mean_us": lat["mean"],
            "quantiles": lat["quantiles"],
            "queries": lat["count"],
        }
    return out


def _agg_slo(params: dict, by_role: dict[str, Any]) -> dict:
    alone_q = by_role["alone"]["latency"]["quantiles"]
    slo_us = alone_q[90] if alone_q else None
    ratios = {}
    if slo_us is not None:
        for setting in SETTINGS:
            q = by_role[setting]["latency"]["quantiles"]
            ratios[setting] = quantiles_violation_ratio(q, slo_us)
    return {"slo_us": slo_us, "violation_ratios": ratios}


def _agg_throughput(params: dict, by_role: dict[str, Any]) -> dict:
    out = {}
    for setting in SETTINGS:
        p = by_role[setting]
        hours = p["duration_us"] / 3.6e9
        out[setting] = {
            "avg_cpu_utilization": p["avg_cpu_utilization"],
            "jobs_completed": p["jobs_completed"],
            "jobs_per_hour_equivalent": (
                p["jobs_completed"] / hours if hours > 0 else 0.0
            ),
        }
    return out


def _expand_sensitivity(params: dict, seed: int) -> list[tuple[str, Cell]]:
    base = {
        "service": params["service"],
        "workload": params.get("workload", "a"),
        "duration_us": float(params.get("duration_us", DEFAULT_DURATION_US)),
    }
    cells = [("alone", Cell.make("colocation", {**base, "setting": "alone"}, seed))]
    for e in params.get("e_values", E_VALUES):
        cells.append((
            f"E={e:g}",
            Cell.make(
                "colocation",
                {**base, "setting": "holmes", "e_threshold": float(e)},
                seed,
            ),
        ))
    return cells


def _agg_sensitivity(params: dict, by_role: dict[str, Any]) -> dict:
    alone = by_role["alone"]["latency"]
    rows = {}
    for role, payload in by_role.items():
        if role == "alone":
            continue
        lat = payload["latency"]
        norm = {"mean": lat["mean"] / alone["mean"]}
        for q in (70, 80, 90, 99):
            norm[f"p{q}"] = lat["quantiles"][q] / alone["quantiles"][q]
        rows[role] = norm
    return {"normalized_to_alone": rows}


def _single_cell(kind: str, passthrough_params: tuple[str, ...] = ()):
    def expand(params: dict, seed: int) -> list[tuple[str, Cell]]:
        cell_params = {
            k: params[k] for k in passthrough_params if k in params
        }
        return [(kind, Cell.make(kind, cell_params, seed))]

    return expand


def _agg_passthrough(params: dict, by_role: dict[str, Any]) -> Any:
    # single-cell experiments: the payload already is the aggregate
    (payload,) = by_role.values()
    return payload


def _expand_cluster(params: dict, seed: int) -> list[tuple[str, Cell]]:
    """One cluster sweep per policy, identically-seeded churn."""
    from repro.cluster.scheduler import POLICIES

    policies = params.get("policies", POLICIES)
    base = {
        k: params[k]
        for k in (
            "n_nodes",
            "n_jobs",
            "duration_us",
            "telemetry_interval_us",
            "check_interval_us",
            "admit_threshold",
            "relocate_threshold",
            "relocate_margin",
            "predict_admit_threshold",
            "predict_relocate_threshold",
            "predict_relocate_margin",
            "predict_lc_weight",
            "predict_probe_seed",
            "slo_multiplier",
            "obs",
        )
        if k in params
    }
    return [
        (policy, Cell.make("cluster_sweep", {**base, "policy": policy}, seed))
        for policy in policies
    ]


def _agg_cluster(params: dict, by_role: dict[str, Any]) -> dict:
    from repro.analysis.cluster import compare_policies

    return compare_policies(by_role)


#: param keys forwarded untouched to every cluster_sweep shard cell.
_SHARD_PASSTHROUGH = (
    "duration_us",
    "telemetry_interval_us",
    "check_interval_us",
    "admit_threshold",
    "relocate_threshold",
    "relocate_margin",
    "predict_admit_threshold",
    "predict_relocate_threshold",
    "predict_relocate_margin",
    "predict_lc_weight",
    "predict_probe_seed",
    "slo_multiplier",
)


def _shard_counts(total: int, shards: int) -> list[int]:
    """Split ``total`` into ``shards`` near-equal deterministic pieces."""
    base, extra = divmod(int(total), shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def _expand_cluster_shard(params: dict, seed: int) -> list[tuple[str, Cell]]:
    """Split one big cluster sweep into per-node-range shard cells.

    A 1,000-node sweep over one policy becomes N independent
    ``cluster_sweep`` cells of ~1000/N nodes each (node and job counts
    split near-equally, first shards absorbing the remainder), with a
    deterministic per-shard seed derived from the experiment seed.  The
    shards are what makes the big sweep schedulable: instead of one
    monolithic straggler, the dispatch core interleaves N cells across
    whatever executor is attached.
    """
    from repro.cluster.scheduler import POLICIES

    policies = params.get("policies", POLICIES)
    if isinstance(policies, str):
        policies = (policies,)
    shards = int(params.get("shards", 8))
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    n_nodes = int(params.get("n_nodes", 64))
    n_jobs = int(params.get("n_jobs", 400))
    shards = min(shards, n_nodes)  # never a shard without a node
    node_counts = _shard_counts(n_nodes, shards)
    job_counts = _shard_counts(n_jobs, shards)
    base = {k: params[k] for k in _SHARD_PASSTHROUGH if k in params}
    cells = []
    for policy in policies:
        for i in range(shards):
            cells.append((
                f"{policy}:shard{i:03d}",
                Cell.make(
                    "cluster_sweep",
                    {
                        **base,
                        "policy": policy,
                        "n_nodes": node_counts[i],
                        "n_jobs": job_counts[i],
                    },
                    seed * 1_000 + i,
                ),
            ))
    return cells


def _wmean(pairs: list[tuple[float, float]]) -> Optional[float]:
    """Weighted mean over (value, weight); None when nothing weighs in."""
    total = sum(w for _v, w in pairs)
    if total <= 0.0:
        return None
    return sum(v * w for v, w in pairs) / total


def _agg_cluster_shard(params: dict, by_role: dict[str, Any]) -> dict:
    """Deterministically merge shard payloads back into one per-policy view.

    Pure arithmetic in sorted-role order: counts sum, latency means and
    SLO ratios combine weighted by query count, p99 reports the worst
    shard (a conservative cluster-wide bound -- exact cross-shard
    quantiles would need the raw samples the payloads deliberately do
    not carry).  Because every input payload is deterministic and the
    folds are ordered, the merged report is byte-identical no matter
    which executor (or how many workers) computed the shards.
    """
    per_policy: dict[str, list[tuple[str, dict]]] = {}
    for role in sorted(by_role):
        policy, _, shard = role.partition(":shard")
        per_policy.setdefault(policy, []).append((shard, by_role[role]))

    out: dict[str, Any] = {}
    for policy in sorted(per_policy):
        shard_rows = []
        lat_pairs, slo_pairs, score_pairs = [], [], []
        queries = 0
        p99s = []
        batch_totals = {
            "submitted": 0, "admitted": 0, "enqueued": 0, "rejected": 0,
            "still_queued": 0, "completed": 0,
        }
        relocations = {"total": 0, "stall": 0, "preemptive": 0}
        jobs_per_s = 0.0
        n_nodes = n_jobs = 0
        for shard, payload in per_policy[policy]:
            lat = payload["lc"]["latency"]
            count = int(lat["count"])
            queries += count
            if lat["mean"] is not None and count > 0:
                lat_pairs.append((float(lat["mean"]), float(count)))
                p99s.append(float(lat["quantiles"][99]))
            ratio = payload["lc"]["slo_violation_ratio"]
            if ratio is not None and count > 0:
                slo_pairs.append((float(ratio), float(count)))
            for key in batch_totals:
                batch_totals[key] += int(payload["batch"][key])
            for key in relocations:
                relocations[key] += int(payload["batch"]["relocations"][key])
            jobs_per_s += float(payload["batch"]["jobs_per_s"])
            n_nodes += int(payload["n_nodes"])
            n_jobs += int(payload["n_jobs"])
            score_pairs.append((
                float(payload["nodes"]["final_score_mean"]),
                float(payload["n_nodes"]),
            ))
            shard_rows.append({
                "shard": shard,
                "seed": payload["seed"],
                "n_nodes": payload["n_nodes"],
                "n_jobs": payload["n_jobs"],
                "mean_us": lat["mean"],
                "p99_us": lat["quantiles"][99] if lat["quantiles"] else None,
                "slo_violation_ratio": ratio,
                "completed": payload["batch"]["completed"],
            })
        out[policy] = {
            "n_nodes": n_nodes,
            "n_jobs": n_jobs,
            "shards": len(shard_rows),
            "lc": {
                "queries": queries,
                "mean_us": _wmean(lat_pairs),
                "worst_shard_p99_us": max(p99s) if p99s else None,
                "slo_violation_ratio": _wmean(slo_pairs),
            },
            "batch": {
                **batch_totals,
                "jobs_per_s": jobs_per_s,
                "relocations": relocations,
            },
            "nodes": {
                "final_score_mean": _wmean(score_pairs),
                "final_score_max": max(
                    float(p["nodes"]["final_score_max"])
                    for _s, p in per_policy[policy]
                ),
            },
            "per_shard": shard_rows,
        }
    return out


def _expand_chaos(params: dict, seed: int) -> list[tuple[str, Cell]]:
    """One faulted co-location run plus one faulted cluster sweep.

    ``params["faults"]`` carries the fault plan as its canonical JSON
    string (cell params must stay hashable); both cells decode it back
    into the same seeded :class:`~repro.faults.FaultPlan`.
    """
    faults = params["faults"]
    node = {
        "service": params.get("service", "redis"),
        "workload": params.get("workload", "a"),
        "setting": "holmes",
        "duration_us": float(params.get("duration_us", 120_000.0)),
        "faults": faults,
    }
    cluster = {
        "policy": params.get("policy", "score"),
        "n_nodes": int(params.get("n_nodes", 4)),
        "n_jobs": int(params.get("n_jobs", 30)),
        "duration_us": float(params.get("cluster_duration_us", 120_000.0)),
        "faults": faults,
        "max_resubmits": int(params.get("max_resubmits", 3)),
    }
    if "obs" in params:
        # obs specs ride as category strings, like fault plans ride as
        # canonical JSON (cell params must stay hashable).
        node["obs"] = params["obs"]
        cluster["obs"] = params["obs"]
    return [
        ("node", Cell.make("colocation", node, seed)),
        ("cluster", Cell.make("cluster_sweep", cluster, seed)),
    ]


def _agg_chaos(params: dict, by_role: dict[str, Any]) -> dict:
    """Fold fault/health sections into one chaos-report summary."""
    node = by_role["node"]
    cluster = by_role["cluster"]
    health = node.get("holmes_health") or {}
    cfaults = cluster.get("faults") or {}
    return {
        "node": {
            "health": health.get("health"),
            "degraded_total_us": health.get("degraded_total_us"),
            "degraded_intervals": health.get("degraded_intervals"),
            "counter_read_failures": health.get("counter_read_failures"),
            "counter_retries": health.get("counter_retries"),
            "garbage_samples": health.get("garbage_samples"),
            "discarded_samples": health.get("discarded_samples"),
            "missed_ticks": health.get("missed_ticks"),
            "stalled_ticks": health.get("stalled_ticks"),
            "watchdog_recoveries": health.get("watchdog_recoveries"),
            "mean_latency_us": node["latency"]["mean"],
            "jobs_completed": node["jobs_completed"],
        },
        "cluster": {
            "node_failures": cfaults.get("node_failures"),
            "nodes_down_at_end": cfaults.get("nodes_down_at_end"),
            "batch": cfaults.get("batch"),
            "completed": cluster["batch"]["completed"],
            "slo_violation_ratio": cluster["lc"]["slo_violation_ratio"],
        },
    }


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "compare": ExperimentSpec("compare", _colo_triple, _agg_compare),
    "latency": ExperimentSpec("latency", _colo_triple, _agg_latency),
    "slo": ExperimentSpec("slo", _colo_triple, _agg_slo),
    "throughput": ExperimentSpec("throughput", _colo_triple, _agg_throughput),
    "sensitivity": ExperimentSpec(
        "sensitivity", _expand_sensitivity, _agg_sensitivity
    ),
    "microbench": ExperimentSpec(
        "microbench", _single_cell("fig2", ("duration_us",)), _agg_passthrough
    ),
    "hpe": ExperimentSpec(
        "hpe", _single_cell("hpe", ("duration_us",)), _agg_passthrough
    ),
    "convergence": ExperimentSpec(
        "convergence",
        _single_cell("convergence", ("heracles_epoch_us", "parties_step_us")),
        _agg_passthrough,
    ),
    "cluster": ExperimentSpec("cluster", _expand_cluster, _agg_cluster),
    "cluster_shard": ExperimentSpec(
        "cluster_shard", _expand_cluster_shard, _agg_cluster_shard
    ),
    "profile": ExperimentSpec(
        "profile", _single_cell("profile", ("iterations", "duties")),
        _agg_passthrough,
    ),
    "sleep": ExperimentSpec(
        # resilience-probe experiment: registered here (not in a test)
        # so pool workers -- processes importing the cell registry --
        # can execute sleep cells too.
        "sleep",
        _single_cell("sleep", ("wall_s", "mode", "tag", "parent_pid")),
        _agg_passthrough,
    ),
    "chaos": ExperimentSpec("chaos", _expand_chaos, _agg_chaos),
    "colocation": ExperimentSpec(
        "colocation",
        _single_cell(
            "colocation",
            ("service", "workload", "setting", "duration_us",
             "e_threshold", "faults", "obs"),
        ),
        _agg_passthrough,
    ),
}


def expand_request(request: ExperimentRequest) -> list[tuple[str, Cell]]:
    try:
        spec = EXPERIMENTS[request.name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {request.name!r}; have {sorted(EXPERIMENTS)}"
        ) from None
    return spec.expand(request.param_dict, request.seed)


def aggregate_request(request: ExperimentRequest,
                      by_role: dict[str, Any]) -> Any:
    return EXPERIMENTS[request.name].aggregate(request.param_dict, by_role)
