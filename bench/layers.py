"""Per-layer attribution for a traced benchmark run.

Three sources, all read from outside the program:

* a ``cProfile`` run of the timed operations, whose self time (tottime)
  is folded by ``repro.<package>`` into the layers below;
* the exact call counts ``cProfile`` keeps for a few named public entry
  points (one count per unit of layer work);
* the program's own ``RunnerTelemetry`` spans, whose self time is the
  span minus the part of it its child spans cover.
"""

from __future__ import annotations

import os
import pstats

#: the layers self time is folded into: the packages of ``src/repro``
#: (``workloads.kv`` split from ``workloads``), then ``other`` for
#: everything else -- the standard library, numpy, built-ins and the
#: top-level ``repro`` modules.
LAYERS = (
    "sim",
    "hw",
    "perf",
    "oskernel",
    "workloads",
    "workloads.kv",
    "ycsb",
    "yarnlike",
    "core",
    "baselines",
    "cluster",
    "profiling",
    "runner",
    "analysis",
    "experiments",
    "obs",
    "faults",
    "tracing",
    "other",
)

#: metric name -> the (path under src/repro, function name) pairs whose
#: call counts it sums.  A function that moves or is renamed counts 0.
COUNTED = {
    "sim.resource_requests": (("sim/resources.py", "request"),),
    "hw.quanta": (
        ("hw/server.py", "mem_quantum"),
        ("hw/server.py", "comp_quantum"),
    ),
    "workloads.kv.queries": (("workloads/kv/common.py", "submit"),),
    "core.monitor_collects": (("core/monitor.py", "collect"),),
    "core.scheduler_ticks": (("core/scheduler.py", "tick"),),
    "cluster.pick_node_calls": (("cluster/scheduler.py", "pick_node"),),
    "cluster.score_vector_calls": (("cluster/dataplane.py", "score_vector"),),
    "profiling.predict_calls": (("profiling/predictor.py", "node_cost"),),
}

#: runner telemetry spans whose self time is reported.
SPANS = ("sweep", "cell", "cell_attempt", "compute", "cache_lookup")


def layer_of(filename: str, repro_root: str) -> str:
    """The layer a profiled function's source file belongs to."""
    try:
        rel = os.path.relpath(filename, repro_root)
    except ValueError:  # a different drive, or cProfile's "~" built-ins
        return "other"
    parts = rel.split(os.sep)
    if len(parts) < 2 or parts[0] == os.pardir:
        return "other"
    if parts[0] == "workloads" and parts[1] == "kv":
        return "workloads.kv"
    return parts[0] if parts[0] in LAYERS else "other"


def fold(stats: pstats.Stats, repro_root: str) -> dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), row in stats.stats.items():
        out[layer_of(filename, repro_root)] += row[2]
    return out


def call_counts(stats: pstats.Stats, repro_root: str) -> dict[str, int]:
    """Exact call counts of the :data:`COUNTED` entry points."""
    by_site: dict[tuple[str, str], int] = {}
    for (filename, _line, name), row in stats.stats.items():
        rel = os.path.relpath(filename, repro_root).replace(os.sep, "/")
        by_site[rel, name] = by_site.get((rel, name), 0) + row[1]
    return {
        metric: sum(by_site.get(site, 0) for site in sites)
        for metric, sites in COUNTED.items()
    }


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_self_seconds(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name over a telemetry snapshot's spans.

    Children of one span can overlap (cells run on parallel workers), so
    a span's self time subtracts the union of its children, not their
    sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append((span["t0"], span["t1"]))
    out = dict.fromkeys(SPANS, 0.0)
    for span in spans:
        if span["name"] in out:
            t0, t1 = span["t0"], span["t1"]
            kids = children.get(span["id"], [])
            out[span["name"]] += (t1 - t0) - _covered(kids, t0, t1)
    return out
