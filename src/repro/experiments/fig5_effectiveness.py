"""Figure 5: effectiveness of the VPI metric on real services.

Each latency-critical service is pinned on four logical CPUs; the
Section 3.1 memory prober runs on the four sibling CPUs at Low (20k),
Medium (40k), High (60k) aggregate RPS.  For each setting, the service's
average and 99th-percentile latency and the summed VPI over its CPUs are
normalised against the Alone run via (V - V_alone) / V_alone; latency
and VPI must grow together.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.analysis import normalize_to_baseline
from repro.core.vpi import VPIReader
from repro.experiments.common import (
    DEFAULT_N_KEYS,
    ExperimentScale,
    build_system,
    service_rate,
)
from repro.workloads import MemoryProber
from repro.workloads.kv import make_service
from repro.ycsb import ConstantTraffic, YCSBClient, workload_by_name

RPS_LEVELS = {"low": 20_000.0, "medium": 40_000.0, "high": 60_000.0}


@dataclass
class Fig5Point:
    service: str
    level: str  # "alone" | "low" | "medium" | "high"
    mean_latency: float
    p99_latency: float
    vpi: float
    norm_mean: float = 0.0
    norm_p99: float = 0.0
    norm_vpi: float = 0.0


def _run_level(service_name: str, sibling_rps: float | None,
               scale: ExperimentScale) -> tuple[float, float, float]:
    with closing(build_system(scale)) as system:
        topo = system.server.topology
        lc = [0, 1, 2, 3]
        service = make_service(service_name, system, n_keys=DEFAULT_N_KEYS)
        service.start(lcpus=set(lc))

        if sibling_rps is not None:
            per_thread = sibling_rps / len(lc)
            for i, c in enumerate(lc):
                prober = MemoryProber(
                    system, lcpu=topo.sibling(c), rps=per_thread,
                    name=f"probe{i}",
                )
                prober.start(scale.duration_us)

        client = YCSBClient(
            system.env, service, workload_by_name("a"),
            service_rate(service_name, "workload-a"),
            np.random.default_rng(scale.seed + 17), traffic=ConstantTraffic(),
        )
        reader = VPIReader(system.server)
        client.start(scale.duration_us)
        system.run(until=scale.duration_us)
        vpi = float(np.sum(reader.sample()[lc]))
        return service.recorder.mean(), service.recorder.p99(), vpi


def run_fig5(
    services=("redis", "memcached", "rocksdb", "wiredtiger"),
    scale: ExperimentScale | None = None,
) -> list[Fig5Point]:
    scale = scale or ExperimentScale(duration_us=600_000.0)
    points: list[Fig5Point] = []
    for svc in services:
        mean0, p990, vpi0 = _run_level(svc, None, scale)
        points.append(Fig5Point(svc, "alone", mean0, p990, vpi0))
        for level, rps in RPS_LEVELS.items():
            mean, p99, vpi = _run_level(svc, rps, scale)
            points.append(Fig5Point(
                svc, level, mean, p99, vpi,
                norm_mean=normalize_to_baseline(mean, mean0),
                norm_p99=normalize_to_baseline(p99, p990),
                norm_vpi=normalize_to_baseline(vpi, vpi0),
            ))
    return points
