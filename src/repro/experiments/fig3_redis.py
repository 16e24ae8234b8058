"""Figure 3: Redis query latency under Alone / Co-separate / Co-hyper.

Redis serves YCSB workload-a while a Spark-KMeans-like batch job runs
(1) not at all, (2) on separate physical cores, (3) on the hyperthread
siblings of Redis's CPUs.  The paper reports Co-hyper inflating average
latency ~2.0x (p99 ~1.3x) over Co-separate.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    DEFAULT_N_KEYS,
    ExperimentScale,
    build_system,
    service_rate,
)
from repro.workloads.base import LatencyRecorder
from repro.workloads.batch import KMEANS
from repro.workloads.kv import make_service
from repro.ycsb import ConstantTraffic, YCSBClient, workload_by_name
from repro.yarnlike import NodeManager

SETTINGS3 = ("alone", "co-separate", "co-hyper")


@dataclass
class Fig3Result:
    setting: str
    recorder: LatencyRecorder

    @property
    def mean(self) -> float:
        return self.recorder.mean()

    @property
    def p99(self) -> float:
        return self.recorder.p99()


def run_fig3_case(
    setting: str,
    scale: ExperimentScale | None = None,
    rate_qps: float | None = None,
) -> Fig3Result:
    if setting not in SETTINGS3:
        raise ValueError(f"setting must be one of {SETTINGS3}")
    scale = scale or ExperimentScale(duration_us=1_000_000.0)
    with closing(build_system(scale)) as system:
        topo = system.server.topology
        lc = [0, 1, 2, 3]

        service = make_service("redis", system, n_keys=DEFAULT_N_KEYS)
        service.start(lcpus=set(lc))

        if setting != "alone":
            if setting == "co-separate":
                batch_cpus = {4, 5, 6, 7}  # distinct physical cores
            else:  # co-hyper: the siblings of Redis's logical CPUs
                batch_cpus = {topo.sibling(c) for c in lc}
            nm = NodeManager(system, default_cpuset=batch_cpus,
                             seed=scale.seed)
            nm.launch_job(KMEANS, tasks_per_container=len(batch_cpus))

        rate = rate_qps or service_rate("redis", "workload-a")
        client = YCSBClient(
            system.env, service, workload_by_name("a"), rate,
            np.random.default_rng(scale.seed + 17), traffic=ConstantTraffic(),
        )
        client.start(scale.duration_us)
        system.run(until=scale.duration_us)
        return Fig3Result(setting=setting, recorder=service.recorder)


def run_fig3(scale: ExperimentScale | None = None) -> dict[str, Fig3Result]:
    return {s: run_fig3_case(s, scale=scale) for s in SETTINGS3}
