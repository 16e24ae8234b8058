"""The central co-location experiment (drives Figs. 7-13 and Table 3).

One run = one (service, workload, setting) triple:

* **alone**    -- the service on the reserved CPUs, no batch jobs;
* **holmes**   -- service + continuous batch stream, Holmes daemon active;
* **perfiso**  -- service + continuous batch stream, PerfIso isolation;
* **heracles** -- service + batch stream under the Heracles-like feedback
  controller with its epoch time-scaled like the traffic (15 s -> 150 ms):
  it eventually isolates the siblings but reacts a thousand times slower
  than Holmes, landing its latency between Holmes and PerfIso.

Bursty YCSB traffic drives the service; the run records query latencies,
whole-run CPU utilisation, completed batch jobs, and a 1 ms-resolution
VPI timeline over the LC CPUs (the Fig. 13 view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines import HeraclesLike, PerfIso
from repro.core import Holmes, HolmesConfig
from repro.core.vpi import VPIReader
from repro.experiments.common import (
    DEFAULT_N_KEYS,
    ExperimentScale,
    build_system,
    service_rate,
)
from repro.oskernel.accounting import CumulativeUsage
from repro.sim import PeriodicSampler
from repro.workloads.base import LatencyRecorder
from repro.workloads.kv import make_service
from repro.ycsb import BurstyTraffic, YCSBClient, workload_by_name
from repro.yarnlike import ContinuousSubmitter, NodeManager

SETTINGS = ("alone", "holmes", "perfiso")

#: all supported settings, including the extension comparison.
ALL_SETTINGS = SETTINGS + ("heracles",)


@dataclass
class CoLocationResult:
    """Everything the figure/table drivers need from one run."""

    service: str
    workload: str
    setting: str
    recorder: LatencyRecorder
    submitted: int
    avg_cpu_utilization: float
    jobs_completed: int
    duration_us: float
    vpi_times: np.ndarray
    vpi_values: np.ndarray
    holmes_overhead: Optional[dict] = None
    #: daemon robustness counters; present only when faults were injected.
    holmes_health: Optional[dict] = None
    #: observability snapshot (events, metrics, quanta); present only when
    #: the run was observed -- disabled runs serialise exactly as before.
    obs: Optional[dict] = None

    @property
    def mean_latency(self) -> float:
        return self.recorder.mean()

    @property
    def p99_latency(self) -> float:
        return self.recorder.p99()

    def percentile(self, q: float) -> float:
        return self.recorder.percentile(q)


def run_colocation(
    service_name: str,
    workload_name: str,
    setting: str,
    scale: Optional[ExperimentScale] = None,
    rate_qps: Optional[float] = None,
    holmes_config: Optional[HolmesConfig] = None,
    n_keys: int = DEFAULT_N_KEYS,
    faults=None,
    obs=None,
) -> CoLocationResult:
    """Run one co-location experiment and collect its metrics.

    ``faults`` (a :class:`~repro.faults.FaultPlan`, dict, or canonical
    JSON string) attaches the seeded fault injector to the node: counter
    read errors / garbage, daemon tick misses and stalls, cgroup write
    failures, and timed container crashes.  With ``faults=None`` the run
    is byte-identical to before the fault engine existed.

    ``obs`` (an :class:`~repro.obs.ObservabilityPlane`, a spec string
    like ``"all"`` or ``"sched,fault"``, or None) attaches the
    observability plane; the snapshot lands in ``CoLocationResult.obs``.
    With ``obs=None`` the run is byte-identical to an unobserved one.
    """
    if setting not in ALL_SETTINGS:
        raise ValueError(
            f"setting must be one of {ALL_SETTINGS}, got {setting!r}"
        )
    scale = scale or ExperimentScale()
    plan = None
    injector = None
    if faults is not None:
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan.coerce(faults)
        injector = FaultInjector(plan, scope="node0")
    plane = None
    obs_scope = None
    if obs is not None:
        from repro.obs import ObservabilityPlane

        plane = ObservabilityPlane.coerce(obs)
        obs_scope = plane.for_node("node0") if plane is not None else None
    spec = workload_by_name(workload_name)
    rate = rate_qps if rate_qps is not None else service_rate(
        service_name, spec.name
    )

    system = build_system(scale)
    submitter = None
    try:
        env = system.env
        topo = system.server.topology
        reserved = list(range(scale.n_reserved))
        non_reserved = [c for c in topo.all_lcpus() if c not in reserved]

        # -- the latency-critical service ------------------------------------
        service = make_service(service_name, system, n_keys=n_keys)
        service.start(lcpus=set(reserved))

        # -- the co-location policy ----------------------------------------------
        holmes: Optional[Holmes] = None
        perfiso: Optional[PerfIso] = None
        if setting == "holmes":
            cfg = holmes_config or HolmesConfig(n_reserved=scale.n_reserved)
            holmes = Holmes(system, cfg, faults=injector, obs=obs_scope)
            holmes.start()
            holmes.register_lc_service(service.pid)
        elif setting == "perfiso":
            perfiso = PerfIso(system, lc_cpus=reserved)
            perfiso.start()
        elif setting == "heracles":
            heracles = HeraclesLike(
                system, lc_cpus=reserved,
                epoch_us=15_000_000.0 / scale.time_scale,
            )
            heracles.start()

        # -- batch jobs ---------------------------------------------------------------
        nm: Optional[NodeManager] = None
        if setting != "alone":
            default_cpuset = non_reserved if setting == "holmes" else None
            nm = NodeManager(system, default_cpuset=default_cpuset,
                             seed=scale.seed + 7)
            submitter = ContinuousSubmitter(
                nm,
                target_concurrent=scale.concurrent_jobs,
                tasks_per_container=scale.tasks_per_container,
            )
            submitter.start()

        if injector is not None:
            if setting != "holmes":
                injector.install(system)  # cgroup faults even without a daemon
                if obs_scope is not None:
                    injector.attach_obs(obs_scope)
            if nm is not None:
                from repro.faults import start_node_drivers

                start_node_drivers(nm, plan, scope="node0")

        # -- traffic -------------------------------------------------------------------
        traffic = BurstyTraffic(
            np.random.default_rng(scale.seed + 13), scale=scale.time_scale
        )
        client = YCSBClient(
            env, service, spec, rate,
            np.random.default_rng(scale.seed + 17), traffic=traffic,
        )
        client.start(scale.duration_us)

        # -- instrumentation ------------------------------------------------------------
        usage = CumulativeUsage(env, system.server)
        vpi_reader = VPIReader(system.server)
        lc_cpus = reserved

        def sample_vpi(now: float) -> float:
            cur = holmes.lc_cpus if holmes is not None else lc_cpus
            return float(np.mean(vpi_reader.sample()[cur]))

        vpi_sampler = PeriodicSampler(env, period=1_000.0, fn=sample_vpi,
                                      name="lc_vpi")

        tracer = None
        if plane is not None and plane.wants("quantum"):
            from repro.tracing import ExecutionTracer

            tracer = ExecutionTracer(system)
            tracer.attach()

        system.run(until=scale.duration_us)
        vpi_sampler.stop()

        obs_snapshot = None
        if plane is not None:
            if tracer is not None:
                tracer.detach()
            if plane.metrics is not None:
                from repro.obs import LATENCY_BUCKETS_US

                lat_hist = plane.metrics.histogram(
                    "query_latency_us", LATENCY_BUCKETS_US,
                    node="node0", service=service_name, setting=setting,
                )
                lat_hist.observe_many(service.recorder.latencies())
                g = plane.metrics.gauge
                g("avg_cpu_utilization", node="node0").set(usage.average())
                g("jobs_completed", node="node0").set(
                    float(nm.completed_count() if nm is not None else 0)
                )
            obs_snapshot = plane.snapshot()
            if tracer is not None:
                a = tracer.arrays()
                obs_snapshot["quanta"] = {
                    "lcpu": [int(v) for v in a["lcpu"]],
                    "tid": [int(v) for v in a["tid"]],
                    "is_mem": [bool(v) for v in a["is_mem"]],
                    "start": [float(v) for v in a["start"]],
                    "duration": [float(v) for v in a["duration"]],
                    "dropped": int(tracer.dropped),
                }

        return CoLocationResult(
            service=service_name,
            workload=spec.name,
            setting=setting,
            recorder=service.recorder,
            submitted=client.submitted,
            avg_cpu_utilization=usage.average(),
            jobs_completed=nm.completed_count() if nm is not None else 0,
            duration_us=scale.duration_us,
            vpi_times=vpi_sampler.series.times,
            vpi_values=vpi_sampler.series.values,
            holmes_overhead=holmes.estimated_overhead() if holmes else None,
            holmes_health=(
                holmes.health_report()
                if holmes is not None and injector is not None
                else None
            ),
            obs=obs_snapshot,
        )
    finally:
        # the result is built: finalize the run so reference counting
        # frees it (this runs every live thread's finally blocks)
        if submitter is not None:
            submitter.stop()
        system.close()


def run_three_settings(
    service_name: str,
    workload_name: str,
    scale: Optional[ExperimentScale] = None,
    **kwargs,
) -> dict[str, CoLocationResult]:
    """Run alone/holmes/perfiso with identical seeds and workload."""
    return {
        setting: run_colocation(service_name, workload_name, setting,
                                scale=scale, **kwargs)
        for setting in SETTINGS
    }
