"""The interference-aware CPU scheduler (paper Section 4.3).

Implements the three lifecycle algorithms against one MonitorSample per
tick:

* **Algorithm 1 (launching)** -- latency-critical services get the reserved
  CPUs; new batch containers get non-reserved CPUs, preferring non-sibling
  CPUs, spilling onto LC-sibling CPUs only when the non-sibling set is busy
  and the LC CPU's VPI is below E.
* **Algorithm 2 (running)** -- while a service is serving traffic, any LC
  CPU whose VPI reaches E has its sibling deallocated from batch
  containers; after the VPI has stayed below E for S, the sibling is
  re-allocated to one container (round-robin).  When reserved-CPU usage
  exceeds T, the LC CPU set expands one CPU at a time (never onto an LC
  sibling), evicting batch from the new CPU's sibling.
* **Algorithm 3 (exiting)** -- when traffic ends, sibling CPUs return to
  batch containers and the expansion is rolled back; when batch containers
  exit, containers still camped on LC siblings migrate back to non-sibling
  CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import HolmesConfig
from repro.core.monitor import ContainerInfo, MetricMonitor, MonitorSample
from repro.oskernel.cgroup import CgroupError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import NodeObs
    from repro.oskernel import System


def mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` of a non-empty 1-D float64 array.

    The same arithmetic (one pairwise ``np.add.reduce``, then a single
    division by the count) without ``np.mean``'s dispatch, which costs
    more than the sum on the few-element arrays of the 50 us tick.
    """
    return float(np.add.reduce(values)) / len(values)


@dataclass
class SchedulerEvent:
    """One scheduling action, for convergence analysis and debugging."""

    time: float
    action: str
    detail: str = ""


class HolmesScheduler:
    """Algorithms 1-3 over the monitor's state."""

    def __init__(self, system: "System", config: HolmesConfig,
                 monitor: MetricMonitor, obs: "NodeObs | None" = None):
        self.system = system
        self.config = config
        self.monitor = monitor
        self._obs = obs
        #: capability precomputed once; when False the per-action cost of
        #: the observability plane is a single boolean check in _log.
        self._obs_sched = obs is not None and obs.wants("sched")
        #: sample under scheduling this tick (audit records read it).
        self._sample: MonitorSample | None = None
        topo = system.server.topology
        self.topology = topo
        self.reserved: list[int] = config.resolve_reserved(topo.n_cores)
        for lcpu in self.reserved:
            if topo.sibling(lcpu) in self.reserved:
                raise ValueError(
                    "reserved CPUs must not include hyperthread siblings "
                    f"of each other (got {self.reserved})"
                )
        #: current LC CPU set = reserved + expansion (insertion-ordered).
        self.lc_cpus: list[int] = list(self.reserved)
        self._expansion: list[int] = []
        #: last time each LC CPU's VPI was observed at/above E.
        self._last_high: dict[int, float] = {c: -np.inf for c in self.lc_cpus}
        self._rr_cursor = 0
        #: containers whose last cpuset write failed -> retry attempts so
        #: far.  Retried once per tick, bounded by cpuset_retry_limit.
        self._pending_cpuset: dict[str, int] = {}
        self._last_health = "healthy"
        self.events: list[SchedulerEvent] = []
        #: capped event log so multi-second runs don't grow unboundedly.
        self.max_events = 200_000
        #: every action taken, counted past the log's cap (the daemon's
        #: active-tick accounting reads this, not the log's length).
        self.n_actions = 0
        #: metric threshold (E for VPI mode, E_cps for the ablation mode).
        self.threshold = (
            config.e_threshold
            if config.metric_mode == "vpi"
            else config.e_cps_threshold
        )
        #: CPUs exempt from LC expansion (the guaranteed batch pool; the
        #: paper's limitation-discussion mitigation, off by default).
        non_sib = sorted(self.non_sibling_cpus, reverse=True)
        self.guaranteed_batch: frozenset[int] = frozenset(
            non_sib[: config.batch_guaranteed_cpus]
        )

    # -- helpers ---------------------------------------------------------------

    def _log(self, action: str, detail: str = "",
             lcpu: "int | None" = None, **extra) -> None:
        now = self.system.env.now
        self.n_actions += 1
        if len(self.events) < self.max_events:
            self.events.append(SchedulerEvent(now, action, detail))
        if self._obs_sched:
            args = self._audit(lcpu)
            if detail:
                args["detail"] = detail
            args.update(extra)
            self._obs.emit("sched", action, now, **args)

    def _audit(self, lcpu: "int | None" = None) -> dict:
        """Decision audit record: the signals behind a scheduler action.

        Every emitted action carries the thresholds it was judged against
        (E, T, S), the VPI-signal health/degraded flag, and — when a tick
        sample and an LC CPU are in scope — the observed VPI, the time
        since that CPU last read high, and the remaining S countdown.
        """
        cfg = self.config
        args = {
            "e_threshold": float(self.threshold),
            "t_expand": float(cfg.t_expand),
            "s_hold_us": float(cfg.s_hold_us),
            "health": self._last_health,
            "degraded": self._last_health == "degraded",
            "n_lc_cpus": len(self.lc_cpus),
            "expanded": len(self._expansion),
        }
        sample = self._sample
        if sample is not None:
            args["serving"] = any(s.serving for s in sample.lc_statuses)
            args["lc_usage"] = mean(sample.usage_ema[self.lc_cpus])
            if lcpu is not None and lcpu < len(sample.vpi):
                args["lcpu"] = int(lcpu)
                args["vpi"] = float(sample.vpi[lcpu])
                last = self._last_high.get(lcpu, -np.inf)
                if last == -np.inf:
                    args["since_high_us"] = None
                    args["s_remaining_us"] = 0.0
                else:
                    since = float(sample.time - last)
                    args["since_high_us"] = since
                    args["s_remaining_us"] = float(
                        max(0.0, cfg.s_hold_us - since)
                    )
        elif lcpu is not None:
            args["lcpu"] = int(lcpu)
        return args

    @property
    def lc_sibling_cpus(self) -> set[int]:
        return {self.topology.sibling(c) for c in self.lc_cpus}

    @property
    def non_sibling_cpus(self) -> set[int]:
        """Non-reserved CPUs whose siblings host no latency-critical work."""
        lc = set(self.lc_cpus)
        excluded = lc | self.lc_sibling_cpus
        return {c for c in self.topology.all_lcpus() if c not in excluded}

    def _container_cpuset(self, info: ContainerInfo) -> set[int]:
        return set(info.cpus) | set(info.sibling_grants)

    def _apply_cpuset(self, info: ContainerInfo) -> None:
        cpus = self._container_cpuset(info)
        if not cpus:
            # Algorithm 2 lines 6-7: fall back to the non-sibling pool.
            cpus = self.non_sibling_cpus or set(self.reserved) ^ set(
                self.topology.all_lcpus()
            )
            info.cpus = set(cpus)
        try:
            info.cgroup.set_cpuset(cpus)
        except CgroupError as exc:
            attempts = self._pending_cpuset.get(info.name, 0) + 1
            self._pending_cpuset[info.name] = attempts
            self._log("cpuset_write_failed", f"{info.name} attempt={attempts}: {exc}")
            return
        self._pending_cpuset.pop(info.name, None)

    def _retry_pending_cpusets(self) -> None:
        """Re-issue failed cpuset writes, one attempt per tick per container."""
        for name in sorted(self._pending_cpuset):
            info = self.monitor.containers.get(name)
            if info is None:
                # container exited while its write was pending
                self._pending_cpuset.pop(name, None)
                continue
            if self._pending_cpuset[name] >= self.config.cpuset_retry_limit:
                self._pending_cpuset.pop(name)
                self._log("cpuset_write_abandoned", name)
                continue
            self._apply_cpuset(info)

    # -- LC service placement (Algorithm 1, service arm) ----------------------------

    def allocate_lc_service(self, pid: int) -> None:
        """ALLOCATE(rsv_CPUs, pid): pin the service to the LC CPU set."""
        status = self.monitor.lc_services[pid]
        status.process.set_affinity(set(self.lc_cpus))
        self._log("lc_allocate", f"pid={pid} cpus={sorted(self.lc_cpus)}")

    def _set_lc_cpus(self, new_lc: list[int]) -> None:
        self.lc_cpus = new_lc
        self._last_high = {
            c: self._last_high.get(c, -np.inf) for c in self.lc_cpus
        }
        lc_set = set(new_lc)
        for status in self.monitor.lc_services.values():
            status.process.set_affinity(lc_set)

    # -- per-tick entry point ------------------------------------------------------

    def tick(self, sample: MonitorSample) -> None:
        self._sample = sample
        if self._pending_cpuset:
            self._retry_pending_cpusets()
        if sample.health != self._last_health:
            self._on_health_change(sample.health, sample.time)
        self._handle_exits(sample)
        self._handle_launches(sample)
        if sample.health == "degraded":
            self._handle_running_degraded(sample)
        else:
            self._handle_running(sample)

    def _on_health_change(self, health: str, now: float) -> None:
        if self._last_health == "degraded":
            # signal back: require a full S of *observed* calm before any
            # sibling re-grant, as if every LC CPU had just read high.
            for lc in self.lc_cpus:
                self._last_high[lc] = now
            self._log("vpi_signal_restored", f"health={health}")
        elif health == "degraded":
            self._log("vpi_signal_lost", "failing safe: no sibling grants")
        self._last_health = health

    # -- Algorithm 3: exiting ----------------------------------------------------------

    def _handle_exits(self, sample: MonitorSample) -> None:
        if not sample.gone_containers:
            return
        for info in sample.gone_containers:
            self._log("container_exit", info.name)
        # Batch capacity freed on non-sibling CPUs: migrate containers that
        # are camped on LC siblings back onto non-sibling CPUs.
        non_sib = list(self.non_sibling_cpus)
        if not non_sib:
            return
        non_sib_usage = mean(sample.usage_ema[non_sib])
        if non_sib_usage < self.config.nonsibling_busy_usage:
            for info in self.monitor.containers.values():
                if info.sibling_grants:
                    info.sibling_grants.clear()
                    info.cpus |= set(non_sib)
                    self._apply_cpuset(info)
                    self._log("migrate_to_nonsibling", info.name)

    # -- Algorithm 1: launching --------------------------------------------------------

    def _handle_launches(self, sample: MonitorSample) -> None:
        for info in sample.new_containers:
            self._place_container(info, sample)

    def _place_container(self, info: ContainerInfo, sample: MonitorSample) -> None:
        want = self.config.cpus_per_container
        non_sib = sorted(self.non_sibling_cpus)
        # prefer non-sibling CPUs with the fewest containers already
        # assigned, then the least loaded (several containers discovered in
        # one tick must spread out, not pile onto the same idle CPUs)
        assigned: dict[int, int] = {}
        for other in self.monitor.containers.values():
            if other is not info:
                for c in other.cpus:
                    assigned[c] = assigned.get(c, 0) + 1
        non_sib.sort(key=lambda c: (assigned.get(c, 0), sample.usage_ema[c], c))
        chosen = list(non_sib[:want])
        if len(chosen) < want and non_sib:
            # fewer distinct CPUs than requested: share the pool
            chosen = list(non_sib)
        busy = bool(non_sib) and (
            mean(sample.usage_ema[non_sib]) >= self.config.nonsibling_busy_usage
        )
        if ((not chosen) or busy) and sample.health != "degraded":
            # spill onto LC-sibling CPUs whose LC CPU is calm (VPI < E);
            # with the metric signal lost, "calm" is unknowable -> no spill.
            for lc in self.lc_cpus:
                sib = self.topology.sibling(lc)
                if sample.vpi[lc] < self.threshold:
                    info.sibling_grants.add(sib)
        info.cpus = set(chosen)
        self._apply_cpuset(info)
        self._log(
            "container_launch",
            f"{info.name} cpus={sorted(self._container_cpuset(info))}",
        )

    # -- Algorithm 2: running ----------------------------------------------------------

    def _handle_running(self, sample: MonitorSample) -> None:
        cfg = self.config
        serving = any(s.serving for s in sample.lc_statuses)
        now = sample.time

        if serving:
            for lc in self.lc_cpus:
                if sample.vpi[lc] >= self.threshold:
                    self._last_high[lc] = now
                    self._deallocate_sibling(lc)

        # re-allocation: immediately once traffic is over (Algorithm 3),
        # after S of calm while serving (Algorithm 2 lines 12-15).
        for lc in self.lc_cpus:
            sib = self.topology.sibling(lc)
            if any(sib in i.sibling_grants for i in self.monitor.containers.values()):
                continue
            calm = (now - self._last_high[lc]) >= cfg.s_hold_us
            if (not serving) or calm:
                self._reallocate_sibling(lc)

        if serving:
            self._maybe_expand(sample)
        else:
            self._maybe_contract()

    def _handle_running_degraded(self, sample: MonitorSample) -> None:
        """Algorithm 2 with the metric signal lost (degraded mode).

        SLO first: while the service is serving, assume every LC CPU is
        interfered with -- keep all siblings deallocated and let the
        usage-based expansion (which needs no counters) keep working.
        With no traffic there is nothing to protect, so batch gets the
        siblings back and expansion rolls back, exactly as in Algorithm 3.
        """
        now = sample.time
        serving = any(s.serving for s in sample.lc_statuses)
        if serving:
            for lc in self.lc_cpus:
                self._last_high[lc] = now
                self._deallocate_sibling(lc)
            self._maybe_expand(sample)
        else:
            for lc in self.lc_cpus:
                sib = self.topology.sibling(lc)
                if any(sib in i.sibling_grants
                       for i in self.monitor.containers.values()):
                    continue
                self._reallocate_sibling(lc)
            self._maybe_contract()

    def _deallocate_sibling(self, lc_cpu: int) -> None:
        sib = self.topology.sibling(lc_cpu)
        for info in self.monitor.containers.values():
            changed = False
            if sib in info.sibling_grants:
                info.sibling_grants.discard(sib)
                changed = True
            if sib in info.cpus:
                info.cpus.discard(sib)
                changed = True
            if changed:
                self._apply_cpuset(info)
                self._log("dealloc_sibling", f"lcpu={sib} from {info.name}",
                          lcpu=lc_cpu, sibling=sib, container=info.name)

    def _reallocate_sibling(self, lc_cpu: int) -> None:
        """CHOOSE_ONE(pid_set_batch); ALLOCATE(sibling_CPU, pid)."""
        containers = list(self.monitor.containers.values())
        if not containers:
            return
        sib = self.topology.sibling(lc_cpu)
        info = containers[self._rr_cursor % len(containers)]
        self._rr_cursor += 1
        info.sibling_grants.add(sib)
        self._apply_cpuset(info)
        self._log("realloc_sibling", f"lcpu={sib} to {info.name}",
                  lcpu=lc_cpu, sibling=sib, container=info.name)

    def _maybe_expand(self, sample: MonitorSample) -> None:
        cfg = self.config
        lc = list(self.lc_cpus)
        if mean(sample.usage_ema[lc]) <= cfg.t_expand:
            return
        # GET_OR_DEPRIVE: pick a CPU that is not an LC sibling.
        lc_set = set(self.lc_cpus)
        forbidden = lc_set | self.lc_sibling_cpus | self.guaranteed_batch
        candidates = [c for c in self.topology.all_lcpus() if c not in forbidden]
        if not candidates:
            return
        candidates.sort(key=lambda c: sample.usage_ema[c])
        new_cpu = candidates[0]
        # evict batch from the new LC CPU itself and from its sibling
        self._evict_batch_from(new_cpu)
        self._set_lc_cpus(self.lc_cpus + [new_cpu])
        self._expansion.append(new_cpu)
        self._last_high[new_cpu] = self.system.env.now
        self._deallocate_sibling(new_cpu)
        self._log("expand", f"lcpu={new_cpu}", lcpu=new_cpu)

    def _evict_batch_from(self, lcpu: int) -> None:
        for info in self.monitor.containers.values():
            if lcpu in info.cpus or lcpu in info.sibling_grants:
                info.cpus.discard(lcpu)
                info.sibling_grants.discard(lcpu)
                self._apply_cpuset(info)

    def _maybe_contract(self) -> None:
        if not self._expansion:
            return
        released = self._expansion
        self._expansion = []
        self._set_lc_cpus(list(self.reserved))
        # grants pointing at siblings of released expansion CPUs are now
        # ordinary allocations: reclassify so grant bookkeeping only ever
        # refers to current LC siblings
        lc_sibs = self.lc_sibling_cpus
        for info in self.monitor.containers.values():
            stale = info.sibling_grants - lc_sibs
            if stale:
                info.sibling_grants -= stale
                info.cpus |= stale
        for lcpu in released:
            self._log("contract", f"lcpu={lcpu}", lcpu=lcpu)
