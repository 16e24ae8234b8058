"""The Holmes metric monitor (paper Section 4.2).

Collects, once per invocation interval:

* per-logical-CPU usage over the window and an EMA-smoothed view,
* per-logical-CPU VPI of the selected event (0x14A3), with the
  load+store counts that weight its per-core aggregates,
* latency-critical process status (CPU time rate -> "serving traffic?"),
* batch containers, discovered by scanning the batch cgroup directory
  (new directories = launched containers, vanished = exited).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import HolmesConfig
from repro.core.vpi import VPIReader, aggregate_per_core
from repro.oskernel.accounting import UsageTracker

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector
    from repro.obs import NodeObs
    from repro.oskernel import OSProcess, System
    from repro.oskernel.cgroup import Cgroup


class DeadServiceError(RuntimeError):
    """Raised when a known-but-exited pid is registered as an LC service.

    Distinct from the ``KeyError`` raised for a pid the system has never
    seen (a caller bug): a dead service is a race the daemon must survive
    -- the administrator handed over the pid just as the service crashed.
    """


@dataclass
class LCStatus:
    """Tracked state of one latency-critical service process."""

    pid: int
    process: "OSProcess"
    last_cputime: float = 0.0
    usage_ema: float = 0.0
    serving: bool = False


@dataclass
class ContainerInfo:
    """Tracked state of one batch container (one cgroup directory)."""

    name: str
    cgroup: "Cgroup"
    discovered_at: float
    #: CPUs Holmes granted this container (base, non-sibling preference).
    cpus: set[int] = field(default_factory=set)
    #: LC-sibling CPUs currently on loan to this container.
    sibling_grants: set[int] = field(default_factory=set)


@dataclass
class MonitorSample:
    """Everything the scheduler needs for one tick."""

    time: float
    usage: np.ndarray  # per-lcpu busy fraction, this window
    usage_ema: np.ndarray  # per-lcpu smoothed usage
    vpi: np.ndarray  # per-lcpu VPI (scaled)
    ldst: np.ndarray  # per-lcpu retired loads+stores, the VPI weights
    new_containers: list[ContainerInfo]
    gone_containers: list[ContainerInfo]
    lc_statuses: list[LCStatus]
    #: VPI signal health: "healthy", "stale" (holding last-good values)
    #: or "degraded" (signal lost for >= K windows; fail safe).
    health: str = "healthy"

    @property
    def core_vpi(self) -> np.ndarray:
        """Per-core aggregated VPI, computed when read: no algorithm
        reads it on the 50 us tick."""
        return aggregate_per_core(self.vpi, self.ldst, len(self.vpi) // 2)


class MetricMonitor:
    """State holder + per-tick collection logic (driven by the daemon)."""

    def __init__(self, system: "System", config: HolmesConfig,
                 faults: "FaultInjector | None" = None,
                 obs: "NodeObs | None" = None,
                 plane=None, node_index: int = 0):
        self.system = system
        self.config = config
        self._faults = faults
        self._obs = obs
        #: health transitions only happen under fault injection, so this
        #: capability costs nothing on the healthy hot path.
        self._obs_health = obs is not None and obs.wants("health")
        self.env = system.env
        server = system.server
        from repro.hw.events import by_code

        self.metric_event = by_code(config.metric_event_code)
        # ``plane`` (a repro.cluster.dataplane.ClusterDataPlane) switches
        # the windowed reads to the cluster-wide batched hubs and backs
        # the EMAs with the pool's row views.
        self.vpi_reader = VPIReader(
            server,
            event=self.metric_event,
            scale=config.vpi_scale,
            min_instructions=config.min_instructions,
            plane=plane,
            node_index=node_index,
        )
        self.usage_tracker = UsageTracker(
            self.env, server,
            hub=plane.usage_hub if plane is not None else None,
            node_index=node_index,
        )
        self.n_lcpus = server.topology.n_lcpus
        self.n_cores = server.topology.n_cores
        if plane is not None:
            self._usage_ema = plane.usage_ema[node_index]
            self._vpi_ema = plane.vpi_ema[node_index]
        else:
            self._usage_ema = np.zeros(self.n_lcpus)
            self._vpi_ema = np.zeros(self.n_lcpus)
        #: scratch buffer for the in-place EMA update (collect runs every
        #: 50 us; per-tick temporaries are the monitor's dominant cost).
        self._ema_tmp = np.zeros(self.n_lcpus)
        self.lc_services: dict[int, LCStatus] = {}
        self.containers: dict[str, ContainerInfo] = {}
        self._container_names: frozenset[str] = frozenset()
        system.cgroups.create(config.batch_cgroup_root)
        self._last_time = self.env.now
        # -- VPI signal health (only exercised under fault injection) ------
        self.health = "healthy"
        self._stale_windows = 0
        self._last_good_vpi = np.zeros(self.n_lcpus)
        self._last_good_ldst = np.zeros(self.n_lcpus)
        #: closed [start, end) spans the monitor spent degraded.
        self.degraded_intervals: list[tuple[float, float]] = []
        self._degraded_since: float | None = None
        self.counter_read_failures = 0
        self.counter_retries = 0
        self.garbage_samples = 0
        self.discarded_samples = 0

    # -- smoothed views (telemetry reads these between collect() calls) ---------

    @property
    def usage_ema(self) -> np.ndarray:
        """Per-lcpu smoothed usage as of the last :meth:`collect`."""
        return self._usage_ema

    @property
    def vpi_ema(self) -> np.ndarray:
        """Per-lcpu smoothed VPI as of the last :meth:`collect`."""
        return self._vpi_ema

    # -- registration -----------------------------------------------------------

    def register_lc_service(self, pid: int) -> LCStatus:
        """The administrator hands Holmes the service PID (Section 5).

        Raises ``KeyError`` for a pid the system has never seen (a caller
        bug) and :class:`DeadServiceError` for a known pid whose process
        has already exited (a crash race the daemon handles gracefully).
        """
        process = self.system.processes.get(pid)
        if process is None:
            raise KeyError(f"no such process: pid={pid}")
        if not process.alive:
            raise DeadServiceError(
                f"cannot register LC service pid={pid} "
                f"({process.name!r}): process has already exited"
            )
        status = LCStatus(pid=pid, process=process,
                          last_cputime=process.cputime_us)
        self.lc_services[pid] = status
        return status

    # -- per-tick collection ----------------------------------------------------------

    def collect(self) -> MonitorSample:
        now = self.env.now
        dt = max(now - self._last_time, 1e-9)
        self._last_time = now

        usage = self.usage_tracker.sample()
        alpha = 1.0 - math.exp(-dt / self.config.usage_ema_tau_us)
        # in-place EMA: ema += alpha * (usage - ema), without temporaries
        tmp = self._ema_tmp
        np.subtract(usage, self._usage_ema, out=tmp)
        tmp *= alpha
        self._usage_ema += tmp

        if self._faults is None or not self._faults.has_counter_faults:
            ok = True
            raw_vpi, ldst, counter = self.vpi_reader.sample_full()
        else:
            ok, raw_vpi, ldst, counter = self._sample_vpi_faulty(now)
        if ok:
            if self.config.metric_mode == "cps":
                # the rejected Section 3.1 alternative: counter value per
                # second of wall time, regardless of how loaded the CPU was.
                vpi = counter / (dt / 1e6)
            else:
                vpi = raw_vpi

            vpi_alpha = 1.0 - math.exp(-dt / self.config.vpi_ema_tau_us)
            np.subtract(vpi, self._vpi_ema, out=tmp)
            tmp *= vpi_alpha
            self._vpi_ema += tmp
            if self._faults is not None:
                self._last_good_vpi = vpi
                self._last_good_ldst = ldst
        else:
            # stale window: hold the last-good VPI view (and its EMA) so
            # one bad read doesn't flap the algorithms; K held windows in
            # a row flip health to "degraded" (see _note_stale).
            vpi = self._last_good_vpi
            ldst = self._last_good_ldst

        self._update_lc_statuses(dt, alpha)
        new, gone = self._scan_containers()

        return MonitorSample(
            time=now,
            usage=usage,
            usage_ema=self._usage_ema.copy(),
            vpi=vpi,
            ldst=ldst,
            new_containers=new,
            gone_containers=gone,
            lc_statuses=list(self.lc_services.values()),
            health=self.health,
        )

    # -- counter faults and signal health ---------------------------------

    def _sample_vpi_faulty(self, now: float):
        """One counter read under fault injection.

        Returns ``(ok, vpi, ldst, counter)``.  A failed read is retried
        within the window (the budget backs off while the signal stays
        broken); an unrecovered failure skips the read entirely, so the
        underlying counter window widens exactly as a real perf fd's
        would.  Garbage reads consume the window but may be discarded by
        the plausibility check.
        """
        cfg = self.config
        fault = self._faults.counter_fault(now)
        if fault == "error":
            attempts = max(
                1, cfg.counter_read_retries >> min(self._stale_windows, 8)
            )
            recovered = False
            for _ in range(attempts):
                self.counter_retries += 1
                if self._faults.counter_retry_ok(now):
                    recovered = True
                    break
            if not recovered:
                self.counter_read_failures += 1
                self._note_stale(now)
                return False, None, None, None
        raw_vpi, ldst, counter = self.vpi_reader.sample_full()
        if fault == "garbage":
            self.garbage_samples += 1
            raw_vpi = self._faults.corrupt(raw_vpi, now)
            counter = self._faults.corrupt(counter, now)
            implausible = (
                not np.isfinite(raw_vpi).all()
                or float(raw_vpi.max(initial=0.0)) > cfg.vpi_garbage_ceiling
            )
            if implausible:
                self.discarded_samples += 1
                self._note_stale(now)
                return False, None, None, None
        self._note_good(now)
        return True, raw_vpi, ldst, counter

    def _note_stale(self, now: float) -> None:
        self._stale_windows += 1
        if self._stale_windows >= self.config.stale_hold_windows:
            if self.health != "degraded":
                self.health = "degraded"
                self._degraded_since = now
                if self._obs_health:
                    self._obs.emit("health", "degraded", now,
                                   stale_windows=self._stale_windows)
        elif self.health == "healthy":
            self.health = "stale"
            if self._obs_health:
                self._obs.emit("health", "stale", now,
                               stale_windows=self._stale_windows)

    def _note_good(self, now: float) -> None:
        if self.health == "degraded" and self._degraded_since is not None:
            self.degraded_intervals.append((self._degraded_since, now))
            if self._obs_health:
                self._obs.emit(
                    "health", "recovered", now,
                    degraded_for_us=float(now - self._degraded_since),
                    stale_windows=self._stale_windows,
                )
            self._degraded_since = None
        elif self.health == "stale" and self._obs_health:
            self._obs.emit("health", "recovered", now,
                           stale_windows=self._stale_windows)
        self._stale_windows = 0
        self.health = "healthy"

    @property
    def stale_windows(self) -> int:
        """Consecutive windows the VPI signal has been unreadable."""
        return self._stale_windows

    def degraded_total_us(self, now: float) -> float:
        """Total time spent degraded, including any open interval."""
        total = sum(b - a for a, b in self.degraded_intervals)
        if self._degraded_since is not None:
            total += now - self._degraded_since
        return float(total)

    def degraded_intervals_closed(self, now: float) -> list[tuple[float, float]]:
        """All degraded spans, with any open one closed at ``now``."""
        out = list(self.degraded_intervals)
        if self._degraded_since is not None:
            out.append((self._degraded_since, now))
        return out

    def rebaseline(self, now: float) -> None:
        """Restart every sampling window from ``now`` (daemon restart).

        The stopped span must not leak into the first window after a
        restart: usage would read the whole gap's busy time, the counter
        delta would cover the gap, and every LC service's CPU-time rate
        would spike, falsely flipping it to "serving".
        """
        self._last_time = now
        self.usage_tracker.rebaseline()
        self.vpi_reader.resync()
        for status in self.lc_services.values():
            status.last_cputime = status.process.cputime_us

    def _update_lc_statuses(self, dt: float, alpha: float) -> None:
        cfg = self.config
        for status in self.lc_services.values():
            cputime = status.process.cputime_us
            rate = (cputime - status.last_cputime) / dt
            status.last_cputime = cputime
            status.usage_ema += alpha * (rate - status.usage_ema)
            if status.serving:
                if status.usage_ema < cfg.serving_off_usage:
                    status.serving = False
            else:
                if status.usage_ema > cfg.serving_on_usage:
                    status.serving = True

    def _scan_containers(self) -> tuple[list[ContainerInfo], list[ContainerInfo]]:
        """Diff the batch cgroup directory against the tracked set."""
        root = self.config.batch_cgroup_root
        try:
            names = self.system.cgroups.get(root).children.keys()
        except KeyError:
            names = frozenset()
        new: list[ContainerInfo] = []
        gone: list[ContainerInfo] = []
        if names == self._container_names:
            # nothing launched or exited since the last tick: the common
            # case on the 50 us loop, so compare the live names with the
            # cached set and skip the per-name set algebra.
            return new, gone
        names = self._container_names = frozenset(names)
        # sorted: set iteration is hash-ordered, which varies between
        # interpreter runs and would make discovery (and every scheduling
        # decision downstream of it) non-reproducible across processes.
        for name in sorted(names - set(self.containers)):
            cgroup = self.system.cgroups.get(f"{root}/{name}")
            info = ContainerInfo(name=name, cgroup=cgroup,
                                 discovered_at=self.env.now)
            self.containers[name] = info
            new.append(info)
        for name in sorted(set(self.containers) - names):
            gone.append(self.containers.pop(name))
        return new, gone
