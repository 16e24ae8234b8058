"""The Holmes daemon: monitor + scheduler in one 50 us closed loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.config import HolmesConfig
from repro.core.monitor import DeadServiceError, MetricMonitor
from repro.core.scheduler import HolmesScheduler, mean
from repro.sim import Series

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector
    from repro.obs import NodeObs
    from repro.oskernel import System


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Per-node health summary exported to cluster-level schedulers.

    One cheap read per placement decision: everything here is already
    maintained by the monitor's per-tick EMAs, so taking a snapshot costs
    a few numpy reductions and allocates nothing persistent.  Cluster
    schedulers fold these fields into a single interference score
    (:mod:`repro.cluster.score`).
    """

    time: float
    #: smoothed VPI averaged over the current LC CPU set -- the paper's
    #: interference signal, lifted from a deallocation trigger to a
    #: cluster placement input.
    lc_vpi_ema: float
    #: smoothed usage averaged over the *reserved* CPUs (LC pressure).
    reserved_pressure: float
    #: smoothed usage averaged over the non-reserved CPUs (batch load).
    batch_occupancy: float
    #: batch containers currently tracked on this node.
    n_containers: int
    #: current LC CPU set size (reserved + expansion).
    n_lc_cpus: int
    #: CPUs the LC set has expanded beyond the reserved pool.
    expanded: int
    #: any registered LC service currently serving traffic?
    serving: bool
    # -- robustness fields (appended with defaults so existing consumers
    # -- and positional constructions keep working) -----------------------
    #: VPI signal health: "healthy", "stale" or "degraded".
    health: str = "healthy"
    #: consecutive windows the monitor has gone without a good VPI read.
    stale_windows: int = 0
    #: cumulative time this daemon has spent in degraded mode.
    degraded_total_us: float = 0.0
    #: daemon ticks lost to injected misses.
    missed_ticks: int = 0
    #: times the watchdog re-armed a stalled loop.
    watchdog_recoveries: int = 0


class Holmes:
    """The user-space daemon (paper Section 5).

    Usage::

        holmes = Holmes(system)
        holmes.start()
        service.start(lcpus=holmes.lc_cpus)       # pin on the reserved set
        holmes.register_lc_service(service.pid)   # admin hands over the PID

    The daemon then watches counters and cgroups every ``interval_us`` and
    adjusts affinities.  Batch jobs need no registration: their containers
    are discovered through the cgroup scan.
    """

    #: estimated CPU cost of one monitor+scheduler invocation, used for the
    #: Section 6.6 overhead figure (the paper's C++ daemon costs 1.3-3 %
    #: CPU at a 50 us interval, i.e. ~0.7-1.5 us per tick).
    TICK_COST_US = 1.0
    TICK_COST_ACTIVE_US = 1.5

    def __init__(
        self,
        system: "System",
        config: Optional[HolmesConfig] = None,
        record_vpi_every: int = 20,
        faults: Optional["FaultInjector"] = None,
        obs: Optional["NodeObs"] = None,
        plane=None,
        node_index: int = 0,
    ):
        self.system = system
        self.env = system.env
        self.config = config or HolmesConfig()
        self.faults = faults
        self.obs = obs
        self._obs_daemon = obs is not None and obs.wants("daemon")
        #: LC-mean VPI histogram in the metrics registry, fed at the same
        #: decimated cadence as vpi_history; None keeps the record point
        #: at one extra is-not-None check when metrics are off.
        self._vpi_hist = None
        if obs is not None and obs.wants("metrics") and obs.metrics is not None:
            from repro.obs import VPI_BUCKETS

            self._vpi_hist = obs.histogram("lc_vpi", VPI_BUCKETS)
            self._usage_hist = obs.histogram(
                "lc_usage", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                             0.95, 1.0)
            )
        #: static: does the plan ever miss/stall a tick?  Keeps the
        #: per-tick hot path free of injector calls otherwise.
        self._tick_faults = faults is not None and faults.has_tick_faults
        if faults is not None:
            faults.install(system)
            if obs is not None:
                faults.attach_obs(obs)
        # ``plane``/``node_index``: cluster-pooled telemetry storage and
        # batched read hubs (repro.cluster.dataplane); None keeps the
        # monitor on its private scalar arrays.
        self.monitor = MetricMonitor(system, self.config, faults=faults,
                                     obs=obs, plane=plane,
                                     node_index=node_index)
        self.scheduler = HolmesScheduler(system, self.config, self.monitor,
                                         obs=obs)
        self.ticks = 0
        self.active_ticks = 0
        #: injected tick faults absorbed by the loop.
        self.missed_ticks = 0
        self.stalled_ticks = 0
        #: times the watchdog re-armed a silent loop.
        self.watchdog_recoveries = 0
        self._last_tick_at = 0.0
        self._running = False
        self._started_once = False
        self._process = None
        self._watchdog_proc = None
        self._timer = None
        #: cached non-reserved index array for telemetry() (the reserved
        #: set changes rarely; rebuilding it per snapshot dominated the
        #: snapshot cost).
        self._non_reserved_idx: Optional[np.ndarray] = None
        self._non_reserved_key: Optional[tuple] = None
        #: decimated history of mean VPI over the LC CPUs (Fig. 13).
        self.vpi_history = Series("lc_vpi")
        self.usage_history = Series("lc_usage")
        self._record_every = max(1, record_vpi_every)

    # -- public API --------------------------------------------------------------

    @property
    def lc_cpus(self) -> list[int]:
        """Current LC CPU set (reserved + expansion)."""
        return list(self.scheduler.lc_cpus)

    @property
    def reserved_cpus(self) -> list[int]:
        return list(self.scheduler.reserved)

    def non_reserved_cpus(self) -> set[int]:
        return set(self.system.server.topology.all_lcpus()) - set(
            self.scheduler.reserved
        )

    def register_lc_service(self, pid: int) -> bool:
        """Register a latency-critical service by pid.

        Returns True on success.  A pid the system has never seen is a
        caller bug and raises KeyError; a known pid whose process already
        exited is an operational race (the service crashed before the
        handover) -- that is logged and reported as False, and the daemon
        keeps running.
        """
        try:
            self.monitor.register_lc_service(pid)
        except DeadServiceError as exc:
            self.scheduler._log("lc_register_failed", str(exc))
            return False
        self.scheduler.allocate_lc_service(pid)
        return True

    def telemetry(self) -> TelemetrySnapshot:
        """Current per-node health summary (see :class:`TelemetrySnapshot`)."""
        monitor = self.monitor
        lc = self.scheduler.lc_cpus
        reserved = self.scheduler.reserved
        key = tuple(reserved)
        if key != self._non_reserved_key:
            rs = set(key)
            self._non_reserved_idx = np.array(
                [c for c in range(monitor.n_lcpus) if c not in rs],
                dtype=np.intp,
            )
            self._non_reserved_key = key
        non_reserved = self._non_reserved_idx
        usage_ema = monitor.usage_ema
        return TelemetrySnapshot(
            time=self.env.now,
            lc_vpi_ema=float(np.mean(monitor.vpi_ema[lc])),
            reserved_pressure=float(np.mean(usage_ema[reserved])),
            batch_occupancy=(
                float(np.mean(usage_ema[non_reserved]))
                if non_reserved.size
                else 0.0
            ),
            n_containers=len(monitor.containers),
            n_lc_cpus=len(lc),
            expanded=len(lc) - len(reserved),
            serving=any(s.serving for s in monitor.lc_services.values()),
            health=monitor.health,
            stale_windows=monitor.stale_windows,
            degraded_total_us=monitor.degraded_total_us(self.env.now),
            missed_ticks=self.missed_ticks,
            watchdog_recoveries=self.watchdog_recoveries,
        )

    def health_report(self) -> dict:
        """Robustness counters for sweep reports and chaos analysis."""
        now = self.env.now
        monitor = self.monitor
        report = {
            "health": monitor.health,
            "degraded_intervals": [
                [a, b] for a, b in monitor.degraded_intervals_closed(now)
            ],
            "degraded_total_us": monitor.degraded_total_us(now),
            "counter_read_failures": monitor.counter_read_failures,
            "counter_retries": monitor.counter_retries,
            "garbage_samples": monitor.garbage_samples,
            "discarded_samples": monitor.discarded_samples,
            "missed_ticks": self.missed_ticks,
            "stalled_ticks": self.stalled_ticks,
            "watchdog_recoveries": self.watchdog_recoveries,
        }
        if self.faults is not None:
            report["injected"] = self.faults.stats_dict()
        return report

    def start(self) -> None:
        if self._running:
            raise RuntimeError("Holmes already started")
        if self._started_once:
            # restart: re-baseline every window (usage, counters, per-LC
            # cputime) so the stopped span does not pollute the first
            # post-restart sample.
            self.monitor.rebaseline(self.env.now)
        self._started_once = True
        self._running = True
        self._last_tick_at = self.env.now
        if self._obs_daemon:
            self.obs.emit("daemon", "start", self.env.now,
                          interval_us=float(self.config.interval_us),
                          restart=self.ticks > 0)
        self._process = self.env.process(self._loop(), name="holmes")
        wd = self._watchdog_timeout()
        if wd:
            self._watchdog_proc = self.env.process(
                self._watchdog(wd), name="holmes-watchdog"
            )

    def stop(self) -> None:
        if not self._running:
            return  # double stop is a no-op
        self._running = False
        if self._obs_daemon:
            self.obs.emit("daemon", "stop", self.env.now, ticks=self.ticks)
        # Drop the armed tick from the calendar so a stopped daemon leaves
        # no stale entry firing into a dead loop, and unwind the loop and
        # watchdog processes so a later start() rebuilds them cleanly.
        if self._timer is not None:
            self._timer.cancel()
        self._interrupt_quietly(self._process)
        self._interrupt_quietly(self._watchdog_proc)

    def _interrupt_quietly(self, proc) -> None:
        from repro.sim import SimulationError

        if proc is None or not proc.is_alive:
            return
        try:
            proc.interrupt("holmes-stop")
        except SimulationError:
            pass  # never started or already unwinding

    def _watchdog_timeout(self) -> float:
        """Effective watchdog timeout; 0 disables the watchdog."""
        if self.config.watchdog_timeout_us is not None:
            return self.config.watchdog_timeout_us
        # auto: arm only when fault injection can actually stall the loop.
        return 20.0 * self.config.interval_us if self._tick_faults else 0.0

    # -- the closed loop ------------------------------------------------------------

    def _loop(self):
        from repro.sim import Interrupt, RecurringTimeout

        # reusable auto-rearming tick event: the 50 us loop otherwise
        # allocates one Timeout per tick, tens of thousands per simulated
        # second, and the kernel re-arms it at pop time with no extra
        # user-level frame.
        timer = RecurringTimeout(self.env, self.config.interval_us, auto=True)
        self._timer = timer
        while self._running:
            try:
                yield timer
            except Interrupt:
                if not self._running:
                    break
                # re-armed by the watchdog: just park on the (auto
                # re-arming) timer again, which waits for the next grid
                # boundary.
                continue
            if not self._running:
                break
            if self._tick_faults:
                fault = self.faults.tick_fault(self.env.now)
                if fault is not None:
                    kind, duration = fault
                    if kind == "miss":
                        # tick dropped whole: the next collect simply sees
                        # a doubled window, like a delayed wakeup would.
                        self.missed_ticks += 1
                        self._last_tick_at = self.env.now
                        if self._obs_daemon:
                            self.obs.emit("daemon", "tick_miss", self.env.now)
                        continue
                    # stall: the loop wedges mid-tick for ``duration``.
                    self.stalled_ticks += 1
                    if self._obs_daemon:
                        self.obs.emit("daemon", "tick_stall", self.env.now,
                                      duration_us=float(duration))
                    try:
                        yield self.env.timeout(duration)
                    except Interrupt:
                        if not self._running:
                            break
                        continue  # watchdog recovery: abandon this tick
            sample = self.monitor.collect()
            events_before = len(self.scheduler.events)
            self.scheduler.tick(sample)
            self.ticks += 1
            self._last_tick_at = self.env.now
            if len(self.scheduler.events) > events_before:
                self.active_ticks += 1
            if self.ticks % self._record_every == 0:
                lc = self.scheduler.lc_cpus
                lc_vpi = mean(sample.vpi[lc])
                lc_usage = mean(sample.usage_ema[lc])
                self.vpi_history.record(sample.time, lc_vpi)
                self.usage_history.record(sample.time, lc_usage)
                if self._vpi_hist is not None:
                    self._vpi_hist.observe(lc_vpi)
                    self._usage_hist.observe(lc_usage)
        timer.cancel()

    def _watchdog(self, timeout_us: float):
        """Re-arm the loop when it has been silent for ``timeout_us``.

        Silence this long past the last completed tick means the loop is
        wedged (an injected stall, on real hardware a blocked syscall);
        it gets an interrupt that sends it back to the timer.
        """
        from repro.sim import Interrupt, RecurringTimeout

        timer = RecurringTimeout(self.env, timeout_us, auto=True)
        while self._running:
            try:
                yield timer
            except Interrupt:
                break
            if not self._running:
                break
            loop = self._process
            if (
                loop is not None
                and loop.is_alive
                and (self.env.now - self._last_tick_at) >= timeout_us
            ):
                self.watchdog_recoveries += 1
                if self._obs_daemon:
                    self.obs.emit("daemon", "watchdog_recovery", self.env.now,
                                  silent_for_us=float(
                                      self.env.now - self._last_tick_at))
                loop.interrupt("watchdog")
        timer.cancel()

    # -- Section 6.6: overhead ---------------------------------------------------------

    def estimated_overhead(self) -> dict:
        """CPU and memory overhead estimate of the daemon.

        CPU: per-tick cost (idle vs active management) over the interval.
        Memory: the live monitoring state, dominated by the counter
        snapshots and EMA arrays -- a couple of MB at the paper's scale.
        """
        if self.ticks:
            active_frac = self.active_ticks / self.ticks
        else:
            active_frac = 0.0
        per_tick = (
            self.TICK_COST_US * (1 - active_frac)
            + self.TICK_COST_ACTIVE_US * active_frac
        )
        cpu_frac = per_tick / self.config.interval_us
        n = self.system.server.topology.n_lcpus
        state_bytes = (
            n * 8 * 8  # counter snapshots, EMAs, usage windows
            + len(self.monitor.containers) * 512
            + len(self.scheduler.events) * 96
        )
        return {
            "cpu_fraction": cpu_frac,
            "cpu_percent": 100.0 * cpu_frac,
            "resident_bytes": state_bytes + 2 * 1024 * 1024,  # code + arenas
            "ticks": self.ticks,
            "active_tick_fraction": active_frac,
            # pinned by every committed holmes payload digest; always 0.
            "skipped_idle_ticks": 0,
        }
