"""Holmes configuration (the paper's Section 5 parameter set)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass
class HolmesConfig:
    """Parameters of the Holmes daemon.

    Defaults follow the paper's implementation section: 50 us invocation
    interval, four reserved CPUs, deallocation threshold E = 40, expansion
    threshold T = 80 %.  The simulated services are calibrated so raw VPI
    (stall cycles per load/store instruction) lands directly on the paper's
    scale: ~18-22 uncontended, ~46-60 under sibling memory pressure, which
    the paper's E = 40 separates exactly as intended (``vpi_scale`` is left
    as a knob for recalibrated substrates).
    """

    #: monitor + scheduler invocation interval (microseconds).
    interval_us: float = 50.0
    #: logical CPUs reserved for latency-critical services (Algorithm 1).
    #: None = the first ``n_reserved`` thread-0 logical CPUs.
    reserved_cpus: Optional[Sequence[int]] = None
    n_reserved: int = 4
    #: VPI deallocation threshold E (Algorithm 2).
    e_threshold: float = 40.0
    #: CPU usage threshold T for reserved-set expansion (0 < T < 1).
    t_expand: float = 0.8
    #: S: how long VPI must stay below E before LC-sibling CPUs are
    #: re-allocated to batch jobs (microseconds).  The paper leaves S's
    #: value open ("for S seconds"); experiments run time-scaled ~1:100,
    #: so 20 ms here corresponds to ~2 s of paper time.
    s_hold_us: float = 20_000.0
    #: calibration factor from raw counter VPI onto the paper's scale.
    vpi_scale: float = 1.0
    #: per-window (load+store) floor below which a CPU's VPI reads 0.
    min_instructions: float = 50.0
    #: EMA time constant for usage smoothing (serving detection).
    usage_ema_tau_us: float = 2_000.0
    #: EMA time constant for the per-CPU VPI smoothing exported through
    #: the telemetry snapshot (cluster-level placement reads this; the
    #: per-tick scheduling algorithms keep using the raw per-window VPI).
    vpi_ema_tau_us: float = 5_000.0
    #: LC process considered "serving traffic" above this usage (in CPUs).
    serving_on_usage: float = 0.10
    #: ... and idle again below this (hysteresis).
    serving_off_usage: float = 0.04
    #: non-sibling CPUs considered "busy" (Algorithm 1 spill condition)
    #: above this mean utilisation.
    nonsibling_busy_usage: float = 0.85
    #: cgroup directory scanned for batch containers.
    batch_cgroup_root: str = "/yarn"
    #: CPUs granted to a newly discovered batch container.
    cpus_per_container: int = 4

    # -- extensions beyond the paper's defaults ---------------------------
    #: which HPE feeds the metric.  The paper selects STALLS_MEM_ANY
    #: (0x14A3); other Table 1 candidates are accepted for ablation.
    metric_event_code: int = 0x14A3
    #: "vpi" (Equation 1) or "cps" -- the counter-value-per-second
    #: alternative the paper *rejects* in Section 3.1 (kept for ablation:
    #: it under-reports interference on partially loaded CPUs).
    metric_mode: str = "vpi"
    #: threshold for cps mode (counter value per second of window).  Must
    #: sit above the full-load *uncontended* stall rate (~1.1e9 on the
    #: default calibration) to avoid false positives, which is exactly why
    #: the paper rejects the metric: at partial load the contended rate
    #: falls below any such threshold and interference goes undetected.
    e_cps_threshold: float = 2.5e9
    #: guaranteed batch pool (paper Section 1, limitation discussion):
    #: this many non-reserved CPUs are exempt from LC expansion so batch
    #: jobs always make some progress.  0 = the paper's default behaviour.
    batch_guaranteed_cpus: int = 0

    # -- robustness / graceful degradation --------------------------------
    #: bounded retries of a failed counter read within one window.  The
    #: retry budget backs off exponentially while the counter stays
    #: broken (halved per consecutive stale window), so a dead counter
    #: costs one read attempt per tick, not a retry storm.
    counter_read_retries: int = 3
    #: K: stale windows over which the monitor holds the last-good VPI
    #: before declaring the signal lost and entering degraded mode.
    stale_hold_windows: int = 4
    #: plausibility ceiling for a VPI sample; readings above it (or
    #: non-finite) are multiplexing garbage and are discarded.  The
    #: paper's scale tops out around 60 under heavy interference, so
    #: 1000 is unambiguously junk.
    vpi_garbage_ceiling: float = 1_000.0
    #: per-container bound on cpuset-write retries (one per tick) after
    #: a cgroup write failure, before the write is abandoned and logged.
    cpuset_retry_limit: int = 40
    #: daemon watchdog: a loop silent for this long is stalled and gets
    #: re-armed.  None = auto (20 intervals, only when fault injection
    #: is attached); 0 = disabled.
    watchdog_timeout_us: Optional[float] = None

    def __post_init__(self):
        if self.interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if not 0.0 < self.t_expand < 1.0:
            raise ValueError("T must satisfy 0 < T < 1 (paper Sec. 4.3)")
        if self.e_threshold <= 0:
            raise ValueError("E must be positive")
        if self.s_hold_us < 0:
            raise ValueError("S must be non-negative")
        if self.vpi_ema_tau_us <= 0:
            raise ValueError("vpi_ema_tau_us must be positive")
        if self.serving_off_usage > self.serving_on_usage:
            raise ValueError("serving hysteresis thresholds inverted")
        if self.metric_mode not in ("vpi", "cps"):
            raise ValueError(f"metric_mode must be 'vpi' or 'cps', "
                             f"got {self.metric_mode!r}")
        if self.batch_guaranteed_cpus < 0:
            raise ValueError("batch_guaranteed_cpus must be >= 0")
        if self.counter_read_retries < 1:
            raise ValueError("counter_read_retries must be >= 1")
        if self.stale_hold_windows < 1:
            raise ValueError("stale_hold_windows must be >= 1")
        if self.vpi_garbage_ceiling <= 0:
            raise ValueError("vpi_garbage_ceiling must be positive")
        if self.cpuset_retry_limit < 1:
            raise ValueError("cpuset_retry_limit must be >= 1")
        if self.watchdog_timeout_us is not None and self.watchdog_timeout_us < 0:
            raise ValueError("watchdog_timeout_us must be >= 0 or None")

    def resolve_reserved(self, n_cores: int) -> list[int]:
        """Concrete reserved logical CPU list for a machine of n_cores."""
        if self.reserved_cpus is not None:
            return list(self.reserved_cpus)
        if self.n_reserved > n_cores:
            raise ValueError(
                f"n_reserved={self.n_reserved} exceeds physical cores {n_cores}"
            )
        return list(range(self.n_reserved))
