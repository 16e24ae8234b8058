"""Fault plans: what goes wrong, when, and how often.

A plan is data, not behaviour: a seed plus a tuple of
:class:`FaultSpec`\\ s.  It serialises to canonical JSON, so it can ride
through runner cell parameters (which must be hashable and cacheable)
and reappear verbatim in chaos reports.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

#: every fault kind the injector and drivers understand.
FAULT_KINDS = (
    # probabilistic, per monitor tick (consumed by MetricMonitor):
    "counter_read_error",  # the perf read fails; the window widens
    "counter_garbage",     # the read returns multiplexed/garbage values
    # probabilistic, per daemon tick (consumed by the Holmes loop):
    "tick_miss",           # the daemon skips a tick boundary
    "tick_stall",          # the loop wedges for duration_us (late tick)
    # probabilistic, per cgroup write/attach (consumed by CgroupFS):
    "cgroup_error",        # the cpuset write or attach returns EBUSY
    # timed drivers (simulation processes, repro.faults.drivers):
    "container_crash",     # kill a random running batch job
    "node_fail_stop",      # fail-stop a node, recover after duration_us
    # runner-transport chaos (consumed by repro.runner.resilience's
    # ChaosExecutor in the parent; these act on the *runner's own*
    # transport, not on the simulation):
    "worker_kill",         # the task runs but its result is lost (worker died)
    "connect_refuse",      # the task is refused before reaching a worker
    "frame_truncate",      # the result is lost as if cut off mid-reply
    "frame_garbage",       # the result is lost as if it arrived garbled
    "worker_slow",         # the reply is delayed by duration_us of wall time
)

_RATE_KINDS = frozenset(
    ("counter_read_error", "counter_garbage", "tick_miss", "tick_stall",
     "cgroup_error")
)
_DRIVER_KINDS = frozenset(("container_crash", "node_fail_stop"))
#: transport kinds: ``rate`` is the per-task probability; ``count`` caps
#: how many times the fault fires per sweep (0 = unlimited) and, with
#: ``rate == 0``, means "fire deterministically at the Nth opportunity".
TRANSPORT_KINDS = frozenset(
    ("worker_kill", "connect_refuse", "frame_truncate", "frame_garbage",
     "worker_slow")
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault source, active on ``[start_us, end_us)``.

    ``rate`` is the per-opportunity probability for the probabilistic
    kinds; ``period_us`` the mean gap between events for the driver
    kinds.  ``duration_us`` is the stall length (``tick_stall``) or the
    downtime before recovery (``node_fail_stop``; 0 = no recovery).
    ``magnitude`` scales garbage values; ``count`` caps driver events
    (0 = unlimited); ``target`` selects a node scope (``"*"`` = all).
    """

    kind: str
    start_us: float = 0.0
    end_us: Optional[float] = None
    rate: float = 0.0
    period_us: float = 0.0
    duration_us: float = 0.0
    magnitude: float = 1.0e6
    count: int = 0
    target: str = "*"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}"
            )
        if self.start_us < 0:
            raise ValueError("start_us must be >= 0")
        if self.end_us is not None and self.end_us <= self.start_us:
            raise ValueError("end_us must be > start_us")
        if (
            self.kind in _RATE_KINDS or self.kind in TRANSPORT_KINDS
        ) and not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"{self.kind}: rate must be in [0, 1]")
        if (
            self.kind in TRANSPORT_KINDS
            and self.rate == 0.0
            and self.count == 0
        ):
            raise ValueError(
                f"{self.kind}: needs rate > 0 or count > 0 (Nth opportunity)"
            )
        if self.kind in _DRIVER_KINDS and self.period_us <= 0:
            raise ValueError(f"{self.kind}: period_us must be positive")
        if self.duration_us < 0:
            raise ValueError("duration_us must be >= 0")
        if self.count < 0:
            raise ValueError("count must be >= 0")

    def active(self, now: float) -> bool:
        return self.start_us <= now and (self.end_us is None or now < self.end_us)

    def matches(self, scope: str) -> bool:
        return self.target == "*" or self.target == scope


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs it drives."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        # accept lists for convenience; store a hashable tuple
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def rng(self, channel: str) -> np.random.Generator:
        """A dedicated, reproducible stream for one decision channel.

        Derived from (seed, crc32(channel)) so distinct channels -- e.g.
        ``server3/counter_read_error`` vs ``server3/tick_miss`` -- never
        share draws, and the same channel always replays identically.
        """
        entropy = [self.seed & 0xFFFFFFFF, zlib.crc32(channel.encode())]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def by_kind(self, kind: str, scope: str = "*") -> tuple[FaultSpec, ...]:
        return tuple(
            s for s in self.specs
            if s.kind == kind and (scope == "*" or s.matches(scope))
        )

    # -- serialisation (canonical; rides through cell params) -------------

    def to_dict(self) -> dict:
        return {"seed": int(self.seed), "specs": [asdict(s) for s in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            specs=tuple(FaultSpec(**s) for s in data.get("specs", [])),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def coerce(cls, value) -> "FaultPlan":
        """Accept a plan, a dict, or a JSON string (cell-param form)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            return cls.from_json(value)
        raise TypeError(f"cannot build a FaultPlan from {type(value).__name__}")


def standard_chaos_plan(
    seed: int = 0,
    counter_error_rate: float = 0.0,
    garbage_rate: float = 0.0,
    tick_miss_rate: float = 0.0,
    stall_rate: float = 0.0,
    stall_duration_us: float = 2_000.0,
    cgroup_error_rate: float = 0.0,
    container_crash_period_us: float = 0.0,
    node_failures: int = 0,
    node_failure_period_us: float = 100_000.0,
    node_downtime_us: float = 50_000.0,
    start_us: float = 0.0,
    end_us: Optional[float] = None,
) -> FaultPlan:
    """The ``repro chaos`` preset: one spec per enabled fault source."""
    specs: list[FaultSpec] = []

    def add(kind: str, **kw) -> None:
        specs.append(FaultSpec(kind=kind, start_us=start_us, end_us=end_us, **kw))

    if counter_error_rate > 0:
        add("counter_read_error", rate=counter_error_rate)
    if garbage_rate > 0:
        add("counter_garbage", rate=garbage_rate)
    if tick_miss_rate > 0:
        add("tick_miss", rate=tick_miss_rate)
    if stall_rate > 0:
        add("tick_stall", rate=stall_rate, duration_us=stall_duration_us)
    if cgroup_error_rate > 0:
        add("cgroup_error", rate=cgroup_error_rate)
    if container_crash_period_us > 0:
        add("container_crash", period_us=container_crash_period_us)
    if node_failures > 0:
        add(
            "node_fail_stop",
            period_us=node_failure_period_us,
            duration_us=node_downtime_us,
            count=node_failures,
        )
    return FaultPlan(seed=seed, specs=tuple(specs))


class FaultChannel:
    """One fault kind's decision stream: specs plus a dedicated RNG.

    Drawn by the parent-side
    :class:`~repro.runner.resilience.ChaosExecutor`: "fire at the Nth
    opportunity" or "fire with probability ``rate``, at most ``count``
    times".  Every spec with a positive rate consumes exactly one RNG
    draw per opportunity -- even once capped -- so the decision sequence
    is a pure function of the opportunity index.
    """

    def __init__(self, kind: str, specs: tuple[FaultSpec, ...], rng):
        self.kind = kind
        self.specs = specs
        self.rng = rng
        self.opportunities = 0
        self.fired = [0] * len(specs)

    @classmethod
    def of(cls, plan: FaultPlan, kind: str, scope: str) -> "FaultChannel":
        """The ``{scope}/{kind}`` channel of ``plan``."""
        return cls(kind, plan.by_kind(kind), plan.rng(f"{scope}/{kind}"))

    def draw(self) -> Optional[FaultSpec]:
        """One opportunity: the spec that fires, or None."""
        self.opportunities += 1
        hit: Optional[FaultSpec] = None
        for i, spec in enumerate(self.specs):
            if spec.rate > 0.0:
                u = float(self.rng.random())
                capped = spec.count > 0 and self.fired[i] >= spec.count
                if u < spec.rate and not capped and hit is None:
                    self.fired[i] += 1
                    hit = spec
            elif spec.count == self.opportunities and self.fired[i] == 0:
                # rate == 0: fire deterministically at the Nth opportunity
                self.fired[i] += 1
                if hit is None:
                    hit = spec
        return hit


def transport_chaos_plan(
    seed: int = 0,
    kill_rate: float = 0.0,
    kill_at_task: int = 0,
    connect_refuse_rate: float = 0.0,
    truncate_rate: float = 0.0,
    garbage_rate: float = 0.0,
    slow_rate: float = 0.0,
    slow_duration_us: float = 50_000.0,
    fault_cap: int = 2,
) -> FaultPlan:
    """The runner-transport preset: one spec per enabled fault source.

    ``fault_cap`` bounds how many times each probabilistic fault fires
    per sweep; ``kill_at_task`` arms a deterministic kill at the Nth
    task instead of (or on top of) the probabilistic one.  Durations are
    *wall* microseconds: transport faults delay real replies, not
    simulated time.
    """
    specs: list[FaultSpec] = []

    def add(kind: str, **kw) -> None:
        kw.setdefault("count", fault_cap)
        specs.append(FaultSpec(kind=kind, **kw))

    if kill_rate > 0:
        add("worker_kill", rate=kill_rate)
    if kill_at_task > 0:
        add("worker_kill", rate=0.0, count=kill_at_task)
    if connect_refuse_rate > 0:
        add("connect_refuse", rate=connect_refuse_rate, count=1)
    if truncate_rate > 0:
        add("frame_truncate", rate=truncate_rate)
    if garbage_rate > 0:
        add("frame_garbage", rate=garbage_rate)
    if slow_rate > 0:
        add("worker_slow", rate=slow_rate, duration_us=slow_duration_us)
    return FaultPlan(seed=seed, specs=tuple(specs))
