"""The observability plane: categories, capability gating, node scopes.

One :class:`ObservabilityPlane` per run holds the event bus and metrics
registry; producers receive either the plane itself (cluster-level
consumers that tag events with explicit node names) or a
:class:`NodeObs` scope (per-node consumers — daemon, monitor, scheduler,
fault injector — whose events are all stamped with that node's name).

Capability gating: the plane is constructed with a *category set*, and
``wants(cat)`` is the contract every producer checks (usually once, at
construction, caching the boolean).  An absent category costs the
producer one precomputed-bool branch; an absent plane (``obs=None``)
costs one ``is not None`` check.  ``tests/test_zero_cost_off.py`` pins
that a plane with no category adds no call per event.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.bus import EventBus
from repro.obs.metrics import Histogram, MetricsRegistry

#: every event/capability category the plane understands; all are
#: sim-time-stamped.  The runner's wall-clock events are the telemetry
#: plane's (:mod:`repro.obs.runner`), not a category here.
#:
#: sched    Holmes scheduler actions with decision audit records
#: daemon   Holmes loop lifecycle (start/stop, watchdog, tick faults)
#: health   VPI signal health transitions (stale / degraded / recovered)
#: cluster  cluster-level placement, admission, relocation, node failures
#: fault    fault-injector decisions (kind, node, RNG channel draw index)
#: quantum  execution-tracer quanta riding along in trace exports
#: metrics  the metrics registry (counters/gauges/histograms)
CATEGORIES = (
    "sched", "daemon", "health", "cluster", "fault", "quantum", "metrics",
)

#: categories enabled by ``--obs all`` (everything).
ALL_SPEC = "all"


class ObservabilityPlane:
    """Event bus + metrics registry behind one capability gate."""

    def __init__(self, categories=CATEGORIES, max_events: int = 500_000):
        cats = frozenset(categories)
        unknown = cats - set(CATEGORIES)
        if unknown:
            raise ValueError(
                f"unknown observability categories {sorted(unknown)}; "
                f"have {CATEGORIES}"
            )
        self.categories = cats
        self.bus = EventBus(max_events=max_events)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if "metrics" in cats else None
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: Optional[str],
                  max_events: int = 500_000) -> Optional["ObservabilityPlane"]:
        """Build a plane from a ``--obs`` spec string.

        ``None`` -> no plane (the fully-disabled path).  ``"all"`` -> every
        category.  ``"none"`` -> a plane with no categories (hook points
        attached, nothing recorded).  Otherwise a comma-separated category
        list, e.g. ``"sched,health,fault"``.
        """
        if spec is None:
            return None
        spec = spec.strip()
        if spec == ALL_SPEC or spec == "":
            return cls(max_events=max_events)
        if spec == "none":
            return cls(categories=(), max_events=max_events)
        tokens = tuple(t.strip() for t in spec.split(",") if t.strip())
        return cls(categories=tokens, max_events=max_events)

    @classmethod
    def coerce(
        cls, obs: Union["ObservabilityPlane", str, None]
    ) -> Optional["ObservabilityPlane"]:
        """Accept a plane, a spec string, or None (experiment entry points)."""
        if obs is None or isinstance(obs, ObservabilityPlane):
            return obs
        return cls.from_spec(obs)

    # -- capability gate ---------------------------------------------------

    def wants(self, category: str) -> bool:
        return category in self.categories

    def spec(self) -> str:
        """The canonical spec string reproducing this plane's categories."""
        if self.categories == frozenset(CATEGORIES):
            return ALL_SPEC
        if not self.categories:
            return "none"
        return ",".join(sorted(self.categories))

    # -- emission ----------------------------------------------------------

    def emit(self, category: str, name: str, time: float, node: str = "",
             **args) -> None:
        if category in self.categories:
            self.bus.emit(category, name, time, node, args)

    def for_node(self, node: str) -> "NodeObs":
        return NodeObs(self, node)

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain JSON-able dump: events + metrics + bookkeeping.

        This is what rides inside experiment payloads (and therefore what
        the byte-identity checks compare).
        """
        events = self.bus.snapshot()
        out = {
            "categories": sorted(self.categories),
            "events": events,
            "n_events": len(events),
            "dropped": int(self.bus.dropped),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.snapshot()
        return out


class NodeObs:
    """A plane scope that stamps every emission with one node's name."""

    __slots__ = ("plane", "node")

    def __init__(self, plane: ObservabilityPlane, node: str):
        self.plane = plane
        self.node = node

    def wants(self, category: str) -> bool:
        return category in self.plane.categories

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self.plane.metrics

    def emit(self, category: str, name: str, time: float, **args) -> None:
        if category in self.plane.categories:
            self.plane.bus.emit(category, name, time, self.node, args)

    def counter(self, name: str, **labels):
        return self.plane.metrics.counter(name, node=self.node, **labels)

    def gauge(self, name: str, **labels):
        return self.plane.metrics.gauge(name, node=self.node, **labels)

    def histogram(self, name: str, bounds, **labels) -> Histogram:
        return self.plane.metrics.histogram(
            name, bounds, node=self.node, **labels
        )
