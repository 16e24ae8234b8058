"""Unified observability plane: event bus, metrics, exporters.

The plane answers *why* the Holmes control loop acted, not merely what
it produced.  Three layers:

* :mod:`repro.obs.bus` — a deterministic, sim-time-stamped event bus.
  Producers (daemon, monitor, scheduler, cluster scheduler, fault
  injector) emit typed structured events into a bounded
  columnar buffer; every scheduler deallocate/restore/expand action
  carries a *decision audit record* (observed VPI vs E, usage vs T,
  S-countdown state, degraded-mode flag) so Algorithm 1–3 transitions
  are fully explainable after the fact.
* :mod:`repro.obs.metrics` — a metrics registry of counters, gauges and
  fixed-bucket histograms (p50/p95/p99 off the bucket grid), keyed by
  node/service labels, snapshotting into experiment payloads.
* :mod:`repro.obs.export` — exporters: Chrome-trace/Perfetto JSON (bus
  events interleaved with execution-tracer quanta on one timeline), a
  flat JSONL event log, and the text views in
  :mod:`repro.analysis.obs`.
* :mod:`repro.obs.runner` — the *wall-clock* sibling of the sim-time
  bus: causal spans across the dispatch core, executors, and pool
  workers (:class:`RunnerTelemetry`), live sweep progress
  (:class:`SweepProgress`), and a Perfetto exporter with one lane per
  worker.

The determinism contract: events are stamped with *simulation* time and
emitted in simulation order, so two runs with identical seeds and plans
produce byte-identical event streams — regardless of ``--parallel``
fan-out, result caching, or wall-clock jitter.  The runner's wall-clock
spans live in :mod:`repro.obs.runner`, never on this bus, and are kept
out of every byte-compared artifact.

Zero-cost when disabled: consumers hold ``obs=None`` and guard every
emission behind a single ``is not None`` / precomputed-capability check;
``tests/test_zero_cost_off.py`` pins that the disabled path makes no call
per event and that the fully-enabled plane makes at most 1.15x the calls.
"""

from repro.obs.bus import Event, EventBus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_US,
    MetricsRegistry,
    VPI_BUCKETS,
)
from repro.obs.plane import (
    CATEGORIES,
    NodeObs,
    ObservabilityPlane,
)
from repro.obs.export import (
    chrome_trace,
    dumps_canonical,
    events_jsonl,
    write_trace_bundle,
)
from repro.obs.runner import (
    RunnerTelemetry,
    SweepProgress,
    runner_chrome_trace,
    timeline_from_journal,
    validate_runner_trace,
    write_runner_trace,
)

__all__ = [
    "Event",
    "EventBus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_US",
    "VPI_BUCKETS",
    "CATEGORIES",
    "NodeObs",
    "ObservabilityPlane",
    "chrome_trace",
    "dumps_canonical",
    "events_jsonl",
    "write_trace_bundle",
    "RunnerTelemetry",
    "SweepProgress",
    "runner_chrome_trace",
    "timeline_from_journal",
    "validate_runner_trace",
    "write_runner_trace",
]
