"""Text views over observability payloads: timeline, summary, metrics.

These render the plain-dict obs payloads (``ObservabilityPlane.snapshot()``
sections stored in experiment reports) into terminal tables — the
human-facing half of the exporter layer, next to the machine-facing
Chrome-trace/JSONL exporters in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Dict, List


def _fmt_args(args: dict, limit: int = 6) -> str:
    parts = []
    for k in sorted(args):
        v = args[k]
        if isinstance(v, float):
            v = f"{v:.4g}"
        parts.append(f"{k}={v}")
        if len(parts) >= limit:
            parts.append("...")
            break
    return " ".join(parts)


def format_event_summary(streams: Dict[str, dict]) -> str:
    """Per-stream ``category/name`` event counts, one table."""
    rows: List[tuple] = []
    for stream in sorted(streams):
        counts: Dict[str, int] = {}
        for ev in streams[stream].get("events", ()):
            # events may be sparse (hand-written payloads, older
            # snapshots): render with placeholders, never KeyError.
            key = f"{ev.get('cat', '?')}/{ev.get('name', '?')}"
            counts[key] = counts.get(key, 0) + 1
        for key in sorted(counts):
            rows.append((stream, key, counts[key]))
    if not rows:
        return "(no events)"
    w0 = max(len("stream"), max(len(r[0]) for r in rows))
    w1 = max(len("event"), max(len(r[1]) for r in rows))
    lines = [f"{'stream':<{w0}}  {'event':<{w1}}  {'count':>7}",
             f"{'-' * w0}  {'-' * w1}  {'-' * 7}"]
    for stream, key, count in rows:
        lines.append(f"{stream:<{w0}}  {key:<{w1}}  {count:>7}")
    return "\n".join(lines) + "\n"


def format_timeline(streams: Dict[str, dict], max_events: int = 200) -> str:
    """Merged event timeline in sim-time order, truncated past a cap."""
    from repro.obs.export import _merged_events

    merged = _merged_events(streams)
    if not merged:
        return "(no events)\n"
    lines = []
    shown = merged[:max_events]
    for row in shown:
        node = f" [{row['node']}]" if row.get("node") else ""
        args = _fmt_args(row.get("args") or {})
        args = f"  {args}" if args else ""
        lines.append(
            f"{row.get('t', 0.0):>12.1f}us  {row.get('stream', '?')}{node}  "
            f"{row.get('cat', '?')}/{row.get('name', '?')}{args}"
        )
    if len(merged) > max_events:
        lines.append(f"... ({len(merged) - max_events} more events)")
    return "\n".join(lines) + "\n"


def format_metrics_table(streams: Dict[str, dict]) -> str:
    """Flat table of all registry metrics across streams."""
    rows: List[tuple] = []
    for stream in sorted(streams):
        for key, snap in sorted(
            streams[stream].get("metrics", {}).items()
        ):
            kind = snap.get("type", "?")
            if kind == "histogram":
                val = (
                    f"n={snap.get('count', 0)} p50={_num(snap.get('p50'))} "
                    f"p95={_num(snap.get('p95'))} p99={_num(snap.get('p99'))}"
                )
            else:
                val = _num(snap.get("value"))
            rows.append((stream, key, kind, val))
    if not rows:
        return "(no metrics)"
    w0 = max(len("stream"), max(len(r[0]) for r in rows))
    w1 = max(len("metric"), max(len(r[1]) for r in rows))
    w2 = max(len("type"), max(len(r[2]) for r in rows))
    lines = [
        f"{'stream':<{w0}}  {'metric':<{w1}}  {'type':<{w2}}  value",
        f"{'-' * w0}  {'-' * w1}  {'-' * w2}  {'-' * 5}",
    ]
    for stream, key, kind, val in rows:
        lines.append(f"{stream:<{w0}}  {key:<{w1}}  {kind:<{w2}}  {val}")
    return "\n".join(lines) + "\n"


def _num(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def format_span_timeline(snapshot: dict, max_spans: int = 200) -> str:
    """Text timeline of a runner-telemetry snapshot (wall-clock spans).

    Spans sort by start time and indent one level per ancestor, so the
    ``sweep > cell > cell_attempt > assign > compute`` causality reads
    as a tree; zero-width spans (instants, cached replays) render with
    an ``@`` marker instead of a duration.  Renders snapshots from
    :meth:`RunnerTelemetry.snapshot` and
    :func:`~repro.obs.runner.timeline_from_journal` alike, tolerating
    missing optional fields.
    """
    spans = sorted(
        snapshot.get("spans", ()),
        key=lambda s: (s.get("t0", 0.0), s.get("id", 0)),
    )
    if not spans:
        return "(no spans)\n"
    t_base = min(s.get("t0", 0.0) for s in spans)
    depth_of: Dict[int, int] = {}
    lines = []
    for span in spans[:max_spans]:
        parent = span.get("parent")
        depth = depth_of.get(parent, -1) + 1 if parent is not None else 0
        sid = span.get("id")
        if sid is not None:
            depth_of[sid] = depth
        t0 = span.get("t0", 0.0)
        t1 = span.get("t1", t0)
        width = (
            f"{(t1 - t0) * 1e3:>9.2f}ms" if t1 > t0 else f"{'@':>11}"
        )
        status = span.get("status", "ok")
        status = "" if status == "ok" else f"  [{status}]"
        lane = span.get("lane", "?")
        args = _fmt_args(span.get("args") or {}, limit=4)
        args = f"  {args}" if args else ""
        lines.append(
            f"{(t0 - t_base) * 1e3:>10.2f}ms {width}  {lane:<12} "
            f"{'  ' * depth}{span.get('name', 'span')}{status}{args}"
        )
    if len(spans) > max_spans:
        lines.append(f"... ({len(spans) - max_spans} more spans)")
    return "\n".join(lines) + "\n"
