"""Latency recording shared by all measured workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class QueryRecord:
    """One completed request."""

    submit_time: float
    latency_us: float
    op: str = ""


class LatencyRecorder:
    """Accumulates per-query latencies and provides the paper's statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._submit: list[float] = []
        self._latency: list[float] = []
        self._op: list[str] = []

    def __len__(self) -> int:
        return len(self._latency)

    def record(self, submit_time: float, latency_us: float, op: str = "") -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency: {latency_us}")
        self._submit.append(submit_time)
        self._latency.append(latency_us)
        self._op.append(op)

    # -- access ------------------------------------------------------------

    def latencies(self, op: Optional[str] = None) -> np.ndarray:
        if op is None:
            return np.asarray(self._latency, dtype=np.float64)
        return np.asarray(
            [l for l, o in zip(self._latency, self._op) if o == op],
            dtype=np.float64,
        )

    def records(self) -> list[QueryRecord]:
        return [
            QueryRecord(s, l, o)
            for s, l, o in zip(self._submit, self._latency, self._op)
        ]

    # -- statistics -----------------------------------------------------------

    def mean(self, op: Optional[str] = None) -> float:
        lat = self.latencies(op)
        return float(lat.mean()) if lat.size else float("nan")

    def percentile(self, q: float, op: Optional[str] = None) -> float:
        lat = self.latencies(op)
        return float(np.percentile(lat, q)) if lat.size else float("nan")

    def p99(self, op: Optional[str] = None) -> float:
        return self.percentile(99.0, op)

    def slo_violation_ratio(self, slo_us: float) -> float:
        """Fraction of queries exceeding the SLO (paper Fig. 11 metric)."""
        lat = self.latencies()
        if not lat.size:
            return float("nan")
        return float((lat > slo_us).mean())

    def cdf(self, op: Optional[str] = None) -> tuple[np.ndarray, np.ndarray]:
        """(sorted latencies, cumulative probability) for CDF plots."""
        lat = np.sort(self.latencies(op))
        if not lat.size:
            return lat, lat
        prob = np.arange(1, lat.size + 1) / lat.size
        return lat, prob
