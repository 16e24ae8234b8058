"""Windowed CPU-usage accounting over the server's busy-time counters."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.server import Server
    from repro.sim import Environment


class UsageTracker:
    """Computes per-logical-CPU utilisation over successive windows.

    Mirrors how a userspace daemon derives usage from /proc/stat deltas:
    call :meth:`sample` periodically; it returns the busy fraction of each
    logical CPU since the previous call.
    """

    def __init__(self, env: "Environment", server: "Server",
                 hub=None, node_index: int = 0):
        self.env = env
        self.server = server
        #: batched-read mode: a cluster-wide usage hub
        #: (repro.cluster.dataplane) computes every node's window in one
        #: numpy pass; this tracker then only consumes its own row.
        self._hub = hub
        self._node = node_index
        if hub is not None:
            hub.register(node_index, env.now)
            self._last_busy = None
        else:
            self._last_busy = server.busy_snapshot()
        self._last_time = env.now

    def sample(self) -> np.ndarray:
        """Busy fraction in [0, 1] per lcpu since the previous sample."""
        now = self.env.now
        if self._hub is not None:
            return self._hub.sample(self._node, now)
        busy = self.server.busy_snapshot()
        dt = now - self._last_time
        if dt <= 0.0:
            usage = np.zeros_like(busy)
        else:
            # two allocations per call (snapshot + delta) instead of four:
            # this runs on the 50 us monitor tick.  ``np.clip`` only
            # dispatches to the array's own ``clip``: call that directly.
            usage = busy - self._last_busy
            usage /= dt
            usage.clip(0.0, 1.0, out=usage)
        self._last_busy = busy
        self._last_time = now
        return usage

    def rebaseline(self) -> None:
        """Restart the window from the current busy counters and clock.

        A restarted daemon uses it so the stopped span's busy time does
        not pollute its first window.
        """
        if self._hub is not None:
            self._hub.rebaseline(self._node, self.env.now)
            return
        self._last_busy = self.server.busy_snapshot()
        self._last_time = self.env.now

    def peek(self) -> np.ndarray:
        """Like :meth:`sample` but without advancing the window."""
        now = self.env.now
        if self._hub is not None:
            return self._hub.peek(self._node, now)
        busy = self.server.busy_snapshot()
        dt = now - self._last_time
        if dt <= 0.0:
            return np.zeros_like(busy)
        return np.clip((busy - self._last_busy) / dt, 0.0, 1.0)


class CumulativeUsage:
    """Whole-run average utilisation (for the Fig. 12 / Table 3 metrics)."""

    def __init__(self, env: "Environment", server: "Server"):
        self.env = env
        self.server = server
        self._busy0 = server.busy_snapshot()
        self._t0 = env.now

    def average(self) -> float:
        """Mean utilisation across all logical CPUs since construction."""
        dt = self.env.now - self._t0
        if dt <= 0.0:
            return 0.0
        per_cpu = (self.server.busy_snapshot() - self._busy0) / dt
        return float(np.clip(per_cpu, 0.0, 1.0).mean())

    def per_cpu(self) -> np.ndarray:
        dt = self.env.now - self._t0
        if dt <= 0.0:
            return np.zeros_like(self._busy0)
        return np.clip((self.server.busy_snapshot() - self._busy0) / dt, 0.0, 1.0)
