"""The vectorized cluster data plane: pooled per-node telemetry arrays.

At cluster scale the per-tick hot path is a wide, shallow scan: every
node's Holmes daemon reads its busy counters and performance counters at
the *same* tick boundary (all daemons start at t=0 on one shared clock),
and every placement decision folds every node's EMA telemetry into a
score.  Doing that node-by-node costs one python frame stack per node
per tick; this module batches it.

Layout
------

One :class:`ClusterDataPlane` owns three cluster-wide pools:

* ``counters`` -- ``(n_nodes, n_lcpus, n_events)`` cumulative counter
  values.  Each node's :class:`~repro.hw.counters.CounterEngine` is
  constructed over its ``counters[i]`` row view, so accrual writes land
  in the pool with no copying.
* ``busy`` -- ``(n_nodes, n_lcpus)`` cumulative busy microseconds, row
  views backing each :class:`~repro.hw.server.Server`'s ``busy_us``.
* ``usage_ema`` / ``vpi_ema`` -- ``(n_nodes, n_lcpus)`` smoothed views,
  row views backing each node's :class:`~repro.core.monitor.MetricMonitor`
  EMAs (the EMA update itself stays per-node: a stopped daemon must not
  have its state advanced by its neighbours).

Windowed reads go through two *hubs*.  On the first read at a given
``(time, generation)`` key the hub takes one batched snapshot of the
pool and computes the windowed products (usage fractions, VPI) for
every row at once; each node's read then consumes its own row and
commits its own baseline.  ``generation`` is bumped by the hardware
layer on every quantum accrual, so a workload event that lands
*between* two same-instant daemon ticks invalidates the batch and the
later daemon sees the fresh values -- exactly what its scalar read would
have seen.

Determinism
-----------

The batched forms are chosen to be *bitwise* identical to the scalar
reference path (gather-then-reduce equals reduce-of-gathered rows for
contiguous row reductions; masked divides commute with row gathers; the
score polynomial is evaluated in the same association order).  The
scalar path stays selectable -- ``REPRO_CLUSTER_DATA_PLANE=scalar`` or
``Cluster(data_plane="scalar")`` -- and CI proves byte-identical sweep
reports between the two.
"""

from __future__ import annotations

import os
import weakref
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.vpi import masked_vpi

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ServerNode
    from repro.cluster.score import ScoreWeights

#: environment variable selecting the cluster data-plane implementation.
DATA_PLANE_ENV_VAR = "REPRO_CLUSTER_DATA_PLANE"

#: data plane used when neither the keyword nor the env var says otherwise.
DEFAULT_DATA_PLANE = "vectorized"

_MODES = ("vectorized", "scalar")


def data_plane_mode(override: Optional[str] = None) -> str:
    """Resolve the cluster data-plane mode.

    Explicit ``override`` first, then :data:`DATA_PLANE_ENV_VAR`, then
    :data:`DEFAULT_DATA_PLANE`.  The mode is not an experiment parameter
    -- both planes produce byte-identical reports -- so it is resolved
    from the environment rather than threaded through cell params (which
    would needlessly fork the result cache).
    """
    mode = override or os.environ.get(DATA_PLANE_ENV_VAR) or DEFAULT_DATA_PLANE
    if mode not in _MODES:
        raise ValueError(
            f"unknown cluster data plane {mode!r}: expected one of {_MODES}"
        )
    return mode


class _UsageHub:
    """Batched windowed busy-fraction reads over the pooled busy array.

    Mirrors :class:`~repro.oskernel.accounting.UsageTracker` semantics
    per row: ``clip((busy - last_busy) / dt, 0, 1)``, with a zero window
    when ``dt <= 0``.  Nodes whose window start differs from the batch
    cohort's (a restarted daemon, a mid-boundary rebaseline) fall back to
    a per-row computation off the same snapshot, so they never pay a
    wrong ``dt``.
    """

    def __init__(self, plane: "ClusterDataPlane"):
        # weak: the plane owns its hubs, and a strong link back would
        # make the two a reference cycle
        self.plane = weakref.proxy(plane)
        n_nodes, n_lcpus = plane.busy.shape
        self._last = np.zeros((n_nodes, n_lcpus), dtype=np.float64)
        self._prev_t = np.zeros(n_nodes, dtype=np.float64)
        self._key: Optional[tuple] = None
        self._cur: Optional[np.ndarray] = None
        self._batch: Optional[np.ndarray] = None
        self._cohort_prev = 0.0

    def register(self, node: int, now: float) -> None:
        self._last[node] = self.plane.busy[node]
        self._prev_t[node] = now

    def _refresh(self, node: int, now: float) -> None:
        key = (now, self.plane.generation)
        if key == self._key:
            return
        self._key = key
        self._cur = self.plane.busy.copy()
        # the cohort is anchored on the first consumer's window start; in
        # steady state every daemon ticks on the same grid, so the whole
        # cluster shares one batch.  Off-cohort rows recompute below.
        prev = float(self._prev_t[node])
        self._cohort_prev = prev
        dt = now - prev
        if dt > 0.0:
            usage = self._cur - self._last
            usage /= dt
            usage.clip(0.0, 1.0, out=usage)
            self._batch = usage
        else:
            self._batch = None

    def _window(self, node: int, now: float) -> np.ndarray:
        self._refresh(node, now)
        if self._batch is not None and self._prev_t[node] == self._cohort_prev:
            return self._batch[node]
        dt = now - float(self._prev_t[node])
        if dt <= 0.0:
            return np.zeros(self._last.shape[1], dtype=np.float64)
        usage = self._cur[node] - self._last[node]
        usage /= dt
        usage.clip(0.0, 1.0, out=usage)
        return usage

    def sample(self, node: int, now: float) -> np.ndarray:
        usage = self._window(node, now)
        self._last[node] = self._cur[node]
        self._prev_t[node] = now
        return usage

    def peek(self, node: int, now: float) -> np.ndarray:
        return self._window(node, now)

    def rebaseline(self, node: int, now: float) -> None:
        self._last[node] = self.plane.busy[node]
        self._prev_t[node] = now


class _VPIHub:
    """Batched windowed VPI reads over the pooled counter array.

    Mirrors :class:`~repro.core.vpi.VPIReader.sample_full` per row:
    clamped counter delta over clamped load+store delta, zero below the
    instruction floor.  Counter deltas need no window cohort -- each
    row's delta is against its own committed baseline regardless of when
    that baseline was taken -- so the whole cluster always shares one
    batch per ``(time, generation)`` key.
    """

    def __init__(
        self,
        plane: "ClusterDataPlane",
        cols: tuple[int, ...],
        scale: float,
        min_instructions: float,
    ):
        self.plane = weakref.proxy(plane)  # weak, as in _UsageHub
        self.cols = cols
        self.scale = scale
        self.min_instructions = min_instructions
        self._cols_arr = np.array(cols, dtype=np.intp)
        n_nodes = plane.counters.shape[0]
        n_lcpus = plane.counters.shape[1]
        self._last = np.zeros((n_nodes, n_lcpus, len(cols)), dtype=np.float64)
        self._key: Optional[tuple] = None
        self._cur: Optional[np.ndarray] = None
        self._vpi: Optional[np.ndarray] = None
        self._ldst: Optional[np.ndarray] = None
        self._counter: Optional[np.ndarray] = None

    def register(self, node: int) -> None:
        self._last[node] = self.plane.counters[node][:, self._cols_arr]

    def _refresh(self, now: float) -> None:
        key = (now, self.plane.generation)
        if key == self._key:
            return
        self._key = key
        self._cur = self.plane.counters[:, :, self._cols_arr]
        deltas = self._cur - self._last
        counter = np.maximum(deltas[:, :, 0], 0.0)
        ldst = deltas[:, :, 1] + deltas[:, :, 2]
        np.maximum(ldst, 0.0, out=ldst)
        vpi = masked_vpi(counter, ldst, self.min_instructions, self.scale)
        self._vpi, self._ldst, self._counter = vpi, ldst, counter

    def consume(self, node: int, now: float):
        """(vpi, ldst, counter) for one node's window."""
        self._refresh(now)
        self._last[node] = self._cur[node]
        return self._vpi[node], self._ldst[node], self._counter[node]

    def rebaseline(self, node: int) -> None:
        """Discard the node's open window (daemon restart)."""
        self._last[node] = self.plane.counters[node][:, self._cols_arr]


class ClusterDataPlane:
    """Cluster-wide pooled arrays plus the batched read hubs."""

    def __init__(self, n_nodes: int, n_lcpus: int, n_events: int):
        self.n_nodes = n_nodes
        self.n_lcpus = n_lcpus
        self.counters = np.zeros(
            (n_nodes, n_lcpus, n_events), dtype=np.float64
        )
        self.busy = np.zeros((n_nodes, n_lcpus), dtype=np.float64)
        self.usage_ema = np.zeros((n_nodes, n_lcpus), dtype=np.float64)
        self.vpi_ema = np.zeros((n_nodes, n_lcpus), dtype=np.float64)
        #: bumped by the hardware layer on every quantum accrual; keys the
        #: hubs' batch caches so same-instant interleavings of workload
        #: events and daemon ticks never read a stale batch.
        self.generation = 0
        self.usage_hub = _UsageHub(self)
        self._vpi_hub: Optional[_VPIHub] = None
        #: cached (lc, reserved, non_reserved) index arrays per CPU-set
        #: shape; placement recomputes scores every decision but the CPU
        #: sets change rarely.
        self._idx_cache: dict[tuple, tuple] = {}

    # -- hub construction --------------------------------------------------

    def vpi_hub(
        self,
        cols: tuple[int, ...],
        scale: float,
        min_instructions: float,
    ) -> Optional[_VPIHub]:
        """The shared VPI hub, or None if ``cols``/params don't match it.

        Every monitor in a cluster reads the same metric event with the
        same scaling, so the first registrant fixes the parameters; a
        mismatched caller (a hand-built heterogeneous cluster) falls back
        to its private scalar read path.
        """
        hub = self._vpi_hub
        if hub is None:
            hub = _VPIHub(self, cols, scale, min_instructions)
            self._vpi_hub = hub
            return hub
        if (
            hub.cols == cols
            and hub.scale == scale
            and hub.min_instructions == min_instructions
        ):
            return hub
        return None

    # -- batched placement telemetry ---------------------------------------

    def _indices(self, lc: tuple, reserved: tuple) -> tuple:
        key = (lc, reserved)
        cached = self._idx_cache.get(key)
        if cached is None:
            rs = set(reserved)
            cached = (
                np.array(lc, dtype=np.intp),
                np.array(reserved, dtype=np.intp),
                np.array(
                    [c for c in range(self.n_lcpus) if c not in rs],
                    dtype=np.intp,
                ),
            )
            self._idx_cache[key] = cached
        return cached

    def _grouped(self, nodes: list["ServerNode"]):
        """Telemetry-backed nodes grouped by CPU-set shape, plus the rest.

        A node exports telemetry exactly when its daemon exists and the
        node is alive (:meth:`ServerNode.telemetry`); everything else
        degrades to the batch-load fallback, same as the scalar score.
        """
        groups: dict[tuple, list] = {}
        fallback: list = []
        for node in nodes:
            holmes = node.holmes
            if holmes is None or not node.alive:
                fallback.append(node)
                continue
            sched = holmes.scheduler
            key = (tuple(sched.lc_cpus), tuple(sched.reserved))
            groups.setdefault(key, []).append(node)
        return groups, fallback

    def score_vector(
        self, nodes: list["ServerNode"], weights: "ScoreWeights"
    ) -> np.ndarray:
        """Interference scores for ``nodes``, indexed by ``node.index``.

        Bitwise identical to calling
        :func:`repro.cluster.score.interference_score` per node on its
        telemetry snapshot (same gathers, same reduction, same
        association order in the weighted sum).
        """
        out = np.zeros(self.n_nodes, dtype=np.float64)
        groups, fallback = self._grouped(nodes)
        for (lc, reserved), members in groups.items():
            lc_idx, res_idx, nonres_idx = self._indices(lc, reserved)
            rows = np.array([n.index for n in members], dtype=np.intp)
            lc_vpi = self.vpi_ema[np.ix_(rows, lc_idx)].mean(axis=1)
            pressure = self.usage_ema[np.ix_(rows, res_idx)].mean(axis=1)
            if nonres_idx.size:
                occupancy = self.usage_ema[np.ix_(rows, nonres_idx)].mean(
                    axis=1
                )
            else:
                occupancy = np.zeros(rows.size, dtype=np.float64)
            term = lc_vpi / weights.vpi_ref
            np.minimum(term, weights.vpi_cap, out=term)
            np.maximum(term, 0.0, out=term)
            out[rows] = (
                weights.w_vpi * term
                + weights.w_pressure * pressure
                + weights.w_occupancy * occupancy
            )
        for node in fallback:
            out[node.index] = weights.w_occupancy * min(
                max(node.batch_load(), 0.0), 1.0
            )
        return out

    def lc_activity_vector(
        self, nodes: list["ServerNode"], weights: "ScoreWeights"
    ) -> np.ndarray:
        """Per-node LC activity (the predictor's LC pair term), batched.

        Matches ``ClusterBatchScheduler._lc_activity``: reserved pressure
        plus the normalised (uncapped-below) VPI term, 0.0 for nodes
        without telemetry.
        """
        out = np.zeros(self.n_nodes, dtype=np.float64)
        groups, _ = self._grouped(nodes)
        for (lc, reserved), members in groups.items():
            lc_idx, res_idx, _ = self._indices(lc, reserved)
            rows = np.array([n.index for n in members], dtype=np.intp)
            lc_vpi = self.vpi_ema[np.ix_(rows, lc_idx)].mean(axis=1)
            pressure = self.usage_ema[np.ix_(rows, res_idx)].mean(axis=1)
            term = lc_vpi / weights.vpi_ref
            np.minimum(term, weights.vpi_cap, out=term)
            out[rows] = pressure + term
        return out
