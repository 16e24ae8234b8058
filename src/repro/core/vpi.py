"""VPI computation (Equation 1) over windowed counter reads."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hw.events import HPE, INSTR_LOAD, INSTR_STORE, STALLS_MEM_ANY
from repro.perf import CounterGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.server import Server


class VPIReader:
    """Windowed per-logical-CPU VPI for one event (default 0x14A3).

    Each :meth:`sample` returns ``counter_delta / (loads + stores)`` per
    logical CPU for the window since the previous call, scaled by
    ``scale``, with CPUs that retired fewer than ``min_instructions``
    memory instructions reading as 0 (an idle CPU exerts and suffers no
    interference).
    """

    def __init__(
        self,
        server: "Server",
        event: HPE = STALLS_MEM_ANY,
        scale: float = 1.0,
        min_instructions: float = 50.0,
        plane=None,
        node_index: int = 0,
    ):
        self.server = server
        self.event = event
        self.scale = scale
        self.min_instructions = min_instructions
        #: batched-read mode: a cluster-wide VPI hub
        #: (repro.cluster.dataplane) computes every node's windowed VPI in
        #: one numpy pass; this reader then only consumes its own row.
        self._hub = None
        self._node = node_index
        if plane is not None:
            engine = server.counters
            cols = tuple(
                engine.event_index[e.code]
                for e in (event, INSTR_LOAD, INSTR_STORE)
            )
            self._hub = plane.vpi_hub(cols, scale, min_instructions)
            if self._hub is not None:
                self._hub.register(node_index)
        if self._hub is None:
            self._group = CounterGroup(server, [event, INSTR_LOAD, INSTR_STORE])

    def sample(self) -> np.ndarray:
        """Per-lcpu VPI over the window since the last sample."""
        vpi, _, _ = self.sample_full()
        return vpi

    def sample_full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vpi, loads+stores, raw counter delta) per lcpu.

        Deltas are clamped at zero: a counter reset/wrap between windows
        must never read as negative stalls or instructions (which would
        push VPI negative, or NaN through the core aggregation).
        """
        if self._hub is not None:
            return self._hub.consume(self._node, self.server.env.now)
        deltas = self._group.sample()
        counter = np.maximum(deltas[:, 0], 0.0)
        ldst = deltas[:, 1] + deltas[:, 2]
        np.maximum(ldst, 0.0, out=ldst)
        vpi = masked_vpi(counter, ldst, self.min_instructions, self.scale)
        return vpi, ldst, counter

    def resync(self) -> None:
        """Discard the window since the last read (re-baseline).

        Used when the daemon restarts after a stop: the stopped span must
        not appear as one giant window in the first sample.
        """
        if self._hub is not None:
            self._hub.rebaseline(self._node)
            return
        self._group.sample()


def masked_vpi(counter: np.ndarray, ldst: np.ndarray,
               min_instructions: float, scale: float) -> np.ndarray:
    """``counter / ldst * scale`` where ``ldst`` reaches the floor, else 0.

    Divides and scales in place under the mask: elementwise the same
    arithmetic as a boolean gather, divide, scale and scatter, so the
    result is bitwise identical, without the gather's temporaries.
    """
    vpi = np.zeros(counter.shape)
    mask = ldst >= min_instructions
    np.divide(counter, ldst, out=vpi, where=mask)
    if scale != 1.0:  # x * 1.0 == x: the default scale needs no pass
        np.multiply(vpi, scale, out=vpi, where=mask)
    return vpi


def aggregate_per_core(values: np.ndarray, weights: np.ndarray,
                       n_cores: int) -> np.ndarray:
    """Weighted per-core aggregation of a per-lcpu metric.

    Holmes "aggregates processor metrics per core by accumulating both
    processor metrics on that core" (Section 4.2): for a ratio metric like
    VPI the faithful accumulation is the instruction-weighted combination
    of the two hyperthreads.
    """
    if values.shape != weights.shape:
        raise ValueError("values and weights must align")
    if values.size != 2 * n_cores:
        raise ValueError(f"expected {2 * n_cores} lcpus, got {values.size}")
    # fully vectorized (no boolean-gather temporaries): elementwise
    # multiply-add then a masked divide is bitwise identical to gathering
    # the active cores first.
    v0, v1 = values[:n_cores], values[n_cores:]
    w0, w1 = weights[:n_cores], weights[n_cores:]
    total = w0 + w1
    out = np.zeros(n_cores, dtype=np.float64)
    np.divide(v0 * w0 + v1 * w1, total, out=out, where=total > 0)
    return out
