"""The per-node fault injector: one plan -> deterministic decisions.

One injector serves one node (one ``System``).  Each fault kind draws
from its own RNG channel, so the decision sequence for, say, counter
reads is unchanged by whether tick stalls are also configured -- and two
runs with the same plan and scope replay bit-identically.

The probabilistic hooks are *pull*-style: the monitor asks
:meth:`counter_fault` per collect, the daemon asks :meth:`tick_fault`
per boundary, and the cgroup tree asks :meth:`cgroup_fault` per
write/attach (via :meth:`install`).  With an empty plan every hook is a
tuple-iteration no-op, and no hook is called per tick or per collect:
``tests/test_zero_cost_off.py`` pins that an empty plan adds the same
number of calls to a cell whatever its horizon.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.faults.plan import FAULT_KINDS, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import NodeObs
    from repro.oskernel import System


class FaultInjector:
    """Decision streams for one node under one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan, scope: str = "node0"):
        self.plan = plan
        self.scope = scope
        self._specs = {
            kind: plan.by_kind(kind, scope) for kind in FAULT_KINDS
        }
        self._rng = {
            kind: plan.rng(f"{scope}/{kind}")
            for kind, specs in self._specs.items()
            if specs
        }
        self.injected = {kind: 0 for kind in FAULT_KINDS}
        #: RNG draws consumed per channel so far.  An injection event
        #: tagged with its draw index pins down *which* decision in the
        #: deterministic stream fired, independent of wall time.
        self.draws = {kind: 0 for kind in FAULT_KINDS}
        self._env = None
        self._obs: "NodeObs | None" = None
        self._obs_fault = False
        #: static per-plan capability flags: consumers branch on these so
        #: an unconfigured fault kind keeps its fault-free hot path.
        self.has_counter_faults = bool(
            self._specs["counter_read_error"] or self._specs["counter_garbage"]
        )
        self.has_tick_faults = bool(
            self._specs["tick_miss"] or self._specs["tick_stall"]
        )

    # -- wiring ------------------------------------------------------------

    def install(self, system: "System") -> None:
        """Hook the probabilistic cgroup faults into this node's tree."""
        self._env = system.env
        if self._specs["cgroup_error"]:
            system.cgroups.fault_hook = self._cgroup_hook

    def _cgroup_hook(self, op: str, path: str) -> bool:
        return self.cgroup_fault(op, path, self._env.now)

    def attach_obs(self, obs: "NodeObs") -> None:
        """Tag injection decisions as bus events (kind, draw index)."""
        self._obs = obs
        self._obs_fault = obs.wants("fault")

    # -- decision channels -------------------------------------------------

    def _hit(self, kind: str, now: float) -> bool:
        for spec in self._specs[kind]:
            if spec.active(now) and spec.rate > 0.0:
                self.draws[kind] += 1
                if float(self._rng[kind].random()) < spec.rate:
                    self.injected[kind] += 1
                    if self._obs_fault:
                        self._obs.emit("fault", kind, now,
                                       draw=self.draws[kind],
                                       injected=self.injected[kind])
                    return True
        return False

    def counter_fault(self, now: float) -> Optional[str]:
        """Per monitor read: ``"error"``, ``"garbage"`` or None."""
        if self._hit("counter_read_error", now):
            return "error"
        if self._hit("counter_garbage", now):
            return "garbage"
        return None

    def counter_retry_ok(self, now: float) -> bool:
        """One bounded retry: an independent re-read, same failure odds."""
        for spec in self._specs["counter_read_error"]:
            if spec.active(now) and spec.rate > 0.0:
                self.draws["counter_read_error"] += 1
                if float(self._rng["counter_read_error"].random()) < spec.rate:
                    return False
        return True

    def corrupt(self, values: np.ndarray, now: float) -> np.ndarray:
        """Garbage a sample: multiplexing noise on a random CPU subset."""
        rng = self._rng["counter_garbage"]
        magnitude = 1.0
        for spec in self._specs["counter_garbage"]:
            if spec.active(now):
                magnitude = spec.magnitude
                break
        self.draws["counter_garbage"] += 2  # mask + noise vectors
        mask = rng.random(values.size) < 0.5
        noise = magnitude * rng.random(values.size)
        return np.where(mask, noise, values)

    def tick_fault(self, now: float) -> Optional[tuple[str, float]]:
        """Per daemon boundary: ``("miss", 0)``, ``("stall", dur)``, None."""
        if self._hit("tick_miss", now):
            return ("miss", 0.0)
        for spec in self._specs["tick_stall"]:
            if spec.active(now) and spec.rate > 0.0:
                self.draws["tick_stall"] += 1
                if float(self._rng["tick_stall"].random()) < spec.rate:
                    self.injected["tick_stall"] += 1
                    if self._obs_fault:
                        self._obs.emit("fault", "tick_stall", now,
                                       draw=self.draws["tick_stall"],
                                       injected=self.injected["tick_stall"],
                                       duration_us=float(spec.duration_us))
                    return ("stall", spec.duration_us)
        return None

    def cgroup_fault(self, op: str, path: str, now: float) -> bool:
        return self._hit("cgroup_error", now)

    # -- reporting ---------------------------------------------------------

    def stats_dict(self) -> dict:
        """Injected-fault counts, only for configured kinds (JSON-able)."""
        return {
            kind: int(self.injected[kind])
            for kind in FAULT_KINDS
            if self._specs[kind]
        }

    def draws_dict(self) -> dict:
        """RNG draws consumed per configured channel (JSON-able).

        Kept separate from :meth:`stats_dict` so existing report payloads
        are byte-identical when the observability plane is off.
        """
        return {
            kind: int(self.draws[kind])
            for kind in FAULT_KINDS
            if self._specs[kind]
        }
