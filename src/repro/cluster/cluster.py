"""A cluster of simulated servers sharing one simulation clock.

Each :class:`ServerNode` is a full simulated machine (``System`` +
``NodeManager``), optionally running its own Holmes daemon.  When the
daemon is present the node exports a
:class:`~repro.core.daemon.TelemetrySnapshot` -- smoothed LC VPI,
reserved-pool pressure and batch occupancy -- which cluster-level
placement folds into an interference score
(:mod:`repro.cluster.score`).  Without a daemon the node degrades to the
task-count heuristic ``batch_load()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core import Holmes, HolmesConfig, TelemetrySnapshot
from repro.cluster.dataplane import ClusterDataPlane, data_plane_mode
from repro.cluster.score import DEFAULT_WEIGHTS, ScoreWeights, interference_score
from repro.faults import FaultInjector, FaultPlan
from repro.hw import HWConfig
from repro.oskernel import System
from repro.sim import Environment
from repro.yarnlike import NodeManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import NodeObs, ObservabilityPlane


@dataclass
class ServerNode:
    """One machine of the cluster."""

    name: str
    system: System
    nodemanager: NodeManager
    #: stable position in the cluster (deterministic tie-breaking).
    index: int = 0
    #: per-node Holmes daemon, when the cluster runs one (telemetry source).
    holmes: Optional[Holmes] = None
    #: per-node fault injector, when the cluster runs chaos (same seed,
    #: per-node channel scope).
    faults: Optional[FaultInjector] = None
    #: fail-stop state: a dead node runs nothing and exports no telemetry.
    alive: bool = True
    failed_at: Optional[float] = None
    #: fail-stop events suffered over the run.
    failures: int = 0
    #: this node's observability scope, when the cluster is observed.
    obs: Optional["NodeObs"] = None
    _holmes_was_running: bool = field(default=False, repr=False)

    def batch_load(self) -> float:
        """Live batch task threads per logical CPU (placement heuristic)."""
        n = self.system.server.topology.n_lcpus
        tasks = sum(
            sum(1 for t in c.process.threads if t.alive)
            for j in self.nodemanager.running_jobs
            for c in j.containers
        )
        return tasks / n

    def telemetry(self) -> Optional[TelemetrySnapshot]:
        """This node's latest health summary, or None without a daemon."""
        if self.holmes is None or not self.alive:
            return None
        return self.holmes.telemetry()

    def fail_stop(self) -> None:
        """Kill the node: daemon, batch jobs, and every live process."""
        if not self.alive:
            return
        self.alive = False
        self.failed_at = self.system.env.now
        self.failures += 1
        if self.obs is not None:
            self.obs.emit("cluster", "node_fail_stop", self.system.env.now,
                          failures=self.failures)
        self._holmes_was_running = (
            self.holmes is not None and self.holmes._running
        )
        if self.holmes is not None:
            self.holmes.stop()
        for job in self.nodemanager.running_jobs:
            self.nodemanager.kill_job(job)
        for proc in list(self.system.processes.values()):
            if proc.alive:
                proc.kill()

    def recover(self) -> None:
        """Bring a fail-stopped node back (fresh boot, daemon restarted)."""
        if self.alive:
            return
        self.alive = True
        self.failed_at = None
        if self.obs is not None:
            self.obs.emit("cluster", "node_recover", self.system.env.now)
        if self.holmes is not None and self._holmes_was_running:
            self.holmes.start()  # restart-safe: rebuilds loop + windows

    def interference_score(
        self, weights: ScoreWeights = DEFAULT_WEIGHTS
    ) -> float:
        """Placement score: telemetry-based when available, load-based else."""
        return interference_score(
            self.telemetry(),
            weights,
            fallback_occupancy=self.batch_load(),
        )


class Cluster:
    """Servers sharing one simulation clock."""

    def __init__(
        self,
        n_servers: int = 2,
        config: Optional[HWConfig] = None,
        env: Optional[Environment] = None,
        seed: int = 42,
        holmes_config: Optional[HolmesConfig] = None,
        start_daemons: bool = True,
        faults: Optional[FaultPlan] = None,
        obs: Optional["ObservabilityPlane"] = None,
        data_plane: Optional[str] = None,
    ):
        if n_servers < 1:
            raise ValueError("a cluster needs at least one server")
        self.env = env or Environment()
        self.obs = obs
        cfg = config or HWConfig(sockets=1, cores_per_socket=8)
        # ``data_plane``: "vectorized" pools every node's counter, busy and
        # EMA arrays into one ClusterDataPlane so per-tick reads and
        # placement scans run as batched numpy ops; "scalar" keeps the
        # per-node reference path.  Reports are byte-identical either way
        # (tests/test_dataplane.py), so the mode is an env/keyword knob,
        # not an experiment parameter.
        mode = data_plane_mode(data_plane)
        self.dataplane: Optional[ClusterDataPlane] = None
        if holmes_config is not None and mode == "vectorized":
            from repro.hw.events import ALL_EVENTS
            from repro.hw.topology import Topology

            topo = Topology(cfg)
            self.dataplane = ClusterDataPlane(n_servers, topo.n_lcpus, len(ALL_EVENTS))
        plane = self.dataplane
        self.nodes: list[ServerNode] = []
        for i in range(n_servers):
            node_cfg = HWConfig(**{**cfg.__dict__, "seed": cfg.seed + i})
            system = System(
                env=self.env,
                config=node_cfg,
                counter_values=plane.counters[i] if plane is not None else None,
                busy_values=plane.busy[i] if plane is not None else None,
            )
            if plane is not None:
                system.server.data_plane = plane
            nm = NodeManager(system, seed=seed + i)
            node = ServerNode(f"server{i}", system, nm, index=i)
            scope = obs.for_node(node.name) if obs is not None else None
            node.obs = scope
            injector = (
                FaultInjector(faults, scope=node.name)
                if faults is not None
                else None
            )
            node.faults = injector
            if holmes_config is not None:
                node.holmes = Holmes(system, holmes_config, faults=injector,
                                     obs=scope, plane=plane, node_index=i)
                if start_daemons:
                    node.holmes.start()
            elif injector is not None:
                injector.install(system)
                if scope is not None:
                    injector.attach_obs(scope)
            self.nodes.append(node)

    @property
    def alive_nodes(self) -> list[ServerNode]:
        return [n for n in self.nodes if n.alive]

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def stop_daemons(self) -> None:
        """Stop every node's Holmes daemon (if running)."""
        for node in self.nodes:
            if node.holmes is not None:
                node.holmes.stop()

    def close(self) -> None:
        """Tear down a finished cluster so reference counting frees it.

        Closes the shared environment once, finalizing every node's live
        threads in creation order across the cluster, then tears down
        each node's machine (:meth:`System.close`, which finds the
        environment already closed).  Call it once the run's result has
        been read; idempotent.
        """
        self.env.close()
        for node in self.nodes:
            node.system.close()
