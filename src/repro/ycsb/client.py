"""An open-loop YCSB client.

The client lives on "the other server" of the paper's testbed: it is a
plain simulation process (it consumes no CPU on the system under test)
that submits queries to a KV service's request queue with Poisson
inter-arrivals while the traffic shape is ON.

Open-loop matters: a slow service does not slow the arrival process, so
queueing delay shows up in the latency distribution exactly as it does
with a real remote load generator.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.sim import Environment
from repro.ycsb.traffic import ConstantTraffic
from repro.ycsb.workloads import QueryGenerator, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.kv.common import KVService


class YCSBClient:
    """Generates load for one service according to one workload spec."""

    def __init__(
        self,
        env: Environment,
        service: "KVService",
        spec: WorkloadSpec,
        rate_qps: float,
        rng: np.random.Generator,
        traffic: Optional[object] = None,
        n_keys: Optional[int] = None,
    ):
        if rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive, got {rate_qps}")
        self.env = env
        self.service = service
        self.spec = spec
        self.rate_qps = rate_qps
        self.rng = rng
        self.traffic = traffic if traffic is not None else ConstantTraffic()
        keys = n_keys if n_keys is not None else service.n_keys
        self.generator = QueryGenerator(spec, keys, rng)
        self.submitted = 0
        self.dropped = 0
        self.phases = []

    def start(self, duration_us: float) -> None:
        """Launch the arrival process covering the next ``duration_us``."""
        self.phases = self.traffic.schedule(duration_us)
        self.env.process(self._run(self.env.now), name=f"ycsb:{self.spec.name}")

    def _run(self, t0: float):
        env = self.env
        interval_mean = 1e6 / self.rate_qps
        for phase in self.phases:
            # jump to the phase start
            if env.now < t0 + phase.start:
                yield env.timeout(t0 + phase.start - env.now)
            if not phase.on:
                continue
            end = t0 + phase.end
            while env.now < end:
                yield env.timeout(float(self.rng.exponential(interval_mean)))
                if env.now >= end:
                    break
                query = self.generator.next()
                accepted = self.service.submit(query, env.now)
                if accepted:
                    self.submitted += 1
                else:
                    self.dropped += 1
