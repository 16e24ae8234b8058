"""PairPredictor: the profile-backed oracle the scheduler consults.

Bridges the offline profiling stage to online placement decisions.  The
cluster scheduler deals in *job names* (``"kmeans"``, ``"churn-17"``),
not profiles, so the predictor resolves names to workload families,
caches pair scores, and exposes one number per candidate node: the
predicted interference cost of adding a job to that node's residents.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading

from repro.profiling.model import CompatibilityModel
from repro.profiling.probe import WorkloadProfile
from repro.profiling.stage import load_stage, run_profile_stage

#: effective SMT-pair slots per node the pair costs are spread over
#: (cluster nodes are 8-core/16-lcpu; batch jobs get the non-reserved
#: half, so roughly 4 sibling pairs matter).
NODE_PAIR_SLOTS = 4.0


def job_family(job_name: str) -> str:
    """Map an instance name to its profiled family (``churn-17`` → ``churn``)."""
    return job_name.split("-")[0]


class PairPredictor:
    """Pair-score lookups plus the node-level placement cost."""

    def __init__(
        self,
        model: CompatibilityModel,
        profiles: dict,
        lc_weight: float = 1.0,
    ):
        self.model = model
        self.profiles = dict(profiles)
        self.lc_weight = lc_weight
        self._score_cache: dict = {}

    @classmethod
    def from_payload(cls, payload: dict, lc_weight: float = 1.0):
        profiles, model = load_stage(payload)
        return cls(model, profiles, lc_weight=lc_weight)

    def profile_for(self, name: str) -> WorkloadProfile:
        fam = job_family(name)
        try:
            return self.profiles[fam]
        except KeyError:
            raise KeyError(
                f"no contention profile for workload family {fam!r} "
                f"(from job {name!r}); known: {sorted(self.profiles)}"
            ) from None

    def knows(self, name: str) -> bool:
        return job_family(name) in self.profiles

    def score(self, name_a: str, name_b: str) -> float:
        """Pair-incompatibility score in ``[0, 1)``; symmetric; cached."""
        key = (job_family(name_a), job_family(name_b))
        if key[0] > key[1]:
            key = (key[1], key[0])
        cached = self._score_cache.get(key)
        if cached is None:
            cached = self.model.score(
                self.profiles[key[0]], self.profiles[key[1]]
            )
            self._score_cache[key] = cached
        return cached

    def node_cost(
        self,
        job_name: str,
        resident_names,
        lc_activity: float = 0.0,
    ) -> float:
        """Predicted interference cost of placing ``job_name`` on a node.

        Sum of the job's pair scores against each resident batch job,
        spread over the node's SMT-pair slots, plus its score against
        the LC service scaled by the node's current LC activity.
        """
        cost = 0.0
        for r in resident_names:
            cost += self.score(job_name, r)
        cost /= NODE_PAIR_SLOTS
        if lc_activity > 0.0 and "lc" in self.profiles:
            cost += self.lc_weight * self.score(job_name, "lc") * lc_activity
        return cost


def probe_workers() -> int:
    """How many forked workers the profiling stage may use here.

    The CPUs this process may run on, or 1: inside a multiprocessing
    child (a runner pool worker already fills a CPU), where fork is
    unavailable, and while another thread runs (a forked child could
    inherit a lock that thread holds).
    """
    if (
        multiprocessing.parent_process() is not None
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=4)
def default_predictor(seed: int = 42, lc_weight: float = 1.0) -> PairPredictor:
    """The seed-matrix predictor, probed and fitted once per process.

    Deterministic (same seed → same scores, however many workers ran
    the probes) and cached: the first call in a process runs the
    profiling stage's 117 probe simulations on :func:`probe_workers`
    forked processes, about 0.7 s on a 2-vCPU host where one process
    takes 1.2 s.
    """
    payload = run_profile_stage(seed=seed, workers=probe_workers())
    return PairPredictor.from_payload(payload, lc_weight=lc_weight)
