"""Planes that are attached but have nothing to do make no call per event.

The fault injector, the observability plane, the runner telemetry and the
runner's resilience layer each promise to cost nothing measurable when
nothing is injected, recorded or retried.  Wall-clock ratios cannot hold
that promise: two runs of the same code on a shared host differ by more
than the few percent at stake.  Python call counts can.  Each arm runs once
to load its lazy imports, then once under cProfile with the cyclic
collector off, and the tests count the calls whose code lives in the
``repro`` package.  Those counts repeat exactly, so the checks are exact:

* a disabled plane's extra calls over the plain arm are the same at two
  horizons, so it makes no call per quantum, tick or cell event, only a
  fixed set-up cost;
* a disabled runner telemetry plane adds no call at all;
* the fully enabled observability plane makes at most 1.15x the plain
  arm's calls.
"""

from __future__ import annotations

import cProfile
import gc
import itertools
import os
import pstats

import repro
from repro.experiments.colocation import run_colocation
from repro.experiments.common import ExperimentScale
from repro.faults import FaultPlan
from repro.obs.runner import RunnerTelemetry
from repro.runner import ExperimentRequest, ExperimentRunner, RetryPolicy

_PACKAGE = os.path.dirname(repro.__file__) + os.sep

#: the fully enabled obs plane may record, but within this share of calls.
MAX_OBS_ENABLED_RATIO = 1.15


def _calls(fn) -> int:
    """Calls into the ``repro`` package made while ``fn()`` runs."""
    gc.collect()
    gc.disable()
    prof = cProfile.Profile()
    try:
        prof.runcall(fn)
    finally:
        gc.enable()
    stats = pstats.Stats(prof).stats
    return sum(
        ncalls
        for (path, _line, _func), (_prim, ncalls, *_rest) in stats.items()
        if path.startswith(_PACKAGE)
    )


def _fixed_extra(arm: list[int], plain: list[int]) -> int:
    """The arm's extra calls, which must not depend on the horizon."""
    extra = [a - p for a, p in zip(arm, plain)]
    assert len(set(extra)) == 1, f"extra calls grow with the horizon: {extra}"
    return extra[0]


def test_node_planes_make_no_call_per_event_when_idle():
    """An empty fault plan and an obs plane with every category off cost a
    fixed number of calls; the enabled obs plane stays within its bound."""
    horizons_us = (5_000.0, 10_000.0)
    arms = {
        "plain": {},
        "faults": {"faults": FaultPlan(seed=0, specs=())},
        "obs_off": {"obs": "none"},
        "obs_all": {"obs": "all"},
    }

    def cell(duration_us: float, attach: dict):
        scale = ExperimentScale(duration_us=duration_us, seed=43)
        return lambda: run_colocation("rocksdb", "b", "holmes", scale, **attach)

    counts = {}
    for arm, attach in arms.items():
        cell(horizons_us[0], attach)()
        counts[arm] = [_calls(cell(us, attach)) for us in horizons_us]

    plain = counts["plain"]
    _fixed_extra(counts["faults"], plain)
    _fixed_extra(counts["obs_off"], plain)
    for enabled, base in zip(counts["obs_all"], plain):
        assert enabled <= MAX_OBS_ENABLED_RATIO * base, (enabled, base)


def test_runner_planes_make_no_call_per_event_when_idle(tmp_path):
    """Disabled runner telemetry adds no call; an empty chaos plan, a retry
    policy and a journal add a number that does not grow with the cells'
    horizon."""
    horizons_us = (4_000.0, 8_000.0)
    journals = itertools.count()

    def requests(duration_us: float) -> list:
        params = {
            "service": "redis",
            "workload": "a",
            "setting": "holmes",
            "duration_us": duration_us,
        }
        return [ExperimentRequest.make("colocation", params, s) for s in (42, 43)]

    arms = {
        "plain": ExperimentRunner,
        "telemetry_off": lambda: ExperimentRunner(
            telemetry=RunnerTelemetry(enabled=False)
        ),
        "resilient": lambda: ExperimentRunner(
            retry_policy=RetryPolicy(),
            chaos_plan=FaultPlan(seed=0, specs=()).to_json(),
            journal=str(tmp_path / f"journal{next(journals)}.jsonl"),
        ),
    }

    counts = {}
    for arm, make in arms.items():
        make().run(requests(horizons_us[0]))
        counts[arm] = []
        for us in horizons_us:
            runner, sweep = make(), requests(us)
            counts[arm].append(_calls(lambda: runner.run(sweep)))

    plain = counts["plain"]
    assert _fixed_extra(counts["telemetry_off"], plain) == 0
    _fixed_extra(counts["resilient"], plain)
