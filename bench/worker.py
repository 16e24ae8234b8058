"""One benchmark workload in one fresh process.

``run.py`` starts this file as a subprocess per workload, so set-up
time includes the program's imports and peak RSS belongs to one
workload.  It prints one JSON object on stdout.

Modes:

* ``setup``  -- set up, report the set-up time, exit;
* ``run``    -- set up, one warm-up op, then whole cycles of timed ops
  until ``--seconds`` have passed (or exactly ``--ops`` ops);
* ``trace``  -- set up, warm up, time one untraced cycle, then repeat
  the cycle under ``cProfile`` and ``RunnerTelemetry`` for ``--seconds``
  and report the per-layer metrics;
* ``golden`` -- run every op the workload can issue once and report
  each payload digest (``run.py --write-golden``).

Every op is a closed loop from one caller: the next op starts when the
previous one returns.  Seeds are drawn from ``--seed`` out of a fixed
pool, so every op the benchmark can issue has a committed digest.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import multiprocessing
import os
import pathlib
import pstats
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import layers

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: cell and sweep seeds the ops draw from; the golden file covers all.
POOL_SEEDS = tuple(range(43, 51))

#: a timed run repeats its op cycle at least this often, so each op's
#: fastest repetition has had a few chances to miss a co-tenant's burst.
MIN_CYCLES = 3

COLO_SERVICES = (
    ("redis", "a"),
    ("memcached", "b"),
    ("rocksdb", "b"),
    ("wiredtiger", "e"),
)
COLO_SETTINGS = ("holmes", "perfiso", "alone")
COLO_DURATION_US = 150_000.0

SWEEP_POLICIES = ("score", "predictor")
SWEEP_OPS = 4
SWEEP_ARGS = {"n_nodes": 100, "n_jobs": 60, "duration_us": 60_000.0}

RUNNER_SERVICES = ("redis", "memcached", "rocksdb", "wiredtiger")
RUNNER_EXPERIMENTS = ("compare", "latency", "slo", "throughput")
RUNNER_COLO_US = 20_000.0
RUNNER_FIG2_US = 10_000.0
RUNNER_HPE_US = 20_000.0
#: simulated microseconds one runner sweep delivers: its unique
#: cells are alone/holmes/perfiso for each of the 4 services, one fig2
#: and one hpe.
RUNNER_SIM_US = 12 * RUNNER_COLO_US + RUNNER_FIG2_US + RUNNER_HPE_US


@dataclass(frozen=True)
class Op:
    """One timed operation and how to get its canonical payload bytes."""

    id: str
    call: Callable[[], object]
    encode: Callable[[object], bytes]
    #: simulated microseconds the op covers
    sim_us: float


class Context:
    """What the ops of one workload process share."""

    def __init__(self):
        self.parallel = min(2, os.cpu_count() or 1)
        scratch = ROOT / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = pathlib.Path(tempfile.mkdtemp(dir=scratch))
        #: a RunnerTelemetry while the traced pass runs, else None
        self.telemetry = None

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:  # another workload process still uses it
            pass


def _canonical(payload) -> bytes:
    from repro.analysis.export import canonical_dumps

    return canonical_dumps(payload).encode()


def _merged(report) -> bytes:
    return report.merged_bytes()


# -- workloads ---------------------------------------------------------------
#
# Each takes the context and a seed and returns the cycle of ops the
# timed loop repeats; ``seed=None`` returns every op the workload can
# issue, for --write-golden.


def colo_cell(ctx: Context, seed: Optional[int]) -> list[Op]:
    """The paper's co-location cell, in-process: the per-quantum path."""
    import repro.experiments.colocation  # noqa: F401 - import cost is set-up
    from repro.runner.cells import Cell, execute_cell

    def op(service: str, workload: str, setting: str, cell_seed: int) -> Op:
        params = {
            "service": service,
            "workload": workload,
            "setting": setting,
            "duration_us": COLO_DURATION_US,
        }
        return Op(
            f"colo-cell/{service}-{workload}-{setting}-s{cell_seed}",
            partial(execute_cell, Cell.make("colocation", params, cell_seed)),
            _canonical,
            COLO_DURATION_US,
        )

    combos = [(s, w, st) for s, w in COLO_SERVICES for st in COLO_SETTINGS]
    if seed is None:
        return [op(*c, s) for c in combos for s in POOL_SEEDS]
    rng = random.Random(f"colo-cell/{seed}")
    ops = [op(*c, rng.choice(POOL_SEEDS)) for c in combos]
    rng.shuffle(ops)
    return ops


def cluster_sweep(ctx: Context, seed: Optional[int]) -> list[Op]:
    """100 telemetry-mode daemons on one clock, alternating policies."""
    from repro.cluster.sweep import run_cluster_sweep
    from repro.profiling import default_predictor

    # the profiling stage users pay once per process; every predictor
    # sweep after it reuses the result.
    default_predictor(seed=42, lc_weight=2.0)

    def op(policy: str, sweep_seed: int) -> Op:
        return Op(
            f"cluster-sweep/{policy}-s{sweep_seed}",
            partial(run_cluster_sweep, policy=policy, seed=sweep_seed, **SWEEP_ARGS),
            _canonical,
            SWEEP_ARGS["duration_us"],
        )

    if seed is None:
        return [op(policy, s) for s in POOL_SEEDS for policy in SWEEP_POLICIES]
    # one policy per distinct seed: a sweep's cost varies by about a
    # tenth with its seed, so distinct seeds average that out faster.
    seeds = random.Random(f"cluster-sweep/{seed}").sample(POOL_SEEDS, SWEEP_OPS)
    return [op(SWEEP_POLICIES[i % 2], s) for i, s in enumerate(seeds)]


def _runner_requests(seed: int) -> list:
    """A dispatch-stress mix of ``repro run-all``'s request kinds.

    The cells are 10-20 ms simulated, 20x shorter than ``run-all``'s
    0.4 s default, so pool start-up, dispatch, transport and the cache
    are a far larger share of an op than of a ``run-all``.  The
    convergence experiment is left out: one cell of it takes about
    100 s and would be the whole op.
    """
    from repro.runner import ExperimentRequest

    reqs = []
    for service in RUNNER_SERVICES:
        params = {"service": service, "workload": "a", "duration_us": RUNNER_COLO_US}
        reqs += [ExperimentRequest.make(n, params, seed) for n in RUNNER_EXPERIMENTS]
    reqs.append(
        ExperimentRequest.make("microbench", {"duration_us": RUNNER_FIG2_US}, seed)
    )
    reqs.append(ExperimentRequest.make("hpe", {"duration_us": RUNNER_HPE_US}, seed))
    return reqs


def _run_sweep(ctx: Context, reqs: list, cache_dir: Optional[str] = None):
    """One sweep with the runner's default dispatch core, pool executor
    and speculation; a fresh cache unless one is given."""
    from repro.runner import ExperimentRunner, ResultCache

    runner = ExperimentRunner(
        cache=ResultCache(cache_dir or tempfile.mkdtemp(dir=ctx.tmp)),
        parallel=ctx.parallel,
        telemetry=ctx.telemetry,
    )
    return runner.run(reqs)


def _runner_seeds(name: str, seed: Optional[int]) -> tuple[int, ...]:
    if seed is None:
        return POOL_SEEDS
    return (random.Random(f"{name}/{seed}").choice(POOL_SEEDS),)


def runner_cold(ctx: Context, seed: Optional[int]) -> list[Op]:
    """The short-cell sweep into a fresh cache: fan-out and cache writes."""
    return [
        Op(
            f"runner-cold/merged-s{s}",
            partial(_run_sweep, ctx, _runner_requests(s)),
            _merged,
            RUNNER_SIM_US,
        )
        for s in _runner_seeds("runner-cold", seed)
    ]


def runner_warm(ctx: Context, seed: Optional[int]) -> list[Op]:
    """The same sweep against a cache prefilled in set-up: reads only."""
    ops = []
    for s in _runner_seeds("runner-warm", seed):
        reqs = _runner_requests(s)
        cache_dir = tempfile.mkdtemp(dir=ctx.tmp)
        _run_sweep(ctx, reqs, cache_dir)
        ops.append(
            Op(
                f"runner-warm/merged-s{s}",
                partial(_run_sweep, ctx, reqs, cache_dir),
                _merged,
                RUNNER_SIM_US,
            )
        )
    return ops


WORKLOADS = {
    "colo-cell": colo_cell,
    "cluster-sweep": cluster_sweep,
    "runner-cold": runner_cold,
    "runner-warm": runner_warm,
}


# -- checking and timing -----------------------------------------------------


class Checker:
    """Digest check of every op's payload against the committed goldens.

    With ``goldens=None`` it only records digests (to write the goldens).
    """

    def __init__(self, goldens: Optional[dict[str, str]]):
        self.goldens = goldens
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op_id: str, payload: bytes) -> bool:
        self.attempted += 1
        digest = hashlib.sha256(payload).hexdigest()
        self.digests.setdefault(op_id, digest)
        if self.goldens is None:
            return True
        want = self.goldens.get(op_id)
        if want == digest:
            return True
        self.failed += 1
        self.problems.append(f"{op_id}: digest {digest} != golden {want}")
        return False

    def error(self, op_id: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{op_id}: {type(exc).__name__}: {exc}")


@dataclass
class Timed:
    op: Op
    seconds: float
    #: cells the op computed and its cache stats, for runner ops (the
    #: payload itself is not kept: thousands of them would be the RSS)
    cells_run: int = 0
    cache: Optional[dict] = None


def measure(
    ops: list[Op],
    checker: Checker,
    seconds: float = 0.0,
    n_ops: Optional[int] = None,
    profile: Optional[cProfile.Profile] = None,
    min_cycles: int = 1,
) -> list[Timed]:
    """Run ``ops`` in order, cycling, and check each payload.

    Without ``n_ops`` the loop runs whole cycles, so a run times each op
    of the cycle equally often: at least ``min_cycles``, then more while
    one more cycle, as long as the last, still ends within ``seconds``.
    Only the op call is timed and profiled; encoding and digesting the
    payload, and waiting for the processes an op leaves behind, is the
    benchmark's own work.
    """
    done: list[Timed] = []
    start = cycle_start = time.perf_counter()
    while True:
        if n_ops is not None:
            if len(done) == n_ops:
                break
        elif done and len(done) % len(ops) == 0:
            now = time.perf_counter()
            next_end = (now - start) + (now - cycle_start)
            if len(done) >= min_cycles * len(ops) and next_end > seconds:
                break
            cycle_start = now
        op = ops[len(done) % len(ops)]
        t0 = time.perf_counter()
        try:
            if profile is not None:
                profile.enable()
            try:
                result = op.call()
            finally:
                if profile is not None:
                    profile.disable()
            elapsed = time.perf_counter() - t0
            checker.check(op.id, op.encode(result))
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            done.append(Timed(op, time.perf_counter() - t0))
            checker.error(op.id, exc)
            continue
        # a process pool shut down without waiting (a speculative clone
        # still running) would otherwise compete with the next op.
        while multiprocessing.active_children():
            time.sleep(0.005)
        done.append(
            Timed(
                op,
                elapsed,
                getattr(result, "n_cell_runs", 0),
                getattr(result, "cache_stats", None),
            )
        )
    return done


def e2e_metrics(timed: list[Timed]) -> dict[str, float]:
    """Host-time metrics of the timed phase.

    ``op_s`` is the median over the cycle's distinct ops of each op's
    fastest repetition: co-tenants on a shared host slow every op that
    runs during a burst of theirs by up to ~70% for seconds at a time,
    and the fastest repetition is the estimate such bursts do not reach.
    ``ops_per_s`` and ``sim_us_per_s`` divide by the seconds of every
    timed op, so a change that slows only some repetitions (a periodic
    pause) still shows in them.
    """
    best: dict[str, float] = {}
    for t in timed:
        best[t.op.id] = min(t.seconds, best.get(t.op.id, t.seconds))
    busy = sum(t.seconds for t in timed)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_s": statistics.median(best.values()),
        "ops_per_s": len(timed) / busy,
        "sim_us_per_s": sum(t.op.sim_us for t in timed) / busy,
        "peak_rss_mb": rss_kib / 1024.0,
    }


def layer_metrics(
    traced: list[Timed],
    untraced: list[Timed],
    profile: cProfile.Profile,
    spans: list[dict],
) -> dict[str, float]:
    import repro

    repro_root = os.path.dirname(os.path.abspath(repro.__file__))
    stats = pstats.Stats(profile)
    n = len(traced)
    wall = sum(t.seconds for t in traced)
    self_s = layers.fold(stats, repro_root)
    total = sum(self_s.values())
    out = {f"{layer}.share": 100.0 * s / total for layer, s in self_s.items()}
    out["total.self_s"] = total / n
    untraced_op_s = sum(t.seconds for t in untraced) / len(untraced)
    out["trace_overhead"] = (wall / n) / untraced_op_s
    for name, count in layers.call_counts(stats, repro_root).items():
        out[name] = count / n

    runs = hits = misses = writes = 0
    for t in traced:
        cache = t.cache or {}
        runs += t.cells_run
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        writes += cache.get("writes", 0)
    out["runner.cells_run"] = runs / n
    out["runner.cache_hits"] = hits / n
    out["runner.cache_misses"] = misses / n
    out["runner.cache_writes"] = writes / n
    out["runner.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    attempts = sum(1 for s in spans if s["name"] == "cell_attempt")
    out["runner.useful_attempt_ratio"] = runs / attempts if attempts else 1.0
    for name, s in layers.span_self_seconds(spans).items():
        out[f"runner.span.{name}.share"] = 100.0 * s / wall
    return out


def resolved_defaults() -> dict:
    """numpy's version and the program paths this process measured."""
    import numpy

    out = {"numpy": numpy.__version__}
    try:
        from repro.sim.core import Environment

        out["sim_calendar"] = Environment().calendar_name
    except (ImportError, AttributeError, TypeError, ValueError):
        out["sim_calendar"] = None
    try:
        from repro.cluster.dataplane import data_plane_mode

        out["cluster_data_plane"] = data_plane_mode()
    except (ImportError, AttributeError, TypeError, ValueError):
        out["cluster_data_plane"] = None
    return out


def new_profile() -> cProfile.Profile:
    """A profiler that processes forked while it is on do not inherit.

    Pool workers forked mid-op would otherwise run their cells under
    the copied hook, several times slower; they are not being profiled.
    Disabling the child's copy removes the hook on every Python version
    (``sys.setprofile`` before 3.12, a ``sys.monitoring`` tool after).
    """
    profile = cProfile.Profile()
    os.register_at_fork(after_in_child=profile.disable)
    return profile


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace", "golden"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() in the parent just before it started this process",
    )
    p.add_argument("--golden", default=None, help="golden digest file")
    args = p.parse_args(argv)

    ctx = Context()
    try:
        seed = None if args.mode == "golden" else args.seed
        ops = WORKLOADS[args.workload](ctx, seed)
        setup_s = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        goldens = None
        if args.golden:
            goldens = json.loads(pathlib.Path(args.golden).read_text())["ops"]
        checker = Checker(goldens)
        out: dict = {"setup_s": setup_s, "op_ids": [op.id for op in ops]}
        if args.mode == "golden":
            measure(ops, checker, n_ops=len(ops))
        else:
            measure(ops[:1], checker, n_ops=1)  # warm-up, discarded
        if args.mode == "run":
            timed = measure(ops, checker, args.seconds, args.ops, min_cycles=MIN_CYCLES)
            out["metrics"] = e2e_metrics(timed)
            out["op_seconds"] = [t.seconds for t in timed]
        elif args.mode == "trace":
            from repro.obs import RunnerTelemetry

            untraced = measure(ops, checker, n_ops=args.ops or len(ops))
            profile = new_profile()
            ctx.telemetry = RunnerTelemetry()
            traced = measure(ops, checker, args.seconds, args.ops, profile)
            spans = ctx.telemetry.snapshot()["spans"]
            ctx.telemetry = None
            out["metrics"] = layer_metrics(traced, untraced, profile, spans)
            out["op_seconds"] = [t.seconds for t in traced]
        out.update(
            defaults=resolved_defaults(),
            parallel=ctx.parallel,
            attempted=checker.attempted,
            failed=checker.failed,
            problems=checker.problems,
            digests=checker.digests,
        )
        print(json.dumps(out))
        return 0
    finally:
        ctx.close()


if __name__ == "__main__":
    sys.exit(main())
