"""``repro bench``: perf tracking for the sim kernel, runner, and cluster.

Four measurement groups, all written to ``BENCH_runner.json`` so the perf
trajectory is tracked from PR to PR:

* **event_loop** -- events/sec of the bare engine under a timer flood at
  large population (128 k auto-rearming timers, 50-1050 us periods),
  measured under both calendar kernels.  This is the headline number the
  timer-wheel work moves: pure calendar churn with no generator dispatch
  in the way, the regime the wheel exists for (100-node sweeps, long
  horizons).
* **kernel** -- the same flood at smaller timer populations, plus a
  generator-dispatch bench (64 ticker processes), each with heap and
  wheel side by side.  Together these show where the crossover lives:
  at small populations the kernels are within noise of each other and
  dispatch cost dominates; the wheel pulls away as the pending-set
  grows and heap sifts go O(log n) over a cache-hostile array.
* **cluster** -- wall-clock of the 100-node churn sweep under heap and
  wheel, with a byte-identity check across both reports (speed that
  changes results is a bug).
* **sweep** -- serial vs parallel wall-clock of a 4-experiment
  co-location sweep through the runner (cache + process fan-out), with
  the serial/parallel byte-identity check.
* **dispatch_core** -- the dispatch core's longest-expected-first order
  against first-in-first-out on a skewed cell mix (one long cell hidden
  at the end of a pile of short ones: the head-of-line shape the LPT
  ready queue exists for), plus a 1,000-node sharded cluster sweep run
  through every executor transport and two pool sizes with a
  byte-identity check across all merged reports.  The skewed-mix
  speedup is gated in CI (>= 1.3x) whenever the record shows at least
  two effective workers; the identity checks are gated
  unconditionally.
* **fault_overhead** -- wall-clock of a telemetry-mode daemon run with
  and without the (empty) fault-injection hooks attached; the ratio is
  what the CI regression gate holds to <= 5%.
* **resilience_overhead** -- wall-clock of a pool-executor sweep with
  and without the resilience layer attached (empty transport chaos
  plan, explicit retry policy, fsynced sweep journal); the gate holds
  the ratio to <= 5%: resilience is near-free when nothing fails.
* **obs_overhead** -- wall-clock of the same run with the observability
  plane absent, attached-but-disabled, and fully enabled; the gate
  holds disabled/plain to <= 3% and enabled/plain to <= 15%.
* **runner_obs_overhead** -- wall-clock of a pool-executor sweep with
  the runner telemetry plane absent, attached-but-disabled, and fully
  enabled (spans across dispatch/executors/workers); the gate holds
  disabled/plain to <= 5%: tracing must be zero-cost when off.
* **profiling** -- wall-clock of the full micro-probe profiling stage
  (normalised per probe run, so growing the seed matrix doesn't trip
  the gate) and throughput of the fitted pair model's ``predict_excess``
  (the per-decision cost the predictor policy adds to the scheduler).

The bench *fails* (nonzero exit through the CLI) if any identity check
fails.  ``--profile`` additionally dumps a cProfile report of the
event-loop hot path for both kernels.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from typing import Optional

from repro.runner.aggregate import ExperimentRequest
from repro.runner.cache import ResultCache
from repro.runner.runner import ExperimentRunner

#: simulated horizon of each bench sweep cell (microseconds).  Short
#: enough that the whole bench stays interactive, long enough that each
#: cell does real scheduling work.
BENCH_DURATION_US = 80_000.0

#: timer-flood period mix: 50 us (the Holmes tick) up to 1050 us (cluster
#: telemetry scale), pseudo-randomly spread so firings interleave.
_PERIOD_BASE_US = 50.0
#: E[1/period] of the mix; used to size horizons for a target event count.
_MEAN_INV_PERIOD = 3.0445e-3

#: wheel geometry for the kernel floods: bucket at a tenth of the
#: dominant 50 us period keeps the per-bucket sorted batches small while
#: the 1024-slot ring still spans every period in the mix.
FLOOD_BUCKET_US = 5.0
FLOOD_WHEEL_SLOTS = 1024

#: headline event-loop flood population (full / --quick).
EVENT_LOOP_TIMERS = 131_072
EVENT_LOOP_TIMERS_QUICK = 16_384

#: smaller flood populations for the kernel crossover table.
KERNEL_POPULATIONS = (1_024, 16_384)
KERNEL_POPULATIONS_QUICK = (1_024,)

#: cluster bench shape (full / --quick).
CLUSTER_NODES = 100


def _interleaved_min(one, arms, repeats: int, warm: bool = False) -> dict:
    """Min-of-``repeats`` wall seconds per arm, arms interleaved.

    ``one(arm)`` runs one arm and returns its wall seconds.  Alternating
    the arms round by round lets CPU frequency drift hit every arm
    equally; ``warm`` first runs each arm once untimed (imports, pool
    spawn).
    """
    if warm:
        for arm in arms:
            one(arm)
    walls: dict = {arm: [] for arm in arms}
    for _ in range(repeats):
        for arm in arms:
            walls[arm].append(one(arm))
    return {arm: min(w) for arm, w in walls.items()}


def _flood_period(i: int) -> float:
    return _PERIOD_BASE_US + ((i * 2654435761) % 1_000_000) / 1000.0


def _make_kernel(calendar: str):
    from repro.sim import HeapEnvironment, WheelEnvironment

    if calendar == "heap":
        return HeapEnvironment()
    return WheelEnvironment(bucket_us=FLOOD_BUCKET_US,
                            wheel_slots=FLOOD_WHEEL_SLOTS)


def _flood_env(calendar: str, n_timers: int):
    from repro.sim import RecurringTimeout

    env = _make_kernel(calendar)
    for i in range(n_timers):
        RecurringTimeout(env, _flood_period(i), auto=True)
    return env


def bench_timer_flood(calendar: str, n_timers: int,
                      target_events: int, repeats: int = 2) -> dict:
    """Events/sec of the bare engine under an auto-rearming timer flood.

    Pure calendar churn: every event is popped, re-armed one period into
    the future, and dispatched to an empty callback list -- no generator
    in the loop, so the number isolates the calendar kernel itself.
    """
    horizon = target_events / (n_timers * _MEAN_INV_PERIOD)
    best = None
    events = 0
    for _ in range(repeats):
        env = _flood_env(calendar, n_timers)
        t0 = time.perf_counter()
        env.run(until=horizon)
        wall = time.perf_counter() - t0
        events = env._seq
        if best is None or wall < best:
            best = wall
    return {
        "events": events,
        "wall_s": best,
        "events_per_sec": events / best if best else None,
    }


def _dispatch_once(calendar: str, n_tickers: int,
                   horizon_us: float) -> tuple[float, int]:
    """One generator-dispatch run; returns (wall_s, events)."""
    from repro.sim import RecurringTimeout

    def ticker(env, period: float):
        timer = RecurringTimeout(env, period)
        while True:
            yield timer
            timer.rearm()

    env = _make_kernel(calendar)
    for i in range(n_tickers):
        env.process(ticker(env, 1.0 + 0.37 * i))
    t0 = time.perf_counter()
    env.run(until=horizon_us)
    return time.perf_counter() - t0, env._seq


def bench_dispatch(calendar: str, n_tickers: int = 64,
                   horizon_us: float = 40_000.0, repeats: int = 2) -> dict:
    """Events/sec with generator processes in the loop (the old bench
    shape): 64 tickers on distinct co-prime-ish periods, manual rearm.
    Dispatch cost dominates here, so the kernels should be close."""
    best = None
    events = 0
    for _ in range(repeats):
        wall, events = _dispatch_once(calendar, n_tickers, horizon_us)
        if best is None or wall < best:
            best = wall
    return {
        "events": events,
        "wall_s": best,
        "events_per_sec": events / best if best else None,
    }


def bench_dispatch_pair(n_tickers: int = 64, horizon_us: float = 40_000.0,
                        repeats: int = 3) -> dict:
    """Heap and wheel dispatch benches with *interleaved* arms.

    The dispatch ratio gates CI at a thin margin (wheel >= 0.95x heap),
    and back-to-back arms let CPU frequency drift land entirely on one
    kernel; alternating heap/wheel repeats and taking min-of-``repeats``
    per arm makes the ratio stable enough to gate on (same pattern as
    the fault/obs overhead benches).

    Population matters here: at 64 tickers the heap's sifts are 6
    levels deep and it holds a ~5-10% edge -- the wheel's per-schedule
    bucket bookkeeping is pure Python while ``heappush`` is one C call.
    From a few hundred timers up (the concurrency a cluster sweep
    actually runs at) the wheel draws level and pulls ahead, so the
    *gated* row runs at 512 tickers and the 64-ticker row documents the
    small-population trade-off.
    """
    events: dict[str, int] = {}

    def one(cal: str) -> float:
        wall, events[cal] = _dispatch_once(cal, n_tickers, horizon_us)
        return wall

    walls = _interleaved_min(one, ("heap", "wheel"), repeats)
    out = {}
    for cal in ("heap", "wheel"):
        best = walls[cal]
        out[cal] = {
            "events": events[cal],
            "wall_s": best,
            "events_per_sec": events[cal] / best if best else None,
        }
    heap_eps = out["heap"]["events_per_sec"]
    wheel_eps = out["wheel"]["events_per_sec"]
    out["wheel_vs_heap"] = (
        wheel_eps / heap_eps if heap_eps and wheel_eps else None
    )
    return out


def _side_by_side(run) -> dict:
    """Run a single-kernel bench for heap and wheel; attach the ratio."""
    heap = run("heap")
    wheel = run("wheel")
    ratio = None
    if heap["events_per_sec"] and wheel["events_per_sec"]:
        ratio = wheel["events_per_sec"] / heap["events_per_sec"]
    return {"heap": heap, "wheel": wheel, "wheel_vs_heap": ratio}


def bench_kernel(quick: bool = False) -> tuple[dict, dict]:
    """The event_loop headline + the kernel crossover table."""
    n_head = EVENT_LOOP_TIMERS_QUICK if quick else EVENT_LOOP_TIMERS
    target = 250_000 if quick else 600_000
    event_loop = _side_by_side(
        lambda cal: bench_timer_flood(cal, n_head, target)
    )
    event_loop["n_timers"] = n_head
    event_loop["bucket_us"] = FLOOD_BUCKET_US
    event_loop["wheel_slots"] = FLOOD_WHEEL_SLOTS

    populations = []
    pops = KERNEL_POPULATIONS_QUICK if quick else KERNEL_POPULATIONS
    pop_target = 150_000 if quick else 300_000
    for n in pops:
        row = _side_by_side(lambda cal: bench_timer_flood(cal, n, pop_target))
        row["n_timers"] = n
        populations.append(row)
    # gated row: 512 tickers, the concurrency real sweeps dispatch at.
    # 5 interleaved repeats: the 0.95x CI floor needs the ratio stable
    # to a couple of percent, and min-of-5 per arm gets it there.
    dispatch = bench_dispatch_pair(
        n_tickers=512,
        horizon_us=15_000.0 if quick else 25_000.0,
        repeats=4 if quick else 5,
    )
    dispatch["n_tickers"] = 512
    # ungated small-population row: documents the heap's home turf.
    dispatch_small = bench_dispatch_pair(
        n_tickers=64,
        horizon_us=15_000.0 if quick else 40_000.0,
        repeats=2 if quick else 3,
    )
    dispatch_small["n_tickers"] = 64
    kernel = {
        "bucket_us": FLOOD_BUCKET_US,
        "wheel_slots": FLOOD_WHEEL_SLOTS,
        "populations": populations,
        "dispatch": dispatch,
        "dispatch_small": dispatch_small,
    }
    return event_loop, kernel


def bench_cluster(quick: bool = False, seed: int = 42) -> dict:
    """Wall-clock of the 100-node churn sweep: heap vs wheel, with
    byte-identity across both reports."""
    import os

    from repro.analysis.export import canonical_dumps
    from repro.cluster.sweep import run_cluster_sweep

    duration_us = 30_000.0 if quick else 100_000.0
    n_jobs = 30 if quick else 80
    kw = dict(policy="score", n_nodes=CLUSTER_NODES, n_jobs=n_jobs,
              duration_us=duration_us, seed=seed)

    def one(calendar: str) -> tuple[float, str]:
        prev = os.environ.get("REPRO_SIM_CALENDAR")
        os.environ["REPRO_SIM_CALENDAR"] = calendar
        try:
            t0 = time.perf_counter()
            report = run_cluster_sweep(**kw)
            wall = time.perf_counter() - t0
        finally:
            if prev is None:
                os.environ.pop("REPRO_SIM_CALENDAR", None)
            else:
                os.environ["REPRO_SIM_CALENDAR"] = prev
        return wall, canonical_dumps(report)

    heap_wall, heap_bytes = one("heap")
    wheel_wall, wheel_bytes = one("wheel")
    return {
        "n_nodes": CLUSTER_NODES,
        "n_jobs": n_jobs,
        "duration_us": duration_us,
        "seed": seed,
        "heap_wall_s": heap_wall,
        "wheel_wall_s": wheel_wall,
        "identical_reports": heap_bytes == wheel_bytes,
    }


def bench_cluster_rate(quick: bool = False, seed: int = 42) -> dict:
    """Cluster data-plane throughput at 100 nodes: vectorized vs scalar.

    The data-plane "event" is one per-node unit of telemetry work: one
    daemon tick (a monitor collect) or one node visited by a full
    placement scan.  An idle 100-node cluster runs every node's Holmes
    daemon at the cluster telemetry interval while a scanner performs one
    full ``pick_node`` score scan per boundary -- the exact per-tick hot
    path the vectorized plane batches, isolated from workload simulation
    cost (which dominates the churned sweep and would dilute the ratio).
    Arms are interleaved and min-of-``repeats`` so frequency drift hits
    both planes equally; both arms execute the identical event sequence,
    so events/sec ratios reduce to wall ratios.

    A churned sweep then runs once per plane to prove the two produce
    byte-identical reports (``identical_reports`` -- gated in
    ``check_bench_regression`` alongside the >= 2x rate floor).
    """
    import os

    from repro.analysis.export import canonical_dumps
    from repro.cluster.cluster import Cluster
    from repro.cluster.dataplane import DATA_PLANE_ENV_VAR
    from repro.cluster.scheduler import ClusterBatchScheduler
    from repro.cluster.sweep import run_cluster_sweep
    from repro.core import HolmesConfig

    interval_us = 1_000.0
    duration_us = 30_000.0 if quick else 80_000.0
    repeats = 2 if quick else 3

    def with_mode(mode: str, fn):
        prev = os.environ.get(DATA_PLANE_ENV_VAR)
        os.environ[DATA_PLANE_ENV_VAR] = mode
        try:
            return fn()
        finally:
            if prev is None:
                os.environ.pop(DATA_PLANE_ENV_VAR, None)
            else:
                os.environ[DATA_PLANE_ENV_VAR] = prev

    def one_rate() -> tuple[float, int]:
        cluster = Cluster(
            n_servers=CLUSTER_NODES,
            seed=seed,
            holmes_config=HolmesConfig(interval_us=interval_us),
        )
        scheduler = ClusterBatchScheduler(cluster, policy="score")
        scans = [0]

        def scanner():
            while True:
                yield cluster.env.timeout(interval_us)
                scheduler.pick_node()
                scans[0] += 1

        cluster.env.process(scanner(), name="bench-scanner")
        t0 = time.perf_counter()
        cluster.run(until=duration_us)
        wall = time.perf_counter() - t0
        ticks = sum(node.holmes.ticks for node in cluster.nodes)
        cluster.stop_daemons()
        return wall, ticks + scans[0] * CLUSTER_NODES

    n_events: dict[str, int] = {}

    def one(mode: str) -> float:
        wall, n_events[mode] = with_mode(mode, one_rate)
        return wall

    walls = _interleaved_min(one, ("scalar", "vectorized"), repeats)

    def one_sweep() -> tuple[float, str]:
        t0 = time.perf_counter()
        report = run_cluster_sweep(
            policy="score",
            n_nodes=CLUSTER_NODES,
            n_jobs=30 if quick else 60,
            duration_us=duration_us,
            seed=seed,
        )
        return time.perf_counter() - t0, canonical_dumps(report)

    scalar_sweep_wall, scalar_bytes = with_mode("scalar", one_sweep)
    vector_sweep_wall, vector_bytes = with_mode("vectorized", one_sweep)

    record: dict = {
        "n_nodes": CLUSTER_NODES,
        "interval_us": interval_us,
        "duration_us": duration_us,
        "repeats": repeats,
        "seed": seed,
        "identical_event_counts": n_events["scalar"] == n_events["vectorized"],
        "sweep": {
            "n_jobs": 30 if quick else 60,
            "scalar_wall_s": scalar_sweep_wall,
            "vectorized_wall_s": vector_sweep_wall,
            "speedup": (
                scalar_sweep_wall / vector_sweep_wall
                if vector_sweep_wall > 0
                else None
            ),
            "identical_reports": scalar_bytes == vector_bytes,
        },
    }
    for mode in ("scalar", "vectorized"):
        wall = walls[mode]
        record[mode] = {
            "wall_s": wall,
            "events": n_events[mode],
            "events_per_sec": n_events[mode] / wall if wall > 0 else None,
        }
    scalar_rate = record["scalar"]["events_per_sec"] or 0.0
    vector_rate = record["vectorized"]["events_per_sec"] or 0.0
    record["vectorized_vs_scalar"] = (
        vector_rate / scalar_rate if scalar_rate > 0 else None
    )
    return record


def bench_dispatch_core(parallel: int = 8, quick: bool = False,
                        seed: int = 42) -> dict:
    """LPT vs FIFO order on one dispatch core, plus executor identity.

    Two measurements:

    * **skewed_mix** -- a pile of short colocation cells with one long
      cell appended *last*, run twice over the same pool executor.  The
      *fifo* arm feeds the dispatch core ``cost_hints`` that rank the
      cells in input order, so the long cell starts only after every
      short one has been handed out and the tail of the run is one
      worker grinding alone; the *lpt* arm lets the cost model put the
      long cell first and back-fill the short ones around it.  With
      ``W`` seconds of short work sized at ``0.8 * (workers - 1) *
      heavy_wall``, the expected ratio is ``1 + 0.8 * (workers - 1) /
      workers`` (1.4x at two workers, 1.6x at four) against the CI
      floor of 1.3x.  Arms are interleaved and
      min-of-``repeats``; both arms' merged reports must be
      byte-identical.  The pool is clamped to ``os.cpu_count()``:
      oversubscribed workers timeshare the long cell and measure the OS
      scheduler, not the dispatch policy.  On a single-core box the
      ratio is meaningless (everything serialises), so the record
      carries ``effective_workers`` and the CI gate only applies the
      floor when it is >= 2.  Speculation is off in both arms: a
      speculative clone of the straggler would re-run the long cell
      from scratch and add noise, not signal, at this scale.
    * **sharded_sweep** -- a 1,000-node cluster sweep sharded into
      per-node-range cells, run through ``InProcessExecutor``,
      ``PoolExecutor`` at two sizes, and ``SocketExecutor``.  The merged
      reports must be byte-identical across every arm: the transport
      and the fan-out width must never leak into results.
    """
    import os

    from repro.runner.aggregate import ExperimentRequest, expand_request

    eff = max(1, min(parallel, os.cpu_count() or 1))
    heavy_us = 100_000.0 if quick else 200_000.0
    cheap_us = 5_000.0
    repeats = 2

    def colo(duration_us: float, cell_seed: int) -> ExperimentRequest:
        return ExperimentRequest.make(
            "colocation",
            {"service": "redis", "workload": "a", "setting": "holmes",
             "duration_us": duration_us},
            cell_seed,
        )

    def serial_wall(req: ExperimentRequest) -> float:
        t0 = time.perf_counter()
        ExperimentRunner(parallel=1).run([req])
        return time.perf_counter() - t0

    # calibrate the short/long cost ratio on this machine (fixed per-cell
    # setup cost makes it flatter than the duration ratio); these serial
    # runs also warm every import so neither timed arm pays them.
    cheap_wall = serial_wall(colo(cheap_us, seed))
    heavy_wall = serial_wall(colo(heavy_us, seed + 1))
    ratio = heavy_wall / cheap_wall if cheap_wall > 0 else 1.0
    n_cheap = max(eff, min(96, round(0.8 * max(eff - 1, 1) * ratio)))
    requests = [colo(cheap_us, seed + 10 + i) for i in range(n_cheap)]
    requests.append(colo(heavy_us, seed + 1))

    # input order as expected cost: the first request ranks longest.
    fifo_hints = {
        cell.cell_id: float(len(requests) - i)
        for i, req in enumerate(requests)
        for _role, cell in expand_request(req)
    }
    blobs: dict[str, bytes] = {}

    def one_mix(arm: str) -> float:
        runner = ExperimentRunner(
            parallel=eff,
            executor="pool",
            speculate=0,
            cost_hints=fifo_hints if arm == "fifo" else None,
        )
        report = runner.run(requests)
        blobs[arm] = report.merged_bytes()
        return report.wall_s

    walls = _interleaved_min(one_mix, ("fifo", "lpt"), repeats)
    fifo_wall, lpt_wall = walls["fifo"], walls["lpt"]

    shard_req = [
        ExperimentRequest.make(
            "cluster_shard",
            {"policies": ("score",), "shards": 8, "n_nodes": 1000,
             "n_jobs": 150 if quick else 300,
             "duration_us": 3_000.0 if quick else 8_000.0},
            seed,
        )
    ]

    def one_shard(executor: str, workers: int) -> tuple[float, bytes]:
        runner = ExperimentRunner(parallel=workers, executor=executor,
                                  speculate=0)
        report = runner.run(shard_req)
        return report.wall_s, report.merged_bytes()

    shard_arms = []
    shard_blobs = []
    for executor, workers in (
        ("inprocess", 1),
        ("pool", 2),
        ("pool", eff),
        ("socket", 2),
    ):
        wall, blob = one_shard(executor, workers)
        shard_arms.append(
            {"executor": executor, "parallel": workers, "wall_s": wall}
        )
        shard_blobs.append(blob)

    return {
        "requested_parallel": parallel,
        "effective_workers": eff,
        "cpu_count": os.cpu_count(),
        "skewed_mix": {
            "n_cheap": n_cheap,
            "cheap_duration_us": cheap_us,
            "heavy_duration_us": heavy_us,
            "cheap_wall_s": cheap_wall,
            "heavy_wall_s": heavy_wall,
            "repeats": repeats,
            "fifo_wall_s": fifo_wall,
            "lpt_wall_s": lpt_wall,
            "speedup": fifo_wall / lpt_wall if lpt_wall > 0 else None,
            "identical_merged_results": blobs["fifo"] == blobs["lpt"],
        },
        "sharded_sweep": {
            "n_nodes": 1000,
            "shards": 8,
            "n_jobs": 150 if quick else 300,
            "duration_us": 3_000.0 if quick else 8_000.0,
            "arms": shard_arms,
            "identical_merged_results": all(
                blob == shard_blobs[0] for blob in shard_blobs
            ),
        },
    }


def profile_event_loop(output: str | pathlib.Path,
                       quick: bool = False) -> str:
    """cProfile the timer-flood hot path for both kernels; write a text
    report next to the bench output and return its path."""
    import cProfile
    import io
    import pstats

    n = EVENT_LOOP_TIMERS_QUICK if quick else EVENT_LOOP_TIMERS
    target = 150_000 if quick else 400_000
    horizon = target / (n * _MEAN_INV_PERIOD)
    buf = io.StringIO()
    for calendar in ("heap", "wheel"):
        env = _flood_env(calendar, n)
        prof = cProfile.Profile()
        prof.enable()
        env.run(until=horizon)
        prof.disable()
        buf.write(f"== {calendar} kernel: timer flood, n={n}, "
                  f"{env._seq} events ==\n")
        stats = pstats.Stats(prof, stream=buf)
        stats.sort_stats("tottime").print_stats(25)
        buf.write("\n")
    path = pathlib.Path(output)
    report = path.with_name(path.stem + "_profile.txt")
    report.write_text(buf.getvalue())
    return str(report)


def bench_fault_overhead(duration_us: float = 50_000.0, repeats: int = 5,
                         seed: int = 42) -> dict:
    """Cost of the fault-injection hook points when no fault fires.

    Two identical telemetry-mode Holmes runs on an otherwise idle system:
    one without the fault engine, one with an *empty* :class:`FaultPlan`
    injector attached (every hook installed, nothing ever injected, plus
    the watchdog the chaos path arms).  Both arms do the same scheduling
    work, so the wall-clock ratio isolates the hook overhead that the
    ``check_bench_regression`` gate holds to <= 5%.  Arms are interleaved
    and min-of-``repeats`` so frequency drift hits both equally.
    """
    from repro.core import Holmes, HolmesConfig
    from repro.experiments.common import ExperimentScale, build_system
    from repro.faults import FaultInjector, FaultPlan

    def one(with_hooks: bool) -> float:
        scale = ExperimentScale(duration_us=duration_us, seed=seed)
        system = build_system(scale)
        injector = (
            FaultInjector(FaultPlan(seed=0, specs=()), scope="bench")
            if with_hooks
            else None
        )
        holmes = Holmes(system, HolmesConfig(n_reserved=scale.n_reserved),
                        faults=injector)
        holmes.start()
        t0 = time.perf_counter()
        system.run(until=duration_us)
        wall = time.perf_counter() - t0
        holmes.stop()
        return wall

    walls = _interleaved_min(one, (False, True), repeats)
    plain, hooked = walls[False], walls[True]
    return {
        "duration_us": duration_us,
        "repeats": repeats,
        "plain_wall_s": plain,
        "hooked_wall_s": hooked,
        "overhead_ratio": hooked / plain if plain > 0 else None,
    }


def bench_resilience_overhead(quick: bool = False, seed: int = 42,
                              parallel: int = 2) -> dict:
    """Cost of the resilience layer when nothing ever fails.

    Two identical pool-executor sweeps over short co-location cells:
    *plain* (no chaos wrapper, no journal, the default retry wiring) and
    *resilient* (an explicit :class:`RetryPolicy`, an *empty* transport
    chaos plan wrapped around the executor -- every per-task decision
    channel drawn, nothing ever fires -- and the crash-safe journal
    fsyncing one record per plan/done event).  Both arms compute the
    same cells, so the wall ratio isolates what the resilience plumbing
    costs a healthy sweep; the ``check_bench_regression`` gate holds it
    to <= 1.05x.  Arms are interleaved and min-of-``repeats`` so
    frequency drift hits both equally.
    """
    import os
    import tempfile as _tempfile

    from repro.faults import FaultPlan
    from repro.runner.aggregate import ExperimentRequest
    from repro.runner.resilience import RetryPolicy

    # full mode runs longer cells so the fixed per-record fsync cost is
    # amortised the way a real sweep amortises it; quick mode keeps the
    # CI gate cheap.
    duration_us = 4_000.0 if quick else 8_000.0
    n_cells = 6 if quick else 10
    repeats = 2 if quick else 3
    requests = [
        ExperimentRequest.make(
            "colocation",
            {"service": "redis", "workload": "a", "setting": "holmes",
             "duration_us": duration_us},
            seed + i,
        )
        for i in range(n_cells)
    ]
    # an empty plan still routes every submit through the chaos wrapper's
    # decision channels: the measured cost is the hook points, not faults.
    empty_plan = FaultPlan(seed=0, specs=()).to_json()

    def one(resilient: bool, journal_path: str) -> float:
        kwargs = {}
        if resilient:
            kwargs = dict(
                retry_policy=RetryPolicy(),
                chaos_plan=empty_plan,
                journal=journal_path,
            )
        runner = ExperimentRunner(parallel=parallel, executor="pool",
                                  **kwargs)
        t0 = time.perf_counter()
        runner.run(requests)
        return time.perf_counter() - t0

    with _tempfile.TemporaryDirectory(prefix="repro-resilience-") as tmp:
        journal_path = os.path.join(tmp, "journal.jsonl")
        walls = _interleaved_min(
            lambda resilient: one(resilient, journal_path),
            (False, True), repeats, warm=True,
        )
    plain, resilient = walls[False], walls[True]
    return {
        "duration_us": duration_us,
        "n_cells": n_cells,
        "parallel": parallel,
        "repeats": repeats,
        "plain_wall_s": plain,
        "resilient_wall_s": resilient,
        "overhead_ratio": resilient / plain if plain > 0 else None,
    }


def bench_obs_overhead(duration_us: float = 50_000.0, repeats: int = 5,
                       seed: int = 42) -> dict:
    """Cost of the observability plane on the Holmes hot loop.

    Three identical telemetry-mode Holmes runs: *plain* (``obs=None``,
    one is-not-None check per hook point), *disabled* (a plane built
    from the ``"none"`` spec attached — every hook point live, every
    category gated off, so each costs one precomputed-bool branch), and
    *enabled* (the ``"all"`` spec — events and metrics actually
    recorded).  The regression gate holds disabled/plain to <= 1.03x
    and enabled/plain to <= 1.15x.  Arms are interleaved and
    min-of-``repeats`` so frequency drift hits all three equally.
    """
    from repro.core import Holmes, HolmesConfig
    from repro.experiments.common import ExperimentScale, build_system
    from repro.obs import ObservabilityPlane

    def one(spec) -> float:
        scale = ExperimentScale(duration_us=duration_us, seed=seed)
        system = build_system(scale)
        plane = ObservabilityPlane.from_spec(spec)
        obs = plane.for_node("bench") if plane is not None else None
        holmes = Holmes(system, HolmesConfig(n_reserved=scale.n_reserved),
                        obs=obs)
        holmes.start()
        t0 = time.perf_counter()
        system.run(until=duration_us)
        wall = time.perf_counter() - t0
        holmes.stop()
        return wall

    walls = _interleaved_min(one, (None, "none", "all"), repeats)
    plain, disabled, enabled = walls[None], walls["none"], walls["all"]
    return {
        "duration_us": duration_us,
        "repeats": repeats,
        "plain_wall_s": plain,
        "disabled_wall_s": disabled,
        "enabled_wall_s": enabled,
        "disabled_ratio": disabled / plain if plain > 0 else None,
        "enabled_ratio": enabled / plain if plain > 0 else None,
    }


def bench_runner_obs_overhead(quick: bool = False, seed: int = 42,
                              parallel: int = 2) -> dict:
    """Cost of the runner telemetry plane (wall-clock spans + metrics).

    Three identical pool-executor sweeps over short co-location cells:
    *plain* (``telemetry=None`` -- one is-not-None check per
    instrumentation point), *disabled* (a
    :class:`~repro.obs.runner.RunnerTelemetry` built with
    ``enabled=False`` attached -- the runner coerces it to None, so
    this arm proves the coercion leaves no residue), and *enabled*
    (spans, per-iteration queue sampling, and worker-side compute spans
    all recorded).  The ``check_bench_regression`` gate holds
    disabled/plain to <= 1.05x; the enabled ratio is reported for the
    record.  Arms are interleaved and min-of-``repeats`` so frequency
    drift hits all three equally.
    """
    from repro.obs.runner import RunnerTelemetry
    from repro.runner.aggregate import ExperimentRequest

    duration_us = 4_000.0 if quick else 8_000.0
    n_cells = 6 if quick else 10
    repeats = 2 if quick else 3
    requests = [
        ExperimentRequest.make(
            "colocation",
            {"service": "redis", "workload": "a", "setting": "holmes",
             "duration_us": duration_us},
            seed + i,
        )
        for i in range(n_cells)
    ]

    def one(arm: str) -> float:
        telemetry = None
        if arm == "disabled":
            telemetry = RunnerTelemetry(enabled=False)
        elif arm == "enabled":
            telemetry = RunnerTelemetry()
        runner = ExperimentRunner(parallel=parallel, executor="pool",
                                  telemetry=telemetry)
        t0 = time.perf_counter()
        runner.run(requests)
        return time.perf_counter() - t0

    walls = _interleaved_min(
        one, ("plain", "disabled", "enabled"), repeats, warm=True
    )
    plain, disabled, enabled = (
        walls["plain"], walls["disabled"], walls["enabled"]
    )
    return {
        "duration_us": duration_us,
        "n_cells": n_cells,
        "parallel": parallel,
        "repeats": repeats,
        "plain_wall_s": plain,
        "disabled_wall_s": disabled,
        "enabled_wall_s": enabled,
        "disabled_ratio": disabled / plain if plain > 0 else None,
        "enabled_ratio": enabled / plain if plain > 0 else None,
    }


def bench_profiling(quick: bool = False, seed: int = 42) -> dict:
    """Cost of the offline profiling stage and the online predictor.

    Two numbers feed the regression gate:

    * ``wall_per_probe_run_s`` -- wall-clock of one full
      :func:`~repro.profiling.stage.run_profile_stage` divided by the
      number of simulated probe runs it performs, so the gate tracks
      per-probe cost rather than matrix size (adding a workload to the
      seed matrix must not trip it).
    * ``pair_eval_per_s`` -- throughput of the fitted model's
      ``predict_excess`` over the profile pairs, i.e. the per-decision
      cost the predictor policy adds to the scheduler hot path.
    """
    from repro.profiling import load_stage, run_profile_stage

    iterations = 12 if quick else 24
    t0 = time.perf_counter()
    payload = run_profile_stage(seed=seed, iterations=iterations)
    wall = time.perf_counter() - t0

    n_targets = len(payload["targets"])
    n_pairs = len(payload["pairs"])
    duties = payload["probe"]["duties"]
    # per target: 1 solo + len(duties) mem-sensitivity + 1 cpu-
    # sensitivity + 2 pressure runs; plus 1 sim run per measured pair
    # and 2 victim calibration runs.
    probe_runs = n_targets * (4 + len(duties)) + n_pairs + 2

    profiles, model = load_stage(payload)
    pair_list = [
        (a, b)
        for i, a in enumerate(profiles.values())
        for b in list(profiles.values())[i:]
    ]
    sweeps = 200 if quick else 1_000
    t0 = time.perf_counter()
    for _ in range(sweeps):
        for a, b in pair_list:
            model.predict_excess(a, b)
    eval_wall = time.perf_counter() - t0
    n_evals = sweeps * len(pair_list)
    return {
        "seed": seed,
        "iterations": iterations,
        "n_targets": n_targets,
        "n_pairs": n_pairs,
        "probe_runs": probe_runs,
        "stage_wall_s": wall,
        "wall_per_probe_run_s": wall / probe_runs if probe_runs else None,
        "pair_evals": n_evals,
        "pair_eval_per_s": n_evals / eval_wall if eval_wall > 0 else None,
    }


def bench_sweep(duration_us: float = BENCH_DURATION_US,
                seed: int = 42) -> list[ExperimentRequest]:
    """The 4-experiment sweep: four figures over one co-location triple."""
    params = {"service": "redis", "workload": "a", "duration_us": duration_us}
    return [
        ExperimentRequest.make(name, params, seed)
        for name in ("compare", "latency", "slo", "throughput")
    ]


def run_bench(
    parallel: int = 4,
    duration_us: float = BENCH_DURATION_US,
    seed: int = 42,
    cache_dir: Optional[str] = None,
    output: str | pathlib.Path = "BENCH_runner.json",
    quick: bool = False,
    kernel: bool = True,
    cluster: bool = True,
    dispatch: bool = True,
    profile: bool = False,
) -> dict:
    """Run the bench and write ``BENCH_runner.json``; returns the record.

    ``kernel``/``cluster``/``dispatch`` gate the corresponding
    measurement groups (the CI smoke job runs with all three off: it
    only needs the serial-vs-parallel equivalence check).  ``profile``
    additionally writes a cProfile report of the event-loop hot path
    next to ``output``.
    """
    requests = bench_sweep(duration_us, seed)

    serial = ExperimentRunner(cache=None, parallel=1, dedupe=False).run(requests)

    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_root = tmp.name
    else:
        tmp = None
        cache_root = cache_dir
    try:
        cache = ResultCache(cache_root)
        par = ExperimentRunner(cache=cache, parallel=parallel,
                               dedupe=True).run(requests)
    finally:
        if tmp is not None:
            tmp.cleanup()

    identical = serial.merged_bytes() == par.merged_bytes()
    record = {
        "sweep": {
            "experiments": [r.experiment_id for r in requests],
            "duration_us": duration_us,
            "seed": seed,
            "serial_wall_s": serial.wall_s,
            "parallel_wall_s": par.wall_s,
            "speedup": (
                serial.wall_s / par.wall_s if par.wall_s > 0 else None
            ),
            "serial_cell_runs": serial.n_cell_runs,
            "parallel_cell_runs": par.n_cell_runs,
            "parallel": parallel,
            "identical_merged_results": identical,
            "cache": par.cache_stats,
        },
    }
    record["fault_overhead"] = bench_fault_overhead(
        duration_us=20_000.0 if quick else 50_000.0,
        repeats=3 if quick else 5,
        seed=seed,
    )
    record["obs_overhead"] = bench_obs_overhead(
        duration_us=20_000.0 if quick else 50_000.0,
        repeats=3 if quick else 5,
        seed=seed,
    )
    record["resilience_overhead"] = bench_resilience_overhead(
        quick=quick, seed=seed
    )
    record["runner_obs_overhead"] = bench_runner_obs_overhead(
        quick=quick, seed=seed
    )
    record["profiling"] = bench_profiling(quick=quick, seed=seed)
    if kernel:
        record["event_loop"], record["kernel"] = bench_kernel(quick)
    if cluster:
        record["cluster"] = bench_cluster(quick, seed=seed)
        record["cluster_rate"] = bench_cluster_rate(quick, seed=seed)
    if dispatch:
        record["dispatch_core"] = bench_dispatch_core(quick=quick, seed=seed)
    if profile:
        record["profile_report"] = profile_event_loop(output, quick)
    path = pathlib.Path(output)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record
