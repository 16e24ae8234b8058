#!/usr/bin/env python3
"""CI gate: compare a fresh ``repro bench`` record against the committed
baseline (``BENCH_runner.json``).

Checks, mirroring what the bench itself promises:

* the serial and parallel merged results of the fresh run must be
  byte-identical (fan-out that changes results is a correctness bug);
* the fresh serial wall-clock, normalised per simulated microsecond so a
  ``--quick`` run is comparable to the committed full-length baseline,
  must not exceed ``max_ratio`` times the baseline (default 2x -- CI
  runners are noisy, so only flag real regressions);
* the wheel calendar's event-loop throughput must be at least
  ``min_wheel_ratio`` times the heap's (default 1.0x) in the fresh run:
  a wheel slower than the reference heap means the default kernel
  regressed;
* the cluster sweep reports must be byte-identical under heap vs wheel;
* the wheel's generator-dispatch throughput (interleaved heap/wheel
  arms, 512 tickers -- the concurrency cluster sweeps actually run at)
  must be at least ``min_dispatch_ratio`` times the heap's (default
  0.95x).  History: the wheel once shipped at 0.82x on this bench
  because every ``_schedule`` paid an extra ``_place`` call frame;
  inlining fixed it, and this gate keeps the schedule path from
  silently re-growing.  The 64-ticker ``dispatch_small`` row is
  recorded but NOT gated: at that population the heap's 6-level C
  sifts beat the wheel's pure-Python bucket bookkeeping by ~5-10% by
  design, and that trade-off is documented, not a regression;
* the vectorized cluster data plane must deliver at least
  ``min_cluster_rate`` times the scalar reference path's cluster
  events/sec (default 2x) at 100 nodes -- both arms run fresh in the
  current record, so this is a within-run floor, not a baseline ratio --
  and the two planes' churned sweep reports must be byte-identical;
* the dispatch core's longest-expected-first (LPT) order must beat
  first-in-first-out (FIFO) order on the same core by at least
  ``min_dispatch_core`` (default 1.3x) on the skewed cell mix --
  within-run, like the cluster-rate floor -- whenever the record shows
  at least two effective workers (a single-core runner serialises both
  arms, so the ratio measures nothing there: the gate prints a
  ``SKIPPED`` line naming the worker count and only the identity
  checks apply); the fifo and lpt arms' merged reports, and the
  sharded 1,000-node sweep's merged reports across every executor
  transport and pool size, must be byte-identical unconditionally;
* the profiling stage's wall-clock per probe run must not exceed
  ``max_profiling_ratio`` times the baseline's (default 2x, same noise
  allowance as the sweep wall): the micro-probe stage staying cheap is
  what keeps workload onboarding a one-command affair;
* the fault-injection hook points, measured with an *empty* fault plan
  attached, must cost at most ``max_fault_overhead`` times the plain
  run (default 1.05x: the chaos engine is free when unused);
* the runner's resilience layer (empty transport chaos plan wrapped
  around the executor, explicit retry policy, fsynced sweep journal)
  must cost at most ``max_resilience_overhead`` times the plain sweep
  (default 1.05x: resilience is near-free when nothing fails);
* the observability plane must cost at most ``max_obs_disabled`` times
  the plain run when attached with every category gated off (default
  1.03x: observability is free when unused) and at most
  ``max_obs_enabled`` times when fully enabled (default 1.15x);
* the runner telemetry plane (wall-clock spans across dispatch,
  executors, and socket workers), attached but disabled, must cost at
  most ``max_runner_obs_overhead`` times the plain sweep (default
  1.05x: tracing is zero-cost when off; the enabled ratio is printed
  for the record but not gated).

Exit status is nonzero on any failure, so the workflow step fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def normalised_serial_wall(record: dict) -> float:
    """Serial seconds per simulated microsecond of sweep cell."""
    sweep = record["sweep"]
    duration_us = float(sweep["duration_us"])
    if duration_us <= 0:
        raise ValueError(f"bad duration_us in bench record: {duration_us}")
    return float(sweep["serial_wall_s"]) / duration_us


def check_dispatch_core(dc: dict, min_dispatch_core: float) -> list[str]:
    """The dispatch-core section's speedup gate and identity checks."""
    failures = []
    mix = dc["skewed_mix"]
    workers = int(dc.get("effective_workers", 1))
    speedup = mix.get("speedup") or 0.0
    print(
        f"dispatch core ({workers} workers, {mix['n_cheap']} short + "
        f"1 long cell): fifo {mix['fifo_wall_s']:.2f}s, lpt "
        f"{mix['lpt_wall_s']:.2f}s, speedup {speedup:.2f}x "
        f"(floor {min_dispatch_core:.2f}x at >= 2 workers); "
        f"mix identical={mix['identical_merged_results']}, sharded "
        f"identical={dc['sharded_sweep']['identical_merged_results']}"
    )
    # within-run floor, like the cluster-rate gate -- but only
    # meaningful with real concurrency: one core serialises both
    # arms and the ratio measures the OS, not the dispatch policy.
    if workers < 2:
        print(
            f"SKIPPED: dispatch-core speedup gate (floor "
            f"{min_dispatch_core:.2f}x) needs >= 2 effective workers; "
            f"this record ran {workers}"
        )
    elif speedup < min_dispatch_core:
        failures.append(
            f"lpt dispatch is only {speedup:.2f}x fifo dispatch "
            f"on the skewed mix at {workers} workers (floor "
            f"{min_dispatch_core:.2f}x): the LPT ready queue "
            f"regressed"
        )
    if not mix["identical_merged_results"]:
        failures.append(
            "fifo and lpt dispatch merged results differ: "
            "dispatch order changed experiment output"
        )
    if not dc["sharded_sweep"]["identical_merged_results"]:
        failures.append(
            "sharded 1,000-node sweep merged results differ across "
            "executors/pool sizes: a transport leaked into results"
        )
    return failures


def check(current: dict, baseline: dict, max_ratio: float,
          min_wheel_ratio: float,
          max_fault_overhead: float = 1.05,
          max_resilience_overhead: float = 1.05,
          max_obs_disabled: float = 1.03,
          max_obs_enabled: float = 1.15,
          max_runner_obs_overhead: float = 1.05,
          min_dispatch_ratio: float = 0.95,
          max_profiling_ratio: float = 2.0,
          min_cluster_rate: float = 2.0,
          min_dispatch_core: float = 1.3) -> list[str]:
    failures = []
    if not current["sweep"]["identical_merged_results"]:
        failures.append(
            "serial and parallel merged results differ: the runner's "
            "fan-out changed experiment output"
        )
    cur = normalised_serial_wall(current)
    base = normalised_serial_wall(baseline)
    ratio = cur / base if base > 0 else float("inf")
    print(
        f"serial wall per simulated us: current {cur:.3e}, "
        f"baseline {base:.3e}, ratio {ratio:.2f}x (limit {max_ratio:.2f}x)"
    )
    if ratio > max_ratio:
        failures.append(
            f"serial sweep wall regressed {ratio:.2f}x vs baseline "
            f"(limit {max_ratio:.2f}x)"
        )

    loop = current.get("event_loop")
    if loop is None:
        failures.append("bench record has no event_loop section "
                        "(run without --no-kernel)")
    else:
        heap_eps = loop["heap"]["events_per_sec"]
        wheel_eps = loop["wheel"]["events_per_sec"]
        wheel_ratio = loop["wheel_vs_heap"]
        print(
            f"event loop (n={loop['n_timers']}): heap {heap_eps:,.0f} ev/s, "
            f"wheel {wheel_eps:,.0f} ev/s, wheel/heap {wheel_ratio:.2f}x "
            f"(floor {min_wheel_ratio:.2f}x)"
        )
        if wheel_ratio < min_wheel_ratio:
            failures.append(
                f"wheel event-loop throughput is {wheel_ratio:.2f}x the "
                f"heap's (floor {min_wheel_ratio:.2f}x): the default "
                f"calendar kernel regressed"
            )

    kernel = current.get("kernel")
    if kernel is None:
        failures.append("bench record has no kernel section "
                        "(run without --no-kernel)")
    else:
        disp = kernel["dispatch"]
        disp_ratio = disp.get("wheel_vs_heap")
        if disp_ratio is None:
            failures.append("dispatch bench recorded no wheel_vs_heap ratio")
        else:
            print(
                f"dispatch (n={disp.get('n_tickers', '?')}): heap "
                f"{disp['heap']['events_per_sec']:,.0f} ev/s, "
                f"wheel {disp['wheel']['events_per_sec']:,.0f} ev/s, "
                f"wheel/heap {disp_ratio:.3f}x "
                f"(floor {min_dispatch_ratio:.2f}x)"
            )
            if disp_ratio < min_dispatch_ratio:
                failures.append(
                    f"wheel generator-dispatch throughput is "
                    f"{disp_ratio:.3f}x the heap's (floor "
                    f"{min_dispatch_ratio:.2f}x): the wheel's schedule "
                    f"path regressed"
                )

    prof = current.get("profiling")
    base_prof = baseline.get("profiling")
    if prof is None:
        failures.append(
            "bench record has no profiling section (bench predates the "
            "micro-probe profiling stage?)"
        )
    elif base_prof is not None:
        cur_pp = prof.get("wall_per_probe_run_s") or float("inf")
        base_pp = base_prof.get("wall_per_probe_run_s") or 0.0
        pp_ratio = cur_pp / base_pp if base_pp > 0 else float("inf")
        evals = prof.get("pair_eval_per_s") or 0.0
        print(
            f"profiling: {prof['probe_runs']} probe runs in "
            f"{prof['stage_wall_s']:.2f}s ({cur_pp * 1e3:.2f} ms/run, "
            f"baseline {base_pp * 1e3:.2f} ms/run, ratio {pp_ratio:.2f}x, "
            f"limit {max_profiling_ratio:.2f}x); model {evals:,.0f} "
            f"pair-evals/s"
        )
        if pp_ratio > max_profiling_ratio:
            failures.append(
                f"profiling stage wall per probe run regressed "
                f"{pp_ratio:.2f}x vs baseline (limit "
                f"{max_profiling_ratio:.2f}x)"
            )

    cluster = current.get("cluster")
    if cluster is not None:
        print(
            f"cluster sweep ({cluster['n_nodes']} nodes): heap "
            f"{cluster['heap_wall_s']:.2f}s, wheel "
            f"{cluster['wheel_wall_s']:.2f}s, identical="
            f"{cluster['identical_reports']}"
        )
        if not cluster["identical_reports"]:
            failures.append(
                "cluster sweep reports differ across kernels: "
                "the calendar changed experiment output"
            )

    rate = current.get("cluster_rate")
    if rate is None:
        failures.append(
            "bench record has no cluster_rate section (bench predates "
            "the vectorized cluster data plane?)"
        )
    else:
        ratio_v = rate.get("vectorized_vs_scalar") or 0.0
        print(
            f"cluster data plane ({rate['n_nodes']} nodes): scalar "
            f"{rate['scalar']['events_per_sec']:,.0f} ev/s, vectorized "
            f"{rate['vectorized']['events_per_sec']:,.0f} ev/s, "
            f"ratio {ratio_v:.2f}x (floor {min_cluster_rate:.2f}x); "
            f"sweep identical={rate['sweep']['identical_reports']}"
        )
        # both arms run fresh in the current record, so the floor is
        # checked within-run (no baseline drift to normalise away).
        if ratio_v < min_cluster_rate:
            failures.append(
                f"vectorized cluster data plane is only {ratio_v:.2f}x "
                f"the scalar path's events/sec (floor "
                f"{min_cluster_rate:.2f}x): the batched hot path regressed"
            )
        if not rate["sweep"]["identical_reports"]:
            failures.append(
                "cluster sweep reports differ between the scalar and "
                "vectorized data planes: the batched path changed "
                "experiment output"
            )
        if not rate.get("identical_event_counts", True):
            failures.append(
                "cluster_rate arms executed different event counts: the "
                "bench harness itself diverged between planes"
            )

    dc = current.get("dispatch_core")
    if dc is None:
        failures.append(
            "bench record has no dispatch_core section (run without "
            "--no-dispatch)"
        )
    else:
        failures += check_dispatch_core(dc, min_dispatch_core)

    fo = current.get("fault_overhead")
    if fo is None:
        failures.append(
            "bench record has no fault_overhead section (bench predates "
            "the fault-injection engine?)"
        )
    else:
        fo_ratio = fo["overhead_ratio"] or float("inf")
        print(
            f"fault hooks (empty plan): plain {fo['plain_wall_s']:.3f}s, "
            f"hooked {fo['hooked_wall_s']:.3f}s, ratio {fo_ratio:.3f}x "
            f"(limit {max_fault_overhead:.2f}x)"
        )
        if fo_ratio > max_fault_overhead:
            failures.append(
                f"fault-injection hooks cost {fo_ratio:.3f}x the plain "
                f"run with no fault configured (limit "
                f"{max_fault_overhead:.2f}x)"
            )

    ro = current.get("resilience_overhead")
    if ro is None:
        failures.append(
            "bench record has no resilience_overhead section (bench "
            "predates the runner resilience layer?)"
        )
    else:
        ro_ratio = ro["overhead_ratio"] or float("inf")
        print(
            f"resilience layer ({ro['n_cells']} cells, empty chaos plan "
            f"+ journal): plain {ro['plain_wall_s']:.3f}s, resilient "
            f"{ro['resilient_wall_s']:.3f}s, ratio {ro_ratio:.3f}x "
            f"(limit {max_resilience_overhead:.2f}x)"
        )
        if ro_ratio > max_resilience_overhead:
            failures.append(
                f"the resilience layer costs {ro_ratio:.3f}x the plain "
                f"sweep with no fault configured (limit "
                f"{max_resilience_overhead:.2f}x)"
            )

    oo = current.get("obs_overhead")
    if oo is None:
        failures.append(
            "bench record has no obs_overhead section (bench predates "
            "the observability plane?)"
        )
    else:
        dis_ratio = oo["disabled_ratio"] or float("inf")
        en_ratio = oo["enabled_ratio"] or float("inf")
        print(
            f"obs plane: plain {oo['plain_wall_s']:.3f}s, disabled "
            f"{oo['disabled_wall_s']:.3f}s ({dis_ratio:.3f}x, limit "
            f"{max_obs_disabled:.2f}x), enabled {oo['enabled_wall_s']:.3f}s "
            f"({en_ratio:.3f}x, limit {max_obs_enabled:.2f}x)"
        )
        if dis_ratio > max_obs_disabled:
            failures.append(
                f"observability hook points cost {dis_ratio:.3f}x the "
                f"plain run with every category disabled (limit "
                f"{max_obs_disabled:.2f}x)"
            )
        if en_ratio > max_obs_enabled:
            failures.append(
                f"the fully-enabled observability plane costs "
                f"{en_ratio:.3f}x the plain run (limit "
                f"{max_obs_enabled:.2f}x)"
            )

    runner_oo = current.get("runner_obs_overhead")
    if runner_oo is None:
        failures.append(
            "bench record has no runner_obs_overhead section (bench "
            "predates the runner telemetry plane?)"
        )
    else:
        dis_ratio = runner_oo["disabled_ratio"] or float("inf")
        en_ratio = runner_oo["enabled_ratio"] or float("inf")
        print(
            f"runner telemetry ({runner_oo['n_cells']} cells): plain "
            f"{runner_oo['plain_wall_s']:.3f}s, disabled "
            f"{runner_oo['disabled_wall_s']:.3f}s ({dis_ratio:.3f}x, "
            f"limit {max_runner_obs_overhead:.2f}x), enabled "
            f"{runner_oo['enabled_wall_s']:.3f}s ({en_ratio:.3f}x, "
            f"not gated)"
        )
        if dis_ratio > max_runner_obs_overhead:
            failures.append(
                f"the disabled runner telemetry plane costs "
                f"{dis_ratio:.3f}x the plain sweep (limit "
                f"{max_runner_obs_overhead:.2f}x): tracing must be "
                f"zero-cost when off"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="bench record from this run")
    parser.add_argument("baseline", nargs="?", default="BENCH_runner.json",
                        help="committed baseline (default BENCH_runner.json)")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="allowed normalised serial-wall slowdown")
    parser.add_argument("--min-wheel-ratio", type=float, default=1.0,
                        help="required wheel-vs-heap event-loop ratio")
    parser.add_argument("--max-fault-overhead", type=float, default=1.05,
                        help="allowed fault-hook overhead with an empty "
                             "fault plan (default 1.05 = 5%%)")
    parser.add_argument("--max-resilience-overhead", type=float,
                        default=1.05,
                        help="allowed overhead of the runner resilience "
                             "layer with an empty chaos plan and a live "
                             "journal (default 1.05 = 5%%)")
    parser.add_argument("--max-obs-disabled", type=float, default=1.03,
                        help="allowed obs-hook overhead with every "
                             "category disabled (default 1.03 = 3%%)")
    parser.add_argument("--max-obs-enabled", type=float, default=1.15,
                        help="allowed overhead of the fully-enabled obs "
                             "plane (default 1.15 = 15%%)")
    parser.add_argument("--max-runner-obs-overhead", type=float,
                        default=1.05,
                        help="allowed overhead of the attached-but-"
                             "disabled runner telemetry plane "
                             "(default 1.05 = 5%%)")
    parser.add_argument("--min-dispatch-ratio", type=float, default=0.95,
                        help="required wheel-vs-heap generator-dispatch "
                             "throughput ratio (default 0.95)")
    parser.add_argument("--max-profiling-ratio", type=float, default=2.0,
                        help="allowed slowdown of the profiling stage's "
                             "wall per probe run vs baseline (default 2.0)")
    parser.add_argument("--min-cluster-rate", type=float, default=2.0,
                        help="required vectorized-vs-scalar cluster "
                             "data-plane events/sec ratio (default 2.0)")
    parser.add_argument("--min-dispatch-core", type=float, default=1.3,
                        help="required lpt-vs-fifo dispatch "
                             "skewed-mix speedup when the record shows "
                             ">= 2 effective workers (default 1.3)")
    args = parser.parse_args(argv)

    current = json.loads(pathlib.Path(args.current).read_text())
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    failures = check(current, baseline, args.max_ratio, args.min_wheel_ratio,
                     args.max_fault_overhead, args.max_resilience_overhead,
                     args.max_obs_disabled,
                     args.max_obs_enabled, args.max_runner_obs_overhead,
                     args.min_dispatch_ratio,
                     args.max_profiling_ratio, args.min_cluster_rate,
                     args.min_dispatch_core)
    for f in failures:
        print(f"REGRESSION: {f}", file=sys.stderr)
    if not failures:
        print("bench regression check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
