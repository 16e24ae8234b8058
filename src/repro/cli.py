"""Command-line interface: ``python -m repro <command>``.

Every command but ``list`` runs its experiments as requests
(:class:`~repro.runner.ExperimentRequest`) on an
:class:`~repro.runner.ExperimentRunner` and renders its output from the
cell payloads and experiment aggregates the runner returns, so each
figure has one implementation, whether one command, a ``run-all`` sweep
or a benchmark asks for it.  A cell that keeps failing raises
:class:`~repro.runner.CellExecutionError` once its retry budget is spent.

    python -m repro list
    python -m repro colocate redis -w a --setting holmes
    python -m repro compare rocksdb -w b
    python -m repro microbench
    python -m repro metric
    python -m repro convergence
    python -m repro sweep-e memcached
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import format_table
from repro.analysis.figures import render_bars, render_cdf, render_series


def _resilience_kwargs(args):
    """ExperimentRunner kwargs from the shared resilience flags.

    ``--retries`` builds a RetryPolicy (overriding the default budgets),
    ``--chaos-plan`` reads a canonical-JSON transport fault plan, and
    ``--journal``/``--resume`` wire the crash-safe sweep journal.
    """
    kwargs = {}
    if getattr(args, "retries", None) is not None:
        from repro.runner import RetryPolicy

        kwargs["retry_policy"] = RetryPolicy.from_cell_retries(args.retries)
    chaos_path = getattr(args, "chaos_plan", None)
    if chaos_path:
        with open(chaos_path) as fh:
            kwargs["chaos_plan"] = fh.read()
    if getattr(args, "journal", None):
        kwargs["journal"] = args.journal
    if getattr(args, "resume", False):
        kwargs["resume"] = True
    return kwargs


def _add_resilience_args(p) -> None:
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="per-cell retry budget (max attempts = N + 1; "
                        "default 2)")
    p.add_argument("--chaos-plan", default=None, metavar="PATH",
                   help="canonical-JSON transport fault plan injected "
                        "into the executor (lost results, refused "
                        "tasks, slow replies); recovery must not change "
                        "report bytes")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="append-only sweep journal (crash-safe audit "
                        "record; required for --resume)")
    p.add_argument("--resume", action="store_true",
                   help="resume a killed sweep from --journal plus the "
                        "result cache, re-executing only unfinished "
                        "cells")


def _telemetry_kwargs(args):
    """ExperimentRunner kwargs from the shared runner-observability flags.

    ``--trace-runner PATH`` turns on the wall-clock span plane, whose
    trace.json :func:`_write_runner_trace` writes after the run;
    ``--progress`` turns on the live one-line sweep progress meter on
    stderr.  Neither changes a report byte -- spans live beside, never
    inside, the cell payloads.
    """
    kwargs = {}
    if getattr(args, "trace_runner", None):
        from repro.obs import RunnerTelemetry

        kwargs["telemetry"] = RunnerTelemetry()
    if getattr(args, "progress", False):
        kwargs["progress"] = True
    return kwargs


def _add_telemetry_args(p) -> None:
    p.add_argument("--trace-runner", default=None, metavar="PATH",
                   help="record wall-clock runner spans (dispatch, "
                        "cell attempts, worker-side compute, backfills, "
                        "retries) and write a Perfetto/Chrome "
                        "trace.json there after the run")
    p.add_argument("--progress", action="store_true",
                   help="live one-line sweep progress on stderr "
                        "(cells done/total, cost-model ETA, retry and "
                        "chaos counts)")


def _runner(args):
    """The runner a command runs on, built from the flags it has.

    ``--cache-dir``, ``--parallel``, ``--executor``, the resilience
    flags and the telemetry flags each configure it where the command
    has them; otherwise the runner keeps its default (no cache, one
    in-process worker, the default retry budget, no telemetry).
    """
    from repro.runner import ExperimentRunner, ResultCache

    cache_dir = getattr(args, "cache_dir", None)
    return ExperimentRunner(
        cache=ResultCache(cache_dir) if cache_dir else None,
        parallel=getattr(args, "parallel", 1),
        executor=getattr(args, "executor", None),
        **_resilience_kwargs(args),
        **_telemetry_kwargs(args),
    )


def _run(args, *experiments):
    """Run ``(name, params)`` experiments at ``--seed`` as one sweep.

    Returns the run report and the experiments' aggregates, in order.
    """
    from repro.runner import ExperimentRequest

    requests = [
        ExperimentRequest.make(name, params, args.seed)
        for name, params in experiments
    ]
    report = _runner(args).run(requests)
    return report, [report.experiments[r.experiment_id] for r in requests]


def _write_report(path, report) -> None:
    """Write a sweep's merged report as canonical JSON: the same seeds
    and scale give a byte-identical file."""
    import pathlib

    from repro.analysis.export import canonical_dumps

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_dumps(report.merged()) + "\n")


def _print_cache_stats(report) -> None:
    if report.cache_stats:
        cs = report.cache_stats
        print(f"cache: {cs['hits']} hits, {cs['misses']} misses, "
              f"{cs['corrupted']} corrupted, {cs['writes']} writes")


def _write_runner_trace(args, report) -> None:
    if report.telemetry is None:  # no --trace-runner
        return
    from repro.obs import write_runner_trace

    write_runner_trace(args.trace_runner, report.telemetry)
    print(f"wrote {args.trace_runner}")


def cmd_list(args) -> int:
    from repro.experiments.fig7_10_latency import FIGURE_OF, WORKLOADS_OF
    from repro.workloads.kv import SERVICE_CLASSES
    from repro.ycsb.workloads import ALL_WORKLOADS

    print("services:")
    for name, cls in SERVICE_CLASSES.items():
        wls = ",".join(WORKLOADS_OF.get(name, ()))
        print(f"  {name:12s} {cls.__name__:20s} workers={cls.default_workers}"
              f"  paper fig {FIGURE_OF.get(name)}  workloads: {wls}")
    print("workloads:")
    for w in ALL_WORKLOADS:
        mix = []
        for op in ("read", "update", "insert", "scan", "rmw"):
            frac = getattr(w, op)
            if frac:
                mix.append(f"{frac:.0%} {op}")
        print(f"  {w.name:12s} {' / '.join(mix)}  ({w.key_chooser} keys)")
    print("settings: alone, holmes, perfiso")
    return 0


def _colo_params(args) -> dict:
    return {"service": args.service, "workload": args.workload,
            "duration_us": args.duration * 1e6}


def _r1(value):
    """``value`` rounded to 0.1; nan where an empty sample has none."""
    return float("nan") if value is None else round(value, 1)


def cmd_colocate(args) -> int:
    params = {**_colo_params(args), "setting": args.setting}
    if args.obs is not None:
        params["obs"] = args.obs
    _, (res,) = _run(args, ("colocation", params))
    lat = res["latency"]
    q = lat["quantiles"]
    print(format_table(
        ["metric", "value"],
        [
            ["queries", lat["count"]],
            ["avg latency (us)", _r1(lat["mean"])],
            ["p90 latency (us)", _r1(q[90] if q else None)],
            ["p99 latency (us)", _r1(q[99] if q else None)],
            ["CPU utilisation", f"{res['avg_cpu_utilization']:.1%}"],
            ["batch jobs done", res["jobs_completed"]],
        ],
    ))
    overhead = res.get("holmes_overhead")  # holmes cells only
    if overhead:
        print(f"holmes overhead: {overhead['cpu_percent']:.1f}% CPU")
    print()
    trace = res["trace"]
    print(render_series(trace["vpi_times"], trace["vpi_values"],
                        title="VPI on the LC CPUs over time", threshold=40.0))
    if res.get("obs") is not None:
        from repro.analysis.obs import format_event_summary

        print()
        print(format_event_summary({"node0": res["obs"]}))
    return 0


def cmd_compare(args) -> int:
    params = _colo_params(args)
    print("running alone, holmes, perfiso ...", file=sys.stderr)
    # one triple of cells: the runner dedupes them across both experiments
    _, (cmp, lat) = _run(args, ("compare", params), ("latency", params))
    rows = [
        [s, _r1(r["mean_us"]), _r1(r["p99_us"]),
         f"{r['avg_cpu_utilization']:.0%}"]
        for s, r in cmp["settings"].items()
    ]
    print(format_table(["setting", "avg us", "p99 us", "CPU util"], rows))
    print()
    print(render_cdf(
        {s: r["quantiles"] for s, r in lat.items()},
        title=f"{args.service} workload-{args.workload}: latency CDF",
    ))
    red = cmp["holmes_vs_perfiso"]  # empty when a setting served nothing
    if red:
        print()
        # Holmes's signed change against PerfIso: negative when faster
        print(f"holmes vs perfiso: avg {-red['mean_pct']:+.1f}%"
              f", p99 {-red['p99_pct']:+.1f}%")
    return 0


def cmd_microbench(args) -> int:
    _, (res,) = _run(args, ("microbench",
                            {"duration_us": args.duration * 1e6 / 20}))
    print(render_bars(
        {c["label"]: c["mean_us"] for c in res["cases"]},
        unit=" us",
        title="Fig 2: mean 1 MB random-read latency by placement",
    ))
    return 0


def cmd_metric(args) -> int:
    from repro.hw.events import by_code, by_name

    _, (res,) = _run(args, ("hpe", {}))
    rows = [
        [by_code(int(code, 16)).name, code, f"{corr:+.4f}"]
        for code, corr in sorted(res["correlations"].items(),
                                 key=lambda kv: -kv[1])
    ]
    print(format_table(["event", "code", "corr w/ latency"], rows))
    print(f"selected: {by_name(res['selected_event'])}")
    return 0


def cmd_convergence(args) -> int:
    _, (res,) = _run(args, ("convergence", {
        "heracles_epoch_us": args.epoch * 1e6,
        "parties_step_us": args.step * 1e6,
    }))
    rows = []
    for name, r in res.items():
        c = r["convergence_us"]
        rows.append([name, "-" if c is None else
                     (f"{c / 1e6:.1f} s" if c >= 1e5 else f"{c:.0f} us")])
    print(format_table(["approach", "convergence"], rows))
    return 0


def cmd_sweep_e(args) -> int:
    _, (res,) = _run(args, ("sensitivity", {
        "service": args.service, "duration_us": args.duration * 1e6,
    }))
    rows = [
        # roles are "E=40", "E=50", ...
        [role.removeprefix("E="), *(f"{n[k]:.2f}" for k in ("mean", "p90", "p99"))]
        for role, n in res["normalized_to_alone"].items()
    ]
    print(f"{args.service}: latency normalised to Alone")
    print(format_table(["E", "avg", "p90", "p99"], rows))
    return 0


def cmd_cluster(args) -> int:
    from repro.analysis.cluster import format_cluster_table
    from repro.cluster import POLICIES

    if args.policy == "all":
        policies = tuple(POLICIES)
    elif args.policy == "both":
        # historical two-way comparison (pre-predictor)
        policies = ("least-loaded", "score")
    else:
        policies = (args.policy,)
    params = {
        "n_nodes": args.nodes,
        "n_jobs": args.jobs,
        "duration_us": args.duration * 1e6,
        "policies": policies,
    }
    if args.obs is not None:
        params["obs"] = args.obs
    sharded = args.shards > 0
    if sharded:
        params["shards"] = args.shards
    shard_note = f" in {args.shards} shards" if sharded else ""
    print(f"cluster sweep: {args.nodes} nodes, {args.jobs} jobs{shard_note}, "
          f"policies: {', '.join(policies)} ...", file=sys.stderr)
    report, (aggregate,) = _run(
        args, ("cluster_shard" if sharded else "cluster", params)
    )
    _write_report(args.output, report)

    if sharded:
        from repro.analysis.cluster import format_sharded_cluster_table

        print(format_sharded_cluster_table(aggregate))
    else:
        print(format_cluster_table(aggregate))
    if args.obs is not None:
        from repro.analysis.cluster import format_node_health_table

        for cell_id, payload in report.cells.items():
            if isinstance(payload, dict) and payload.get("node_health"):
                print()
                print(f"node health: {payload.get('policy', cell_id)}")
                print(format_node_health_table(payload["node_health"]))
    print(f"{report.n_cell_runs} cells computed, {report.wall_s:.1f}s wall")
    _print_cache_stats(report)
    print(f"wrote {args.output}")
    _write_runner_trace(args, report)
    return 0


def cmd_profile(args) -> int:
    """Run the profiling stage: per-workload probes + pair model fit."""
    params = {}
    if args.iterations is not None:
        params["iterations"] = args.iterations
    print("profiling: probing workload matrix on the 2-core SMT rig ...",
          file=sys.stderr)
    report, (payload,) = _run(args, ("profile", params))
    _write_report(args.output, report)

    profiles = payload["profiles"]
    rows = [
        [n,
         f"{p['solo_us']:.2f}",
         f"{p['sens_mem']:.3f}", f"{p['sens_cpu']:.3f}",
         f"{p['pressure_mem']:.3f}", f"{p['pressure_cpu']:.3f}"]
        for n, p in sorted(profiles.items())
    ]
    print(format_table(
        ["workload", "solo us", "sens mem", "sens cpu",
         "press mem", "press cpu"],
        rows,
    ))

    # pair-score matrix (upper triangle mirrored: scores are symmetric)
    names = sorted(profiles)
    scores = {}
    for pair in payload["pairs"]:
        scores[(pair["a"], pair["b"])] = pair["score"]
        scores[(pair["b"], pair["a"])] = pair["score"]
    print()
    print("pair incompatibility scores (0 = frictionless):")
    header = ["", *(n[:6] for n in names)]
    matrix = [
        [a[:6], *(f"{scores[(a, b)]:.2f}" for b in names)]
        for a in names
    ]
    print(format_table(header, matrix))

    fit = payload["fit"]
    w = payload["model"]["weights"]
    feats = payload["model"]["features"]
    terms = ", ".join(f"{f}={v:.3f}" for f, v in zip(feats, w) if v > 0)
    print()
    print(f"model: excess = {terms}")
    print(f"fit: {fit['n_pairs']} pairs, rmse {fit['rmse']:.4f}, "
          f"max abs err {fit['max_abs_err']:.4f}")
    print(f"wrote {args.output}")
    return 0


def cmd_chaos(args) -> int:
    from repro.faults import standard_chaos_plan

    plan = standard_chaos_plan(
        seed=args.fault_seed,
        counter_error_rate=args.counter_error_rate,
        garbage_rate=args.garbage_rate,
        tick_miss_rate=args.tick_miss_rate,
        stall_rate=args.stall_rate,
        stall_duration_us=args.stall_duration_us,
        cgroup_error_rate=args.cgroup_error_rate,
        container_crash_period_us=args.crash_period * 1e6,
        node_failures=args.node_failures,
        node_failure_period_us=args.node_failure_period * 1e6,
        node_downtime_us=args.node_downtime * 1e6,
    )
    if not plan.specs:
        print("chaos plan is empty: enable at least one fault source "
              "(see --help)", file=sys.stderr)
        return 2
    params = {
        "service": args.service,
        "workload": args.workload,
        "duration_us": args.duration * 1e6,
        "n_nodes": args.nodes,
        "n_jobs": args.jobs,
        "cluster_duration_us": args.duration * 1e6,
        "max_resubmits": args.max_resubmits,
        # the plan rides as its canonical JSON string so the cell params
        # stay hashable and the cache key is stable.
        "faults": plan.to_json(),
    }
    if args.obs is not None:
        params["obs"] = args.obs
    print(f"chaos run: {len(plan.specs)} fault specs (fault seed "
          f"{args.fault_seed}), node + {args.nodes}-node cluster ...",
          file=sys.stderr)
    report, (agg,) = _run(args, ("chaos", params))
    _write_report(args.output, report)

    node, cl = agg["node"], agg["cluster"]
    batch = cl.get("batch") or {}
    rows = [
        ["daemon health at end", node["health"]],
        ["degraded time (us)", round(node["degraded_total_us"] or 0.0, 1)],
        ["counter read failures", node["counter_read_failures"]],
        ["garbage samples", node["garbage_samples"]],
        ["missed / stalled ticks",
         f"{node['missed_ticks']} / {node['stalled_ticks']}"],
        ["watchdog recoveries", node["watchdog_recoveries"]],
        ["node fail-stops", cl["node_failures"]],
        ["nodes down at end", cl["nodes_down_at_end"]],
        ["jobs resubmitted", batch.get("resubmitted")],
        ["jobs failed", batch.get("failed")],
        ["cluster jobs completed", cl["completed"]],
    ]
    print(format_table(["metric", "value"], rows))
    print(f"wrote {args.output}")
    return 0


def _cmd_trace_sweep(args) -> int:
    """Reconstruct a runner timeline post-hoc from a sweep journal.

    Works on the journal of a *crashed* run too: span records are
    appended as spans close, so everything that finished before the
    crash renders, and a ``--resume``\\ d journal shows cached-replay
    cells as zero-width instants.  Journals written without telemetry
    fall back to a synthetic record-order timeline.
    """
    import pathlib

    from repro.analysis.obs import format_span_timeline
    from repro.obs import timeline_from_journal, write_runner_trace
    from repro.runner import SweepJournal

    if not args.sweep_journal:
        print("trace sweep needs a journal path: "
              "repro trace sweep path/to/journal.jsonl", file=sys.stderr)
        return 2
    records = SweepJournal.load(args.sweep_journal)
    if not records:
        print(f"no records in {args.sweep_journal}", file=sys.stderr)
        return 2
    snapshot = timeline_from_journal(records)
    print(format_span_timeline(snapshot))
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.json"
    write_runner_trace(str(trace_path), snapshot)
    n_spans = len(snapshot.get("spans", []))
    print(f"{len(records)} journal records, {n_spans} spans")
    print(f"wrote {trace_path}")
    return 0


def cmd_trace(args) -> int:
    """Run one experiment with the observability plane on and export it."""
    import pathlib

    from repro.analysis.obs import format_event_summary
    from repro.obs import write_trace_bundle

    if args.experiment == "sweep":
        return _cmd_trace_sweep(args)
    obs_spec = args.obs
    if args.experiment == "colocation":
        params = {
            "service": args.service,
            "workload": args.workload,
            "setting": args.setting,
            "duration_us": args.duration * 1e6,
            "obs": obs_spec,
        }
    elif args.experiment == "cluster":
        params = {
            "n_nodes": args.nodes,
            "n_jobs": args.jobs,
            "duration_us": args.duration * 1e6,
            "policies": (args.policy,),
            "obs": obs_spec,
        }
    else:  # chaos
        from repro.faults import standard_chaos_plan

        # the `repro chaos` CLI defaults, so a chaos trace shows the
        # fault-injector events a default chaos run would produce.
        plan = standard_chaos_plan(
            seed=args.fault_seed,
            counter_error_rate=0.05,
            garbage_rate=0.02,
            tick_miss_rate=0.02,
            stall_rate=0.005,
            cgroup_error_rate=0.02,
            container_crash_period_us=0.03 * 1e6,
            node_failures=1,
            node_failure_period_us=0.05 * 1e6,
            node_downtime_us=0.02 * 1e6,
        )
        params = {
            "service": args.service,
            "workload": args.workload,
            "duration_us": args.duration * 1e6,
            "n_nodes": args.nodes,
            "n_jobs": args.jobs,
            "cluster_duration_us": args.duration * 1e6,
            "faults": plan.to_json(),
            "obs": obs_spec,
        }
    print(f"tracing {args.experiment} (obs={obs_spec!r}, "
          f"--parallel {args.parallel}) ...", file=sys.stderr)
    report, _ = _run(args, (args.experiment, params))

    # one exporter *stream* per observed cell.  Stream names come from
    # the stable sorted cell ids, shortened to the cell kind (full ids
    # embed fault-plan JSON), so the bundle is byte-identical across
    # --parallel settings and repeats.
    observed = [
        (cell_id, payload["obs"])
        for cell_id, payload in sorted(report.cells.items())
        if isinstance(payload, dict) and payload.get("obs") is not None
    ]
    streams = {}
    for cell_id, snap in observed:
        kind = cell_id.split(";", 1)[0]
        name = kind
        n = 1
        while name in streams:
            n += 1
            name = f"{kind}#{n}"
        streams[name] = snap
    if not streams:
        print("no observed cells: nothing to export (is the obs spec "
              "empty?)", file=sys.stderr)
        return 2

    out_dir = pathlib.Path(args.out)
    paths = write_trace_bundle(str(out_dir), streams)
    print(format_event_summary(streams))
    n_events = sum(s.get("n_events", 0) for s in streams.values())
    print(f"{len(streams)} stream(s), {n_events} events")
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


def cmd_run_all(args) -> int:
    from repro.analysis.export import export_result
    from repro.runner import ExperimentRequest

    duration_us = args.duration * 1e6
    requests = []
    for service in args.services:
        params = {"service": service, "workload": args.workload,
                  "duration_us": duration_us}
        for name in ("compare", "latency", "slo", "throughput"):
            requests.append(ExperimentRequest.make(name, params, args.seed))
    requests += [
        ExperimentRequest.make("microbench", {}, args.seed),
        ExperimentRequest.make("hpe", {}, args.seed),
        ExperimentRequest.make("convergence", {}, args.seed),
    ]

    print(f"running {len(requests)} experiments "
          f"(--parallel {args.parallel}) ...", file=sys.stderr)
    report = _runner(args).run(requests)

    out = export_result(report.merged(), args.output)
    rows = [[cid, f"{secs:.2f}"] for cid, secs in report.timings.items()]
    print(format_table(["cell", "compute s"], rows))
    _print_cache_stats(report)
    print(f"{len(report.experiments)} experiments, {len(report.cells)} cells, "
          f"{report.n_cell_runs} computed, {report.wall_s:.1f}s wall")
    print(f"wrote {out}")
    _write_runner_trace(args, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Holmes (HPDC'22) reproduction: run paper experiments "
                    "on the simulated SMT server.",
    )
    parser.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list services, workloads and settings")

    for name, fn_help in (("colocate", "run one co-location setting"),
                          ("compare", "run alone/holmes/perfiso and compare")):
        p = sub.add_parser(name, help=fn_help)
        p.add_argument("service", choices=["redis", "memcached", "rocksdb",
                                           "wiredtiger"])
        p.add_argument("-w", "--workload", default="a")
        p.add_argument("--duration", type=float, default=1.0,
                       help="simulated seconds (default 1.0)")
        if name == "colocate":
            p.add_argument("--setting", default="holmes",
                           choices=["alone", "holmes", "perfiso"])
            p.add_argument("--obs", default=None, metavar="SPEC",
                           help="observability spec: 'all', 'none', or a "
                                "comma list of categories (default: off)")

    p = sub.add_parser("microbench", help="the Fig 2 placement study")
    p.add_argument("--duration", type=float, default=1.0)

    sub.add_parser("metric", help="the Table 1 HPE selection study")

    p = sub.add_parser("convergence", help="the Table 4 convergence study")
    p.add_argument("--epoch", type=float, default=15.0,
                   help="Heracles epoch in seconds (default 15)")
    p.add_argument("--step", type=float, default=5.0,
                   help="Parties step in seconds (default 5)")

    p = sub.add_parser("sweep-e", help="the Fig 14 E-threshold sweep")
    p.add_argument("service", choices=["redis", "memcached", "rocksdb",
                                       "wiredtiger"])
    p.add_argument("--duration", type=float, default=0.6)

    p = sub.add_parser(
        "cluster",
        help="interference-aware cluster scheduling sweep (score vs "
             "least-loaded placement under churn)",
    )
    p.add_argument("--nodes", type=int, default=8,
                   help="servers in the cluster (default 8)")
    p.add_argument("--jobs", type=int, default=200,
                   help="batch jobs submitted over the run (default 200)")
    p.add_argument("--policy", default="all",
                   choices=["score", "least-loaded", "predictor", "both",
                            "all"],
                   help="placement policy, 'both' for the historical "
                        "score/least-loaded pair, or 'all' for the "
                        "three-way head-to-head (default)")
    p.add_argument("--duration", type=float, default=0.6,
                   help="simulated seconds (default 0.6)")
    p.add_argument("--parallel", type=int, default=2,
                   help="worker processes, one per policy cell (default 2)")
    p.add_argument("--shards", type=int, default=0,
                   help="split each policy's sweep into N per-node-range "
                        "shard cells merged deterministically "
                        "(0 = unsharded, the default)")
    p.add_argument("--executor", default=None,
                   choices=["inprocess", "pool"],
                   help="cell transport (default: pool when --parallel "
                        "> 1, in-process otherwise)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: no cache)")
    p.add_argument("--output", default="cluster_report.json")
    p.add_argument("--obs", default=None, metavar="SPEC",
                   help="observability spec ('all', 'none', or a comma "
                        "list); adds node-health and obs sections to the "
                        "report (default: off)")
    _add_resilience_args(p)
    _add_telemetry_args(p)

    p = sub.add_parser(
        "profile",
        help="probe each workload's contention profile and fit the "
             "pair-compatibility model (the predictor policy's input)",
    )
    p.add_argument("--iterations", type=int, default=None,
                   help="target kernel iterations per probe run "
                        "(default 24)")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker processes (default 1; the stage is one "
                        "cell either way)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: no cache)")
    p.add_argument("--output", default="profile.json")

    p = sub.add_parser(
        "chaos",
        help="deterministic fault-injection run: one faulted co-location "
             "node plus a faulted cluster sweep; writes a canonical report",
    )
    p.add_argument("service", nargs="?", default="redis",
                   choices=["redis", "memcached", "rocksdb", "wiredtiger"])
    p.add_argument("-w", "--workload", default="a")
    p.add_argument("--duration", type=float, default=0.12,
                   help="simulated seconds per cell (default 0.12)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the fault plan (decoupled from --seed)")
    p.add_argument("--counter-error-rate", type=float, default=0.05,
                   help="per-read HPE failure probability (default 0.05)")
    p.add_argument("--garbage-rate", type=float, default=0.02,
                   help="per-read garbage-sample probability (default 0.02)")
    p.add_argument("--tick-miss-rate", type=float, default=0.02,
                   help="per-tick daemon miss probability (default 0.02)")
    p.add_argument("--stall-rate", type=float, default=0.005,
                   help="per-tick daemon stall probability (default 0.005)")
    p.add_argument("--stall-duration-us", type=float, default=2_000.0,
                   help="stall length in microseconds (default 2000)")
    p.add_argument("--cgroup-error-rate", type=float, default=0.02,
                   help="per-op cgroup write/attach failure probability "
                        "(default 0.02)")
    p.add_argument("--crash-period", type=float, default=0.03,
                   help="mean seconds between container crashes; 0 disables "
                        "(default 0.03)")
    p.add_argument("--node-failures", type=int, default=1,
                   help="cluster node fail-stop events; 0 disables (default 1)")
    p.add_argument("--node-failure-period", type=float, default=0.05,
                   help="mean seconds between node fail-stops (default 0.05)")
    p.add_argument("--node-downtime", type=float, default=0.02,
                   help="seconds a failed node stays down (default 0.02)")
    p.add_argument("--nodes", type=int, default=4,
                   help="servers in the chaos cluster sweep (default 4)")
    p.add_argument("--jobs", type=int, default=30,
                   help="batch jobs in the chaos cluster sweep (default 30)")
    p.add_argument("--max-resubmits", type=int, default=3,
                   help="resubmission budget per killed job (default 3)")
    p.add_argument("--parallel", type=int, default=2,
                   help="worker processes (default 2)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: no cache)")
    p.add_argument("--output", default="chaos_report.json")
    p.add_argument("--obs", default=None, metavar="SPEC",
                   help="observability spec ('all', 'none', or a comma "
                        "list); tags fault-injector decisions and adds "
                        "obs sections to the report (default: off)")

    p = sub.add_parser(
        "trace",
        help="run one experiment with the observability plane on and "
             "export trace.json (Perfetto), events.jsonl, metrics.json "
             "and timeline.txt",
    )
    p.add_argument("experiment",
                   choices=["colocation", "cluster", "chaos", "sweep"],
                   help="what to trace; 'sweep' replays a runner journal "
                        "(give its path as the next argument) instead of "
                        "running an experiment")
    # read, never written: not the runner's --journal (see _runner)
    p.add_argument("sweep_journal", nargs="?", default=None,
                   metavar="journal",
                   help="sweep journal path (trace sweep only)")
    p.add_argument("--service", default="redis",
                   choices=["redis", "memcached", "rocksdb", "wiredtiger"])
    p.add_argument("-w", "--workload", default="a")
    p.add_argument("--setting", default="holmes",
                   choices=["alone", "holmes", "perfiso"])
    p.add_argument("--duration", type=float, default=0.12,
                   help="simulated seconds per cell (default 0.12)")
    p.add_argument("--nodes", type=int, default=4,
                   help="cluster nodes for cluster/chaos (default 4)")
    p.add_argument("--jobs", type=int, default=30,
                   help="batch jobs for cluster/chaos (default 30)")
    p.add_argument("--policy", default="score",
                   choices=["score", "least-loaded", "predictor"],
                   help="placement policy for the cluster trace")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="fault-plan seed for the chaos trace (default 0)")
    p.add_argument("--obs", default="all", metavar="SPEC",
                   help="observability spec (default 'all')")
    p.add_argument("--parallel", type=int, default=1,
                   help="worker processes (default 1; exports are "
                        "byte-identical either way)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: no cache)")
    p.add_argument("--out", default="trace_out",
                   help="output directory for the bundle "
                        "(default trace_out/)")

    p = sub.add_parser(
        "run-all",
        help="reproduce all figures in one sweep through the runner",
    )
    p.add_argument("--parallel", type=int, default=4)
    p.add_argument("--duration", type=float, default=0.4,
                   help="simulated seconds per co-location cell (default 0.4)")
    p.add_argument("--workload", default="a")
    p.add_argument("--services", nargs="+",
                   default=["redis", "memcached", "rocksdb", "wiredtiger"],
                   choices=["redis", "memcached", "rocksdb", "wiredtiger"])
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="shared result cache (default .repro-cache)")
    p.add_argument("--output", default="runner_report.json")
    _add_resilience_args(p)
    _add_telemetry_args(p)

    return parser


COMMANDS = {
    "list": cmd_list,
    "colocate": cmd_colocate,
    "compare": cmd_compare,
    "microbench": cmd_microbench,
    "metric": cmd_metric,
    "convergence": cmd_convergence,
    "sweep-e": cmd_sweep_e,
    "cluster": cmd_cluster,
    "profile": cmd_profile,
    "chaos": cmd_chaos,
    "trace": cmd_trace,
    "run-all": cmd_run_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
