"""Run the repository benchmark and print its metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--ops N] [--out DIR]
    python3 bench/run.py --write-golden [--workload NAME|all]

Each workload runs in fresh subprocesses (``worker.py``) with the
default program: ``PYTHONPATH`` points at this checkout's ``src`` and
the environment variables that select other program paths are
dropped.  With ``--trace 0`` it prints every end-to-end metric of
``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every op's payload matched its golden digest, 1 when one did
not, and 2 when the benchmark could not run.

This file imports nothing from the program, so it fails cleanly where
the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden" / "digests.json"

#: environment variables that select non-default program paths.
DROPPED_ENV = ("REPRO_SIM_CALENDAR", "REPRO_CLUSTER_DATA_PLANE")

#: set-up is measured in this many fresh processes; the median is kept.
SETUP_SAMPLES = 3

#: wall budget of one workload, below the 180 s a run may take.
WORKLOAD_BUDGET_S = 170.0

#: wall budget of regenerating one workload's goldens.
GOLDEN_BUDGET_S = 900.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong payload)."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def worker_env() -> tuple[dict, dict]:
    env = dict(os.environ)
    dropped = {name: env.pop(name) for name in DROPPED_ENV if name in env}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, dropped


def spawn(workload: str, mode: str, args, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env, _ = worker_env()
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload",
        workload,
        "--mode",
        mode,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    if mode != "golden":
        cmd += ["--golden", str(args.golden)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: no result within {timeout:.0f} s")
    finally:
        # the worker joins its own pool processes before it exits; this
        # only reaps what a killed or timed-out worker left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, spec: dict) -> dict:
    """Measure one workload; returns its full record."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = []
    if args.trace:
        res = spawn(workload, "trace", args, deadline - time.monotonic())
        wanted = spec["per_layer"]
        values = res["metrics"]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            left = deadline - time.monotonic()
            setups.append(spawn(workload, "setup", args, left)["setup_s"])
        res = spawn(workload, "run", args, deadline - time.monotonic())
        setups.append(res["setup_s"])
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups), **res["metrics"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    _, dropped = worker_env()
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
        "op_count": len(res["op_seconds"]),
        "op_seconds": res["op_seconds"],
        "op_cycle": res["op_ids"],
        "setup_samples": setups,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": res["problems"],
        "digests": res["digests"],
        "stamp": {
            "git_commit": git_commit(),
            "cpu_count": os.cpu_count(),
            "parallel": res["parallel"],
            "python": platform.python_version(),
            "dropped_env": dropped,
            **res["defaults"],
        },
    }


def report(rec: dict) -> None:
    """Human-readable lines for one workload (before the JSON line)."""
    wl = rec["workload"]
    for name, m in rec["metrics"].items():
        extra = f"  ({rec['op_count']} ops)" if name == "op_s" else ""
        print(f"{wl:14s} {name:32s} {m['value']:14.6g} {m['unit']}{extra}")
    ratio = rec["failed"] / rec["attempted"]
    counts = f"({rec['failed']} of {rec['attempted']} ops)"
    print(f"{wl:14s} {'failed_ratio':32s} {ratio:14.6g} {counts}")
    for problem in rec["problems"]:
        print(f"{wl:14s} FAILED {problem}")
    print(f"{wl:14s} stamp {json.dumps(rec['stamp'], sort_keys=True)}")


def write_golden(workloads: list[str], args) -> int:
    try:
        old = json.loads(GOLDEN.read_text())["ops"]
    except (OSError, ValueError, KeyError):
        old = {}
    new = {k: v for k, v in old.items() if k.split("/")[0] not in workloads}
    for wl in workloads:
        res = spawn(wl, "golden", args, GOLDEN_BUDGET_S)
        if res["problems"]:
            raise BenchError(f"{wl}: " + "; ".join(res["problems"]))
        new.update(res["digests"])
    for op_id in sorted(set(old) | set(new)):
        before, after = old.get(op_id), new.get(op_id)
        if before != after:
            print(f"{op_id}: {before} -> {after}")
    unchanged = sum(1 for k in new if old.get(k) == new[k])
    print(f"{len(new)} ops, {unchanged} unchanged")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"ops": new}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", default="all", help="a workload name or 'all'")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--seconds", type=float, default=None, help="default: BENCHMARK.json"
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--ops", type=int, default=None, help="time exactly N ops, not --seconds"
    )
    p.add_argument("--out", default=None, help="write <workload>.json records here")
    p.add_argument("--golden", default=str(GOLDEN), help=argparse.SUPPRESS)
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program under {ROOT / 'src' / 'repro'}")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            workloads = names
        elif args.workload in names:
            workloads = [args.workload]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; have {names}")
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if args.write_golden:
            return write_golden(workloads, args)
        records = [run_workload(wl, args, spec) for wl in workloads]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for rec in records:
        report(rec)
        if args.out:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            suffix = ".traced.json" if args.trace else ".json"
            (out / f"{rec['workload']}{suffix}").write_text(
                json.dumps(rec, indent=1, sort_keys=True) + "\n"
            )
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{rec['workload']}.{k}": v
            for rec in records
            for k, v in rec["metrics"].items()
        }
    failed = sum(rec["failed"] for rec in records)
    result = {
        "correct": failed == 0,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
