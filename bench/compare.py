"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py --parent P1 P2 ... --change C1 C2 ...
    python3 bench/compare.py --noise D1 D2 ...

Each argument is a directory ``run.py --out`` wrote, one per run; the
i-th parent and i-th change directories form a pair, so run them
alternating (parent first in odd pairs, change first in even ones) with
the same seed.  At least 10 pairs are needed.

For each workload and end-to-end metric it prints both sides' median
and quartiles, the share of pairs the change won, and a verdict:

* ``improved``   -- the change won at least 9 pairs in 10 (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range, in the better direction;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* ``unresolved`` -- not regressed, but the parent's own spread is wider
  than the bound, and not every change run beat every parent run;
* ``unchanged``  -- otherwise.

It also checks that both sides produced the same payload digest for
every op id and that the change failed no larger share of ops.  A
workload with no record in any directory was not run and is skipped;
one that has records in some directories but not all (a side whose
runs crashed writes none) is an error.  The exit code is 1 on any
regression, digest mismatch, rise in failures or missing record, 2 on
unusable input (fewer than 10 pairs, or no workload to compare), else
0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

MIN_PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (exclusive method)."""
    return tuple(statistics.quantiles(values, n=4))


def verdict(
    parent: list[float], change: list[float], bound: float, better: str
) -> dict:
    """Classify one workload x metric from paired runs (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_frac = wins / len(parent)
    gain = sign * (cm - pm)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_frac >= 0.9 and gain > p3 - p1:
        status = "improved"
    elif -gain > bound * abs(pm):
        status = "regressed"
    elif (p3 - p1) > bound * abs(pm) and not all_better:
        status = "unresolved"
    else:
        status = "unchanged"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "win_frac": win_frac,
        "status": status,
    }


def load(dirs: list[str], workload: str) -> list[dict]:
    """The workload's records, one per directory that holds one."""
    paths = [pathlib.Path(d) / f"{workload}.json" for d in dirs]
    return [json.loads(path.read_text()) for path in paths if path.exists()]


def digest_mismatches(parent: list[dict], change: list[dict]) -> list[str]:
    """Op ids whose payload digest differs anywhere across both sides."""
    seen: dict[str, str] = {}
    bad = set()
    for rec in parent + change:
        for op_id, digest in rec["digests"].items():
            if seen.setdefault(op_id, digest) != digest:
                bad.add(op_id)
    return sorted(bad)


def failed_share(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records]


def noise(dirs: list[str], spec: dict) -> dict:
    """Median, quartiles and relative IQR per workload x end-to-end metric."""
    out = {}
    for wl in (w["name"] for w in spec["workloads"]):
        records = load(dirs, wl)
        if not records:
            continue
        out[wl] = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles(values(records, m["name"]))
            out[wl][m["name"]] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "rel_iqr": (q3 - q1) / med,
                "runs": len(records),
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--parent", nargs="+", default=[])
    p.add_argument("--change", nargs="+", default=[])
    p.add_argument(
        "--noise",
        nargs="+",
        metavar="DIR",
        help="print the spread of these runs of one commit as JSON instead",
    )
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.noise:
        print(json.dumps(noise(args.noise, spec), indent=1, sort_keys=True))
        return 0
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        print(
            f"compare: need >= {MIN_PAIRS} parent/change pairs, got "
            f"{len(args.parent)} and {len(args.change)}",
            file=sys.stderr,
        )
        return 2

    bad = False
    compared = 0
    header = f"{'workload':14s} {'metric':14s} {'parent p50 [q1, q3]':34s}"
    print(f"{header} {'change p50 [q1, q3]':34s} {'wins':>5s}  verdict")
    for wl in (w["name"] for w in spec["workloads"]):
        parent, change = load(args.parent, wl), load(args.change, wl)
        if not parent and not change:
            continue  # this workload was not run
        if len(parent) < len(args.parent) or len(change) < len(args.change):
            print(
                f"{wl:14s} missing records: {len(parent)} of {len(args.parent)} "
                f"parent, {len(change)} of {len(args.change)} change"
            )
            bad = True
            continue
        compared += 1
        for m in spec["end_to_end"]:
            name = m["name"]
            v = verdict(
                values(parent, name), values(change, name), m["bound"], m["better"]
            )
            bad |= v["status"] == "regressed"
            cols = [
                "{:.6g} [{:.6g}, {:.6g}]".format(v[side][1], v[side][0], v[side][2])
                for side in ("parent", "change")
            ]
            print(
                f"{wl:14s} {name:14s} {cols[0]:34s} {cols[1]:34s} "
                f"{v['win_frac']:5.0%}  {v['status']}"
            )
        for op_id in digest_mismatches(parent, change):
            print(f"{wl:14s} digest mismatch: {op_id}")
            bad = True
        before, after = failed_share(parent), failed_share(change)
        if after > before:
            print(f"{wl:14s} failed ops rose: {before:.4f} -> {after:.4f}")
            bad = True
    if bad:
        return 1
    if not compared:
        print("compare: no workload has records on either side", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
