"""Figure 14 bench: sensitivity to the deallocation threshold E."""

from conftest import FAST, report

from repro.analysis import format_table
from repro.runner import ExperimentRequest, ExperimentRunner

SERVICES = ("redis", "memcached") if FAST else (
    "redis", "memcached", "rocksdb", "wiredtiger"
)


def test_fig14_sensitivity(benchmark):
    duration_us = 300_000.0 if FAST else 600_000.0
    requests = {
        svc: ExperimentRequest.make(
            "sensitivity", {"service": svc, "duration_us": duration_us}
        )
        for svc in SERVICES
    }

    def compute():
        experiments = ExperimentRunner().run(list(requests.values())).experiments
        return {
            svc: experiments[req.experiment_id]["normalized_to_alone"]
            for svc, req in requests.items()
        }

    by_svc = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for svc, sweep in by_svc.items():
        for role, n in sweep.items():  # roles are "E=40", "E=50", ...
            rows.append([
                svc, role.removeprefix("E="), f"{n['mean']:.2f}",
                f"{n['p70']:.2f}", f"{n['p80']:.2f}", f"{n['p90']:.2f}",
                f"{n['p99']:.2f}",
            ])
    report("fig14_sensitivity", format_table(
        ["service", "E", "avg", "p70", "p80", "p90", "p99"], rows
    ))

    for svc, by_e in by_svc.items():
        # paper: E=40 renders results similar to Alone
        assert by_e["E=40"]["mean"] < 1.30, svc
        # larger E sacrifices latency: E=80 strictly worse than E=40
        assert by_e["E=80"]["p99"] >= by_e["E=40"]["p99"] * 0.98, svc
        assert by_e["E=80"]["mean"] > by_e["E=40"]["mean"] * 0.98, svc
