"""Integration tests for the experiment drivers and the runner's figure
experiments (short horizons).

These validate the *shape* of each paper result at test-friendly scale;
the full-scale numbers live in benchmarks/ and EXPERIMENTS.md.
"""

import pytest

from repro.experiments.common import ExperimentScale, service_rate
from repro.experiments.colocation import run_colocation
from repro.experiments.fig2_microbench import run_fig2
from repro.experiments.fig3_redis import run_fig3_case
from repro.experiments.fig4_table1_hpe import run_hpe_selection
from repro.experiments.fig7_10_latency import WORKLOADS_OF
from repro.experiments.table4_convergence import measure_convergence
from repro.runner import ExperimentRequest, ExperimentRunner, ResultCache

QUICK = ExperimentScale(duration_us=400_000.0)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    """One in-process runner; its cache runs the redis triple once."""
    return ExperimentRunner(cache=ResultCache(tmp_path_factory.mktemp("cells")))


def _aggregate(runner, name, **params):
    """One figure experiment's aggregate at the QUICK horizon."""
    request = ExperimentRequest.make(
        name, {"duration_us": QUICK.duration_us, **params}
    )
    return runner.run([request]).experiments[request.experiment_id]


def test_service_rate_lookup():
    assert service_rate("redis", "workload-a") > 0
    with pytest.raises(KeyError):
        service_rate("memcached", "workload-e")


def test_fig2_shape():
    cases = run_fig2(duration_us=25_000.0)
    assert len(cases) == 6
    base, two_cores, ht, sixteen, thirty_two, comp = [c.mean for c in cases]
    # cases 1/2/4 agree (no controller/bandwidth effect)
    assert two_cores == pytest.approx(base, rel=0.05)
    assert sixteen == pytest.approx(base, rel=0.05)
    # HT cases sit at ~1.64x
    assert ht == pytest.approx(base * 1.64, rel=0.08)
    assert thirty_two == pytest.approx(ht, rel=0.08)
    # compute siblings inflate mildly, between baseline and HT
    assert base * 1.03 < comp < ht * 0.85


def test_fig3_ordering():
    scale = ExperimentScale(duration_us=300_000.0)
    alone = run_fig3_case("alone", scale=scale)
    sep = run_fig3_case("co-separate", scale=scale)
    hyper = run_fig3_case("co-hyper", scale=scale)
    # Alone ~= Co-separate << Co-hyper
    assert sep.mean == pytest.approx(alone.mean, rel=0.15)
    assert hyper.mean > sep.mean * 1.3
    assert hyper.p99 > sep.p99 * 1.1


def test_table1_selection():
    res = run_hpe_selection(duration_us=30_000.0)
    corr = res.correlations
    assert res.selected_event.code == 0x14A3
    assert corr[0x14A3] > 0.995
    assert corr[0x06A3] > 0.99
    assert corr[0x10A3] > 0.99
    assert abs(corr[0x02A3]) < 0.9  # the weakly/negatively correlated one
    # Fig 4 facts: flat latency alone; rising latency + falling RPS contended
    one_lat = [p.latency_us for p in res.one_thread]
    assert max(one_lat) < min(one_lat) * 1.1
    contended = res.max_thread
    assert contended[-1].latency_us > contended[0].latency_us * 1.3
    assert contended[-1].achieved_rps < contended[0].achieved_rps * 0.75


def test_colocation_setting_validation():
    with pytest.raises(ValueError):
        run_colocation("redis", "a", "nonsense", scale=QUICK)


def test_colocation_three_way_ordering_redis():
    results = {
        s: run_colocation("redis", "a", s, scale=QUICK)
        for s in ("alone", "holmes", "perfiso")
    }
    a, h, p = results["alone"], results["holmes"], results["perfiso"]
    # the paper's central claim, at small scale
    assert h.mean_latency < p.mean_latency
    assert h.p99_latency < p.p99_latency
    assert h.mean_latency < a.mean_latency * 1.25
    # co-location must actually raise utilisation
    assert h.avg_cpu_utilization > a.avg_cpu_utilization + 0.2
    assert p.avg_cpu_utilization > a.avg_cpu_utilization + 0.2
    # Holmes daemon overhead in the paper's band
    assert 0.01 < h.holmes_overhead["cpu_fraction"] < 0.035


def test_latency_figure_driver(runner):
    red = _aggregate(runner, "compare", service="memcached")["holmes_vs_perfiso"]
    assert red["mean_pct"] > 0
    assert red["p99_pct"] > 0


def test_memcached_has_no_workload_e():
    assert "e" not in WORKLOADS_OF["memcached"]


def test_slo_rows_shape(runner):
    ratios = _aggregate(runner, "slo", service="redis")["violation_ratios"]
    # Alone violates ~10% by construction (SLO = its own p90)
    assert ratios["alone"] == pytest.approx(0.10, abs=0.02)
    assert ratios["perfiso"] > ratios["alone"]
    assert ratios["holmes"] < ratios["perfiso"]


def test_throughput_rows(runner):
    by = _aggregate(runner, "throughput", service="redis")
    assert by["alone"]["jobs_completed"] == 0
    assert by["alone"]["avg_cpu_utilization"] < 0.15
    for s in ("holmes", "perfiso"):
        assert by[s]["avg_cpu_utilization"] > 0.3
    assert by["perfiso"]["avg_cpu_utilization"] >= (
        by["holmes"]["avg_cpu_utilization"] - 0.10
    )


def test_sensitivity_e40_close_to_alone(runner):
    agg = _aggregate(runner, "sensitivity", service="redis", e_values=(40.0, 80.0))
    by_e = agg["normalized_to_alone"]
    assert by_e["E=40"]["mean"] < 1.3
    # E=80 never deallocates: latency degrades beyond the E=40 setting
    assert by_e["E=80"]["p99"] > by_e["E=40"]["p99"]


def test_convergence_holmes_and_caladan():
    h = measure_convergence("holmes")
    assert h.sibling_occupied_at_onset
    assert h.convergence_us is not None
    # within a couple of 50us monitor intervals (paper: 50-100us)
    assert h.convergence_us <= 200.0
    c = measure_convergence("caladan")
    assert c.convergence_us is not None
    assert c.convergence_us <= 30.0
    assert c.convergence_us < h.convergence_us


def test_convergence_feedback_controllers_take_epochs():
    p = measure_convergence("parties", parties_step_us=200_000.0)
    assert p.convergence_us == pytest.approx(3 * 200_000.0, rel=0.15)
    h = measure_convergence("heracles", heracles_epoch_us=300_000.0)
    assert h.convergence_us == pytest.approx(2 * 300_000.0, rel=0.15)


def test_convergence_validation():
    with pytest.raises(ValueError):
        measure_convergence("borg")


def test_heracles_setting_runs():
    from repro.experiments.colocation import ALL_SETTINGS

    assert "heracles" in ALL_SETTINGS
    res = run_colocation("redis", "a", "heracles",
                         scale=ExperimentScale(duration_us=250_000.0))
    assert len(res.recorder) > 2000
    assert res.jobs_completed >= 0
