"""Three-way head-to-head: least-loaded vs score vs predictor.

Two promises are pinned here, both at a scale where the policies
actually separate (8 nodes, 200 jobs, 600 ms):

* **Determinism** -- the merged three-way report is byte-identical
  across process-pool sizes and on the reference timer-wheel calendar
  (``tests/wheel_calendar.py``).  The predictor policy runs the
  profiling stage itself (``default_predictor``): inside a pool worker
  every probe runs in that worker, in the main process the probes fan
  out over forked workers.  So this is also the proof that neither the
  stage nor its fan-out leaks host state into sweep results.
* **The headline claim** -- prediction-driven placement beats the
  threshold-Holmes "score" policy on SLO violations on the seed
  workload matrix, while staying within the throughput bar.

Everything here is marked ``slow``: one full sweep triple takes tens of
seconds.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.scheduler import POLICIES
from repro.runner import ExperimentRequest, ExperimentRunner
from tests.wheel_calendar import use_wheel

#: the evaluation scale: large enough that one LC request is ~5e-5 of
#: the violation denominator, so policy gaps aren't quantisation noise.
SCALE = dict(n_nodes=4, n_jobs=80, duration_us=600_000.0, seed=42)
HEADLINE_SCALE = dict(n_nodes=8, n_jobs=200, duration_us=600_000.0,
                      seed=42)


def _run(parallel: int, scale=None):
    req = ExperimentRequest.make("cluster", scale or SCALE, seed=42)
    return ExperimentRunner(parallel=parallel, dedupe=True).run([req])


@pytest.fixture(scope="module")
def serial_report():
    return _run(parallel=1)


@pytest.mark.slow
def test_three_way_report_covers_all_policies(serial_report):
    merged = json.loads(serial_report.merged_bytes())
    [agg] = merged["experiments"].values()
    assert set(agg["policies"]) == set(POLICIES)
    assert "predictor_vs_score" in agg
    # the predictor run carries its provenance: model weights, probe
    # seed and thresholds travel with the result.
    pred = agg["policies"]["predictor"]
    assert pred["slo_violation_ratio"] is not None


@pytest.mark.slow
def test_three_way_byte_identical_across_pool_sizes(serial_report):
    for parallel in (2, 3):
        par = _run(parallel=parallel)
        assert par.merged_bytes() == serial_report.merged_bytes()


@pytest.mark.slow
def test_three_way_byte_identical_across_calendars(serial_report, monkeypatch):
    # in process, so the patch reaches every environment the sweep builds
    use_wheel(monkeypatch)
    assert _run(parallel=1).merged_bytes() == serial_report.merged_bytes()


@pytest.mark.slow
def test_predictor_beats_score_on_violations_at_headline_scale():
    """The acceptance claim: on the seed workload matrix the learned
    predictor beats threshold-Holmes on SLO violations, with throughput
    within 20% of the least-loaded baseline."""
    from repro.cluster.sweep import run_cluster_sweep

    base = run_cluster_sweep(policy="least-loaded", **HEADLINE_SCALE)
    score = run_cluster_sweep(policy="score", **HEADLINE_SCALE)
    pred = run_cluster_sweep(policy="predictor", **HEADLINE_SCALE)

    v_base = base["lc"]["slo_violation_ratio"]
    v_score = score["lc"]["slo_violation_ratio"]
    v_pred = pred["lc"]["slo_violation_ratio"]
    # both managed policies beat the load-only baseline...
    assert v_score < v_base
    assert v_pred < v_base
    # ...and prediction beats the reactive threshold policy.
    assert v_pred < v_score
    # throughput bar: winning on violations by starving batch is cheating.
    assert pred["batch"]["completed"] >= 0.8 * base["batch"]["completed"]
    # provenance travels with the predictor payload.
    assert pred["predictor"]["probe_seed"] == 42
    assert all(w >= 0.0 for w in pred["predictor"]["model"]["weights"])
