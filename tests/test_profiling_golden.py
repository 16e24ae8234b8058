"""Golden-profile regression tests: the profiling stage, byte for byte.

``tests/golden/profile_seed42.json`` is the canonical-JSON payload of
``run_profile_stage(seed=42)`` at the shipped probe defaults.  Any
change to the probe rig, the seed matrix, the contention model, or the
NNLS fit shows up here as a byte diff -- which is the point: profiles
are cached runner cells and scheduler inputs, so silent drift would
invalidate caches and quietly move placement decisions.  Regenerate
deliberately with::

    PYTHONPATH=src python -c "
    from repro.profiling import run_profile_stage
    from repro.analysis.export import canonical_dumps
    print(canonical_dumps(run_profile_stage(seed=42)))
    " > tests/golden/profile_seed42.json
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis.export import canonical_dumps
from repro.profiling import probe, run_profile_stage
from repro.profiling.predictor import probe_workers
from repro.runner import ExperimentRequest, ExperimentRunner

GOLDEN = pathlib.Path(__file__).parent / "golden" / "profile_seed42.json"


@pytest.fixture(scope="module")
def stage_payload():
    return run_profile_stage(seed=42)


def test_profile_stage_matches_golden_bytes(stage_payload):
    assert canonical_dumps(stage_payload) == GOLDEN.read_text().rstrip("\n")


def test_profile_stage_repeat_is_byte_identical(stage_payload):
    """Two in-process runs of the same probe: identical bytes, no
    shared-state leakage between probe systems."""
    again = run_profile_stage(seed=42)
    assert canonical_dumps(again) == canonical_dumps(stage_payload)


@pytest.fixture(scope="module")
def fanned_out():
    """The stage on two forked workers, and the children it left."""
    before = set(multiprocessing.active_children())
    payload = run_profile_stage(seed=42, workers=2)
    return payload, set(multiprocessing.active_children()) - before


def test_fanned_out_stage_matches_golden_bytes(fanned_out):
    payload, _ = fanned_out
    assert canonical_dumps(payload) == GOLDEN.read_text().rstrip("\n")


def test_fanned_out_stage_leaves_no_child(fanned_out):
    _, left = fanned_out
    assert left == set()


def test_probe_workers_is_one_inside_a_pool_worker():
    # the runner's pool workers run predictor sweeps: each already
    # fills a CPU, so the stage runs in the worker itself.
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(probe_workers).result(timeout=60) == 1


class ProbeFailed(RuntimeError):
    pass


def _failing_probe_system(seed):
    raise ProbeFailed(f"no probe system for seed {seed}")


def test_fanned_out_probe_error_propagates_and_leaves_no_child(monkeypatch):
    before = set(multiprocessing.active_children())
    # patched before the pool forks, so every worker inherits it
    monkeypatch.setattr(probe, "_probe_system", _failing_probe_system)
    with pytest.raises(ProbeFailed):
        run_profile_stage(seed=42, workers=2)
    assert set(multiprocessing.active_children()) - before == set()


def test_golden_payload_is_physically_sensible():
    """Coarse sanity on the pinned numbers, so a wrong regeneration is
    caught by meaning and not just by diff size."""
    payload = json.loads(GOLDEN.read_text())
    profiles = payload["profiles"]
    # the LC request is pure DRAM traffic: most memory-sensitive family,
    # and it exerts no compute pressure.
    lc = profiles["lc"]
    assert lc["sens_mem"] == max(p["sens_mem"] for p in profiles.values())
    assert lc["pressure_cpu"] <= min(
        p["pressure_cpu"] for p in profiles.values()
    ) + 1e-9
    # every score is in [0, 1) and the matrix is symmetric in its keys.
    seen = {}
    for row in payload["pairs"]:
        assert 0.0 <= row["score"] < 1.0
        assert row["measured_excess"] >= 0.0
        seen[(row["a"], row["b"])] = row["score"]
    names = sorted(profiles)
    n = len(names)
    assert len(seen) == n * (n + 1) // 2
    # fitted weights non-negative; fit residual small on its own scale.
    assert all(w >= 0.0 for w in payload["model"]["weights"])
    assert payload["fit"]["rmse"] < 0.1


@pytest.mark.slow
def test_profile_cell_parallel_equals_serial(tmp_path, stage_payload):
    """The ``profile`` experiment through the runner: serial, parallel
    and cached runs all byte-identical to the direct stage payload."""
    requests = [ExperimentRequest.make("profile", {}, seed=42)]
    serial = ExperimentRunner(cache=None, parallel=1, dedupe=False).run(
        requests
    )
    from repro.runner import ResultCache

    cache = ResultCache(tmp_path)
    par = ExperimentRunner(cache=cache, parallel=2, dedupe=True).run(
        requests
    )
    assert serial.merged_bytes() == par.merged_bytes()
    warm = ExperimentRunner(cache=ResultCache(tmp_path), parallel=2,
                            dedupe=True).run(requests)
    assert warm.merged_bytes() == serial.merged_bytes()
    # the runner's aggregated payload embeds the same stage payload the
    # golden file pins.
    merged = json.loads(serial.merged_bytes())
    [agg] = merged["experiments"].values()
    assert canonical_dumps(agg) == canonical_dumps(stage_payload)
