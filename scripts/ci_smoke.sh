#!/usr/bin/env bash
# CI smoke job: the fast tier-1 test slice plus the 2-worker runner
# equivalence tests.
#
# Slow tests (multi-experiment determinism replays, full runner
# equivalence sweeps) carry the @pytest.mark.slow marker and are excluded
# from the first step; run `pytest` with no marker filter for the full
# suite.
#
# tests/test_runner_equivalence.py is slow-marked, so the second step runs
# it by name: a sweep computed serially and through the 2-worker pooled
# runner must merge to byte-identical results with the cache cold, warm
# and corrupted.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1 tests (excluding slow) =="
python -m pytest -x -q -m "not slow"

echo "== 2-worker runner equivalence =="
python -m pytest -q tests/test_runner_equivalence.py

echo "ci_smoke: OK"
