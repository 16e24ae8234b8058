"""Tests for the YCSB-like generator stack."""

import numpy as np
import pytest

from repro.ycsb import (
    BurstyTraffic,
    ConstantTraffic,
    ScrambledZipfianGenerator,
    UniformGenerator,
    WorkloadSpec,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_E,
    ZipfianGenerator,
    workload_by_name,
)
from repro.ycsb.workloads import ALL_WORKLOADS, QueryGenerator


def test_zipfian_bounds():
    rng = np.random.default_rng(1)
    gen = ZipfianGenerator(1000, rng)
    draws = [gen.next() for _ in range(5000)]
    assert min(draws) >= 0
    assert max(draws) < 1000


def test_zipfian_is_skewed():
    """Rank 0 must be far more popular than the median rank."""
    rng = np.random.default_rng(2)
    gen = ZipfianGenerator(10_000, rng)
    draws = np.array([gen.next() for _ in range(20_000)])
    p_head = (draws == 0).mean()
    assert p_head > 0.05  # theta=0.99 gives a heavy head
    assert (draws < 10).mean() > 0.3


def test_zipfian_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        ZipfianGenerator(0, rng)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, rng, theta=1.5)


def test_scrambled_zipfian_spreads_hot_keys():
    rng = np.random.default_rng(4)
    gen = ScrambledZipfianGenerator(10_000, rng)
    draws = np.array([gen.next() for _ in range(20_000)])
    assert draws.min() >= 0 and draws.max() < 10_000
    # hot keys should NOT cluster at the low end of the key space
    assert 2_000 < np.median(draws) < 8_000
    # but the distribution must stay skewed: few keys take much traffic
    _, counts = np.unique(draws, return_counts=True)
    assert counts.max() > 20 * counts.mean()


def test_uniform_generator():
    rng = np.random.default_rng(5)
    gen = UniformGenerator(1, 100, rng)
    draws = [gen.next() for _ in range(2000)]
    assert min(draws) >= 1 and max(draws) <= 100
    assert abs(np.mean(draws) - 50.5) < 3
    with pytest.raises(ValueError):
        UniformGenerator(10, 5, rng)


def test_workload_mixes_match_paper():
    assert WORKLOAD_A.read == 0.5 and WORKLOAD_A.update == 0.5
    assert WORKLOAD_B.read == 0.95 and WORKLOAD_B.update == 0.05
    assert WORKLOAD_E.scan == 0.95 and WORKLOAD_E.insert == 0.05


def test_workload_by_name():
    assert workload_by_name("a") is WORKLOAD_A
    assert workload_by_name("workload-b") is WORKLOAD_B
    with pytest.raises(KeyError):
        workload_by_name("z")


def test_workload_mix_validation():
    with pytest.raises(ValueError):
        WorkloadSpec("bad", read=0.5, update=0.2)


def test_workload_mix_rejects_negative_shares():
    with pytest.raises(ValueError, match="negative"):
        WorkloadSpec("bad", read=1.25, update=-0.25)


@pytest.mark.parametrize("spec", ALL_WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 + 5])
def test_op_draw_equals_generator_choice(spec, seed):
    """The precomputed-CDF draw is Generator.choice(5, p=mix), draw for
    draw, and leaves the generator in the same state."""
    ours = np.random.default_rng(seed)
    numpy_rng = np.random.default_rng(seed)
    gen = QueryGenerator(spec, 1000, ours)
    QueryGenerator(spec, 1000, numpy_rng)  # same construction-time draws
    probs = np.array([spec.read, spec.update, spec.insert, spec.scan, spec.rmw])
    names = ["read", "update", "insert", "scan", "rmw"]
    drawn = [gen._draw_op() for _ in range(10_000)]
    want = [names[int(numpy_rng.choice(5, p=probs))] for _ in range(10_000)]
    assert drawn == want
    assert ours.bit_generator.state == numpy_rng.bit_generator.state


def test_query_generator_respects_mix():
    rng = np.random.default_rng(6)
    gen = QueryGenerator(WORKLOAD_A, 1000, rng)
    ops = [gen.next().op for _ in range(4000)]
    reads = ops.count("read") / len(ops)
    assert reads == pytest.approx(0.5, abs=0.03)
    assert set(ops) == {"read", "update"}


def test_query_generator_scan_lengths():
    rng = np.random.default_rng(7)
    gen = QueryGenerator(WORKLOAD_E, 1000, rng)
    queries = [gen.next() for _ in range(3000)]
    scans = [q for q in queries if q.op == "scan"]
    inserts = [q for q in queries if q.op == "insert"]
    assert len(scans) / len(queries) == pytest.approx(0.95, abs=0.02)
    lens = [q.scan_len for q in scans]
    assert min(lens) >= 1 and max(lens) <= 100
    # inserts use fresh keys beyond the preloaded space
    keys = [q.key for q in inserts]
    assert all(k >= 1000 for k in keys)
    assert len(set(keys)) == len(keys)


def test_bursty_traffic_schedule_alternates():
    rng = np.random.default_rng(8)
    shape = BurstyTraffic(rng, scale=100.0)
    phases = shape.schedule(5_000_000.0)  # 5 s horizon
    assert phases[0].on
    for a, b in zip(phases, phases[1:]):
        assert a.on != b.on
        assert b.start == pytest.approx(a.end, abs=1e-6) or a.end <= b.start
    assert phases[-1].end <= 5_000_000.0


def test_bursty_traffic_durations_in_scaled_range():
    rng = np.random.default_rng(9)
    shape = BurstyTraffic(rng, scale=100.0)
    phases = shape.schedule(50_000_000.0)
    on_durs = [p.end - p.start for p in phases[:-1] if p.on]
    off_durs = [p.end - p.start for p in phases[:-1] if not p.on]
    # 60-90 s / 100 = 600-900 ms; 5-10 s / 100 = 50-100 ms
    # (tolerance for float accumulation across phase boundaries)
    assert all(599_999 <= d <= 900_001 for d in on_durs)
    assert all(49_999 <= d <= 100_001 for d in off_durs)


def test_constant_traffic():
    phases = ConstantTraffic().schedule(1000.0)
    assert len(phases) == 1
    assert phases[0].on and phases[0].start == 0.0 and phases[0].end == 1000.0


def test_bursty_traffic_validation():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        BurstyTraffic(rng, scale=0.0)
