"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis import pearson, percentile_summary, violation_ratio
from repro.hw import CpuKind, ContentionModel, HWConfig, Topology
from repro.hw.counters import CounterEngine
from repro.hw.events import INSTR_LOAD, INSTR_STORE, STALLS_MEM_ANY
from repro.sim import Environment
from repro.workloads.kv.btree import BTree
from repro.workloads.kv.cache import LRUCache
from repro.workloads.kv.lsm import LSMTree
from repro.ycsb.distributions import ScrambledZipfianGenerator, ZipfianGenerator


# -- simulation kernel -----------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=40))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotone_under_any_timeout_set(delays):
    """The simulation clock never goes backwards."""
    env = Environment()
    observed = []

    def proc(env, d):
        yield env.timeout(d)
        observed.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.tuples(st.floats(0.1, 1000.0), st.floats(0.1, 1000.0)),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_resource_never_oversubscribed(jobs):
    """A capacity-1 resource runs at most one holder at any instant."""
    from repro.sim import Resource

    env = Environment()
    res = Resource(env, capacity=1)
    active = [0]
    max_active = [0]

    def proc(env, start, hold):
        yield env.timeout(start)
        req = yield from res.acquire()
        active[0] += 1
        max_active[0] = max(max_active[0], active[0])
        yield env.timeout(hold)
        active[0] -= 1
        res.release(req)

    for start, hold in jobs:
        env.process(proc(env, start, hold))
    env.run()
    assert max_active[0] <= 1
    assert active[0] == 0


# -- topology --------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1,
                                                          max_value=32))
@settings(max_examples=40, deadline=None)
def test_topology_partition_invariants(sockets, cores):
    topo = Topology(HWConfig(sockets=sockets, cores_per_socket=cores))
    lcpus = list(topo.all_lcpus())
    # sibling() is a fixed-point-free involution partitioning the lcpus
    assert sorted(topo.sibling(c) for c in lcpus) == lcpus
    for c in lcpus:
        assert topo.sibling(c) != c
        assert topo.sibling(topo.sibling(c)) == c
        assert topo.core_of(c) == topo.core_of(topo.sibling(c))
    # non_siblings_of(S) never intersects S or its siblings
    subset = set(lcpus[:: max(1, len(lcpus) // 3)])
    non_sib = topo.non_siblings_of(subset)
    assert not (non_sib & subset)
    assert not (non_sib & topo.siblings_of(subset))


# -- contention model ----------------------------------------------------------------


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_contention_multipliers_bounded_and_monotone(mem, comp):
    model = ContentionModel(HWConfig())
    kind = CpuKind(mem=mem, comp=comp)
    m = model.mem_latency_multiplier(kind)
    c = model.comp_latency_multiplier(kind)
    assert 1.0 <= m <= 1.8
    assert 1.0 <= c <= 1.6
    # adding pressure never reduces a multiplier
    more = CpuKind(mem=min(1.0, mem + 0.1), comp=comp)
    assert model.mem_latency_multiplier(more) >= m


# -- counters ------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=100_000),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=1.8),
)
@settings(max_examples=60, deadline=None)
def test_counters_non_negative_and_additive(lines, dram_frac, mult):
    engine = CounterEngine(HWConfig(), 2, np.random.default_rng(0))
    engine.account_mem(0, lines, dram_frac, mult)
    snap = engine.snapshot(0)
    assert snap[STALLS_MEM_ANY] >= 0
    assert snap[INSTR_LOAD] == lines
    assert snap[INSTR_STORE] >= 0
    # accruing twice doubles the instruction counters exactly
    engine2 = CounterEngine(HWConfig(), 2, np.random.default_rng(0))
    engine2.account_mem(0, lines, dram_frac, mult)
    engine2.account_mem(0, lines, dram_frac, mult)
    assert engine2.read(0, INSTR_LOAD) == 2 * lines


# -- LRU cache ------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 50), st.booleans()), max_size=200),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_lru_never_exceeds_capacity_and_matches_model(ops, capacity):
    """The LRU tracks a reference model implemented with a list."""
    cache = LRUCache(capacity)
    model: list[int] = []  # most-recent last
    for key, is_put in ops:
        if is_put:
            cache.put(key, key)
            if key in model:
                model.remove(key)
            model.append(key)
            if len(model) > capacity:
                model.pop(0)
        else:
            got = cache.get(key)
            if key in model:
                assert got == key
                model.remove(key)
                model.append(key)
            else:
                assert got is None
        assert len(cache) == len(model) <= capacity
    assert sorted(k for k, _ in cache.items()) == sorted(model)


# -- LSM tree ------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=300), max_size=300),
       st.integers(min_value=2, max_value=16))
@settings(max_examples=40, deadline=None)
def test_lsm_never_loses_keys(puts, memtable_entries):
    """Every inserted key stays findable through rotations, flushes and
    compactions, and L1 stays sorted and non-overlapping."""
    lsm = LSMTree(memtable_entries=memtable_entries, l0_compaction_trigger=2)
    lsm.bulk_load(50)
    inserted = set(range(50))
    for key in puts:
        imm = lsm.put(key)
        inserted.add(key)
        if imm is not None:
            lsm.flush(imm)
        if lsm.needs_compaction:
            l0, l1 = lsm.pick_compaction()
            lsm.apply_compaction(l0, l1)
    for key in inserted:
        assert lsm.get(key).location != "missing", key
    assert lsm.total_entries() == len(inserted)
    for a, b in zip(lsm.level1, lsm.level1[1:]):
        assert a.max_key < b.min_key


# -- B-tree ----------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
@settings(max_examples=40, deadline=None)
def test_btree_put_get_roundtrip(keys):
    bt = BTree(keys_per_page=8)
    for k in keys:
        bt.put(k)
    for k in keys:
        page = bt.get(k)
        assert page is not None
        assert page.page_id == k // 8


# -- YCSB distributions ----------------------------------------------------------------


@given(st.integers(min_value=2, max_value=100_000),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_zipfian_draws_in_range(n, seed):
    rng = np.random.default_rng(seed)
    z = ZipfianGenerator(n, rng)
    s = ScrambledZipfianGenerator(n, rng)
    for _ in range(50):
        assert 0 <= z.next() < n
        assert 0 <= s.next() < n


# -- analysis --------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2,
                max_size=200))
@settings(max_examples=60, deadline=None)
def test_pearson_perfect_on_affine(xs):
    from hypothesis import assume

    # require meaningful relative spread; nearly-identical large values
    # make the correlation numerically ill-defined (pure cancellation)
    assume(np.std(xs) > 1e-6 * (abs(np.mean(xs)) + 1.0))
    ys = [2.5 * x + 3.0 for x in xs]
    assert abs(pearson(xs, ys) - 1.0) < 1e-6
    ys_neg = [-1.5 * x for x in xs]
    assert abs(pearson(xs, ys_neg) + 1.0) < 1e-6


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=200),
       st.floats(min_value=0.1, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_violation_ratio_bounds(lats, slo):
    r = violation_ratio(lats, slo)
    assert 0.0 <= r <= 1.0
    assert violation_ratio(lats, 2e6) == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=100))
@settings(max_examples=40, deadline=None)
def test_percentile_summary_ordering(lats):
    s = percentile_summary(lats)
    assert s["p50"] <= s["p70"] <= s["p80"] <= s["p90"] <= s["p99"]
    assert min(lats) - 1e-9 <= s["mean"] <= max(lats) + 1e-9


# -- scheduler invariants under random interleavings ------------------------------
#
# The scheduler is driven directly with fabricated MonitorSamples: random
# per-tick VPI/usage vectors, serving flags and container launch/exit
# events, decoupled from any workload.  Whatever the interleaving, the
# paper's structural guarantees must hold after every tick.

_N_LCPUS = 16  # 1 socket x 8 SMT-2 cores


def _fresh_scheduler():
    from repro.core.config import HolmesConfig
    from repro.core.monitor import MetricMonitor
    from repro.core.scheduler import HolmesScheduler
    from repro.oskernel import System

    system = System(config=HWConfig(sockets=1, cores_per_socket=8))
    cfg = HolmesConfig(n_reserved=4)
    monitor = MetricMonitor(system, cfg)
    return system, cfg, monitor, HolmesScheduler(system, cfg, monitor)


def _all_batch_cpus(monitor):
    """Every logical CPU any batch container may currently run on."""
    cpus: set[int] = set()
    for info in monitor.containers.values():
        cpus |= info.cpus | info.sibling_grants
    return cpus


def _grant_set(monitor):
    return {
        (info.name, sib)
        for info in monitor.containers.values()
        for sib in info.sibling_grants
    }


def _drive(ticks):
    """Apply fabricated ticks; yield state snapshots for invariant checks."""
    from types import SimpleNamespace

    from repro.core.monitor import ContainerInfo, MonitorSample

    system, cfg, monitor, sched = _fresh_scheduler()
    env = system.env
    n_launched = 0
    for dt, serving, action, vpi, usage in ticks:
        env.timeout(dt)
        env.run()
        now = env.now
        new, gone = [], []
        if action == "launch":
            name = f"c{n_launched}"
            n_launched += 1
            cg = system.cgroups.create(f"{cfg.batch_cgroup_root}/{name}")
            info = ContainerInfo(name=name, cgroup=cg, discovered_at=now)
            monitor.containers[name] = info
            new.append(info)
        elif action == "exit" and monitor.containers:
            gone.append(monitor.containers.pop(sorted(monitor.containers)[0]))
        vpi_arr = np.asarray(vpi, dtype=float)
        usage_arr = np.asarray(usage, dtype=float)
        lc_before = list(sched.lc_cpus)
        grants_before = _grant_set(monitor)
        sample = MonitorSample(
            time=now,
            usage=usage_arr,
            usage_ema=usage_arr,
            vpi=vpi_arr,
            ldst=np.zeros(_N_LCPUS),
            new_containers=new,
            gone_containers=gone,
            lc_statuses=[SimpleNamespace(serving=serving)],
        )
        sched.tick(sample)
        yield {
            "system": system,
            "cfg": cfg,
            "monitor": monitor,
            "sched": sched,
            "now": now,
            "serving": serving,
            "vpi": vpi_arr,
            "lc_before": lc_before,
            "grants_before": grants_before,
            "launched": bool(new),
        }


_tick_st = st.tuples(
    st.floats(min_value=100.0, max_value=30_000.0),              # dt (us)
    st.booleans(),                                               # serving
    st.sampled_from(["none", "none", "launch", "exit"]),
    st.lists(st.floats(0.0, 100.0), min_size=_N_LCPUS, max_size=_N_LCPUS),
    st.lists(st.floats(0.0, 1.0), min_size=_N_LCPUS, max_size=_N_LCPUS),
)


@given(st.lists(_tick_st, min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_reserved_floor_never_violated(ticks):
    """The LC CPU set always contains the reserved 4-core floor, and never
    two hyperthread siblings of the same physical core."""
    for s in _drive(ticks):
        sched, topo = s["sched"], s["sched"].topology
        assert set(sched.reserved) <= set(sched.lc_cpus)
        assert len(sched.lc_cpus) >= s["cfg"].n_reserved
        for lc in sched.lc_cpus:
            assert topo.sibling(lc) not in set(sched.lc_cpus)


@given(st.lists(_tick_st, min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_high_vpi_sibling_never_shared_with_batch(ticks):
    """While serving, an LC CPU observed at VPI >= E never shares its
    physical core with a batch container after the tick."""
    for s in _drive(ticks):
        if not s["serving"]:
            continue
        sched, topo = s["sched"], s["sched"].topology
        batch = _all_batch_cpus(s["monitor"])
        for lc in s["lc_before"]:
            if s["vpi"][lc] >= sched.threshold:
                assert topo.sibling(lc) not in batch, (
                    f"batch on sibling of hot LC cpu {lc}"
                )


@given(st.lists(_tick_st, min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_sibling_regrant_respects_hold_down(ticks):
    """While serving, Algorithm 2 only re-grants an LC sibling after the
    VPI has stayed below E for the hold-down S.  (Ticks that launch a
    container are excluded: Algorithm 1's spill path may legitimately
    grant a calm sibling at launch, independent of S.)"""
    for s in _drive(ticks):
        if not s["serving"] or s["launched"]:
            continue
        sched, cfg = s["sched"], s["cfg"]
        new_grants = _grant_set(s["monitor"]) - s["grants_before"]
        for _name, sib in new_grants:
            lc = sched.topology.sibling(sib)
            last_high = sched._last_high.get(lc, -np.inf)
            assert s["now"] - last_high >= cfg.s_hold_us, (
                f"sibling {sib} re-granted {s['now'] - last_high:.0f} us "
                f"after high VPI on {lc} (S={cfg.s_hold_us:.0f})"
            )


def test_hold_down_sequence_directed():
    """Deterministic walk through the dealloc -> hold-down -> regrant cycle."""
    from types import SimpleNamespace

    from repro.core.monitor import ContainerInfo, MonitorSample

    system, cfg, monitor, sched = _fresh_scheduler()
    env = system.env
    topo = sched.topology

    def tick(dt, serving, vpi_value, new=()):
        env.timeout(dt)
        env.run()
        sched.tick(MonitorSample(
            time=env.now,
            usage=np.full(_N_LCPUS, 0.2),
            usage_ema=np.full(_N_LCPUS, 0.2),
            vpi=np.full(_N_LCPUS, float(vpi_value)),
            ldst=np.zeros(_N_LCPUS),
            new_containers=list(new),
            gone_containers=[],
            lc_statuses=[SimpleNamespace(serving=serving)],
        ))

    cg = system.cgroups.create(f"{cfg.batch_cgroup_root}/c0")
    info = ContainerInfo(name="c0", cgroup=cg, discovered_at=env.now)
    monitor.containers["c0"] = info

    # idle: every LC sibling is granted to the lone batch container
    tick(50.0, serving=False, vpi_value=0.0, new=[info])
    sibs = {topo.sibling(lc) for lc in sched.lc_cpus}
    assert info.sibling_grants == sibs

    # traffic + high VPI: every sibling is deallocated
    tick(50.0, serving=True, vpi_value=cfg.e_threshold + 10.0)
    t_high = env.now
    assert info.sibling_grants == set()

    # calm but within the hold-down: still nothing granted
    tick(cfg.s_hold_us * 0.5, serving=True, vpi_value=0.0)
    assert env.now - t_high < cfg.s_hold_us
    assert info.sibling_grants == set()

    # calm past the hold-down: siblings come back
    tick(cfg.s_hold_us, serving=True, vpi_value=0.0)
    assert env.now - t_high >= cfg.s_hold_us
    assert info.sibling_grants == sibs
