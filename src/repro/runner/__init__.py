"""Parallel experiment runner: cells, content-hash cache, fan-out, merge.

The layers, bottom up:

* :mod:`repro.runner.cells` — atomic units of work ((kind, params, seed)
  triples) whose payloads are plain JSON-able dicts;
* :mod:`repro.runner.cache` — an on-disk result cache keyed by a content
  hash of (params, seed, code version), with payload-hash verification so
  corrupted entries are recomputed instead of trusted;
* :mod:`repro.runner.aggregate` — the experiment registry: expansion of
  user-level experiments into role-labelled cells and pure aggregation of
  payloads back into figure/table structures;
* :mod:`repro.runner.executors` — pluggable transports behind one
  pull-based protocol: in-process, process pool, and loopback-socket
  worker subprocesses;
* :mod:`repro.runner.dispatch` — the async dispatch core: a cost-ordered
  shared ready-queue (longest-expected-first), streaming completion
  folding, bounded speculative re-execution of stragglers;
* :mod:`repro.runner.resilience` — the resilience layer: one
  :class:`RetryPolicy` for every recovery path, the fault-injecting
  :class:`ChaosExecutor` wrapper, and the crash-safe
  :class:`SweepJournal` behind ``--resume``;
* :mod:`repro.runner.runner` — the runner tying dispatch, cache and
  aggregation together with deterministic (byte-identical across
  executors) merging;
* :mod:`repro.runner.bench` — the ``repro bench`` harness emitting
  ``BENCH_runner.json``.
"""

from repro.runner.cells import Cell, execute_cell, latency_summary
from repro.runner.cache import ResultCache, cell_key, code_fingerprint
from repro.runner.aggregate import (
    EXPERIMENTS,
    ExperimentRequest,
    expand_request,
    aggregate_request,
)
from repro.runner.dispatch import CostModel, DispatchCore
from repro.runner.executors import (
    EXECUTORS,
    Completion,
    ExecutorError,
    InProcessExecutor,
    PoolExecutor,
    SocketExecutor,
    Task,
    make_executor,
)
from repro.runner.resilience import (
    ChaosExecutor,
    ChaosFault,
    RetryPolicy,
    SweepJournal,
)
from repro.runner.runner import (
    CellExecutionError,
    ExperimentRunner,
    RunReport,
)
from repro.runner.bench import (
    bench_fault_overhead,
    bench_resilience_overhead,
    bench_runner_obs_overhead,
    bench_sweep,
    run_bench,
)

__all__ = [
    "Cell",
    "execute_cell",
    "latency_summary",
    "ResultCache",
    "cell_key",
    "code_fingerprint",
    "EXPERIMENTS",
    "ExperimentRequest",
    "expand_request",
    "aggregate_request",
    "CostModel",
    "DispatchCore",
    "EXECUTORS",
    "Completion",
    "ExecutorError",
    "InProcessExecutor",
    "PoolExecutor",
    "SocketExecutor",
    "Task",
    "make_executor",
    "ChaosExecutor",
    "ChaosFault",
    "RetryPolicy",
    "SweepJournal",
    "CellExecutionError",
    "ExperimentRunner",
    "RunReport",
    "bench_fault_overhead",
    "bench_resilience_overhead",
    "bench_runner_obs_overhead",
    "bench_sweep",
    "run_bench",
]
