"""Figures 7-10: which paper figure covers which service, and its workloads.

Each figure reads the alone/holmes/perfiso co-location triple of a
(service, workload): the runner's ``compare`` and ``latency``
experiments summarise it, and the benchmarks draw the CDFs from
:func:`~repro.experiments.colocation.run_colocation`'s raw latencies.
"""

#: which paper figure covers which service.
FIGURE_OF = {"redis": 7, "rocksdb": 8, "wiredtiger": 9, "memcached": 10}

#: workloads evaluated per service (no workload-e for Memcached).
WORKLOADS_OF = {
    "redis": ("a", "b", "e"),
    "rocksdb": ("a", "b", "e"),
    "wiredtiger": ("a", "b", "e"),
    "memcached": ("a", "b"),
}
