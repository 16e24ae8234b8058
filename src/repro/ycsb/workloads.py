"""YCSB core workload definitions.

The paper evaluates workloads a, b and e; the full core suite (c, d, f)
is included so the library covers what a YCSB user expects:

========  =============================  =====================
workload  mix                            key chooser
========  =============================  =====================
a         50% read / 50% update          scrambled Zipfian
b         95% read / 5% update           scrambled Zipfian
c         100% read                      scrambled Zipfian
d         95% read / 5% insert           latest
e         95% scan / 5% insert           scrambled Zipfian
f         50% read / 50% read-mod-write  scrambled Zipfian
========  =============================  =====================
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.ycsb.distributions import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)


@dataclass
class Query:
    """One client request."""

    op: str  # "read" | "update" | "insert" | "scan" | "rmw"
    key: int
    value_bytes: int = 1000  # YCSB default: 10 fields x 100 B
    scan_len: int = 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix plus key/scan-length choosers."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    max_scan_len: int = 100
    value_bytes: int = 1000
    #: "zipfian" (scrambled) or "latest" (workload-d's recency skew).
    key_chooser: str = "zipfian"

    def __post_init__(self):
        mix = (self.read, self.update, self.insert, self.scan, self.rmw)
        if min(mix) < 0.0:
            raise ValueError(f"workload {self.name}: negative mix share {mix}")
        total = sum(mix)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload {self.name}: mix sums to {total}, not 1")
        if self.key_chooser not in ("zipfian", "latest"):
            raise ValueError(
                f"workload {self.name}: unknown key_chooser "
                f"{self.key_chooser!r}"
            )

    def generator(self, n_keys: int, rng: np.random.Generator) -> "QueryGenerator":
        return QueryGenerator(self, n_keys, rng)


#: 50% read / 50% update ("update heavy", the paper's main workload).
WORKLOAD_A = WorkloadSpec("workload-a", read=0.5, update=0.5)

#: 95% read / 5% update ("read heavy").
WORKLOAD_B = WorkloadSpec("workload-b", read=0.95, update=0.05)

#: 100% read ("read only").
WORKLOAD_C = WorkloadSpec("workload-c", read=1.0)

#: 95% read / 5% insert, reads skewed to the newest keys ("read latest").
WORKLOAD_D = WorkloadSpec("workload-d", read=0.95, insert=0.05,
                          key_chooser="latest")

#: 95% scan / 5% insert ("scan heavy"; unsupported by Memcached).
WORKLOAD_E = WorkloadSpec("workload-e", scan=0.95, insert=0.05)

#: 50% read / 50% read-modify-write.
WORKLOAD_F = WorkloadSpec("workload-f", read=0.5, rmw=0.5)

ALL_WORKLOADS = (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D,
                 WORKLOAD_E, WORKLOAD_F)

_BY_NAME = {w.name: w for w in ALL_WORKLOADS}
_BY_NAME.update({w.name[-1]: w for w in ALL_WORKLOADS})


def workload_by_name(name: str) -> WorkloadSpec:
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; have {sorted(set(_BY_NAME))}"
        ) from None


class QueryGenerator:
    """Draws queries according to a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, n_keys: int, rng: np.random.Generator):
        if n_keys <= 0:
            raise ValueError(f"n_keys must be positive, got {n_keys}")
        self.spec = spec
        self.n_keys = n_keys
        self.rng = rng
        if spec.key_chooser == "latest":
            self._keys = LatestGenerator(n_keys, rng)
        else:
            self._keys = ScrambledZipfianGenerator(n_keys, rng)
        self._scan_len = UniformGenerator(1, spec.max_scan_len, rng)
        self._insert_cursor = n_keys
        s = spec
        self._ops = ["read", "update", "insert", "scan", "rmw"]
        # Generator.choice(5, p=...)'s own arithmetic, done once: it
        # normalises the cumulative sum and bisects one uniform double.
        cdf = np.array([s.read, s.update, s.insert, s.scan, s.rmw]).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def _draw_op(self) -> str:
        return self._ops[bisect_right(self._cdf, self.rng.random())]

    def next(self) -> Query:
        op = self._draw_op()
        if op == "insert":
            key = self._insert_cursor
            self._insert_cursor += 1
            if isinstance(self._keys, LatestGenerator):
                self._keys.advance(key)
        else:
            key = self._keys.next()
        scan_len = self._scan_len.next() if op == "scan" else 1
        return Query(op=op, key=key, value_bytes=self.spec.value_bytes,
                     scan_len=scan_len)
