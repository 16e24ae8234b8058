"""Bring the cyclic collector to a fixed point before a census."""

from __future__ import annotations

import gc


def drain() -> None:
    """Collect until a pass frees nothing.

    The first pass's count is not trusted: the finalizers it runs (the
    live generators of a simulation an earlier test never closed) may
    take new references to their cycle, which resurrects the whole
    cycle for that pass, and only the next pass frees it.
    """
    gc.collect()
    while gc.collect():
        pass
