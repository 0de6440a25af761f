"""Deterministic summation helpers.

Large sums are organised as indexed chunks (one per c-slice).  Each chunk
is reduced by numpy's pairwise sum, whose evaluation order depends only on
the array shape, and the chunk values are then combined along a fixed-shape
binary tree.  The result is therefore bit-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def tree_sum(values: Sequence[complex]) -> complex:
    """Pairwise reduction in a fixed order independent of how values were produced."""
    vals = [complex(v) for v in values]
    if not vals:
        return 0j
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def resolve_workers(workers: int | None = None) -> int:
    # HECKE_WORKERS overrides any per-call request
    env = os.environ.get("HECKE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if workers is not None and workers >= 1:
        return int(workers)
    return 1


def chunked_sum(n_chunks: int, chunk_fn: Callable[[int], complex], workers: int = 1) -> complex:
    """Sum chunk_fn(i) for i in range(n_chunks) with a fixed reduction tree.

    chunk_fn must be a pure function of its index; with workers > 1 the
    chunks are evaluated on a thread pool but combined in index order.
    """
    workers = resolve_workers(workers)
    if n_chunks <= 0:
        return 0j
    if workers == 1 or n_chunks == 1:
        vals = [chunk_fn(i) for i in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            vals = list(pool.map(chunk_fn, range(n_chunks)))
    return tree_sum(vals)
