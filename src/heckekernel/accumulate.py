"""Deterministic summation helpers.

Large sums are organised as indexed chunks (one per c-slice).  Each chunk
is reduced by numpy's pairwise sum, whose evaluation order depends only on
the array shape, and the chunk values are then combined along a fixed-shape
binary tree.  Chunks are evaluated serially: a thread pool over them was
measured no faster, so the ``workers`` settings are validated and echoed
but do not change how (or in what order) anything is computed.
"""

from __future__ import annotations

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


def chunked_sum(n_chunks: int, chunk_fn: Callable[[int], complex]) -> complex:
    """Sum chunk_fn(i) for i in range(n_chunks) with a fixed reduction tree."""
    return tree_sum([chunk_fn(i) for i in range(n_chunks)])
