"""The package attributes that the benchmark tracer replaces.

perfbench/tracing.py traces a run by swapping module attributes of
heckekernel for timing wrappers, so renaming one of them would otherwise
fail only the benchmark's own self-tests.  The tracer is imported from its
directory without writing anything there.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from heckekernel import accumulate, arith, continuation, latsum
from heckekernel.types import TruncationPolicy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
Z1 = 0.1 + 1.2j
Z2 = -0.3 + 0.9j


@pytest.fixture(scope="module")
def tracing():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_spanned_attributes_exist(tracing):
    for mod in tracing.MODULES:
        importlib.import_module(f"heckekernel.{mod}")
    for mod, attr, _ in tracing.SPANNED:
        assert callable(getattr(importlib.import_module(f"heckekernel.{mod}"), attr)), (mod, attr)


def test_cached_attributes_keep_cache_info():
    # the tracer's builds and hit_ratio metrics read the lru cache counters
    assert hasattr(continuation._kloosterman_zeta_cached, "cache_info")
    assert hasattr(arith.unit_inverse_table, "cache_info")


def test_chunk_counter_signature():
    # the tracer's chunk counter takes (n_chunks, chunk_fn, *args, **kwargs)
    assert list(inspect.signature(accumulate.chunked_sum).parameters)[:2] == ["n_chunks", "chunk_fn"]


def test_installed_wrappers_are_looked_up_at_call_time(tracing):
    originals = (latsum.ball_sum, latsum.xi_term_fn, accumulate.chunked_sum)
    pol = TruncationPolicy(H=20, refine="none", tol=1e-2)
    rec = tracing.Recorder()
    with rec.installed():
        rec.op = 0
        latsum.xi_direct(Z1, Z2, 1, 1.5, pol)
    names = [sp[tracing.NAME] for sp in rec.spans]
    assert names.count("latsum.xi_direct") == 1
    assert names.count("latsum.ball_sum") == 1  # heights 10 and 20 in one pass
    assert rec.chunks[0] == 21  # one chunk per c in 0..H
    assert sum(sp[tracing.TERMS] for sp in rec.spans) > 0
    assert (latsum.ball_sum, latsum.xi_term_fn, accumulate.chunked_sum) == originals
