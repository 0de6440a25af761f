"""The package attributes that the benchmark tracer replaces.

perfbench/tracing.py traces a run by swapping module attributes of
heckekernel for timing wrappers, so renaming one of them would otherwise
fail only the benchmark's own self-tests.  The tracer is imported from its
directory without writing anything there.
"""

import collections
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from heckekernel import accumulate, arith, continuation, latsum
from heckekernel.types import FourierAssemblyConfig, TruncationPolicy

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


def test_traced_terms_count_each_point_once(tracing):
    # the tracer's term count of a traced xi_direct is the number of points
    # the enumerator walks: half the matrices of the ball (c >= 0, with -g
    # paired in), so a re-sliced term evaluation cannot drop or repeat points
    rec = tracing.Recorder()
    with rec.installed():
        rec.op = 0
        latsum.xi_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=20, refine="none", tol=1e-2))
    counts, _ = latsum.ball_sum(Z1, Z2, 1, (20,), lambda mu1, mu2: np.ones(mu1.shape))
    assert 2 * sum(sp[tracing.TERMS] for sp in rec.spans) == counts[0].real


def test_traced_zeta_build_has_no_per_c_span(tracing):
    # a traced cold build at the CLI's C = 4000 calls no traced attribute
    # once per c: one kloosterman_zeta span, no unit_inverse_table span
    rs = tuple(continuation._modes(8))
    rec = tracing.Recorder()
    with rec.installed():
        rec.op = 0
        continuation._kloosterman_zeta_cached(rs, rs, 3.125, 4000, "derived")
    names = [sp[tracing.NAME] for sp in rec.spans]
    assert names.count("continuation.kloosterman_zeta") == 1
    assert rec.spans[names.index("continuation.kloosterman_zeta")][tracing.MISS]
    assert "arith.unit_inverse_table" not in names
    assert len(names) == len(set(names))


def _span_counts(tracing, root_name, call):
    """Counts of the traced spans inside the one root_name span of call()."""
    rec = tracing.Recorder()
    with rec.installed():
        rec.op = 0
        call()
    names = [sp[tracing.NAME] for sp in rec.spans]
    assert names.count(root_name) == 1
    root = names.index(root_name)
    inside = {root}
    for i, sp in enumerate(rec.spans):  # a span opens after its parent
        if sp[tracing.PARENT] in inside:
            inside.add(i)
    return collections.Counter(names[i] for i in inside - {root})


def _traced_correction_counts(tracing, corr_C):
    """Span counts inside shift_correction in one traced xi_fourier call at
    s = n = 1."""
    cfg = FourierAssemblyConfig(R=2, C=16, corr_C=corr_C, corr_K=48, tol=1e-2)
    return _span_counts(tracing, "continuation.shift_correction", lambda: continuation.xi_fourier(
        Z1, Z2, 1, 1.0, cfg, TruncationPolicy(B=20_000, tol=1e-2)))


def test_traced_boundary_call_has_no_per_unit_span(tracing, monkeypatch):
    # the traced boundary run stays bounded: xic_slice is traced for the
    # 2-D slices c <= c0 (true and shifted) and for the half-window probe
    # of the same c, and the offset expansion of every larger c (here on
    # Chebyshev interpolants) calls no traced attribute per unit or per node
    c0 = max(c for c in range(1, 21) if 1.0 / (c * c * Z1.imag * Z2.imag) > latsum._OFFSET_TAU)
    assert c0 == 4
    counts = _traced_correction_counts(tracing, 40)
    assert counts["latsum.xic_slice"] == 2 * c0 + 2 * min(c0, 5)
    more = _traced_correction_counts(tracing, 80)  # 1476 more units, 40 more c
    assert all(more[name] - counts[name] <= 40 for name in more), more - counts
    nodes = latsum._offset_nodes
    monkeypatch.setattr(latsum, "_offset_nodes", lambda *args: nodes(*args) + 16)
    assert _traced_correction_counts(tracing, 40) == counts


def test_traced_near_axis_correction_has_no_per_unit_span(tracing):
    # at Im z1 = 0.01, Im z2 = 2 the 2-D pass keeps c <= 35 and every unit
    # of c = 36..160 sums its own windows: apart from xic_slice's slices,
    # at most one traced unit-table read per c
    z1, z2, c0 = 0.1 + 0.01j, -0.3 + 2.0j, 35
    counts = _span_counts(tracing, "continuation.shift_correction", lambda: continuation.shift_correction(
        z1, z2, 1, 1.0, FourierAssemblyConfig(corr_C=160, corr_K=48)))
    assert counts["latsum.xic_slice"] == 2 * c0 + 2 * 5
    assert set(counts) <= {"latsum.xic_slice", "arith.unit_inverse_table"}, counts
    assert counts["arith.unit_inverse_table"] <= counts["latsum.xic_slice"] + 160 - c0
