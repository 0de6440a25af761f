"""Span recorder for the traced run, applied from outside the package.

The package's modules look up their collaborators as module attributes at
call time (``continuation.xic_slice``, ``latsum.ball_sum`` ...), so replacing
those attributes with timing wrappers traces every call site without
changing the source tree.  Spans stay in memory and are written out when
the run ends.  A span is (name, start, end, parent index, operation id,
terms counted inside it, raised, lru miss).
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import hk

# (module, attribute, span name): every module attribute bound to the
# same function object is replaced, so imports like
# `from .latsum import xic_slice` in continuation are covered too
SPANNED = (
    ("latsum", "xic_slice", "latsum.xic_slice"),
    ("latsum", "ball_sum", "latsum.ball_sum"),
    ("latsum", "xi_direct", "latsum.xi_direct"),
    ("latsum", "xi0_direct", "latsum.xi0_direct"),
    ("continuation", "shift_correction", "continuation.shift_correction"),
    ("continuation", "_kloosterman_zeta_cached", "continuation.kloosterman_zeta"),
    ("continuation", "_weil_zeta_tail", "continuation.weil_tail"),
    ("continuation", "xi_tilde_fourier", "continuation.xi_tilde_fourier"),
    ("continuation", "xi_fourier", "continuation.xi_fourier"),
    ("arith", "unit_inverse_table", "arith.unit_inverse_table"),
    ("special", "phi_factor", "special.phi_factor"),
    ("special", "bessel_k", "special.bessel_k"),
    ("special", "zeta_fn", "special.zeta_fn"),
    ("modforms", "theorem3_rhs", "modforms.theorem3_rhs"),
)
MODULES = ("arith", "special", "modforms", "accumulate", "latsum", "continuation", "identities", "cli")

NAME, START, END, PARENT, OP, TERMS, ERROR, MISS = range(8)


class Recorder:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None  # operation id stamped on new spans; None = set-up
        self.chunks: dict = defaultdict(int)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, 0, True, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list, ok: bool) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        rec[ERROR] = not ok

    @contextmanager
    def span(self, name: str):
        """A span around a block of the harness's own code."""
        rec, ok = self._open(name), False
        try:
            yield
            ok = True
        finally:
            self._close(rec, ok)

    def _wrap(self, name: str, fn):
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if cached else 0
            rec, ok = self._open(name), False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(rec, ok)
                if cached:
                    rec[MISS] = fn.cache_info().misses > misses

        return wrapper

    def _term_factory(self, factory):
        """Term functions that add their element count to the innermost span."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            fn = factory(*args, **kwargs)

            def counted(mu1, mu2):
                if self._stack:
                    self.spans[self._stack[-1]][TERMS] += mu1.size
                return fn(mu1, mu2)

            return counted

        return wrapper

    def _chunk_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(n_chunks, chunk_fn, *args, **kwargs):
            self.chunks[self.op] += max(0, n_chunks)
            return fn(n_chunks, chunk_fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Replace the traced module attributes for the duration of the block."""
        replacements = [(hk(mod), attr, self._wrap(name, getattr(hk(mod), attr)))
                        for mod, attr, name in SPANNED]
        replacements.append((hk("latsum"), "xi_term_fn", self._term_factory(hk("latsum").xi_term_fn)))
        replacements.append((hk("accumulate"), "chunked_sum",
                             self._chunk_counter(hk("accumulate").chunked_sum)))
        saved = []
        for home, attr, wrapper in replacements:
            original = getattr(home, attr)
            for mod in MODULES:
                module = hk(mod)
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, value))
                        setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for module, key, value in reversed(saved):
                setattr(module, key, value)

    def write_rows(self) -> list[list]:
        return [[n, round(s, 9), round(e, 9), p, o, t, err, miss]
                for n, s, e, p, o, t, err, miss in self.spans]


# per-layer metric name -> unit; values are per timed operation
PER_LAYER = {
    "latsum.xic_slice.calls": "count/op",
    "latsum.xic_slice.s": "s/op",
    "latsum.ball_sum.calls": "count/op",
    "latsum.ball_sum.s": "s/op",
    "latsum.xi_direct.self_s": "s/op",
    "latsum.terms": "count/op",
    "latsum.distinct_term_ratio": "ratio",
    "latsum.xi0_direct.s": "s/op",
    "latsum.errors": "count/op",
    "accumulate.chunks": "count/op",
    "continuation.shift_correction.s": "s/op",
    "continuation.shift_correction.self_s": "s/op",
    "continuation.kloosterman_zeta.builds": "count/op",
    "continuation.kloosterman_zeta.hit_ratio": "ratio",
    "continuation.kloosterman_zeta.build_s": "s/op",
    "continuation.weil_tail.s": "s/op",
    "continuation.xi_tilde_fourier.s": "s/op",
    "continuation.errors": "count/op",
    "arith.unit_inverse_table.builds": "count/op",
    "arith.unit_inverse_table.s": "s/op",
    "special.phi_factor.calls": "count/op",
    "special.phi_factor.s": "s/op",
    "special.bessel_k.calls": "count/op",
    "special.zeta_fn.calls": "count/op",
    "special.zeta_fn.s": "s/op",
    "modforms.theorem3_rhs.s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.latency_p50_s": "s",
}


def layer_metrics(spans: list[list], chunks: dict, latencies: list[float]) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Operation spans carry the operation index; oracle spans carry
    ("oracle", index) and count only toward modforms.theorem3_rhs.s.
    ``.s`` is time inside the outermost span of that name, ``.self_s`` a
    span's duration minus its direct children's.
    """
    n_ops = max(1, len(latencies))
    children = defaultdict(float)
    for sp in spans:
        if sp[PARENT] >= 0:
            children[sp[PARENT]] += sp[END] - sp[START]
    calls, total, self_s, errors = (defaultdict(float) for _ in range(4))
    misses = defaultdict(int)
    op_terms = defaultdict(int)
    op_ball_max = defaultdict(int)
    for i, sp in enumerate(spans):
        name, op = sp[NAME], sp[OP]
        if op is None:
            continue
        if isinstance(op, tuple):
            if name == "modforms.theorem3_rhs":
                total[name] += sp[END] - sp[START]
            continue
        dur = sp[END] - sp[START]
        calls[name] += 1
        self_s[name] += dur - children[i]
        parent = spans[sp[PARENT]] if sp[PARENT] >= 0 else None
        if not _inside(spans, sp, name):
            total[name] += dur
        # an error counts once per layer, where it leaves that module
        layer = name.split(".")[0]
        if sp[ERROR] and not (parent and parent[NAME].split(".")[0] == layer and parent[ERROR]):
            errors[layer] += 1
        op_terms[op] += sp[TERMS]
        if name == "latsum.ball_sum":
            op_ball_max[op] = max(op_ball_max[op], sp[TERMS])
        if sp[MISS]:
            misses[name] += 1
            total[name + ".build"] += dur
    kz = "continuation.kloosterman_zeta"
    out = {
        "latsum.xic_slice.calls": calls["latsum.xic_slice"] / n_ops,
        "latsum.xic_slice.s": total["latsum.xic_slice"] / n_ops,
        "latsum.ball_sum.calls": calls["latsum.ball_sum"] / n_ops,
        "latsum.ball_sum.s": total["latsum.ball_sum"] / n_ops,
        "latsum.xi_direct.self_s": self_s["latsum.xi_direct"] / n_ops,
        "latsum.terms": sum(op_terms.values()) / n_ops,
        "latsum.distinct_term_ratio": statistics.fmean(
            [op_ball_max[o] / op_terms[o] if op_terms[o] else 0.0 for o in range(len(latencies))] or [0.0]),
        "latsum.xi0_direct.s": total["latsum.xi0_direct"] / n_ops,
        "latsum.errors": errors["latsum"] / n_ops,
        "accumulate.chunks": sum(v for k, v in chunks.items() if isinstance(k, int)) / n_ops,
        "continuation.shift_correction.s": total["continuation.shift_correction"] / n_ops,
        "continuation.shift_correction.self_s": self_s["continuation.shift_correction"] / n_ops,
        "continuation.kloosterman_zeta.builds": misses[kz] / n_ops,
        "continuation.kloosterman_zeta.hit_ratio":
            1.0 - misses[kz] / calls[kz] if calls[kz] else 0.0,
        "continuation.kloosterman_zeta.build_s": total[kz + ".build"] / n_ops,
        "continuation.weil_tail.s": total["continuation.weil_tail"] / n_ops,
        "continuation.xi_tilde_fourier.s": total["continuation.xi_tilde_fourier"] / n_ops,
        "continuation.errors": errors["continuation"] / n_ops,
        "arith.unit_inverse_table.builds": misses["arith.unit_inverse_table"] / n_ops,
        "arith.unit_inverse_table.s": total["arith.unit_inverse_table"] / n_ops,
        "special.phi_factor.calls": calls["special.phi_factor"] / n_ops,
        "special.phi_factor.s": total["special.phi_factor"] / n_ops,
        "special.bessel_k.calls": calls["special.bessel_k"] / n_ops,
        "special.zeta_fn.calls": calls["special.zeta_fn"] / n_ops,
        "special.zeta_fn.s": total["special.zeta_fn"] / n_ops,
        "modforms.theorem3_rhs.s": total["modforms.theorem3_rhs"] / n_ops,
        "cli.main.self_s": self_s["cli.main"] / n_ops,
        "trace.latency_p50_s": statistics.median(latencies) if latencies else 0.0,
    }
    return out


def _inside(spans: list[list], sp: list, name: str) -> bool:
    """Whether an ancestor span has the same name (recursion through a wrapper)."""
    p = sp[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
