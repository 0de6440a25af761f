"""Direct truncated evaluation of the determinant-m lattice series.

The bilinear form is

    mu(gamma, z1, w) = c z1 w + d w - a z1 - b,      gamma = (a, b; c, d),

so the two kernels entering every series are mu1 = mu(gamma, z1, z2) and
mu2 = mu(gamma, z1, conj(z2)).  For c != 0 it factors as

    mu = [(c z1 + d)(c w - a) + m] / c.

Sums over the height balls max(|a|,|b|,|c|,|d|) <= h, for every h of a
heights tuple at once, are organised as one chunk per |c| value; each
chunk enumerates the points of the largest ball with numpy and buckets
them by height, and the chunk values are combined along a fixed-shape
tree, so a value depends only on its inputs and cutoffs.  Every series here pairs gamma with -gamma at equal
term value (all integrands have even total degree), so only c >= 0 is
enumerated and c > 0 chunks carry weight 2.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .accumulate import chunked_sum, tree_sum
from .arith import unit_inverse_table
from .errors import NearDiagonal, PoleAt
from .special import hurwitz_tail
from .types import EvalResult, IntMatrix2, TruncationPolicy, accept, nonzero_imag, upper_half

_MARGIN = 0.1
_BLOCK = 1 << 18  # max lattice points processed at once inside a chunk
_SLICE_BLOCK = 1 << 15  # grid elements per xic_slice block (cache-sized)


def mu(gamma: IntMatrix2, z1: complex, w: complex) -> complex:
    """c z1 w + d w - a z1 - b (the kernel's bilinear form)."""
    return gamma.c * z1 * w + gamma.d * w - gamma.a * z1 - gamma.b


def mu_factorized(gamma: IntMatrix2, z1: complex, w: complex) -> complex:
    """Same value through the c != 0 factorization (testing aid)."""
    if gamma.c == 0:
        raise ValueError("factorized form needs c != 0")
    c = gamma.c
    return ((c * z1 + gamma.d) * (c * w - gamma.a) + gamma.det) / c


def enumerate_matrices(m: int, H: int) -> Iterator[IntMatrix2]:
    """Every integer matrix with det = m and max |entry| <= H, exactly once."""
    if m < 1 or H < 1:
        raise ValueError("need m >= 1 and H >= 1")
    # c = 0: ad = m, b free
    for a in range(-H, H + 1):
        if a == 0 or m % a:
            continue
        d = m // a
        if abs(d) <= H:
            for b in range(-H, H + 1):
                yield IntMatrix2(a, b, 0, d)
    for c in range(-H, H + 1):
        if c == 0:
            continue
        cc = abs(c)
        for a in range(-H, H + 1):
            g = math.gcd(abs(a), cc) if a else cc
            if m % g:
                continue
            cg = cc // g
            if cg == 1:
                d_iter = range(-H, H + 1)  # congruence trivial mod 1
            else:
                inv = pow((a // g) % cg, -1, cg)
                d0 = ((m // g) * inv) % cg
                first = d0 - cg * ((d0 + H) // cg)
                d_iter = range(first, H + 1, cg)
            for d in d_iter:
                b, rem = divmod(a * d - m, c)
                if rem == 0 and abs(b) <= H:
                    yield IntMatrix2(a, b, c, d)


TermFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def xi_term_fn(n: int, s: float) -> TermFn:
    def fn(mu1, mu2):
        a = (mu1.real**2 + mu1.imag**2) * (mu2.real**2 + mu2.imag**2)
        if n == 0:
            return a ** (-s)
        p = np.conj(mu1) * np.conj(mu2)
        if n > 1:  # p**1 is p; a complex pow costs more than the real one below
            p **= n
        p *= a ** (-s)
        return p

    return fn


def omega_term_fn(k: int) -> TermFn:
    def fn(mu1, mu2):
        return mu2 ** (-k)

    return fn


def omega_n_term_fn(n: int, s: float) -> TermFn:
    def fn(mu1, mu2):
        a1 = mu1.real**2 + mu1.imag**2
        a2 = mu2.real**2 + mu2.imag**2
        num = np.conj(mu1) ** (n - 1) * np.conj(mu2) ** (n + 1)
        return num * a1 ** (1.0 - s) * a2 ** (-1.0 - s)

    return fn


def psi_term_fn(which: int, s: float) -> TermFn:
    def fn(mu1, mu2):
        a1 = mu1.real**2 + mu1.imag**2
        a2 = mu2.real**2 + mu2.imag**2
        if which == 1:
            return a1 ** (-s) * a2 ** (1.0 - s)
        return a1 ** (1.0 - s) * a2 ** (-s)

    return fn


def _terms(term_fn: TermFn, mu1: np.ndarray, mu2: np.ndarray) -> np.ndarray:
    """term_fn(mu1, mu2); NearDiagonal where a term is not finite.

    Only a zero (or underflowing) |mu1| does that: z2 is, to double
    precision, the image of z1 under a det-m matrix (z1 = z2 for the
    identity).  The xi, omega_n and psi terms divide by |mu1| there, while
    omega's mu2-only term stays finite and is summed as usual.
    """
    with np.errstate(all="ignore"):
        terms = term_fn(mu1, mu2)
    if not np.isfinite(terms).all():
        raise NearDiagonal("term not finite: z2 is (nearly) the image of z1 under a lattice matrix")
    return terms


def _mu_pair(z1: complex, z2: complex, c: int, a: np.ndarray, b: np.ndarray,
             d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mu1 = c z1 z2 + d z2 - a z1 - b and mu2 (z2 -> conj z2), built from
    real parts with the rounding of that complex expression."""
    dx, dy, ax, ay = d * z2.real, d * z2.imag, a * z1.real, a * z1.imag
    k1, k2 = c * z1 * z2, c * z1 * z2.conjugate()
    re1 = dx + k1.real
    re1 -= ax
    re1 -= b
    re2 = dx + k2.real
    re2 -= ax
    re2 -= b
    im1 = dy + k1.imag
    im1 -= ay
    im2 = k2.imag - dy
    im2 -= ay
    mu1 = np.empty(a.size, dtype=np.complex128)
    mu2 = np.empty(a.size, dtype=np.complex128)
    mu1.real, mu1.imag, mu2.real, mu2.imag = re1, im1, re2, im2
    return mu1, mu2


def _bucket_sums(terms: np.ndarray, bucket: np.ndarray, nb: int) -> np.ndarray:
    """Sum of the terms in each of nb height buckets, one pairwise np.sum
    per bucket over its terms in enumeration order."""
    if nb == 1:
        return np.array([terms.sum()])
    order = np.argsort(bucket, kind="stable")
    grouped = terms[order]
    ends = np.cumsum(np.bincount(bucket, minlength=nb)).tolist()
    return np.array([grouped[lo:hi].sum() for lo, hi in zip([0] + ends[:-1], ends)])


def _chunk_value(z1: complex, z2: complex, m: int, c: int, heights: np.ndarray,
                 term_fn: TermFn) -> np.ndarray:
    """Sums over the det-m matrices with this c >= 0 (with their negations),
    one per height in the sorted, distinct heights: entry j sums the
    matrices with max(|a|, |b|, c, |d|) <= heights[j].

    Only the live points of the largest ball are enumerated, once.  For
    c > 0 the matrices are grouped by g = gcd(a, c), which must divide m:
    a = g a' with a' a unit mod c/g, and a d = m (mod c) forces
    d = d0 (mod c/g) with d0 = (m/g) a'^(-1).  For each a, |d| <= H and
    |b| = |a d - m| / c <= H bound an integer interval of d, so the rows
    are ragged runs of d in steps of c/g along which b steps by a'.  Each
    point goes to the bucket of its height, the buckets are summed
    (_bucket_sums) and the bucket sums accumulated over the heights.
    """
    H = int(heights[-1])
    live = heights[heights >= c]  # every point of this chunk has height >= c
    bucket_of = np.searchsorted(live, np.arange(H + 1)).astype(np.min_scalar_type(live.size))
    total = np.zeros(heights.size, dtype=np.complex128)
    if c == 0:
        b = np.arange(-H, H + 1, dtype=np.int64)
        for a in range(1, H + 1):
            if m % a:
                continue
            d = m // a
            if d > H:
                continue
            # mu for (a, b; 0, d): d w - a z1 - b; the pair (-a, -b; 0, -d)
            # contributes equally, hence the factor 2
            mu1 = d * z2 - a * z1 - b
            mu2 = d * z2.conjugate() - a * z1 - b
            bucket = bucket_of[np.maximum(np.abs(b), max(a, d))]
            total += 2.0 * _bucket_sums(_terms(term_fn, mu1, mu2), bucket, live.size)
        return np.cumsum(total)
    vals = []
    for g in range(1, math.gcd(c, m) + 1):
        if c % g or m % g:
            continue
        cg = c // g
        units, invs = unit_inverse_table(cg)
        if m != g:  # for m = g the inverses already are the d0 residues
            invs = ((m // g) * invs - 1) % cg + 1
        d0_of = np.zeros(cg, dtype=np.int64)  # 0 marks a' that is not a unit
        d0_of[units % cg] = invs
        a_row = np.arange(-(H // g), H // g + 1, dtype=np.int64)  # a' = a / g
        d0 = d0_of[a_row % cg]
        a_row, d0 = a_row[d0 > 0], d0[d0 > 0]
        a = g * a_row
        # m - cH <= a d <= m + cH and |d| <= H as exact integer bounds on d
        abs_a = np.maximum(np.abs(a), 1)
        d_hi = (m + c * H) // abs_a  # floor((m + cH) / |a|)
        d_lo = -((c * H - m) // abs_a)  # ceil((m - cH) / |a|)
        lo = np.maximum(np.where(a > 0, d_lo, -d_hi), -H)
        hi = np.minimum(np.where(a > 0, d_hi, -d_lo), H)
        if cg == 1:  # a = 0 occurs (c | m): then b = -m / c for every d
            hi[a == 0] = H if m <= c * H else -H - 1
        first = lo + (d0 - lo) % cg  # least d >= lo with d = d0 (mod c/g)
        counts = np.maximum((hi - first) // cg + 1, 0)
        b_first = (a * first - m) // c
        ends = np.cumsum(counts)
        start = 0
        while start < a.size:
            # whole rows, at most _BLOCK points unless one row alone is longer
            base = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
            rows, n_rows = slice(start, stop), counts[start:stop]
            start = stop
            n_pts = int(ends[stop - 1]) - base
            if not n_pts:
                continue
            step = np.arange(n_pts, dtype=np.int64)
            step -= np.repeat(ends[rows] - n_rows - base, n_rows)
            a_i = np.repeat(a[rows], n_rows)
            d_i = np.repeat(first[rows], n_rows) + cg * step
            b_i = np.repeat(b_first[rows], n_rows) + np.repeat(a_row[rows], n_rows) * step
            mu1, mu2 = _mu_pair(z1, z2, c, a_i.astype(np.float64), b_i.astype(np.float64),
                                d_i.astype(np.float64))
            bucket = None
            if live.size > 1:
                ht = np.abs(b_i)
                np.maximum(ht, np.abs(d_i), out=ht)
                np.maximum(ht, np.abs(a_i), out=ht)
                bucket = bucket_of[ht]
            vals.append(2.0 * _bucket_sums(_terms(term_fn, mu1, mu2), bucket, live.size))
    if vals:
        total[heights.size - live.size:] = tree_sum(vals)
    return np.cumsum(total)


def ball_sum(z1: complex, z2: complex, m: int, heights, term_fn: TermFn) -> np.ndarray:
    """Sum term_fn(mu1, mu2) over all det-m matrices with height <= h, for
    every h in heights (one value per entry, in the given order).

    One pass over the ball of the largest height: one chunk per c in
    0..max(heights) (see _chunk_value), each giving every height at once,
    combined along the fixed reduction tree of chunked_sum.  A given
    heights tuple always gives the same bits.
    """
    edges = np.unique(np.asarray(heights, dtype=np.int64))

    def chunk(c: int) -> np.ndarray:
        return _chunk_value(z1, z2, m, c, edges, term_fn)

    return chunked_sum(int(edges[-1]) + 1, chunk)[np.searchsorted(edges, heights)]


def _ladder(H: int) -> list[int]:
    """The one height ladder h_j = round(H 2^(-j/4)), j = 0..9: the cutoffs
    h_0..h_4 of _cutoff_spread and the fit heights h_j..h_(j+5) at each."""
    return [round(H * 2.0 ** (-j / 4.0)) for j in range(10)]


def _cutoff_spread(vals) -> tuple[complex, float]:
    """R(h_0) and the one truncation-error rule of every height-ball sum:
    the largest change of R as the cutoff drops along the ladder to
    h_1..h_4, between H/2 and H.  vals holds R at h_0..h_4."""
    return complex(vals[0]), float(max(abs(vals[0] - v) for v in vals[1:5]))


def _refined_ball_value(z1, z2, m, policy: TruncationPolicy, term_fn, decay: float):
    """Ball sum with the policy's refinement at each cutoff h_0..h_4 of
    _cutoff_spread, every rung of the _ladder from one ball_sum.  The
    truncation error behaves like alpha H^(-decay) (1 + O(1/H)): lsq fits
    S + alpha h^(-decay) + beta h^(-decay-1) over the rungs h_j..h_(j+5)
    (limit_fit), averaging out the oscillation of the sharp height cut.
    With no refinement (or decay >= 3) the value is the raw ball sum and
    the spread is divided by 1 - 2^(-decay), as a slow tail exceeds it."""
    rungs = _ladder(policy.H)
    if policy.refine == "none" or decay >= 3.0:
        value, spread = _cutoff_spread(ball_sum(z1, z2, m, rungs[:5], term_fn))
        return value, spread / (1.0 - 2.0 ** -decay)
    if min(len(set(rungs[j:j + 6])) for j in range(5)) < 3:  # one per power
        raise ValueError(f"H = {policy.H} is too small for a fitted sum (need H >= 6)")
    sums = ball_sum(z1, z2, m, rungs, term_fn)
    return _cutoff_spread([limit_fit(rungs[j:j + 6], sums[j:j + 6], (0.0, -decay, -decay - 1.0))
                           for j in range(5)])


def limit_fit(xs, ys, powers) -> complex:
    """Constant term of the least-squares fit ys ~ sum_j c_j xs^powers[j]
    (powers[0] = 0); an exact solve when there are as many xs as powers.

    Every extrapolation in the package is this fit: the height limit of
    the direct sums, the s-limit of _extrapolated and the Psi residue.
    """
    A = np.array([[x**p for p in powers] for x in xs], dtype=np.float64)
    sol, *_ = np.linalg.lstsq(A, np.asarray(ys), rcond=None)
    return complex(sol[0])


def _normalize_pair(z1: complex, z2: complex) -> tuple[complex, complex]:
    """Joint integer translation (z1 - k, z2 - k) with k = round(Re z2).

    The full sums are invariant under simultaneous integer shifts (the
    enumeration reindexes), so truncated values are computed at the
    canonical representative; shifted inputs then give bitwise-identical
    results and the height ball is better centered.
    """
    k = math.floor(z2.real + 0.5)
    return z1 - k, z2 - k


def convergence_warnings(s: float, abscissa: float) -> tuple:
    """The warnings of a series in s that converges absolutely for
    s > abscissa: NotAbsolutelyConvergent below it (where the continuation
    is returned) and within _MARGIN above it."""
    return ("NotAbsolutelyConvergent",) if s <= abscissa + _MARGIN else ()


def _abscissa_warnings(s: float, abscissa: float) -> tuple:
    """ValueError where a series in s diverges, else its warnings."""
    if s <= abscissa:
        raise ValueError(f"the direct sum converges only for s > {abscissa}, got s = {s}")
    return convergence_warnings(s, abscissa)


def _direct_result(z1: complex, z2: complex, policy: TruncationPolicy | None, term_fn: TermFn,
                   decay: float, m: int = 1, s: float | None = None,
                   abscissa: float = 0.0) -> EvalResult:
    """Refined height-ball sum of term_fn over det-m matrices, shared by the
    direct evaluators; decay is the power of H in the truncation error and a
    series in s converges only for s > abscissa (_abscissa_warnings)."""
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    z1, z2 = _normalize_pair(z1, z2)
    policy = policy or TruncationPolicy()
    warnings = () if s is None else _abscissa_warnings(s, abscissa)
    value, err = _refined_ball_value(z1, z2, m, policy, term_fn, decay)
    return accept(value, err, "direct", policy.tol, policy, warnings)


def omega_direct(z1: complex, z2: complex, k: int, m: int = 1,
                 policy: TruncationPolicy | None = None) -> EvalResult:
    """omega_m(z1, conj(z2), k) = sum over det-m matrices of mu2^(-k)."""
    if k < 4 or k % 2:
        raise ValueError("k must be an even integer >= 4")
    return _direct_result(z1, z2, policy, omega_term_fn(k), k - 2.0, m=m)


def xi_direct(z1: complex, z2: complex, n: int, s: float,
              policy: TruncationPolicy | None = None) -> EvalResult:
    """Direct truncated Xi_n(z1, z2, s) over the height ball."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    return _direct_result(z1, z2, policy, xi_term_fn(n, s), 4.0 * s - 2.0 * n - 2.0,
                          s=s, abscissa=(n + 1) / 2.0)


def omega_n_direct(z1: complex, z2: complex, n: int, s: float,
                   policy: TruncationPolicy | None = None) -> EvalResult:
    """Omega_n(z1, conj(z2), s), the weight-2 regularization family."""
    return _direct_result(z1, z2, policy, omega_n_term_fn(n, s), 4.0 * s - 2.0 * n - 2.0,
                          s=s, abscissa=(n + 1) / 2.0)


def psi_direct(which: int, z1: complex, z2: complex, s: float,
               policy: TruncationPolicy | None = None) -> EvalResult:
    """Psi^1 or Psi^2, the positive auxiliary sums (simple pole at s = 1)."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return _direct_result(z1, z2, policy, psi_term_fn(which, s), 4.0 * s - 4.0, s=s, abscissa=1.0)


# ---------------------------------------------------------------------------
# c = 0 series and the c-sliced (k, l) window sums


_TAIL_ORDERS = 11  # orders 0..10 of the 1/nu expansions behind every line tail


def _binom_general(alpha: complex, j: int) -> complex:
    out = 1.0 + 0j
    for i in range(j):
        out *= (alpha - i) / (i + 1)
    return out


def _inverse_expansion(w: complex, n: int, s: float) -> list[complex]:
    """Coefficients e_m of (conj(w) + nu)^n |w + nu|^(-2s) =
    sum_m e_m nu^(n-2s-m) as nu -> +inf; e_m is homogeneous of degree m
    in (w, conj w), so nu -> -nu multiplies order m by (-1)^(n+m)."""
    wb = w.conjugate()
    return [sum(_binom_general(n - s, j) * _binom_general(-s, m - j) * wb**j * w ** (m - j)
                for j in range(m + 1))
            for m in range(_TAIL_ORDERS)]


def _line_tail(coefs, p: float, B: int, parity: int) -> tuple[complex, float]:
    """(tail, bound) of sum_{|nu| > B} f(nu), f(nu) = sum_m coefs[m] nu^(-p-m)
    for nu > 0, order m times (-1)^(parity+m) for nu < 0.

    The orders that survive the +-nu symmetry are summed through
    hurwitz_tail, which continues them analytically where p + m <= 1 (and
    raises PoleAt where p + m = 1); the first omitted one is the bound.
    """
    orders = [m for m in range(len(coefs)) if (parity + m) % 2 == 0]
    a = B + 1
    tail = 2.0 * sum(coefs[m] * hurwitz_tail(p + m, a) for m in orders[:-1])
    return tail, 2.0 * abs(coefs[orders[-1]] * hurwitz_tail(p + orders[-1], a))


def _line_result(terms: np.ndarray, weight: float, coefs, p: float, B: int, parity: int,
                 policy: TruncationPolicy, warnings, where: str) -> EvalResult:
    """weight * (sum of the |nu| <= B terms + their _line_tail)."""
    try:
        tail, tail_err = _line_tail(coefs, p, B, parity)
    except PoleAt:
        raise PoleAt(where, f"{where}: the continued series has a pole at this s") from None
    value = weight * (complex(np.sum(terms)) + tail)
    err = weight * tail_err + 2e-16 * float(np.sum(np.abs(terms)))
    return accept(value, err, "direct", policy.tol, policy, warnings)


def s_series_direct(z: complex, n: int, s: float,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """S_n(z, 0, s) = sum over nu in Z of (conj(z) + nu)^n / |z + nu|^(2s).

    The terms with |nu| <= B are summed and the rest is _line_tail of
    _inverse_expansion(z).  Below the abscissa (n + 1)/2 this returns the
    analytic continuation in s (with NotAbsolutelyConvergent); its poles,
    s = (n + 1 - m)/2 for m = n (mod 2), raise PoleAt.
    """
    z = nonzero_imag(z)
    policy = policy or TruncationPolicy()
    warnings = convergence_warnings(s, (n + 1) / 2.0)
    B = policy.B
    nu = np.arange(-B, B + 1, dtype=np.float64)
    base = np.conj(np.complex128(z)) + nu
    abs2 = (z.real + nu) ** 2 + z.imag**2
    if n == 0:
        terms = abs2 ** (-s)
    else:
        terms = base**n * abs2 ** (-s)
    return _line_result(terms, 1.0, _inverse_expansion(z, n, s), 2.0 * s - n, B, n, policy,
                        warnings, f"s_series_direct(n = {n}, s = {s})")


def xi0_direct(z1: complex, z2: complex, n: int, s: float,
               policy: TruncationPolicy | None = None) -> EvalResult:
    """The c = 0 subsum: 2 sum over b in Z of the (1, b; 0, 1) term.

    With nu = -b the term is the product of the S-type summands at
    w = z2 - z1 and w = conj(z2) - z1, so the |b| > B tail is _line_tail
    of the Cauchy product of their _inverse_expansion's.  Below the
    abscissa (2n + 1)/4 this returns the analytic continuation in s (with
    NotAbsolutelyConvergent); its poles, s = (2n + 1 - m)/4 for even m,
    raise PoleAt.

    The printed form of this subsum folds b with -b at equal value, which
    only holds on symmetric points; the exact subsum is kept (it is the
    one the full enumeration reproduces) and equals the printed one there.
    """
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    policy = policy or TruncationPolicy()
    warnings = convergence_warnings(s, (2.0 * n + 1.0) / 4.0)
    B = policy.B
    b = np.arange(-B, B + 1, dtype=np.float64)
    terms = _terms(xi_term_fn(n, s), z2 - z1 - b, np.conj(np.complex128(z2)) - z1 - b)
    e1 = _inverse_expansion(z2 - z1, n, s)
    e2 = _inverse_expansion(z2.conjugate() - z1, n, s)
    coefs = [sum(e1[j] * e2[m - j] for j in range(m + 1)) for m in range(_TAIL_ORDERS)]
    return _line_result(terms, 2.0, coefs, 4.0 * s - 2.0 * n, B, 0, policy, warnings,
                        f"xi0_direct(n = {n}, s = {s})")


def xic_direct(z1: complex, z2: complex, n: int, s: float,
               policy: TruncationPolicy | None = None, shifted: bool = False) -> EvalResult:
    """The c > 0 part of Xi_n, one c at a time for c = 1..C (s > (n + 1)/2).

    Unshifted sums the true terms over the height ball with xi_direct's
    chunk kernel, halved (xi_direct pairs c with -c), so xi0 + 2 xic
    reproduces xi_direct at matched cutoffs; C is capped at H and scales with
    it in the error, _cutoff_spread of the raw sums in H.  Shifted drops the
    1/c offset of both kernels (the Fourier-assembled series), sums
    xic_slice's rectangular |k|, |l| <= H windows and takes _cutoff_spread
    of the partial sums in C.
    """
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    policy = policy or TruncationPolicy()
    warnings = _abscissa_warnings(s, (n + 1) / 2.0)
    if shifted:
        vals = [xic_slice(z1, z2, c, n, s, policy.H, shifted=True) for c in range(1, policy.C + 1)]
        value, err = _cutoff_spread([tree_sum(vals[:c]) for c in _ladder(policy.C)[:5]])
    else:
        term_fn, hs = xi_term_fn(n, s), _ladder(policy.H)[:5]
        edges, cm = np.unique(hs), min(policy.C, policy.H)
        chunks = [_chunk_value(z1, z2, 1, c, edges, term_fn) / 2.0 for c in range(1, cm + 1)]
        value, err = _cutoff_spread([
            tree_sum([ch[np.searchsorted(edges, h)] for ch in chunks[:cm * h // policy.H]])
            for h in hs])
    return accept(value, err, "direct", policy.tol, policy, warnings)


def xic_slice(z1: complex, z2: complex, c: int, n: int, s: float, K: int,
              shifted: bool = False) -> complex:
    """One c-slice of the c > 0 Xi_n sum (determinant 1) over the (a0, k, l)
    parametrization a = -a0 + c k, d = d0 + c l with a0 d0 = -1 (mod c).

    With U = c z1 + d, v = z2 - a/c and h = 1/c the kernels are
    mu1 = U v + h and mu2 = U conj(v) + h (a/c is real), and the Xi_n term is
    conj(P)^n |P|^(-2s) with P = mu1 mu2.  The window is |k|, |l| <= K,
    centred on the points so that integer shifts of z1, z2 reindex it
    exactly.

    shifted drops the offset h, so P = U^2 |v|^2 and the window sum
    factorizes exactly:

        sum_a0 [sum_l conj(U)^(2n) |U|^(-4s)] [sum_k |v|^(2n-4s)],

    at O(phi(c) K) cost.

    The true terms are summed over the 2-D window in cache-sized blocks.
    P = U^2 |v|^2 + 2 h U Re(v) + h^2 has rank 3 in (l, k), so
    Re P and Im P come out of two small matrix products with real factors;
    then w = (|P|^2)^(-s) and the slice is conj(sum P^n w).
    """
    units, invs = unit_inverse_table(c)
    # d0 is the 1..c representative of -a0^(-1) (mod c)
    d0 = (-invs) % c
    d0[d0 == 0] = c
    a0 = units.astype(np.float64)[:, None]
    dd = d0.astype(np.float64)[:, None]
    # center the windows on the points so integer shifts of z1, z2
    # are exact reindexings of the truncated sum
    k_off = np.round(z2.real + a0 / c)
    l_off = np.round(-z1.real - dd / c)
    kk = np.arange(-K, K + 1, dtype=np.float64)
    U = c * ((z1 + dd / c + l_off) + kk)  # c z1 + d, axis 1 = l
    v = (z2 + a0 / c - k_off) - kk  # z2 - a/c, axis 1 = k
    X, Y = U.real, U.imag
    v_re = v.real
    v_abs2 = v_re**2 + v.imag**2
    if shifted:
        su = (X**2 + Y**2) ** (-2.0 * s)
        if n:
            su = np.conj(U) ** (2 * n) * su
        sv = v_abs2 ** (n - 2.0 * s)
        return complex(np.sum(np.sum(su, axis=1) * np.sum(sv, axis=1)))
    h = 1 / c
    # P = L @ R over (l, k): rows [X^2 - Y^2, 2hX, h^2] (Re) and
    # [2XY, 2hY] (Im) against columns [|v|^2, Re v, 1]
    right = np.stack([v_abs2, v_re, np.ones_like(v_re)], axis=1)
    left_re = np.stack([X * X - Y * Y, 2.0 * h * X, np.full_like(X, h * h)], axis=2)
    left_im = np.stack([2.0 * X * Y, 2.0 * h * Y], axis=2)
    nk = kk.size
    rows = max(1, _SLICE_BLOCK // nk**2)
    l_step = max(1, _SLICE_BLOCK // nk)  # splits l only when one unit overfills a block
    total = []
    for i in range(0, units.size, rows):
        r = slice(i, i + rows)
        for j in range(0, nk, l_step):
            lw = slice(j, j + l_step)
            re = left_re[r, lw] @ right[r]
            im = left_im[r, lw] @ right[r, :2]
            w = np.square(re)
            w += np.square(im)
            w **= -s
            if n == 0:
                total.append(complex(np.sum(w)))
                continue
            pr, pi = re, im
            for _ in range(n - 1):
                pr, pi = pr * re - pi * im, pr * im + pi * re
            pr *= w
            pi *= w
            total.append(complex(np.sum(pr), -np.sum(pi)))
    return tree_sum(total)
