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

import functools
import itertools
import math
from typing import Callable

import numpy as np

from .accumulate import chunked_sum, tree_sum
from .arith import unit_inverse_table
from .errors import NearDiagonal, PoleAt
from .special import hurwitz_tail
from .types import EvalResult, TruncationPolicy, accept, nonzero_imag, upper_half

_MARGIN = 0.1
_BLOCK = 1 << 18  # max lattice points processed at once inside a chunk
_SLICE_BLOCK = 1 << 15  # grid elements per xic_slice / expansion block (cache-sized)
_OFFSET_TAU = 1.0 / 25.0  # tau*: a c-slice with tau_c above it keeps the 2-D true pass
_EPS = 2.0**-53  # u: the offset expansion's truncation (of sum |shifted terms|) and the line sums'


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


def _terms(term_fn: TermFn, mu1: np.ndarray, mu2: np.ndarray,
           mag: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """term_fn(mu1, mu2) and the sum of its |terms| (written to mag);
    NearDiagonal where a term is not finite.

    Only a zero (or underflowing) |mu1| does that: z2 is, to double
    precision, the image of z1 under a det-m matrix (z1 = z2 for the
    identity).  The xi, omega_n and psi terms divide by |mu1| there, while
    omega's mu2-only term stays finite and is summed as usual.
    """
    with np.errstate(all="ignore"):
        terms = term_fn(mu1, mu2)
    scale = np.add.reduce(np.abs(terms, out=mag))
    if not math.isfinite(scale) and not np.isfinite(terms).all():  # finite sum: finite terms
        raise NearDiagonal("term not finite: z2 is (nearly) the image of z1 under a lattice matrix")
    return terms, scale


class _Workspace:
    """The per-point arrays of one ball sum, grown to the largest block and
    reused by every later one, so a call allocates them about once;
    bucket_of[h] indexes the least of the sorted, distinct heights >= h."""

    def __init__(self, heights: np.ndarray):
        self.heights, self.size = heights, 0
        self.bucket_of = np.searchsorted(heights, np.arange(heights[-1] + 1)).astype(
            np.min_scalar_type(heights.size))

    def fit(self, n: int) -> None:
        if n > self.size:
            self.size, self.iota = n, np.arange(n, dtype=np.float64)
            self.pts, self.tmp = np.empty((3, n)), np.empty((3, n))  # pts: a, d, b, exact
            self.index = np.empty(n, dtype=np.intp)
            self.bucket = np.empty((2, n), dtype=self.bucket_of.dtype)  # keys, sorted keys
            self.mu = np.empty((3, n), dtype=np.complex128)  # mu1, mu2, grouped terms


def _mu_pair(z1: complex, z2: complex, c: int, n: int, ws: _Workspace) -> np.ndarray:
    """Rows mu_j = ((d w + c z1 w) - a z1) - b for w = z2 and conj(z2) of
    the first n points of ws (a z1 in the scratch row ws.mu[2])."""
    (a, d, b), mu = ws.pts[:, :n], ws.mu[:, :n]
    az = np.multiply(a, z1, out=mu[2])
    for mu_j, w in zip(mu, (z2, z2.conjugate())):
        np.multiply(d, w, out=mu_j)
        mu_j += c * z1 * w
        mu_j -= az
        mu_j -= b
    return mu[:2]


def _bucket_sums(z1: complex, z2: complex, c: int, n: int, live: int, ws: _Workspace,
                 term_fn: TermFn) -> np.ndarray:
    """Twice the sums of the terms of the first n points of ws in each
    height bucket live, live + 1, ... (heights below c join the first),
    one pairwise sum per bucket over its terms in enumeration order, then
    twice sum |terms|."""
    mu = _mu_pair(z1, z2, c, n, ws)
    terms, scale = _terms(term_fn, mu[0], mu[1], ws.tmp[0, :n])
    if live == ws.heights.size - 1:
        return 2.0 * np.array([np.add.reduce(terms), scale])
    mag = np.abs(ws.pts[:, :n], out=ws.tmp[:, :n])
    np.maximum(np.maximum(mag[0], mag[1], out=mag[0]), mag[2], out=mag[0])
    height = np.maximum(mag[0], c, out=ws.index[:n], casting="unsafe")
    bucket = np.take(ws.bucket_of, height, out=ws.bucket[0, :n], mode="clip")  # clip: unbuffered
    order = np.argsort(bucket, kind="stable")
    grouped = np.take(terms, order, out=ws.mu[2].view(terms.dtype)[:n], mode="clip")
    ends = np.take(bucket, order, out=ws.bucket[1, :n], mode="clip")
    ends = np.searchsorted(ends, np.arange(live + 1, ws.heights.size + 1, dtype=ends.dtype))
    sums = [np.add.reduce(grouped[lo:hi]) for lo, hi in zip([0, *ends[:-1]], ends)]
    return 2.0 * np.array(sums + [scale])


def _chunk_value(z1: complex, z2: complex, m: int, c: int, ws: _Workspace,
                 term_fn: TermFn) -> np.ndarray:
    """Sums over the det-m matrices with this c >= 0 (with their negations),
    one per height in ws.heights: entry j sums the matrices with
    max(|a|, |b|, c, |d|) <= heights[j], and a last entry sums |term| over
    the largest ball.

    The live points of the largest ball are enumerated once, as exact
    floats.  For c > 0 the matrices are grouped by g = gcd(a, c), which
    must divide m: a = g a' with a' = u + k c/g for the units u mod c/g,
    and a d = m (mod c) forces d = d0 (mod c/g), d0 = (m/g) u^(-1).
    |d| <= H and |b| = |a d - m| / c <= H bound d, so the rows are ragged
    runs of d in steps of c/g, summed by _bucket_sums in blocks of whole
    rows of at most _BLOCK points (or one longer row)."""
    heights = ws.heights
    H = int(heights[-1])
    first_live = int(np.searchsorted(heights, c))  # every point here has height >= c
    total = np.zeros(heights.size + 1, dtype=np.complex128)
    for a in [a for a in range(1, min(m, H) + 1) if c == 0 and m % a == 0 and m // a <= H]:
        ws.fit(2 * H + 1)  # the row (a, b; 0, m/a), |b| <= H, summed alone
        ws.pts[:2, :2 * H + 1] = [[a], [m // a]]
        np.subtract(ws.iota[:2 * H + 1], H, out=ws.pts[2, :2 * H + 1])
        total[first_live:] += _bucket_sums(z1, z2, 0, 2 * H + 1, first_live, ws, term_fn)
    vals = []
    for g in range(1, math.gcd(c, m) + 1 if c else 1):
        if c % g or m % g:
            continue
        cg, A = c // g, H // g
        units, invs = unit_inverse_table(cg)
        if m != g:  # for m = g the inverses already are the d0 residues
            invs = ((m // g) * invs - 1) % cg + 1
        # a' = u + k c/g, a row of units per k: ascending once flat, |a'| <= A a slice
        a = np.arange(-(A // cg) - 1, (A - 1) // cg + 1, dtype=np.float64)[:, None] * cg + units
        rows = slice(*np.searchsorted(a.ravel(), (-A, A + 1)).tolist())
        a *= g
        # m - cH <= a d <= m + cH and |d| <= H bound d to [lo, hi]
        q = np.copysign(float(c * H), a)
        div = a if cg > 1 else np.where(a == 0, 1.0, a)  # a = 0 (c | m): b = -m / c
        hi = np.minimum(np.floor((m + q) / div), H)
        lo = np.maximum(np.ceil((m - q) / div), -H)
        if cg == 1:
            lo[A, 0], hi[A, 0] = -H, (H if m <= c * H else -H - 1)
        first = np.ceil((lo - invs) / cg) * cg + invs  # the least d >= lo, d = d0 (mod c/g)
        counts = np.maximum(np.floor((hi - first) / cg) + 1, 0).astype(np.intp).ravel()[rows]
        ends = np.add.accumulate(counts)
        first = first.ravel()[rows] - cg * (ends - counts)  # d = first + cg * (point index)
        a, start = a.ravel()[rows], 0
        while start < a.size:
            base = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
            block, n, start = slice(start, stop), int(ends[stop - 1]) - base, stop
            if n:
                ws.fit(n)
                a_i, d_i, b_i = ws.pts[:, :n]
                np.copyto(a_i, np.repeat(a[block], counts[block]))
                np.multiply(ws.iota[:n], cg, out=d_i)
                d_i += np.repeat(first[block] + cg * base, counts[block])
                np.divide(np.subtract(np.multiply(a_i, d_i, out=b_i), m, out=b_i), c, out=b_i)
                vals.append(_bucket_sums(z1, z2, c, n, first_live, ws, term_fn))
    if vals:
        total[first_live:] = tree_sum(vals)
    total[:-1] = np.cumsum(total[:-1])
    return total


def ball_sum(z1: complex, z2: complex, m: int, heights,
             term_fn: TermFn) -> tuple[np.ndarray, float]:
    """Sum term_fn(mu1, mu2) over all det-m matrices with height <= h, for
    every h in heights (one value per entry, in the given order), and the
    sum of |term| over the ball of the largest height.

    One pass over that ball: one chunk per c in 0..max(heights) (see
    _chunk_value) on one _Workspace, each giving every height at once,
    combined along the fixed reduction tree of chunked_sum.  A given
    heights tuple always gives the same bits.
    """
    edges = np.unique(np.asarray(heights, dtype=np.int64))
    ws = _Workspace(edges)

    def chunk(c: int) -> np.ndarray:
        return _chunk_value(z1, z2, m, c, ws, term_fn)

    sums = chunked_sum(int(edges[-1]) + 1, chunk)
    return sums[np.searchsorted(edges, heights)], float(sums[-1].real)


def _ladder(H: int) -> list[int]:
    """The one height ladder h_j = round(H 2^(-j/4)), j = 0..9: the cutoffs
    h_0..h_4 of _cutoff_spread and the fit heights h_j..h_(j+5) at each."""
    return [round(H * 2.0 ** (-j / 4.0)) for j in range(10)]


def _cutoff_spread(vals) -> tuple[complex, float]:
    """R(h_0) and the largest change of R as the cutoff drops along the
    ladder to h_1..h_4, between H/2 and H.  vals holds R at h_0..h_4."""
    return complex(vals[0]), float(max(abs(vals[0] - v) for v in vals[1:5]))


def _ball_spread(vals, decay: float, abs_sum: float) -> tuple[complex, float]:
    """The one spread rule of every height-ball sum, fitted or raw: the
    _cutoff_spread of values whose truncation error decays like H^(-decay),
    divided by 1 - 2^(-decay) (a slow tail past H exceeds its change over
    H/2..H by up to that factor), plus the round-off floor 2e-16 abs_sum,
    abs_sum the sum of |term| over the largest ball."""
    value, spread = _cutoff_spread(vals)
    return value, spread / (1.0 - 2.0 ** -decay) + 2e-16 * abs_sum


def _refined_ball_value(z1, z2, m, policy: TruncationPolicy, term_fn, decay: float):
    """Ball sum with the policy's refinement at each cutoff h_0..h_4 of
    _cutoff_spread, every rung of the _ladder from one ball_sum, and its
    _ball_spread.  The truncation error behaves like alpha H^(-decay)
    (1 + O(1/H)): lsq fits S + alpha h^(-decay) + beta h^(-decay-1) over
    the rungs h_j..h_(j+5) (limit_fit), averaging out the oscillation of
    the sharp height cut.  With no refinement (or decay >= 3) the values
    are the raw ball sums."""
    rungs = _ladder(policy.H)
    fit = policy.refine == "lsq" and decay < 3.0
    if fit and min(len(set(rungs[j:j + 6])) for j in range(5)) < 3:  # one per power
        raise ValueError(f"H = {policy.H} is too small for a fitted sum (need H >= 6)")
    sums, abs_sum = ball_sum(z1, z2, m, rungs if fit else rungs[:5], term_fn)
    if fit:
        sums = [limit_fit(rungs[j:j + 6], sums[j:j + 6], (0.0, -decay, -decay - 1.0))
                for j in range(5)]
    return _ball_spread(sums, decay, abs_sum)


def limit_fit(xs, ys, powers) -> complex:
    """Constant term of the least-squares fit ys ~ sum_j c_j xs^powers[j]
    (powers[0] = 0); an exact solve when there are as many xs as powers.

    Every extrapolation in the package is this fit: the height limit of
    the direct sums and the s-limit of _extrapolated.
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
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
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
_LINE_WINDOW = 64  # |nu| <= 64: the fixed window whose sum |terms| sizes a line sum's B'


def _inverse_expansion(w: complex, n: int, s: float) -> list[complex]:
    """Coefficients e_m of (conj(w) + nu)^n |w + nu|^(-2s) =
    sum_m e_m nu^(n-2s-m) as nu -> +inf; e_m is homogeneous of degree m
    in (w, conj w), so nu -> -nu multiplies order m by (-1)^(n+m)."""
    orders = range(_TAIL_ORDERS)
    ca, cb = [1.0 + 0j], [1.0 + 0j]  # binomials of n - s and of -s, as running products
    for i in orders[:-1]:
        ca.append(ca[i] * ((n - s - i) / (i + 1)))
        cb.append(cb[i] * ((-s - i) / (i + 1)))
    wb, wp = [w.conjugate() ** j for j in orders], [w**j for j in orders]
    return [sum(ca[j] * cb[m - j] * wb[j] * wp[m - j] for j in range(m + 1)) for m in orders]


def _tail_bound(coefs, p: float, B: int, parity: int) -> float:
    """The first order _line_tail omits, the last m = parity (mod 2) of coefs."""
    m = len(coefs) - 1 - (len(coefs) - 1 + parity) % 2
    return 2.0 * abs(coefs[m] * hurwitz_tail(p + m, B + 1))


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
    return tail, _tail_bound(coefs, p, B, parity)


def _line_result(terms_of: Callable[[np.ndarray], np.ndarray], weight: float, coefs, p: float,
                 B: int, parity: int, k: float, policy, warnings, where: str) -> EvalResult:
    """weight * (sum of the |nu| <= B' terms + their _line_tail), terms_of(nu)
    the terms at the integers nu.  B' is the first of W, 2W, 4W, ... (W =
    min(_LINE_WINDOW, B)), capped at B, whose tail bound is at most u sum
    |terms|; that sum only grows with B', so the window's is a safe stand-in.

    A term within k u of its exact value (the caller's count), summed along
    a balanced tree of depth d = ceil(log2(2B' + 1)), errs by at most
    gamma_(k+d) = (k + d) u/(1 - (k + d) u) of sum |terms| (Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 4.2); the floor is
    gamma_(k+d+1) of sum |terms| + |tail|, the tail taken as one more term.
    """
    try:
        b = min(_LINE_WINDOW, B)
        terms = terms_of(np.arange(-b, b + 1, dtype=np.float64))
        target = _EPS * float(np.sum(np.abs(terms)))
        while b < B and _tail_bound(coefs, p, b, parity) > target:
            b = min(2 * b, B)
        if terms.size < 2 * b + 1:
            terms = terms_of(np.arange(-b, b + 1, dtype=np.float64))
        tail, tail_err = _line_tail(coefs, p, b, parity)
    except PoleAt:
        raise PoleAt(where, f"{where}: the continued series has a pole at this s") from None
    j = (k + (terms.size - 1).bit_length() + 1) * _EPS
    floor = j / (1.0 - j) * (float(np.sum(np.abs(terms))) + abs(tail))
    while terms.size > 1:  # the tree: each level adds the top half onto the bottom
        terms[:terms.size // 2] += terms[(terms.size + 1) // 2:]
        terms = terms[:(terms.size + 1) // 2]
    value = weight * (complex(terms[0]) + tail)
    return accept(value, weight * (tail_err + floor), "direct", policy.tol, policy, warnings)


def s_series_direct(z: complex, n: int, s: float,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """S_n(z, 0, s) = sum over nu in Z of (conj(z) + nu)^n / |z + nu|^(2s).

    The terms with |nu| <= B' are summed (_line_result) and the rest is
    _line_tail of _inverse_expansion(z).  Below the abscissa (n + 1)/2 this
    returns the analytic continuation in s (with NotAbsolutelyConvergent);
    its poles, s = (n + 1 - m)/2 for m = n (mod 2), raise PoleAt.

    A term is within (4|s| + 7n + 8) u: 4 roundings in |z + nu|^2, to the
    -s; 4 ulp in pow; 1 in conj(z) + nu, to the n; 2(n - 1) complex
    products in its power (sqrt(2) gamma_2 each); 1 in the product.
    """
    z = nonzero_imag(z)
    policy = policy or TruncationPolicy()
    warnings = convergence_warnings(s, (n + 1) / 2.0)

    def terms_of(nu: np.ndarray) -> np.ndarray:
        abs2 = (z.real + nu) ** 2 + z.imag**2
        return abs2 ** (-s) if n == 0 else (np.conj(np.complex128(z)) + nu) ** n * abs2 ** (-s)

    return _line_result(terms_of, 1.0, _inverse_expansion(z, n, s), 2.0 * s - n, policy.B, n,
                        4.0 * abs(s) + 7.0 * n + 8.0, policy, warnings,
                        f"s_series_direct(n = {n}, s = {s})")


def xi0_direct(z1: complex, z2: complex, n: int, s: float,
               policy: TruncationPolicy | None = None) -> EvalResult:
    """The c = 0 subsum: 2 sum over b in Z of the (1, b; 0, 1) term.

    With nu = -b the term is the product of the S-type summands at
    w = z2 - z1 and w = conj(z2) - z1, so the |b| > B' tail is _line_tail
    of the Cauchy product of their _inverse_expansion's (_line_result).
    Below the abscissa (2n + 1)/4 this returns the analytic continuation in
    s (with NotAbsolutelyConvergent); its poles, s = (2n + 1 - m)/4 for
    even m, raise PoleAt.

    A term is within (9|s| + 11n + 8) u: 9 roundings in |mu1|^2 |mu2|^2, to
    the -s; 4 ulp in pow; 2 u + sqrt(2) gamma_2 in conj(mu1 mu2), to the n;
    2(n - 1) complex products in its power; 1 in the product.

    The printed form of this subsum folds b with -b at equal value, which
    only holds on symmetric points; the exact subsum is kept (it is the
    one the full enumeration reproduces) and equals the printed one there.
    """
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    policy = policy or TruncationPolicy()
    warnings = convergence_warnings(s, (2.0 * n + 1.0) / 4.0)
    w1, w2 = z2 - z1, np.conj(np.complex128(z2)) - z1
    e1, e2 = _inverse_expansion(w1, n, s), _inverse_expansion(complex(w2), n, s)
    coefs = [sum(e1[j] * e2[m - j] for j in range(m + 1)) for m in range(_TAIL_ORDERS)]
    return _line_result(lambda b: _terms(xi_term_fn(n, s), w1 - b, w2 - b)[0], 2.0, coefs,
                        4.0 * s - 2.0 * n, policy.B, 0, 9.0 * abs(s) + 11.0 * n + 8.0, policy,
                        warnings, f"xi0_direct(n = {n}, s = {s})")


def xic_direct(z1: complex, z2: complex, n: int, s: float,
               policy: TruncationPolicy | None = None, shifted: bool = False) -> EvalResult:
    """The c > 0 part of Xi_n, one c at a time for c = 1..C (s > (n + 1)/2).

    Unshifted sums the true terms over the height ball with xi_direct's
    chunk kernel, halved (xi_direct pairs c with -c), so xi0 + 2 xic
    reproduces xi_direct at matched cutoffs; C is capped at H and scales with
    it in the error, _ball_spread of the sums in H (decay 4s - 2n - 2, as
    xi_direct's).  Shifted drops the
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
        ws, cm = _Workspace(np.unique(hs)), min(policy.C, policy.H)
        chunks = [_chunk_value(z1, z2, 1, c, ws, term_fn) / 2.0 for c in range(1, cm + 1)]
        value, err = _ball_spread([
            tree_sum([ch[np.searchsorted(ws.heights, h)] for ch in chunks[:cm * h // policy.H]])
            for h in hs], 4.0 * s - 2.0 * n - 2.0, tree_sum([ch[-1] for ch in chunks]).real)
    return accept(value, err, "direct", policy.tol, policy, warnings)


@functools.lru_cache(maxsize=1024)
def _unit_rows(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the units a0 mod c and of d0, the 1..c representative of
    -a0^(-1) (mod c), as floats: one row per unit of a c-slice."""
    units, invs = unit_inverse_table(c)
    d0 = (-invs) % c
    d0[d0 == 0] = c
    rows = units.astype(np.float64)[:, None], d0.astype(np.float64)[:, None]
    for col in rows:
        col.flags.writeable = False  # cached: every caller reads the same arrays
    return rows


def _window_axes(z1: complex, z2: complex, c, a0: np.ndarray, d0: np.ndarray,
                 K: int) -> tuple[np.ndarray, np.ndarray]:
    """U = c z1 + d along l and v = z2 - a/c along k, |k|, |l| <= K, one row
    per unit (c is an int or a column, one c per row).  The windows are
    centred on the points, so integer shifts of z1, z2 are exact
    reindexings of the truncated sum."""
    k_off = np.round(z2.real + a0 / c)
    l_off = np.round(-z1.real - d0 / c)
    kk = np.arange(-K, K + 1, dtype=np.float64)
    U = np.empty((a0.shape[0], kk.size), dtype=np.complex128)
    v = np.empty_like(U)
    # real and imaginary parts apart: the bits of the complex expressions
    # c ((z1 + d0/c + l_off) + kk) and (z2 + a0/c - k_off) - kk
    np.multiply(c, (z1.real + d0 / c + l_off) + kk, out=U.real)
    U.imag = c * z1.imag
    np.subtract((z2.real + a0 / c) - k_off, kk, out=v.real)
    v.imag = z2.imag
    return U, v


def _u_weights(U: np.ndarray, n: int, s: float) -> np.ndarray:
    """conj(U)^(2n) |U|^(-4s), the l-side factor of a shifted term."""
    w = (U.real**2 + U.imag**2) ** (-2.0 * s)
    return np.conj(U) ** (2 * n) * w if n else w


def _block_views(bufs, shape) -> list[np.ndarray]:
    """Contiguous views of the given shape on the heads of flat buffers, so
    a block reuses them (out=) and sums in the order of a fresh array."""
    size = math.prod(shape)
    return [b[:size].reshape(shape) for b in bufs]


def xic_slice(z1: complex, z2: complex, c: int, n: int, s: float, K: int,
              shifted: bool = False) -> complex:
    """One c-slice of the c > 0 Xi_n sum (determinant 1) over the (a0, k, l)
    parametrization a = -a0 + c k, d = d0 + c l with a0 d0 = -1 (mod c).

    With U = c z1 + d, v = z2 - a/c and h = 1/c the kernels are
    mu1 = U v + h and mu2 = U conj(v) + h (a/c is real), and the Xi_n term is
    conj(P)^n |P|^(-2s) with P = mu1 mu2.  The window is |k|, |l| <= K,
    centred on the points (_window_axes).

    shifted drops the offset h, so P = U^2 |v|^2 and the window sum
    factorizes exactly:

        sum_a0 [sum_l conj(U)^(2n) |U|^(-4s)] [sum_k |v|^(2n-4s)],

    at O(phi(c) K) cost.

    The true terms are summed over the 2-D window in cache-sized blocks
    whose buffers are reused.  P = U^2 |v|^2 + 2 h U Re(v) + h^2 has rank 3
    in (l, k), so Re P and Im P come out of two small matrix products with
    real factors; then w = (|P|^2)^(-s) and the slice is conj(sum P^n w).
    This pass costs O(phi(c) K^2) powers.  The shift correction
    (xic_offset_diffs) takes it only for the few small c whose offset
    bound tau_c = 1/(c^2 y1 y2) exceeds tau* = 1/25; every other c takes
    xic_offset_expansion, the Gegenbauer orders 0 < j + l <= J(c) of each
    term in its offset as 1-D window sums, read from Chebyshev interpolants
    on N nodes (O(N K J^2) plus O(sum phi(c) N) per order) while they cost
    less than the units, else summed at each unit (O(phi(c) K J^2)).
    """
    U, v = _window_axes(z1, z2, c, *_unit_rows(c), K)
    X, Y = U.real, U.imag
    v_re = v.real
    v_abs2 = v_re**2 + v.imag**2
    if shifted:
        return complex(np.sum(np.sum(_u_weights(U, n, s), axis=1)
                              * np.sum(v_abs2 ** (n - 2.0 * s), axis=1)))
    h = 1 / c
    # P = L @ R over (l, k): rows [X^2 - Y^2, 2hX, h^2] (Re) and
    # [2XY, 2hY] (Im) against columns [|v|^2, Re v, 1]
    right = np.stack([v_abs2, v_re, np.ones_like(v_re)], axis=1)
    left_re = np.stack([X * X - Y * Y, 2.0 * h * X, np.full_like(X, h * h)], axis=2)
    left_im = np.stack([2.0 * X * Y, 2.0 * h * Y], axis=2)
    n_units, nk = X.shape
    rows = max(1, _SLICE_BLOCK // nk**2)
    l_step = max(1, _SLICE_BLOCK // nk)  # splits l only when one unit overfills a block
    size = min(rows, n_units) * min(l_step, nk) * nk
    bufs = [np.empty(size) for _ in range(6 if n > 1 else 4)]
    total = []
    for i in range(0, n_units, rows):
        r = slice(i, i + rows)
        for j in range(0, nk, l_step):
            lw = slice(j, j + l_step)
            re, im, w, tmp, *pows = _block_views(bufs, left_re[r, lw].shape[:2] + (nk,))
            np.matmul(left_re[r, lw], right[r], out=re)
            np.matmul(left_im[r, lw], right[r, :2], out=im)
            pr, pi = re, im  # P^n, with w and tmp as scratch
            if n > 1:
                pr, pi = pows
                pr[...], pi[...] = re, im
                for _ in range(n - 1):
                    np.multiply(pr, im, out=tmp)
                    np.multiply(pi, im, out=w)
                    pr *= re
                    pr -= w
                    pi *= re
                    pi += tmp
            np.square(re, out=w)
            w += np.square(im, out=tmp)
            w **= -s
            if n == 0:
                total.append(complex(np.sum(w)))
                continue
            pr *= w
            pi *= w
            total.append(complex(np.sum(pr), -np.sum(pi)))
    return tree_sum(total)


def _offset_order(tau: float, n: int, s: float, J: int = 1) -> int:
    """Order J >= 1 of xic_offset_expansion for a slice whose terms all
    have |tau| <= tau < 1/2: the least J whose omitted orders j + l > J
    are below 2^-53 of |shifted term| in every term.  The bound falls with
    J, so the search may start from any J (from a larger tau's, it only steps down).

    For x in [-1, 1], 1/4 <= |1 - 2 x tau + tau^2| <= 9/4 on |tau| = 1/2,
    so Cauchy's estimate there gives |C_j^(lam)(x)| <= 4^|lam| 2^j, and the
    orders m = j + l > J of a term are at most
    4^(|s| + |s - n|) sum_{m > J} (m + 1) (2 tau)^m times its shifted term.
    """
    if not 0.0 < tau < 0.5:
        raise ValueError(f"the offset expansion needs 0 < tau < 1/2, got {tau}")
    bound, r = 4.0 ** (abs(s) + abs(s - n)), 2.0 * tau
    above = lambda J: bound * r ** (J + 1) * (J + 2 - (J + 1) * r) / (1.0 - r) ** 2 > _EPS
    while J > 1 and not above(J - 1):
        J -= 1
    while above(J):
        J += 1
    return J


def _gegenbauer_orders(p: np.ndarray, r: np.ndarray, lam: float, out: np.ndarray,
                     tmp: np.ndarray) -> np.ndarray:
    """out[j] = (-1)^j C_j^(lam)(x) rho^(-j) for every order j < len(out),
    by the three-term recursion C_j = [2 x (j + lam - 1) C_(j-1)
    - (j + 2 lam - 2) C_(j-2)] / j scaled by (-1/rho)^j: p = -x/rho and
    r = 1/rho^2 (x = u/rho, rho^2 = u^2 + y2^2 need no square root)."""
    out[0] = 1.0
    for j in range(1, len(out)):
        np.multiply(out[j - 1], p, out=out[j])
        out[j] *= 2.0 * (j + lam - 1.0) / j
        if j > 1:
            np.multiply(out[j - 2], r, out=tmp)
            tmp *= (j + 2.0 * lam - 2.0) / j
            out[j] -= tmp
    return out


def _offset_nodes(tau: float, y: float, n: int, s: float) -> int:
    """Chebyshev node count N >= 2 of xic_offset_expansion for slices with
    |tau| <= tau < 1/2 and Im z1, Im z2 >= y: the least N whose
    interpolation error is below 2^-53 of |shifted term| in every term.
    f_jl and g_jl are analytic in |Im xi| < y.  If |f| <= M on the
    Bernstein ellipse E_rho of x = 2 xi, the N-point interpolant errs by
    at most 4 M rho^(1-N)/(rho - 1) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2).  On E_rho of semi-minor axis b = 4y/3,
    each factor w of f_jl's terms has |w| >= y1/3 and lies within q_f =
    3 (1 + D/y) of its value at any unit centre, D = (sqrt(b^2 + 1) + 1)/2;
    g_jl's lie within q_g = 6 D/y + 7 (Cauchy's estimate on |t| = y2/6).
    So M_f M_g <= (q_f q_g)^(2|s| + 2|s-n|) (18 tau)^(j+l) |shifted terms|,
    summed in logs so that no power leaves the float range.
    """
    J = _offset_order(tau, n, s)
    b = 4.0 * y / 3.0
    rho, reach = b + math.hypot(b, 1.0), (math.hypot(b, 1.0) + 1.0) / (2.0 * y)
    q = 3.0 * (1.0 + reach) * (6.0 * reach + 7.0)
    terms = [math.log((m + 1) / (rho - 1.0)) + m * math.log(18.0 * tau) for m in range(1, J + 1)]
    bound = max(terms) + math.log(12.0 * math.fsum(math.exp(t - max(terms)) for t in terms))
    bound += 2.0 * (abs(s) + abs(s - n)) * math.log(q) - math.log(_EPS)  # 3 M_f M_g 4/(rho - 1)
    return 1 + max(1, math.ceil(bound / math.log(rho)))


def _window_sums(z1: complex, z2: complex, c: np.ndarray, a0: np.ndarray, d0: np.ndarray,
                 n: int, s: float, K: int, J: int):
    """Per block of rows r, xic_offset_expansion's window sums over l of
    conj(U)^(2n) |U|^(-4s) t^j conj(t)^l, t = 1/(c U), and over k of
    rho^(2n-4s) A_j B_l, as (r, F, G) with F, G of shape (rows, J + 1, l-orders)."""
    nk, nj = 2 * K + 1, J + 1
    nl = 1 if s == n else nj  # C_l^(0) = 0 for l > 0: at s = n only l = 0 is left
    rows = max(1, _SLICE_BLOCK // (nk * (nj + nl)))  # the orders of both sides
    size = min(rows, a0.shape[0]) * nk
    cbufs = [np.empty(nj * size, dtype=np.complex128) for _ in range(2)]
    rbufs = [np.empty(nj * size) for _ in range(2)]
    row_bufs = [np.empty(size) for _ in range(2)]
    for i in range(0, a0.shape[0], rows):
        r = slice(i, min(i + rows, a0.shape[0]))
        U, v = _window_axes(z1, z2, c[r], a0[r], d0[r], K)
        # order-major (order, row, window) blocks; per-row matrices are strided views
        tp, wtp = _block_views(cbufs, (nj,) + U.shape)
        A, B = _block_views(rbufs, (nj,) + U.shape)
        B = B[:nl]
        r_q, tmp = _block_views(row_bufs, U.shape)
        # F_jl = sum_l w t^j conj(t)^l: (w t^j) @ conj(t^l)^T per row
        tp[0] = 1.0
        np.divide(1.0, c[r] * U, out=tp[1])
        for j in range(2, nj):
            np.multiply(tp[j - 1], tp[1], out=tp[j])
        np.multiply(tp, _u_weights(U, n, s), out=wtp)
        ctp = np.conjugate(tp[:nl], out=tp[:nl])
        F = np.matmul(wtp.transpose(1, 0, 2), ctp.transpose(1, 2, 0))
        # G_jl = sum_k q^(n-2s) A_j B_l
        q = v.real**2 + v.imag**2
        p = -v.real / q
        np.divide(1.0, q, out=r_q)
        _gegenbauer_orders(p, r_q, s, A, tmp)
        if n:
            _gegenbauer_orders(p, r_q, s - n, B, tmp)
            B *= q ** (n - 2.0 * s)
        else:
            np.multiply(A, q ** (-2.0 * s), out=B)
        yield r, F, np.matmul(A.transpose(1, 0, 2), B.transpose(1, 2, 0))


def xic_offset_expansion(z1: complex, z2: complex, cs, n: int, s: float,
                         K: int) -> np.ndarray:
    """xic_slice's true minus shifted window for each c in cs, every term
    expanded in its 1/c offset; each c needs tau_c = 1/(c^2 y1 y2) < 1/2.

    With U = c z1 + d, v = u + i y2 and t = h/U (h = 1/c), the true product
    is P = U^2 q(u + t), q(u) = u^2 + y2^2.  With rho^2 = q(u), x = u/rho
    and tau = -t/rho, the generating function of the Gegenbauer
    polynomials C_j turns each term into

        conj(U)^(2n) |U|^(-4s) rho^(2n-4s)
            * sum_j C_j^(s)(x) tau^j * sum_l C_l^(s-n)(x) conj(tau)^l.

    Its (0, 0) order is the shifted term, so the orders 0 < j + l <= J,
    J = _offset_order(tau_c), sum to true - shifted with no cancellation
    and a truncation below 2^-53 of the sum of |shifted terms|.  Per unit
    they are products c^(2n-4s-2(j+l)) f_jl(xi) g_jl(eta) of the window
    sums over l of conj(w)^(2n) |w|^(-4s) w^(-j) conj(w)^(-l), w = U/c, and
    over k of rho^(2n-4s) A_j B_l, A_j = (-1/rho)^j C_j^(s)(x), B_l the same
    at s - n, at the window centres xi, eta in [-1/2, 1/2].  They depend on
    neither c nor the unit: when the N nodes of _offset_nodes cost less than
    the units, N (2K + 1 + sum phi(c)) < sum phi(c) (2K + 1), f_jl and g_jl
    are summed once at the nodes and each unit reads their Chebyshev
    interpolants, in blocks of units x (N + 4 orders) <= _SLICE_BLOCK:
    O(N K J^2) plus O(sum phi(c) N) per order.  Otherwise (N grows as
    min(Im z1, Im z2) falls) each unit sums its own windows, O(phi(c) K)
    per order.  The 2-D pass costs O(phi(c) K^2) powers at every c.
    """
    cs = list(cs)
    y = z1.imag * z2.imag
    Js = list(itertools.accumulate(cs, lambda J, c: _offset_order(1.0 / (c * c * y), n, s, J),
                                   initial=1))[1:]  # one pass: J(c) does not rise with c
    a0, d0 = zip(*map(_unit_rows, cs))
    sizes = [a.shape[0] for a in a0]
    c_at = np.repeat(np.arange(len(cs)), sizes)  # each unit's index in cs
    c_col = np.asarray(cs, dtype=np.float64)[c_at, None]
    a0, d0 = np.concatenate(a0), np.concatenate(d0)
    units, nk = a0.shape[0], 2 * K + 1
    N = _offset_nodes(1.0 / (min(cs) ** 2 * y), min(z1.imag, z2.imag), n, s)
    orders = lambda J: np.add.outer(np.arange(J + 1), np.arange(1 if s == n else J + 1)).ravel()
    per_unit = N * (nk + units) >= units * nk
    if not per_unit:
        jl = orders(max(Js))
        keep = np.argsort(jl, kind="stable")[:np.count_nonzero(jl <= max(Js))]  # by j + l
        jl, w = jl[keep], keep.size
        fg = np.empty((2 * N - 2, 3 * w))  # f as (re, im) | g, at the nodes and mirrored
        xs = 0.5 * np.cos(np.pi * np.arange(N) / (N - 1))[:, None]
        for r, F, G in _window_sums(complex(0.0, z1.imag), complex(0.0, z2.imag), np.ones_like(xs),
                                    xs, xs, n, s, K, max(Js)):
            fg[r, :2 * w].view(np.complex128)[:] = F.reshape(len(F), -1)[:, keep]
            fg[r, 2 * w:] = G.reshape(len(G), -1)[:, keep]
        fg[N:] = fg[N - 2:0:-1]
        # Chebyshev coefficients: the DCT-I of the node values, an FFT of their even extension
        fg = np.fft.rfft(fg, axis=0).real / (N - 1)
        fg[[0, -1]] /= 2.0
        x = np.concatenate([z1.real + d0 / c_col, z2.real + a0 / c_col], axis=1)
        x = 2.0 * (x - np.round(x))  # 2 xi, 2 eta: the window centres (_window_axes)
        buf = np.empty(2 * max(_SLICE_BLOCK, N))  # a block holds at least one unit
        m_s = 2.0 * n - 4.0 * s - 2.0 * np.arange(max(Js) + 1)  # c^m_s[j + l] once per c, gathered
        c_pows = np.asarray(cs, dtype=np.float64)[:, None] ** m_s
    row_vals = np.empty(units, dtype=np.complex128)
    hi = 0
    for J, run in itertools.groupby(zip(Js, sizes), key=lambda js: js[0]):
        lo, hi = hi, hi + sum(size for _, size in run)
        if per_unit:
            mask = ((orders(J) > 0) & (orders(J) <= J)).astype(np.float64)  # 0 < j + l <= J
            for r, F, G in _window_sums(z1, z2, c_col[lo:hi], a0[lo:hi], d0[lo:hi], n, s, K, J):
                row_vals[lo:hi][r] = (F * G).reshape(len(F), -1) @ mask
            continue
        end = np.searchsorted(jl, J, side="right")  # the orders 0 < j + l <= J
        powers = c_pows[:, jl[1:end]]
        rows = max(1, _SLICE_BLOCK // (N + 4 * end))  # T_p per side, F and G and their product
        for i in range(lo, hi, rows):
            m = min(rows, hi - i)
            T = buf[:2 * N * m].reshape(N, 2 * m)  # T_p(2 xi) | T_p(2 eta), by recurrence
            T[0], T[1] = 1.0, x[i:i + m].T.ravel()
            two_x = 2.0 * T[1]
            for p in range(2, N):
                np.multiply(T[p - 1], two_x, out=T[p])
                T[p] -= T[p - 2]
            F = (T[:, :m].T @ fg[:, 2:2 * end]).view(np.complex128)
            G = (T[:, m:].T @ fg[:, 2 * w + 1:2 * w + end]) * powers[c_at[i:i + m]]
            row_vals[i:i + m] = np.sum(F * G, axis=1)
    return np.add.reduceat(row_vals, np.cumsum([0] + sizes[:-1]))


def xic_offset_diffs(z1: complex, z2: complex, n: int, s: float, C: int,
                     K: int) -> list[complex]:
    """xic_slice's true minus shifted window for c = 1..C.

    A c whose offset bound tau_c = 1/(c^2 y1 y2) exceeds _OFFSET_TAU keeps
    the 2-D true pass minus the factorized shifted window; every larger c
    takes xic_offset_expansion.  On Im z >= 1 that is c <= 4 at most, and
    c < 20 at Im z1 = Im z2 = 1/4.
    """
    y = z1.imag * z2.imag
    c0 = 0
    while c0 < C and 1.0 / ((c0 + 1) ** 2 * y) > _OFFSET_TAU:
        c0 += 1
    direct = [xic_slice(z1, z2, c, n, s, K) - xic_slice(z1, z2, c, n, s, K, shifted=True)
              for c in range(1, c0 + 1)]
    return direct + (xic_offset_expansion(z1, z2, range(c0 + 1, C + 1), n, s, K).tolist() if c0 < C else [])
