"""Fourier-side evaluation and s-extrapolation of the lattice series.

The c > 0 series with the 1/c offset removed factors through the power
sums S_n(z, 0, s); inserting their Fourier expansions gives closed forms
for the four coefficient families:

    constant   zeta(4s-2n-1)/zeta(4s-2n) * alpha_0(2s-n) alpha_2n(2s)
               * (y1 y2)^(1+2n-4s)
    z2 modes   alpha_2n(2s) y1^(1+2n-4s) beta_0(r, 2s-n, y2)
               * sigma_(1+2n-4s)(r) / zeta(4s-2n)          x e(r x2)
    z1 modes   alpha_0(2s-n) y2^(1+2n-4s) beta_2n(r', 2s, y1)
               * sigma_(1+2n-4s)(r') / zeta(4s-2n)         x e(r' x1)
    double     beta_0(r, 2s-n, y2) beta_2n(r', 2s, y1)
               * sum_c K(r, -r'; c) c^(2n-4s)              x e(r x2 + r' x1)

with alpha_m / beta_m the constant / r-th Fourier coefficients of
S_m(z, 0, sigma):

    alpha_m(sigma) = 2^(2+m-2 sigma) pi Gamma(2 sigma - m - 1)
                     / (i^m Gamma(sigma) Gamma(sigma - m))
    beta_m(r, sigma, y) = (i sgn r)^m sqrt(pi) 2^(1-m) / Gamma(sigma)
                     * (pi |r|)^(2 sigma - m - 1)
                     * Phi_sgn(r)(pi |r| y, m, sigma - m - 1/2)

The Kloosterman argument pairing K(r, -r'; c) follows from the residue
bookkeeping a = -a0 + ck, d = d0 + cl, a0 d0 = -1 (mod c); the commonly
printed variant with K(r, r'; c) and swapped double-mode phases is kept
behind pairing="printed" for the overlap experiment that rejects it.

At the edge s = (n + 1)/2 of the direct sum's convergence, n >= 1, the
constant family is a 0 * inf limit: zeta(4s-2n-1) has a simple pole
exactly where alpha_2n(2s) has a simple zero (the last linear factor
2s-n-1 of alpha_const), and

    lim (2s-n-1) zeta(4s-2n-1) = 1/2   as s -> (n + 1)/2,

so zeta(4s-2n-1) alpha_2n(2s) -> -pi/(2n) and the constant term tends to
-3 / (n y1 y2); the z2 modes carry the zero without the pole and vanish.

There the double modes' Kloosterman zeta has exponent 4s - 2n = 2, where
a partial sum to C converges only like C^(-1/2).  Petersson's formula at
weight 2 and Rademacher's exact coefficients of j_m turn each entry into a
rapidly convergent sum with a rigorous tail (_edge_zeta); entries whose
closed form cancels beyond double precision keep the partial sum.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .accumulate import tree_sum
from .arith import divisor_sieve, divisor_sigma, divisors, kloosterman_sums
from .errors import PoleAt
from .modforms import j_q_series
from .special import (bessel_i1, bessel_j1, gamma_fn, hurwitz_tail, phi_factor, rgamma, zeta_fn,
                      zeta_near_one)
from .latsum import (convergence_warnings, limit_fit, omega_n_direct, xi0_direct, xi_direct,
                     xic_offset_diffs)
from .types import (EvalResult, FourierAssemblyConfig, TruncationPolicy, accept, nonzero_imag,
                    upper_half)

_SQRT_PI = math.sqrt(math.pi)


def alpha_const(m: int, sigma: float) -> complex:
    """Constant Fourier coefficient of S_m(z, 0, sigma) (the y^(1+m-2 sigma)
    prefactor): the Gamma ratio of the module docstring after Legendre
    duplication,

        sqrt(pi) Gamma(sigma - k - 1/2) prod_{j<k} (sigma - m + j) / (i^m Gamma(sigma)),

    k = floor(m/2).  Gamma's poles fall at half-integers and the product's
    zeros at integers, so no two coincide."""
    return _alpha_head(m, sigma, m // 2)


def _alpha_head(m: int, sigma: float, k: int) -> complex:
    """alpha_m(sigma) with only the first k of its floor(m/2) linear factors."""
    lin = math.prod(sigma - m + j for j in range(k))
    return (-1j) ** m * _SQRT_PI * gamma_fn(sigma - m // 2 - 0.5) * rgamma(sigma) * lin


def beta_modes(m: int, rs, sigma: float, y: float, kvals: dict) -> list[complex]:
    """The r-th Fourier coefficient beta_m(r, sigma, y) of S_m(z, 0, sigma) at
    height y for each r != 0 of rs, with the r-independent prefactor taken
    once and each Bessel value once across the Phi values that share kvals
    (special.phi_factor)."""
    if 0 in rs:
        raise ValueError("beta_modes needs r != 0")
    # the i^m prefactor is sign-independent: the sgn = -1 reduction to the
    # Phi form picks up (-1)^m, cancelling the (-i)^m from u -> -u
    head = 1j**m * _SQRT_PI * 2.0 ** (1 - m) * rgamma(sigma)
    return [head * (math.pi * abs(r)) ** (2.0 * sigma - m - 1.0)
            * phi_factor(1 if r > 0 else -1, math.pi * abs(r) * y, m, sigma - m - 0.5, kvals)
            for r in rs]


def s_series_fourier(z: complex, n: int, s: float, R: int = 20) -> EvalResult:
    """S_n(z, 0, s) through its Fourier expansion.

    The expansion is finite below the abscissa (n + 1)/2 too, where it is
    the analytic continuation in s that s_series_direct also returns; both
    warn by latsum.convergence_warnings.  Its poles, s = (n + 1 - m)/2 for
    m = n (mod 2), are the poles of alpha_const and raise PoleAt.
    """
    z = nonzero_imag(z)
    conjugate = z.imag < 0
    if conjugate:
        z = z.conjugate()
    warnings = convergence_warnings(s, (n + 1) / 2.0)
    y = z.imag
    x = z.real
    try:
        total = alpha_const(n, s) * y ** (1.0 + n - 2.0 * s)
    except PoleAt:
        where = f"s_series_fourier(n = {n}, s = {s})"
        raise PoleAt(where, f"{where}: the continued series has a pole at this s") from None
    betas = beta_modes(n, _modes(R + 1), s, y, {})
    for rr, beta in zip(_modes(R), betas):
        total += beta * cmath.exp(2j * math.pi * rr * x)
    # the first omitted mode bounds the tail by exponential decay
    err = 2.0 * max(abs(betas[-2]), abs(betas[-1]))
    value = total.conjugate() if conjugate else total
    return EvalResult(value=value, err_estimate=err, method="fourier", warnings=warnings)


# ---------------------------------------------------------------------------
# Kloosterman zeta


@functools.lru_cache(maxsize=64)
def _kloosterman_zeta_cached(rs: tuple, rps: tuple, exponent: float, C: int,
                             pairing: str) -> tuple:
    """Matrix Z[i, j] = sum_c K(r_i, -r'_j; c) / c^exponent (K(r_i, r'_j; c)
    for pairing="printed"), returned with the matrix of its error bounds.

    Away from exponent 2 the sum stops at C, with the Weil tail bound
    sqrt(max(1, min(|r_i|, |r'_j|))) * tail(C); at exponent 2, _edge_zeta.
    The K_c come from arith.kloosterman_sums, one FFT row per prime power q,
    built once in O(q log q), and K(a, b; c) = prod_i K(a, b u_i*^2; q_i)
    over c = prod_i q_i, u_i = c / q_i mod q_i.
    """
    sign = -1 if pairing == "derived" else 1
    r_arr = np.array(rs, dtype=np.int64)
    rp_arr = np.array(rps, dtype=np.int64) * sign
    if exponent == 2.0:
        return tuple(tuple(map(tuple, M)) for M in _edge_zeta(r_arr, rp_arr, C))
    Z = np.zeros((len(rs), len(rps)), dtype=np.complex128)
    for c, K in kloosterman_sums(C, r_arr, rp_arr):
        Z += K * c ** (-exponent)
    a_min = np.minimum.outer(np.abs(r_arr), np.abs(rp_arr))
    tails = np.sqrt(np.maximum(1, a_min)) * _weil_zeta_tail(exponent, C)
    return tuple(map(tuple, Z)), tuple(map(tuple, tails))


def _edge_zeta(a: np.ndarray, b: np.ndarray, C: int) -> tuple[np.ndarray, np.ndarray]:
    """Z[i, j] = sum_c K(a_i, b_j; c) / c^2 and its bounds, each entry from
    whichever of two forms has the smaller bound, both summed over
    c <= C' = min(C, 4 ceil(4 pi max |r|)) in one kloosterman_sums pass.

    The closed form: with x = 4 pi sqrt|a b| and B = J_1 for a b > 0
    (Petersson's formula at weight 2, where S_2(SL_2(Z)) = 0, rhs =
    delta_(|a|,|b|) / (2 pi)), B = I_1 for a b < 0 (Rademacher's, rhs =
    c_m(n) / (2 pi sqrt(m/n)), (m, n) = (|a|, |b|), c_m(n) the q^n
    coefficient of j_m = q^-m + O(q)),

        sum_c K/c B(x/c) = rhs,  so  Z = (2/x) [rhs - sum_c K/c (B(x/c) - x/(2c))].

    For C' >= x, |B(t) - t/2| <= t^3/15 (t <= 1) and Weil's bound give the
    tail (2 x^2/15) sqrt(max(1, min)) _weil_zeta_tail(4, C'), and the
    round-off adds eps (2/x) (|rhs| + sum_c (|K| + sqrt c)/c (|B| + x/(2c))),
    eps = (C' + 128) u: the bound (C' - 1) u of the running sums over c,
    with room for the Bessel values' and the FFT sums' own round-off.  With
    B = I_1 that term grows like e^x / x^(3/2), so entries with large |a b|
    keep the other form, the partial sum with its Weil tail.
    """
    C = min(C, 4 * math.ceil(4 * math.pi * max(np.abs(a).max(), np.abs(b).max())))
    ab = np.multiply.outer(a, b)
    keys, col = np.unique(ab, return_inverse=True)
    col = col.reshape(ab.shape)
    xs = 4.0 * math.pi * np.sqrt(np.abs(keys))
    live = (xs <= C) & ((keys > 0) | (xs <= 700.0))  # I_1 overflows past e^709
    t = xs / np.arange(1, C + 1)[:, None]
    B = np.zeros_like(t)
    for kind, bessel in ((keys > 0, bessel_j1), (keys < 0, bessel_i1)):
        B[:, live & kind] = bessel(t[:, live & kind])
    D, mag = B - t / 2.0, np.abs(B) + t / 2.0
    Z = np.zeros(ab.shape, dtype=np.complex128)
    S, M = np.zeros(ab.shape), np.zeros(ab.shape)
    for c, K in kloosterman_sums(C, a, b):
        Z += K * c ** -2.0
        S += K / c * D[c - 1, col]
        M += (np.abs(K) + math.sqrt(c)) / c * mag[c - 1, col]
    x = xs[col]
    root = np.sqrt(np.maximum(1, np.minimum.outer(np.abs(a), np.abs(b))))
    partial = root * _weil_zeta_tail(2.0, C)
    eps = (C + 128) * 2.0**-53
    rounding = eps * 2.0 / x * M
    candidate = live[col] & (rounding < partial)
    # c_1(k) up to the largest |a b| that may still take Rademacher's formula
    c1 = j_q_series(int(-ab[candidate & (ab < 0)].min(initial=0)) + 1).coeffs[1:]
    rhs = np.zeros(ab.shape)  # (2/x) rhs
    for i, j in zip(*np.nonzero(candidate)):
        m, n = abs(int(a[i])), abs(int(b[j]))
        q = float(m == n) if ab[i, j] > 0 else _jm_coefficient(m, n, c1) * math.sqrt(n / m)
        rhs[i, j] = q / (math.pi * x[i, j])
    closed = (2.0 * x**2 / 15.0) * root * _weil_zeta_tail(4.0, C) + rounding + eps * np.abs(rhs)
    take = candidate & (closed < partial)
    return np.where(take, rhs - 2.0 / x * S, Z), np.where(take, closed, partial)


def _jm_coefficient(m: int, n: int, c1) -> int:
    """c_m(n), the q^n coefficient of j_m = q^-m + O(q), m, n >= 1, from the
    coefficients c1[k] = c_1(k) of j_1 = j - 744 (k <= m n) by Hecke's
    formula sum_(d | (m, n)) (m/d) c_1(m n / d^2), exactly."""
    return sum(m // d * c1[m * n // (d * d)] for d in divisors(math.gcd(m, n)))


def _weil_zeta_tail(exponent: float, C: int) -> float:
    """sum_{c > C} d(c) c^(1/2 - exponent), via zeta^2.

    The partial sum runs left to right over c, as the plain sum
    sum(d(c) c^(-p) for c <= C) does, so the tail is bit-identical to it.
    """
    p = exponent - 0.5
    if p <= 1.0:
        return math.inf
    partial = sum(dc * c ** (-p) for c, dc in enumerate(divisor_sieve(C).tolist(), 1))
    return max(abs(zeta_fn(p)) ** 2 - partial, 0.0)


# ---------------------------------------------------------------------------
# Coefficient families


def _zeta_ratio_times_alpha2n(n: int, s: float, zeta_2n: complex | None = None) -> complex:
    """zeta(4s-2n-1)/zeta(4s-2n) * alpha_2n(2s), stable at the edge s = (n+1)/2.

    For n >= 1 the last linear factor of alpha_2n(2s) is 2s-n-1 = u/2 with
    u = 4s-2n-2, and zeta(4s-2n-1) = zeta(1+u) has its pole at u = 0; the
    product (u/2) zeta(1+u) is evaluated through the Laurent expansion of
    zeta near 1 and tends to 1/2.  zeta_2n is zeta(4s-2n) if the caller has it.
    """
    zeta_2n = zeta_fn(4.0 * s - 2.0 * n) if zeta_2n is None else zeta_2n
    if n == 0:
        return zeta_fn(4.0 * s - 1.0) / zeta_2n * alpha_const(0, 2.0 * s)
    u = 4.0 * s - 2.0 * n - 2.0
    prod = 0.5 if u == 0 else (u / 2.0) * zeta_near_one(u)
    return complex(prod) * _alpha_head(2 * n, 2.0 * s, n - 1) / zeta_2n


def a0_sum(n: int, s: float, z1: complex, z2: complex, zeta_2n: complex | None = None) -> complex:
    """Constant Fourier term of the shifted c > 0 series (zeta_2n: zeta(4s-2n), if known).

    At the edge s = (n + 1)/2, n >= 1, the zeta pole cancels the zero of
    alpha_2n(2s) and the value is the finite limit -3 / (n Im z1 Im z2).
    """
    y1, y2 = upper_half(z1, "z1").imag, upper_half(z2, "z2").imag
    lead = _zeta_ratio_times_alpha2n(n, s, zeta_2n)
    return lead * alpha_const(0, 2.0 * s - n) * (y1 * y2) ** (1.0 + 2 * n - 4.0 * s)


# ---------------------------------------------------------------------------
# Correction for the removed 1/c offset


def shift_correction(z1: complex, z2: complex, n: int, s: float,
                     cfg: FourierAssemblyConfig) -> tuple[complex, float]:
    """sum over c > 0 terms of [true - shifted], absolutely convergent at
    the boundary (one extra order of decay in every direction).

    Each c-slice over the corr_K window comes from latsum.xic_offset_diffs:
    for the few small c whose offset bound tau_c = 1/(c^2 y1 y2) exceeds
    tau* = 1/25, xic_slice's 2-D true pass minus the factorized shifted
    window; for every other c, xic_offset_expansion, each term's Gegenbauer
    orders 0 < j + l <= J(c) in its 1/c offset as 1-D window sums, read from
    Chebyshev interpolants on N nodes while they cost less than the units
    (O(N K J^2) plus O(sum phi(c) N) per order), else summed at each unit.

    The estimate adds the c-tail past corr_C (_c_tail) and twice the
    change of the slices c <= 5 when the window is halved.
    """
    vals = xic_offset_diffs(z1, z2, n, s, cfg.corr_C, cfg.corr_K)
    half = xic_offset_diffs(z1, z2, n, s, min(5, cfg.corr_C), max(8, cfg.corr_K // 2))
    window_diff = sum(abs(h - v) for h, v in zip(half, vals))
    return tree_sum(vals), _c_tail(vals) + 2.0 * window_diff


def _c_tail(vals) -> float:
    """Estimate of sum_(c > C) of the slices v_c, c = 1..C = len(vals), from
    their 1/c^3 envelope: max over C/2 < c <= C of |v_c| c^3, times
    sum_(c > C) c^(-3).  One slice alone can nearly cancel."""
    C = len(vals)
    envelope = max(abs(v) * c**3 for c, v in enumerate(vals, 1) if 2 * c > C)
    return envelope * hurwitz_tail(3.0, C + 1)


# ---------------------------------------------------------------------------
# Full assembly


def xi_tilde_fourier(z1: complex, z2: complex, n: int, s: float,
                     cfg: FourierAssemblyConfig) -> tuple[complex, float]:
    """Closed-form Fourier sum of the shifted c > 0 series (one copy).

    Each factor is computed once per call: beta_0(r, 2s-n, y2) and
    beta_2n(r', 2s, y1) serve the single and double modes, each Bessel value
    K_order(x) is evaluated once for both, and so are zeta(4s-2n), the heads
    alpha_2n(2s) y1^(1+2n-4s), alpha_0(2s-n) y2^(1+2n-4s) and sigma_(1+2n-4s)(|r|).
    At the edge s = (n + 1)/2, n >= 1, alpha_2n(2s) = 0 and the z2 single
    modes are exactly 0: skipped.
    """
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    x1, x2, y1, y2 = z1.real, z2.real, z1.imag, z2.imag
    R = cfg.R
    rs = _modes(R)
    zeta_2n = zeta_fn(4.0 * s - 2.0 * n)
    total, err = a0_sum(n, s, z1, z2, zeta_2n), 0.0
    expo = 1.0 + 2 * n - 4.0 * s
    head_r = alpha_const(2 * n, 2.0 * s) * y1**expo
    head_rp = alpha_const(0, 2.0 * s - n) * y2**expo
    sigmas = [None] + [divisor_sigma(expo, r) for r in range(1, R + 2)]
    kvals: dict = {}
    b0s = beta_modes(0, rs + ([R + 1] if head_r else []), 2.0 * s - n, y2, kvals)
    b1s = beta_modes(2 * n, rs + [R + 1], 2.0 * s, y1, kvals)
    single = lambda head, beta, r: head * beta * sigmas[abs(r)] / zeta_2n
    if head_r:
        for r, b0 in zip(rs, b0s):
            total += single(head_r, b0, r) * cmath.exp(2j * math.pi * r * x2)
    for rp, b1 in zip(rs, b1s):
        total += single(head_rp, b1, rp) * cmath.exp(2j * math.pi * rp * x1)
    # the single-mode phase assignment (r with Re z2, r' with Re z1) is
    # common to both conventions; "printed" swaps only the double modes
    swap_phases = cfg.pairing == "printed"
    # double modes: batched Kloosterman zeta over the full (r, r') grid
    Z, T = _kloosterman_zeta_cached(tuple(rs), tuple(rs), 4.0 * s - 2.0 * n, cfg.C, cfg.pairing)
    for i, r in enumerate(rs):
        for j, rp in enumerate(rs):
            coeff = b0s[i] * b1s[j]
            phase = r * x1 + rp * x2 if swap_phases else r * x2 + rp * x1
            total += coeff * complex(Z[i][j]) * cmath.exp(2j * math.pi * phase)
            err += abs(coeff) * T[i][j]
    # mode truncation: first omitted single modes
    if head_r:
        err += 2.0 * abs(single(head_r, b0s[-1], R + 1))
    err += 2.0 * abs(single(head_rp, b1s[-1], R + 1))
    return total, err


def _modes(R: int) -> list[int]:
    out = []
    for r in range(1, R + 1):
        out.extend((r, -r))
    return out


def xi_fourier(z1: complex, z2: complex, n: int, s: float,
               cfg: FourierAssemblyConfig | None = None,
               policy: TruncationPolicy | None = None) -> EvalResult:
    """Xi_n(z1, z2, s) by Fourier assembly: the c = 0 series summed
    directly, plus twice the closed-form shifted series and the offset
    correction.  Valid for 0 <= n <= 4 (derivative order 2n <= 8) and
    real s >= max(1, (n + 1)/2); this is the analytic continuation route
    that reaches the edge s = (n + 1)/2 of the direct sum's convergence."""
    if not 0 <= n <= 4:
        raise ValueError(f"assembly supports 0 <= n <= 4, got n = {n}")
    if s < max(1.0, (n + 1) / 2.0):
        raise ValueError(f"assembly is restricted to real s >= max(1, (n + 1)/2), got s = {s}")
    cfg = cfg or FourierAssemblyConfig()
    policy = policy or TruncationPolicy()
    xi0 = xi0_direct(z1, z2, n, s, policy)
    tilde, tilde_err = xi_tilde_fourier(z1, z2, n, s, cfg)
    corr, corr_err = shift_correction(z1, z2, n, s, cfg)
    value = xi0.value + 2.0 * (tilde + corr)
    err = xi0.err_estimate + 2.0 * (tilde_err + corr_err)
    return accept(value, err, "fourier", cfg.tol, cfg)


# ---------------------------------------------------------------------------
# Extrapolation oracle


def _extrapolated(s_target: float, samples: tuple, evaluate, policy, a: float) -> EvalResult:
    """Polynomial extrapolation of evaluate(s) over the samples to s_target:
    limit_fit in x = s - s_target with powers 0..k-1 through the k samples.

    Needs at least 3 distinct samples in (a, a + 0.8], a at or above the
    abscissa of evaluate; the lowest 5 are used (degree at most 4).  The
    error estimate is the shift from dropping the farthest sample, plus the
    sample evaluations' own estimates; the result passes types.accept at
    policy.tol.
    """
    samples = tuple(sorted(set(float(s) for s in samples)))
    if len(samples) < 3:
        raise ValueError("need at least 3 extrapolation samples")
    if any(s <= a or s > a + 0.8 for s in samples):
        raise ValueError(f"samples {samples} must lie in ({a:g}, {a + 0.8:g}], above the abscissa")
    samples = samples[:5]
    evals = [evaluate(s) for s in samples]
    ys = [e.value for e in evals]
    xs = [s - s_target for s in samples]
    full = limit_fit(xs, ys, range(len(xs)))
    dropped = limit_fit(xs[:-1], ys[:-1], range(len(xs) - 1))
    err = abs(full - dropped) + sum(e.err_estimate for e in evals)
    return accept(full, err, "extrapolated", policy.tol, policy)


def xi_extrapolated(z1: complex, z2: complex, n: int = 1, s_target: float = 1.0,
                    samples: tuple | None = None,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """Polynomial extrapolation of direct sums in s down to s_target (see
    _extrapolated) from samples in (a, a + 0.8], by default a + 0.2, a + 0.4
    and a + 0.6, where a = max(1, (n + 1)/2) is the pole or the abscissa."""
    a = max(1.0, (n + 1) / 2.0)
    if samples is None:
        samples = (a + 0.2, a + 0.4, a + 0.6)
    policy = policy or TruncationPolicy()
    return _extrapolated(s_target, samples, lambda s: xi_direct(z1, z2, n, s, policy), policy, a)


def omega2(z1: complex, z2: complex, samples: tuple = (1.15, 1.25, 1.4, 1.6),
           policy: TruncationPolicy | None = None) -> EvalResult:
    """omega_2 = lim_{s -> 1} Omega_1(z1, conj z2, s); vanishes (it is a
    weight-2 cusp form), so the value doubles as a residual diagnostic."""
    policy = policy or TruncationPolicy(H=800, tol=1e-2)
    return _extrapolated(1.0, samples, lambda s: omega_n_direct(z1, z2, 1, s, policy), policy, 1.0)


XI_STAR_COMPLETION = 24.0


def xi_star(z1: complex, z2: complex, cfg: FourierAssemblyConfig | None = None,
            policy: TruncationPolicy | None = None) -> EvalResult:
    """Xi*_1(z1, z2) = Xi_1(z1, z2) (z2 - conj z2) - 24 / (z1 - conj z1),
    the holomorphic weight-2 quasi-modular combination (cocycle
    24 c (c z1 + d)), via the boundary assembly.

    The commonly printed completion constant is 12; finite differences
    show d/d conj(z1) [(z2 - conj z2) Xi_1] = 24 / (z1 - conj z1)^2, so
    only the 24-completion (XI_STAR_COMPLETION) is holomorphic (see
    ERRATA.md).
    """
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    base = xi_fourier(z1, z2, 1, 1.0, cfg, policy)
    value = base.value * (z2 - z2.conjugate()) - XI_STAR_COMPLETION / (z1 - z1.conjugate())
    err = base.err_estimate * abs(z2 - z2.conjugate())
    return EvalResult(value=value, err_estimate=err, method="fourier", policy=base.policy)
