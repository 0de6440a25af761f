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

At s = n = 1 the constant family is a 0 * inf limit: zeta(4s-3) has a
simple pole exactly where alpha_2(2s) has a simple zero, and

    lim (2s-2) zeta(4s-3) = 1/2   as s -> 1,

giving the finite boundary value -3 / (y1 y2) for the constant term.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .accumulate import tree_sum
from .arith import divisor_sieve, divisor_sigma, kloosterman_matrix
from .errors import PoleAt
from .special import gamma_fn, phi_factor, rgamma, zeta_fn, zeta_near_one
from .latsum import (convergence_warnings, limit_fit, omega_n_direct, xi0_direct, xi_direct,
                     xic_slice)
from .types import (EvalResult, FourierAssemblyConfig, PhiArgs, TruncationPolicy, accept,
                    nonzero_imag, upper_half)

_SQRT_PI = math.sqrt(math.pi)


def alpha_const(m: int, sigma: float) -> complex:
    """Constant Fourier coefficient of S_m(z, 0, sigma) (the y^(1+m-2 sigma)
    prefactor), via the moment sum

        (-i)^m sum_p C(m, 2p) (-1)^p Gamma(p+1/2) Gamma(sigma-p-1/2) / Gamma(sigma).
    """
    acc = 0j
    for p in range(m // 2 + 1):
        acc += (
            math.comb(m, 2 * p)
            * (-1.0) ** p
            * gamma_fn(p + 0.5)
            * gamma_fn(sigma - p - 0.5)
        )
    return (-1j) ** m * acc * rgamma(sigma)


def alpha_const_m2(sigma: float) -> tuple[complex, complex]:
    """alpha_2(sigma) split as (factor_without_zero, (sigma - 2)) so the
    boundary limit against the zeta pole can be taken exactly:
    alpha_2(sigma) = -sqrt(pi) Gamma(sigma - 3/2) (sigma - 2) / Gamma(sigma)."""
    head = -_SQRT_PI * gamma_fn(sigma - 1.5) * rgamma(sigma)
    return head, complex(sigma - 2.0)


def beta_mode(m: int, r: int, sigma: float, y: float) -> complex:
    """r-th Fourier coefficient of S_m(z, 0, sigma) at height y (r != 0)."""
    if r == 0:
        raise ValueError("beta_mode needs r != 0")
    sgn = 1 if r > 0 else -1
    Y = math.pi * abs(r) * y
    phi = phi_factor(PhiArgs(sign=sgn, Y=Y, n=m, lam=sigma - m - 0.5))
    # the i^m prefactor is sign-independent: the sgn = -1 reduction to the
    # Phi form picks up (-1)^m, cancelling the (-i)^m from u -> -u
    return (
        1j**m
        * _SQRT_PI
        * 2.0 ** (1 - m)
        * rgamma(sigma)
        * (math.pi * abs(r)) ** (2.0 * sigma - m - 1.0)
        * phi
    )


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
    for r in range(1, R + 1):
        for rr in (r, -r):
            total += beta_mode(n, rr, s, y) * cmath.exp(2j * math.pi * rr * x)
    # the first omitted mode bounds the tail by exponential decay
    err = 2.0 * max(
        abs(beta_mode(n, R + 1, s, y)), abs(beta_mode(n, -(R + 1), s, y))
    )
    value = total.conjugate() if conjugate else total
    return EvalResult(value=value, err_estimate=err, method="fourier", warnings=warnings)


# ---------------------------------------------------------------------------
# Kloosterman zeta


@functools.lru_cache(maxsize=64)
def _kloosterman_zeta_cached(rs: tuple, rps: tuple, exponent: float, C: int,
                             pairing: str) -> tuple:
    """Matrix Z[i, j] = sum_{c <= C} K(r_i, -r'_j; c) / c^exponent (K(r_i, r'_j; c)
    for pairing="printed"), one kloosterman_matrix per c, returned with the
    matrix of Weil tail bounds sqrt(max(1, min(|r_i|, |r'_j|))) * tail(C).
    """
    sign = -1 if pairing == "derived" else 1
    r_arr = np.array(rs, dtype=np.int64)
    rp_arr = np.array(rps, dtype=np.int64) * sign
    Z = np.zeros((len(rs), len(rps)), dtype=np.complex128)
    for c in range(1, C + 1):
        Z += kloosterman_matrix(c, r_arr, rp_arr) * c ** (-exponent)
    a_min = np.minimum.outer(np.abs(r_arr), np.abs(rp_arr))
    tails = np.sqrt(np.maximum(1, a_min)) * _weil_zeta_tail(exponent, C)
    return tuple(map(tuple, Z)), tuple(map(tuple, tails))


def _weil_zeta_tail(exponent: float, C: int) -> float:
    """sum_{c > C} d(c) c^(1/2 - exponent), via zeta^2.

    The partial sum runs left to right over c, as the trial-division sum
    sum(d(c) c^(-p) for c <= C) does, so the tail is bit-identical to it.
    """
    p = exponent - 0.5
    if p <= 1.0:
        return math.inf
    partial = sum(dc * c ** (-p) for c, dc in enumerate(divisor_sieve(C).tolist(), 1))
    return max(abs(zeta_fn(p)) ** 2 - partial, 0.0)


def kloosterman_zeta(r: int, rp: int, exponent: float, C: int = 4000,
                     pairing: str = "derived") -> tuple[complex, float]:
    """(sum_{c<=C} K(r, -rp; c)/c^exponent, Weil tail bound)."""
    Z, T = _kloosterman_zeta_cached((r,), (rp,), float(exponent), int(C), pairing)
    return Z[0][0], T[0][0]


# ---------------------------------------------------------------------------
# Coefficient families


def _zeta_ratio_times_alpha2n(n: int, s: float) -> complex:
    """zeta(4s-2n-1)/zeta(4s-2n) * alpha_2n(2s), stable at the boundary.

    For n = 1 the zeta argument crosses 1 exactly where alpha_2(2s)
    vanishes; the product (2s-2) zeta(4s-3) is evaluated through the
    Laurent expansion of zeta near 1.
    """
    if n == 0:
        return zeta_fn(4.0 * s - 1.0) / zeta_fn(4.0 * s) * alpha_const(0, 2.0 * s)
    if n == 1:
        head, _ = alpha_const_m2(2.0 * s)
        u = 4.0 * (s - 1.0)
        # (2s-2) zeta(4s-3) = u/2 * zeta(1+u) -> 1/2 at the pole u = 0
        prod = 0.5 if u == 0 else (u / 2.0) * zeta_near_one(u)
        return complex(prod) * head / zeta_fn(4.0 * s - 2.0)
    raise ValueError("assembly supports n in {0, 1}")


def a0_sum(n: int, s: float, z1: complex, z2: complex) -> complex:
    """Constant Fourier term of the shifted c > 0 series.

    At s = n = 1 the zeta pole cancels the Gamma zero and the value is
    the finite limit -3 / (Im z1 Im z2).
    """
    y1, y2 = upper_half(z1, "z1").imag, upper_half(z2, "z2").imag
    lead = _zeta_ratio_times_alpha2n(n, s)
    return lead * alpha_const(0, 2.0 * s - n) * (y1 * y2) ** (1.0 + 2 * n - 4.0 * s)


def ar_sum(r: int, n: int, s: float, z1: complex, z2: complex) -> complex:
    """Coefficient of e(r Re z2) (modes of the z2 power sum only)."""
    if r == 0:
        raise ValueError("r must be nonzero")
    y1, y2 = upper_half(z1, "z1").imag, upper_half(z2, "z2").imag
    # the z2-mode family replaces the totient Dirichlet series by the
    # Ramanujan one; alpha_2(2s) vanishes at s = n = 1, so these modes
    # die at the boundary (no pole to cancel here)
    if n == 0:
        alpha2n = alpha_const(0, 2.0 * s)
    else:
        head, zero = alpha_const_m2(2.0 * s)
        alpha2n = head * zero
    return (
        alpha2n
        * y1 ** (1.0 + 2 * n - 4.0 * s)
        * beta_mode(0, r, 2.0 * s - n, y2)
        * divisor_sigma(1.0 + 2 * n - 4.0 * s, abs(r))
        / zeta_fn(4.0 * s - 2.0 * n)
    )


def arprime_sum(rp: int, n: int, s: float, z1: complex, z2: complex) -> complex:
    """Coefficient of e(r' Re z1) (modes of the z1 power sum only)."""
    if rp == 0:
        raise ValueError("rp must be nonzero")
    y1, y2 = upper_half(z1, "z1").imag, upper_half(z2, "z2").imag
    return (
        alpha_const(0, 2.0 * s - n)
        * y2 ** (1.0 + 2 * n - 4.0 * s)
        * beta_mode(2 * n, rp, 2.0 * s, y1)
        * divisor_sigma(1.0 + 2 * n - 4.0 * s, abs(rp))
        / zeta_fn(4.0 * s - 2.0 * n)
    )


def arrprime_sum(r: int, rp: int, n: int, s: float, z1: complex, z2: complex,
                 C: int = 4000, pairing: str = "derived") -> complex:
    """Coefficient of the double mode, with the Kloosterman zeta factor."""
    if r == 0 or rp == 0:
        raise ValueError("r and rp must be nonzero")
    y1, y2 = upper_half(z1, "z1").imag, upper_half(z2, "z2").imag
    zval, _ = kloosterman_zeta(r, rp, 4.0 * s - 2.0 * n, C, pairing)
    return beta_mode(0, r, 2.0 * s - n, y2) * beta_mode(2 * n, rp, 2.0 * s, y1) * zval


def c_prefactor(n: int, s: float) -> complex:
    """Scalar prefactor of the double modes once the |r|, |r'| powers,
    Bessel, and Phi factors are pulled out:
    (-1)^n pi^(6s-3n-1/2) 4^(1-n) / (Gamma(2s-n) Gamma(2s))."""
    return (
        (-1.0) ** n
        * math.pi ** (6.0 * s - 3.0 * n - 0.5)
        * 4.0 ** (1 - n)
        * rgamma(2.0 * s - n)
        * rgamma(2.0 * s)
    )


# ---------------------------------------------------------------------------
# Correction for the removed 1/c offset


def shift_correction(z1: complex, z2: complex, n: int, s: float,
                     cfg: FourierAssemblyConfig) -> tuple[complex, float]:
    """sum over c > 0 terms of [true - shifted], absolutely convergent at
    the boundary (one extra order of decay in every direction).

    Each c-slice is xic_slice's fused true-term pass over the corr_K
    window minus the shifted window in its exactly factorized form, so the
    shifted half costs O(phi(c) K) instead of O(phi(c) K^2).
    """

    def diff_slice(c: int, K: int) -> complex:
        t = xic_slice(z1, z2, c, n, s, K, shifted=False)
        sft = xic_slice(z1, z2, c, n, s, K, shifted=True)
        return t - sft

    vals = [diff_slice(c, cfg.corr_K) for c in range(1, cfg.corr_C + 1)]
    total = tree_sum(vals)
    # c-tail ~ |last slice| * C / 2 for a 1/c^3 envelope; window tail from
    # halving the lattice window
    c_tail = abs(vals[-1]) * cfg.corr_C / 2.0
    half_K = max(8, cfg.corr_K // 2)
    window_diff = 0.0
    for c in range(1, min(6, cfg.corr_C + 1)):
        window_diff += abs(diff_slice(c, half_K) - vals[c - 1])
    return total, c_tail + 2.0 * window_diff


# ---------------------------------------------------------------------------
# Full assembly


def xi_tilde_fourier(z1: complex, z2: complex, n: int, s: float,
                     cfg: FourierAssemblyConfig) -> tuple[complex, float]:
    """Closed-form Fourier sum of the shifted c > 0 series (one copy)."""
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    x1, x2 = z1.real, z2.real
    total = a0_sum(n, s, z1, z2)
    err = 0.0
    R = cfg.R
    # the single-mode phase assignment (r with Re z2, r' with Re z1) is
    # common to both conventions; "printed" swaps only the double modes
    swap_phases = cfg.pairing == "printed"
    for r in _modes(R):
        total += ar_sum(r, n, s, z1, z2) * cmath.exp(2j * math.pi * r * x2)
    for rp in _modes(R):
        total += arprime_sum(rp, n, s, z1, z2) * cmath.exp(2j * math.pi * rp * x1)
    # double modes: batched Kloosterman zeta over the full (r, r') grid
    rs = tuple(_modes(R))
    Z, T = _kloosterman_zeta_cached(rs, rs, 4.0 * s - 2.0 * n, cfg.C, cfg.pairing)
    b1s = [beta_mode(2 * n, rp, 2.0 * s, z1.imag) for rp in rs]
    for i, r in enumerate(rs):
        b0 = beta_mode(0, r, 2.0 * s - n, z2.imag)
        for j, rp in enumerate(rs):
            coeff = b0 * b1s[j]
            phase = (
                cmath.exp(2j * math.pi * (r * x1 + rp * x2))
                if swap_phases
                else cmath.exp(2j * math.pi * (r * x2 + rp * x1))
            )
            total += coeff * complex(Z[i][j]) * phase
            err += abs(coeff) * T[i][j]
    # mode truncation: first omitted single modes
    err += 2.0 * abs(ar_sum(R + 1, n, s, z1, z2))
    err += 2.0 * abs(arprime_sum(R + 1, n, s, z1, z2))
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
    correction.  Valid for real s >= 1 and n in {0, 1}; this is the
    analytic continuation route that reaches s = n = 1."""
    if n not in (0, 1):
        raise ValueError("assembly supports n in {0, 1}")
    if s < 1.0:
        raise ValueError("assembly is restricted to real s >= 1")
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
    sample evaluations' own estimates.
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
    return EvalResult(value=full, err_estimate=err, method="extrapolated", policy=policy)


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
    policy = policy or TruncationPolicy(H=800)
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
