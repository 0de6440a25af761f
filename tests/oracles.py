"""Independent reference forms that only the tests evaluate.

Each one restates a quantity that the package computes by another route
(a closed form, a finite difference, a single-entry wrapper), so that a
test can compare the two.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import mpmath
import numpy as np

from heckekernel.arith import divisor_sigma, kloosterman_matrix
from heckekernel.continuation import (_kloosterman_zeta_cached, _modes, _weil_zeta_tail, a0_sum,
                                      alpha_const, beta_modes)
from heckekernel.latsum import limit_fit, psi_direct
from heckekernel.modforms import j_q_series
from heckekernel.special import bessel_k, gamma_fn, rgamma, zeta_fn
from heckekernel.types import TruncationPolicy


@dataclass(frozen=True)
class IntMatrix2:
    """Integer 2x2 matrix (a, b; c, d)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def height(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


def enumerate_matrices(m: int, H: int) -> Iterator[IntMatrix2]:
    """Every integer matrix with det = m and max |entry| <= H, exactly once,
    one at a time: the brute-force reference for latsum.ball_sum."""
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


def alpha_moment_sum(m: int, sigma: float) -> complex:
    """The constant Fourier coefficient that continuation.alpha_const gives
    in closed form, as the moment sum

        (-i)^m sum_p C(m, 2p) (-1)^p Gamma(p+1/2) Gamma(sigma-p-1/2) / Gamma(sigma).
    """
    acc = 0j
    for p in range(m // 2 + 1):
        acc += math.comb(m, 2 * p) * (-1.0) ** p * gamma_fn(p + 0.5) * gamma_fn(sigma - p - 0.5)
    return (-1j) ** m * acc * rgamma(sigma)


def mu(gamma: IntMatrix2, z1: complex, w: complex) -> complex:
    """c z1 w + d w - a z1 - b (the kernel's bilinear form)."""
    return gamma.c * z1 * w + gamma.d * w - gamma.a * z1 - gamma.b


def mu_factorized(gamma: IntMatrix2, z1: complex, w: complex) -> complex:
    """The same value through the c != 0 factorization
    [(c z1 + d)(c w - a) + det] / c."""
    if gamma.c == 0:
        raise ValueError("factorized form needs c != 0")
    c = gamma.c
    return ((c * z1 + gamma.d) * (c * w - gamma.a) + gamma.det) / c


def phi_factor_fd(sign: int, Y: float, n: int, lam: float, step: float = 1e-3) -> float:
    """Finite-difference oracle for special.phi_factor (central stencils)."""

    def bracket(y: float) -> float:
        return math.exp(-2.0 * sign * y) * y ** (-lam) * bessel_k(lam, 2.0 * y)

    if n == 0:
        return math.exp(2.0 * sign * Y) * bracket(Y)
    # central difference coefficients for n = 1 and 2 on a 5-point stencil
    h = step
    if n == 1:
        d = (-bracket(Y + 2 * h) + 8 * bracket(Y + h) - 8 * bracket(Y - h) + bracket(Y - 2 * h)) / (12 * h)
    elif n == 2:
        d = (
            -bracket(Y + 2 * h)
            + 16 * bracket(Y + h)
            - 30 * bracket(Y)
            + 16 * bracket(Y - h)
            - bracket(Y - 2 * h)
        ) / (12 * h * h)
    else:
        raise ValueError("finite-difference oracle implemented for n <= 2")
    return math.exp(2.0 * sign * Y) * d


def kloosterman_zeta(r: int, rp: int, exponent: float, C: int = 4000,
                     pairing: str = "derived") -> tuple[complex, float]:
    """(sum_{c<=C} K(r, -rp; c)/c^exponent, Weil tail bound): one entry of
    the matrix that continuation.xi_tilde_fourier builds."""
    Z, T = _kloosterman_zeta_cached((r,), (rp,), float(exponent), int(C), pairing)
    return Z[0][0], T[0][0]


def kloosterman_zeta_per_c(rs: tuple, rps: tuple, exponent: float, C: int,
                           pairing: str = "derived") -> tuple[np.ndarray, np.ndarray]:
    """The matrices (Z, tails) of continuation._kloosterman_zeta_cached with
    one direct arith.kloosterman_matrix sum per c in place of the
    prime-power rows of arith.kloosterman_sums."""
    sign = -1 if pairing == "derived" else 1
    r_arr = np.array(rs, dtype=np.int64)
    rp_arr = np.array(rps, dtype=np.int64) * sign
    Z = np.zeros((len(rs), len(rps)), dtype=np.complex128)
    for c in range(1, C + 1):
        Z += kloosterman_matrix(c, r_arr, rp_arr) * c ** (-exponent)
    a_min = np.minimum.outer(np.abs(r_arr), np.abs(rp_arr))
    tails = np.sqrt(np.maximum(1, a_min)) * _weil_zeta_tail(exponent, C)
    return Z, tails


def _laurent_mul(a: dict, b: dict, top: int) -> dict:
    """Product of two Laurent series {exponent: coefficient}, cut above q^top."""
    out: dict = {}
    for i, x in a.items():
        for k, y in b.items():
            if i + k <= top:
                out[i + k] = out.get(i + k, 0) + x * y
    return out


def j_m_coefficients(m: int, N: int) -> list[int]:
    """[c_m(1), ..., c_m(N)], the q^n coefficients of j_m = q^-m + O(q), as
    the Faber polynomial of j_1 = j - 744: j_k = j_1^k minus the j_e (e < k)
    that clear its poles q^-e and its constant term, in exact integers."""
    top = N + m
    j1 = {n - 1: c for n, c in enumerate(j_q_series(top + 1).coeffs) if n != 1}
    js, power = [{0: 1}], {0: 1}
    for k in range(1, m + 1):
        power = _laurent_mul(power, j1, top)
        jk = dict(power)
        for e in range(k - 1, -1, -1):
            lead = jk.get(-e, 0)
            for exp, c in js[e].items():
                jk[exp] = jk.get(exp, 0) - lead * c
        js.append(jk)
    return [js[m].get(n, 0) for n in range(1, N + 1)]


def edge_zeta_reference(a: int, b: int, c0: int = 24, C2: int = 800) -> tuple[float, float]:
    """(sum_c K(a, b; c)/c^2, bound) by Petersson's (a b > 0) or Rademacher's
    (a b < 0) formula at 60 digits: (2/x) [rhs - sum_(c <= C2) K/c (B(x/c) - x/(2c))],
    x = 4 pi sqrt|a b|, with K summed exactly at 60 digits for c <= c0 and
    taken from arith.kloosterman_matrix above, c_m(n) from j_m_coefficients,
    and the bound the tail (2 x^2/15) sqrt(max(1, min)) _weil_zeta_tail(4, C2)."""
    m, n = abs(a), abs(b)
    with mpmath.workdps(60):
        x = 4 * mpmath.pi * mpmath.sqrt(m * n)
        if a * b > 0:
            bessel, rhs = mpmath.besselj, mpmath.mpf(m == n) / (2 * mpmath.pi)
        else:
            bessel = mpmath.besseli
            rhs = j_m_coefficients(m, n)[-1] / (2 * mpmath.pi * mpmath.sqrt(mpmath.mpf(m) / n))
        total = rhs
        for c in range(1, C2 + 1):
            if c <= c0:
                K = mpmath.fsum(mpmath.cos(2 * mpmath.pi * ((a * u + b * pow(u, -1, c)) % c) / c)
                                for u in range(1, c + 1) if math.gcd(u, c) == 1)
            else:
                K = mpmath.mpf(float(kloosterman_matrix(c, [a], [b])[0, 0].real))
            total -= K / c * (bessel(1, x / c) - x / (2 * c))
        value = float(2 / x * total)
    tail = 2 * float(x) ** 2 / 15 * math.sqrt(max(1, min(m, n))) * _weil_zeta_tail(4.0, C2)
    return value, tail


def beta_mode(m: int, r: int, sigma: float, y: float) -> complex:
    """r-th Fourier coefficient of S_m(z, 0, sigma) at height y (r != 0):
    continuation.beta_modes at one r."""
    return beta_modes(m, (r,), sigma, y, {})[0]


def ar_sum(r: int, n: int, s: float, z1: complex, z2: complex) -> complex:
    """Coefficient of e(r Re z2) (modes of the z2 power sum only) in the
    shifted c > 0 series, with the operations of xi_tilde_fourier."""
    expo = 1.0 + 2 * n - 4.0 * s
    head = alpha_const(2 * n, 2.0 * s) * z1.imag**expo
    # the Ramanujan Dirichlet series in place of the totient one: no pole
    # cancels the zero of alpha_2n(2s), so these modes die at the edge
    return (head * beta_mode(0, r, 2.0 * s - n, z2.imag) * divisor_sigma(expo, abs(r))
            / zeta_fn(4.0 * s - 2.0 * n))


def arprime_sum(rp: int, n: int, s: float, z1: complex, z2: complex) -> complex:
    """Coefficient of e(r' Re z1) (modes of the z1 power sum only) in the
    shifted c > 0 series, with the operations of xi_tilde_fourier."""
    expo = 1.0 + 2 * n - 4.0 * s
    head = alpha_const(0, 2.0 * s - n) * z2.imag**expo
    return (head * beta_mode(2 * n, rp, 2.0 * s, z1.imag) * divisor_sigma(expo, abs(rp))
            / zeta_fn(4.0 * s - 2.0 * n))


def xi_tilde_per_use(z1: complex, z2: complex, n: int, s: float, cfg) -> tuple[complex, float]:
    """continuation.xi_tilde_fourier with every coefficient recomputed where
    it is used: ar_sum and arprime_sum per single mode, beta_mode per double
    mode, in the same order of operations, so the two agree to the bit."""
    x1, x2, R = z1.real, z2.real, cfg.R
    total, err = a0_sum(n, s, z1, z2), 0.0
    for r in _modes(R):
        total += ar_sum(r, n, s, z1, z2) * cmath.exp(2j * math.pi * r * x2)
    for rp in _modes(R):
        total += arprime_sum(rp, n, s, z1, z2) * cmath.exp(2j * math.pi * rp * x1)
    rs = tuple(_modes(R))
    Z, T = _kloosterman_zeta_cached(rs, rs, 4.0 * s - 2.0 * n, cfg.C, cfg.pairing)
    for i, r in enumerate(rs):
        for j, rp in enumerate(rs):
            coeff = beta_mode(0, r, 2.0 * s - n, z2.imag) * beta_mode(2 * n, rp, 2.0 * s, z1.imag)
            phase = r * x1 + rp * x2 if cfg.pairing == "printed" else r * x2 + rp * x1
            total += coeff * complex(Z[i][j]) * cmath.exp(2j * math.pi * phase)
            err += abs(coeff) * T[i][j]
    err += 2.0 * abs(ar_sum(R + 1, n, s, z1, z2))
    err += 2.0 * abs(arprime_sum(R + 1, n, s, z1, z2))
    return total, err


def c_prefactor(n: int, s: float) -> complex:
    """The printed scalar prefactor C(n, s) of the double modes once the
    |r|, |r'| powers, Bessel, and Phi factors are pulled out:
    (-1)^n pi^(6s-3n-1/2) 4^(1-n) / (Gamma(2s-n) Gamma(2s))."""
    return (
        (-1.0) ** n
        * math.pi ** (6.0 * s - 3.0 * n - 0.5)
        * 4.0 ** (1 - n)
        * rgamma(2.0 * s - n)
        * rgamma(2.0 * s)
    )


def psi_residue_fit(z1: complex, z2: complex, which: int = 1,
                    samples=(1.05, 1.08, 1.12, 1.18, 1.25)) -> float:
    """Fitted residue of Psi at s = 1: each sample is psi_direct at H = 1200
    (the height limit and its error from the package's one truncation rule),
    then the constant term of a quadratic fit of (s-1) Psi(s) in s - 1."""
    policy = TruncationPolicy(H=1200, tol=1e-2)
    rvals = [(s - 1.0) * psi_direct(which, z1, z2, s, policy).value.real for s in samples]
    return limit_fit([s - 1.0 for s in samples], rvals, (0, 1, 2)).real
