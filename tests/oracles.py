"""Independent reference forms that only the tests evaluate.

Each one restates a quantity that the package computes by another route
(a closed form, a finite difference, a single-entry wrapper), so that a
test can compare the two.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from heckekernel.arith import kloosterman_matrix
from heckekernel.continuation import _kloosterman_zeta_cached, _weil_zeta_tail
from heckekernel.latsum import limit_fit, psi_direct
from heckekernel.special import bessel_k, gamma_fn, rgamma
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
