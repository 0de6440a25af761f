"""q-expansion engine for E4, E6, Delta, j, and their z-derivatives.

Series coefficients are built in exact rational arithmetic (Fraction) and
converted to floats only at evaluation time.  Points outside the standard
fundamental domain are reduced by the T/S algorithm before summing, which
keeps |q| <= exp(-pi sqrt(3)) ~ 0.0043, and the weight covariance factor
is reapplied afterwards.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import divisors
from .errors import NearDiagonal, TailTooLarge
from .types import EvalResult, upper_half

TWO_PI_I = 2j * math.pi

# Bernoulli numbers indexed by weight, for the normalized Eisenstein series
_BERNOULLI_BY_WEIGHT = {
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
}

DEFAULT_ORDER = 40
MAX_EXACT_ORDER = 64
Y_MIN_DEFAULT = 0.1


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion q^offset * sum_{i=0..N} coeffs[i] q^i.

    Coefficients stay exact (Fraction or int); ``weight`` records the
    modular weight used for fundamental-domain covariance.
    """

    coeffs: tuple
    weight: int
    offset: int = 0

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [sum(a[i] * b[k - i] for i in range(max(0, k - other.order), min(k, self.order) + 1)) for k in range(n + 1)]
        return QSeries(tuple(out), self.weight + other.weight, self.offset + other.offset)

    def __pow__(self, exponent: int) -> "QSeries":
        if exponent < 1:
            raise ValueError("only positive integer powers are supported")
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __sub__(self, other: "QSeries") -> "QSeries":
        if self.offset != other.offset:
            raise ValueError("offsets must match for subtraction")
        n = min(self.order, other.order)
        out = [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        return QSeries(tuple(out), self.weight, self.offset)

    def divide(self, other: "QSeries") -> "QSeries":
        """Series division; the divisor's leading coefficient must be 1."""
        if other.coeffs[0] != 1:
            raise ValueError("divisor must have leading coefficient 1")
        n = min(self.order, other.order)
        a, u = self.coeffs, other.coeffs
        c: list = []
        for k in range(n + 1):
            acc = a[k] if k <= self.order else 0
            for i in range(1, min(k, other.order) + 1):
                acc -= u[i] * c[k - i]
            c.append(acc)
        return QSeries(tuple(c), self.weight - other.weight, self.offset - other.offset)

    def q_derivative(self) -> "QSeries":
        """d/dz applied term-wise: 2 pi i sum (n + offset) a_n q^(n + offset)."""
        out = [(n + self.offset) * self.coeffs[n] for n in range(self.order + 1)]
        return QSeries(tuple(out), self.weight + 2, self.offset)

    def rows(self) -> list[tuple[int, complex]]:
        return [(n + self.offset, complex(self.coeffs[n])) for n in range(self.order + 1)]


def _sigma_int(n: int, k: int) -> int:
    """sigma_k(n) as an exact integer."""
    return sum(d**k for d in divisors(n))


def eisenstein(k: int, order: int = DEFAULT_ORDER) -> QSeries:
    """Normalized Eisenstein series E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n."""
    if k not in _BERNOULLI_BY_WEIGHT:
        raise ValueError(f"weight {k} not supported (even 4..14)")
    if order < 1:
        raise ValueError("order must be >= 1")
    factor = Fraction(-2 * k, 1) / _BERNOULLI_BY_WEIGHT[k]
    coeffs = [Fraction(1)] + [factor * _sigma_int(n, k - 1) for n in range(1, order + 1)]
    return QSeries(tuple(coeffs), weight=k)


def delta_series(order: int = DEFAULT_ORDER) -> QSeries:
    """Modular discriminant Delta = (E4^3 - E6^2) / 1728, integer tau(n)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    num = (e4**3) - (e6**2)
    coeffs = []
    for n, c in enumerate(num.coeffs):
        v = c / 1728
        if v.denominator != 1:
            raise ArithmeticError(f"tau({n}) came out non-integer: {v}")
        coeffs.append(int(v))
    if coeffs[0] != 0 or coeffs[1] != 1:
        raise ArithmeticError("Delta normalization failed")
    return QSeries(tuple(coeffs), weight=12)


def j_q_series(order: int = DEFAULT_ORDER) -> QSeries:
    """Laurent expansion q^-1 + 744 + 196884 q + ... of the j-invariant."""
    e4 = eisenstein(4, order + 1)
    delta = delta_series(order + 1)
    unit = QSeries(delta.coeffs[1:], weight=12, offset=1)  # Delta / q, leading 1
    return (e4**3).divide(unit)


def reduce_to_fundamental(z: complex) -> tuple[complex, tuple[int, int, int, int]]:
    """Map z to the standard fundamental domain; returns (w, (a, b, c, d))
    with w = (a z + b) / (c z + d)."""
    z = upper_half(z)
    a, b, c, d = 1, 0, 0, 1
    w = z
    for _ in range(200):
        n = math.floor(w.real + 0.5)
        if n != 0:
            w = w - n
            a, b = a - n * c, b - n * d
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            break
    return w, (a, b, c, d)


def _tail_estimate(coeffs_f: Sequence[complex], q_abs: float) -> float:
    """Geometric tail bound from the top coefficients' growth rate."""
    n = len(coeffs_f) - 1
    top = abs(coeffs_f[n])
    if top == 0.0:
        top = max(abs(c) for c in coeffs_f) or 1.0
    back = max(1, n - 5)
    base = abs(coeffs_f[back])
    growth = (top / base) ** (1.0 / (n - back)) if base > 0 and n > back else 2.0
    growth = max(growth, 1.0)
    rho = min(growth * q_abs, 0.5)
    return top * q_abs**n * rho / (1.0 - rho) * 4.0


def evaluate(series: QSeries, z: complex, tol: float = 1e-9, y_min: float = Y_MIN_DEFAULT,
             reduce: bool = True) -> EvalResult:
    """Evaluate a QSeries at z with fundamental-domain reduction.

    Reduction uses the weight tag: f(z) = (c z + d)^(-weight) f(gamma z).
    Raises TailTooLarge when the reported tail bound exceeds tol.
    """
    z = upper_half(z)
    if z.imag < y_min and not reduce:
        raise ValueError(f"Im z = {z.imag} below y_min = {y_min} without reduction")
    if reduce:
        w, (a, b, c, d) = reduce_to_fundamental(z)
        cov = (c * z + d) ** (-series.weight) if series.weight else 1.0
    else:
        w, cov = z, 1.0
    q = cmath.exp(TWO_PI_I * w)
    coeffs_f = [complex(cc) for cc in series.coeffs]
    acc = 0j
    for cc in reversed(coeffs_f):
        acc = acc * q + cc
    if series.offset:
        acc *= q**series.offset
    tail = _tail_estimate(coeffs_f, abs(q)) * abs(q) ** series.offset
    if tail > tol:
        raise TailTooLarge(f"tail bound {tail:.3e} exceeds tol {tol:.3e}; raise the order")
    value = acc * cov
    return EvalResult(value=value, err_estimate=tail * abs(cov), method="direct")


class ModularCache:
    """Shared series cache so evaluators do not rebuild expansions."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order > MAX_EXACT_ORDER:
            raise ValueError(f"order above the exact-arithmetic ceiling {MAX_EXACT_ORDER}")
        self.order = order
        self.e4 = eisenstein(4, order)
        self.e4_cubed = self.e4**3
        self.delta = delta_series(order)
        self.e4_cubed_prime = self.e4_cubed.q_derivative()
        self.delta_prime = self.delta.q_derivative()

    def _pair(self, series: QSeries, z: complex) -> complex:
        return evaluate(series, z, tol=math.inf).value

    def delta_at(self, z: complex) -> complex:
        return self._pair(self.delta, z)

    def j_at(self, z: complex) -> complex:
        w, _ = reduce_to_fundamental(z)
        num = evaluate(self.e4_cubed, w, tol=math.inf, reduce=False).value
        den = evaluate(self.delta, w, tol=math.inf, reduce=False).value
        return num / den

    def dlog_delta_at(self, z: complex) -> complex:
        """Delta'/Delta with the quasi-modular covariance under reduction."""
        w, (a, b, c, d) = reduce_to_fundamental(z)
        num = TWO_PI_I * evaluate(self.delta_prime, w, tol=math.inf, reduce=False).value
        den = evaluate(self.delta, w, tol=math.inf, reduce=False).value
        val_w = num / den
        cz_d = c * z + d
        return (val_w - 12.0 * c * cz_d) / cz_d**2

    def j_prime_at(self, z: complex) -> complex:
        """dj/dz by the quotient rule (E4^3)'/Delta - E4^3 Delta'/Delta^2."""
        w, (a, b, c, d) = reduce_to_fundamental(z)
        A = evaluate(self.e4_cubed, w, tol=math.inf, reduce=False).value
        Ap = TWO_PI_I * evaluate(self.e4_cubed_prime, w, tol=math.inf, reduce=False).value
        B = evaluate(self.delta, w, tol=math.inf, reduce=False).value
        Bp = TWO_PI_I * evaluate(self.delta_prime, w, tol=math.inf, reduce=False).value
        jp_w = (Ap * B - A * Bp) / B**2
        return jp_w / (c * z + d) ** 2


_DEFAULT_CACHE: ModularCache | None = None


def default_cache() -> ModularCache:
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ModularCache(DEFAULT_ORDER)
    return _DEFAULT_CACHE


def j_invariant(z: complex) -> complex:
    return default_cache().j_at(z)


def j_prime(z: complex) -> complex:
    return default_cache().j_prime_at(z)


def dlog_delta(z: complex) -> complex:
    return default_cache().dlog_delta_at(z)


def delta_value(z: complex) -> complex:
    return default_cache().delta_at(z)


NEAR_DIAGONAL_EPS = 1e-8


def theorem3_rhs(z1: complex, z2: complex, factor: float = 2.0) -> complex:
    """factor * [ j'(z1)/(j(z1) - j(z2)) + Delta'(z1)/Delta(z1) ].

    This is the dz1-component of the logarithmic derivative of
    (j(z1) - j(z2)) Delta(z1) Delta(z2); the overall constant from the
    squared-modulus convention is configurable.
    """
    z1 = upper_half(z1, "z1")
    z2 = upper_half(z2, "z2")
    cache = default_cache()
    j1 = cache.j_at(z1)
    j2 = cache.j_at(z2)
    if abs(j1 - j2) <= NEAR_DIAGONAL_EPS:
        raise NearDiagonal(f"|j(z1) - j(z2)| = {abs(j1 - j2):.3e} too small")
    return factor * (cache.j_prime_at(z1) / (j1 - j2) + cache.dlog_delta_at(z1))
