"""q-expansion engine for E4, E6, Delta, j, and their z-derivatives.

Series coefficients are built in exact integer arithmetic (Fraction only
where E_k's normalisation is not integral, k = 12) and converted to
complex once per series (QSeries.complex_coeffs).  A point is reduced
once, by the T/S algorithm, to the standard fundamental domain, which
keeps |q| <= exp(-pi sqrt(3)) ~ 0.0043; the series are summed at the
reduced point and the weight covariance factor is reapplied afterwards.
j, j' and Delta'/Delta share one reduction and one sum of E4^3, Delta and
their derivatives, so theorem3_rhs reduces each of its two points once.
"""

from __future__ import annotations

import cmath
import functools
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


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion q^offset * sum_{i=0..N} coeffs[i] q^i.

    Coefficients stay exact (Fraction or int); ``weight`` records the
    modular weight used for fundamental-domain covariance, or is None where
    there is none: a q-derivative of nonzero weight (only quasi-modular),
    a series built from one, or a difference of unequal weights.
    """

    coeffs: tuple
    weight: int | None
    offset: int = 0

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [sum(a[i] * b[k - i] for i in range(max(0, k - other.order), min(k, self.order) + 1)) for k in range(n + 1)]
        weight = None if None in (self.weight, other.weight) else self.weight + other.weight
        return QSeries(tuple(out), weight, self.offset + other.offset)

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
        return QSeries(tuple(out), self.weight if self.weight == other.weight else None, self.offset)

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
        weight = None if None in (self.weight, other.weight) else self.weight - other.weight
        return QSeries(tuple(c), weight, self.offset - other.offset)

    def q_derivative(self) -> "QSeries":
        """D = q d/dq applied term-wise, sum (n + offset) a_n q^(n + offset),
        so d/dz = 2 pi i D.  D f has weight 2 for f of weight 0; for any other
        weight k it is only quasi-modular, (D f)(gamma z) = (cz + d)^(k + 2)
        (D f)(z) + k c (cz + d)^(k + 1) f(z) / (2 pi i), and its weight is None."""
        out = [(n + self.offset) * self.coeffs[n] for n in range(self.order + 1)]
        return QSeries(tuple(out), 2 if self.weight == 0 else None, self.offset)

    @functools.cached_property
    def complex_coeffs(self) -> tuple[complex, ...]:
        """The coefficients as complex, converted once per series."""
        return tuple(complex(c) for c in self.coeffs)

    def rows(self) -> list[tuple[int, complex]]:
        return [(n + self.offset, c) for n, c in enumerate(self.complex_coeffs)]


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
    factor = int(factor) if factor.denominator == 1 else factor  # integer series stay int
    coeffs = [1] + [factor * _sigma_int(n, k - 1) for n in range(1, order + 1)]
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
        v, rest = divmod(c, 1728)
        if rest:
            raise ArithmeticError(f"tau({n}) came out non-integer: {c}/1728")
        coeffs.append(v)
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


def _horner(series: QSeries, q: complex) -> complex:
    """The truncated series at q, summed by Horner's rule."""
    acc = 0j
    for cc in reversed(series.complex_coeffs):
        acc = acc * q + cc
    if series.offset:
        acc *= q**series.offset
    return acc


def evaluate(series: QSeries, z: complex, tol: float = 1e-9) -> EvalResult:
    """Evaluate a QSeries at z with fundamental-domain reduction.

    Reduction uses the weight tag: f(z) = (c z + d)^(-weight) f(gamma z).
    Raises TailTooLarge when the reported tail bound exceeds tol, and
    ValueError for a series without a weight (None) at a point that only an
    inversion (c != 0) brings into F.
    """
    z = upper_half(z)
    w, (a, b, c, d) = reduce_to_fundamental(z)
    if series.weight is None and c:
        raise ValueError(f"a series with no modular weight (such as a q-derivative of nonzero "
                         f"weight) cannot be carried from z = {z} into the fundamental domain")
    cov = (c * z + d) ** (-series.weight) if series.weight else 1.0
    q = cmath.exp(TWO_PI_I * w)
    acc = _horner(series, q)
    tail = _tail_estimate(series.complex_coeffs, abs(q)) * abs(q) ** series.offset
    if tail > tol:
        raise TailTooLarge(f"tail bound {tail:.3e} exceeds tol {tol:.3e}; raise the order")
    return EvalResult(value=acc * cov, err_estimate=tail * abs(cov), method="direct")


@functools.cache
def _series() -> tuple[QSeries, QSeries, QSeries, QSeries]:
    """E4^3, its q-derivative, Delta and its q-derivative, built once per process."""
    e4_cubed = eisenstein(4) ** 3
    delta = delta_series()
    return e4_cubed, e4_cubed.q_derivative(), delta, delta.q_derivative()


def _at(z: complex) -> tuple[complex, complex, complex]:
    """j, dj/dz and Delta'/Delta at z from one reduction w = gamma z: each
    series is summed once at w and carried back by c z + d."""
    w, (a, b, c, d) = reduce_to_fundamental(z)
    q = cmath.exp(TWO_PI_I * w)
    e4_cubed, e4_cubed_prime, delta, delta_prime = _series()
    A, Ap = _horner(e4_cubed, q), TWO_PI_I * _horner(e4_cubed_prime, q)
    B, Bp = _horner(delta, q), TWO_PI_I * _horner(delta_prime, q)
    cz_d = c * z + d
    # j = A / B is invariant, j' = (A'B - AB')/B^2 has weight 2, and Delta'/Delta
    # is quasi-modular: (Delta'/Delta)(w) = (cz + d)^2 (Delta'/Delta)(z) + 12 c (cz + d)
    return A / B, (Ap * B - A * Bp) / B**2 / cz_d**2, (Bp / B - 12.0 * c * cz_d) / cz_d**2


def j_invariant(z: complex) -> complex:
    return _at(z)[0]


def j_prime(z: complex) -> complex:
    return _at(z)[1]


def dlog_delta(z: complex) -> complex:
    return _at(z)[2]


def delta_value(z: complex) -> complex:
    return evaluate(_series()[2], z, tol=math.inf).value


NEAR_DIAGONAL_EPS = 1e-8


def theorem3_rhs(z1: complex, z2: complex, factor: float = 2.0) -> complex:
    """factor * [ j'(z1)/(j(z1) - j(z2)) + Delta'(z1)/Delta(z1) ].

    This is the dz1-component of the logarithmic derivative of
    (j(z1) - j(z2)) Delta(z1) Delta(z2); the overall constant from the
    squared-modulus convention is configurable.
    """
    j1, j1_prime, dlog_delta1 = _at(upper_half(z1, "z1"))
    j2 = _at(upper_half(z2, "z2"))[0]
    if abs(j1 - j2) <= NEAR_DIAGONAL_EPS:
        raise NearDiagonal(f"|j(z1) - j(z2)| = {abs(j1 - j2):.3e} too small")
    return factor * (j1_prime / (j1 - j2) + dlog_delta1)
