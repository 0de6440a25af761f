"""Complex gamma, Riemann zeta, the MacDonald function, and the
derivative factor Phi.

    gamma_fn   Lanczos approximation (g = 7), reflection below Re(s) = 1/2
    zeta_fn    79 direct terms plus hurwitz_tail, the Euler-Maclaurin
               remainder sum_{nu >= a} nu^(-s) with 10 corrections
    bessel_k   K_lam(x) = 1/2 int_0^inf exp(-(x/2)(t + 1/t)) t^(lam-1) dt,
               evaluated on the cosh substitution by a trapezoid rule
    bessel_j1, J_1 and I_1 on arrays: the power series for t <= 1, above it
    bessel_i1  the trapezoid rule on their integrals over [0, pi]
    phi_factor Phi_sgn(Y, n, lam) = e^(2 sgn Y) d^n/dY^n [e^(-2 sgn Y)
               Y^(-lam) K_lam(2Y)], from (sgn, Y, n, lam), expanded exactly via
               the recurrence d/dY [Y^(-mu) K_mu(2Y)] = -2 Y^(-mu) K_(mu+1)(2Y)
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import PoleAt

EULER_GAMMA = 0.57721566490153286060651209008240243
# Stieltjes constants gamma_1, gamma_2 for zeta near s = 1
_STIELTJES_1 = -0.072815845483676724860586375874901319
_STIELTJES_2 = -0.0096903631928723184845303860352125293

_POLE_EPS = 1e-14

# Lanczos g = 7, 9-term coefficient set (about 15 significant digits)
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Bernoulli numbers B_2 .. B_20
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)


def _near_nonpositive_integer(s: complex) -> int | None:
    if abs(s.imag) > _POLE_EPS:
        return None
    k = round(s.real)
    if k <= 0 and abs(s.real - k) <= _POLE_EPS:
        return k
    return None


def gamma_fn(s: complex) -> complex:
    """Gamma(s) to about 1e-13 relative accuracy."""
    s = complex(s)
    k = _near_nonpositive_integer(s)
    if k is not None:
        raise PoleAt(k, f"gamma pole at {k}")
    if s.real < 0.5:
        # reflection: Gamma(s) Gamma(1-s) = pi / sin(pi s)
        return math.pi / (cmath.sin(math.pi * s) * gamma_fn(1.0 - s))
    z = s - 1.0
    x = _LANCZOS_C[0]
    for i, coef in enumerate(_LANCZOS_C[1:], start=1):
        x += coef / (z + i)
    t = z + _LANCZOS_G + 0.5
    val = math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x
    if s.imag == 0.0:
        return complex(val.real, 0.0)
    return val


def rgamma(s: complex) -> complex:
    """1 / Gamma(s); returns 0 at the poles of Gamma."""
    if _near_nonpositive_integer(complex(s)) is not None:
        return 0j
    return 1.0 / gamma_fn(s)


def hurwitz_tail(s, a: int):
    """sum_{nu >= a} nu^(-s) by Euler-Maclaurin through B_20 (integer a >= 1,
    large against |s|).  For Re(s) <= 1 the same expression is the analytic
    continuation; s = 1 is a pole."""
    if abs(s - 1.0) <= _POLE_EPS:
        raise PoleAt(1, f"Hurwitz tail pole at s = {s}")
    total = 0.5 * a ** (-s) + a ** (1.0 - s) / (s - 1.0)
    # correction terms: B_2j / (2j)! * (s)(s+1)...(s+2j-2) * a^(-s-2j+1)
    rising = s  # (s)_(1)
    fact = 2.0  # (2j)! at j = 1
    power = a ** (-s - 1.0)
    for j, bern in enumerate(_BERNOULLI, start=1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
            fact *= (2 * j - 1) * (2 * j)
            power /= a * a
        total += bern / fact * rising * power
    return total


def zeta_fn(s: complex) -> complex:
    """Riemann zeta as 79 direct terms plus hurwitz_tail(s, 80); accurate to
    ~1e-12 for Re(s) > 1/2."""
    s = complex(s)
    if abs(s - 1.0) <= _POLE_EPS:
        raise PoleAt(1, "zeta pole at s = 1")
    total = sum(complex(k) ** (-s) for k in range(1, 80)) + hurwitz_tail(s, 80)
    if s.imag == 0.0:
        return complex(total.real, 0.0)
    return total


def zeta_near_one(u: complex) -> complex:
    """zeta(1 + u), using the Stieltjes expansion when |u| is tiny."""
    u = complex(u)
    if abs(u) < 1e-5:
        if u == 0:
            raise PoleAt(1, "zeta pole at s = 1")
        return (
            1.0 / u
            + EULER_GAMMA
            - _STIELTJES_1 * u
            + _STIELTJES_2 * u * u / 2.0
        )
    return zeta_fn(1.0 + u)


_BESSEL_H = 0.125
_EXP_FLOOR = 746.0  # exp(-746) underflows double precision


def bessel_k(lam: float, x: float) -> float:
    """MacDonald function K_lam(x) for real order and x > 0 (0.0 for x > 700,
    where it underflows)."""
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    lam = abs(float(lam))  # K_{-lam} = K_lam
    if x > 700.0:
        return 0.0
    # K_lam(x) = int_0^inf exp(-x cosh u) cosh(lam u) du; trapezoid in u.
    # The integrand decays like exp(-x e^u / 2): choose the cutoff where
    # the exponent clears the double-precision floor with margin.
    h = _BESSEL_H
    u_max = math.acosh((_EXP_FLOOR + 40.0 + lam * 10.0) / x) if x < _EXP_FLOOR else 1.0
    n = int(u_max / h) + 2
    total = 0.5 * math.exp(-x)  # u = 0 term with trapezoid half-weight
    for i in range(1, n + 1):
        u = i * h
        e = -x * math.cosh(u)
        if e < -_EXP_FLOOR:
            break
        total += math.exp(e) * math.cosh(lam * u)
    return total * h


def bessel_j1(t) -> np.ndarray:
    """J_1(t) for an array of t >= 0 (_bessel_1)."""
    return _bessel_1(t, -1)


def bessel_i1(t) -> np.ndarray:
    """I_1(t) for an array of t >= 0 (_bessel_1; inf where e^t overflows)."""
    return _bessel_1(t, 1)


_BESSEL_BLOCK = 2**15  # values x nodes per trapezoid block


def _bessel_1(t, sign: int) -> np.ndarray:
    """J_1(t) (sign = -1) or I_1(t) (sign = 1), elementwise.

    For t <= 1, (t/2) sum_k (sign t^2/4)^k / (k! (k+1)!) to k = 11.  Above,
    the trapezoid rule with M = 0.65 t + 24 intervals (the largest t of a
    block) on the integrals over [0, pi] of

        J_1(t) = 1/pi int cos(tau - t sin tau),
        I_1(t) = e^t/pi int exp(-2 t sin^2(tau/2)) cos tau,

    even and 2 pi-periodic integrands, so the rule converges geometrically
    (its error is the aliased order J_(2M-1)(t)).  I_1's exponent is <= 0
    and small where the integrand peaks, so it carries no rounding of t.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    out = np.empty_like(flat)
    small = flat <= 1.0
    u, acc = sign * (flat[small] / 2.0) ** 2, 0.0
    for k in range(11, 0, -1):
        acc = u / (k * (k + 1)) * (1.0 + acc)
    out[small] = flat[small] / 2.0 * (1.0 + acc)
    large = np.flatnonzero(~small)
    large = large[np.argsort(flat[large])]
    rows = _BESSEL_BLOCK // (int(0.65 * flat[large[-1]]) + 25) if len(large) else 1
    for lo in range(0, len(large), rows):
        idx = large[lo:lo + rows]
        tt = flat[idx]
        M = int(0.65 * tt[-1]) + 24
        tau = np.arange(M + 1) * (math.pi / M)
        w = np.full(M + 1, 1.0 / M)
        w[[0, M]] = 0.5 / M
        if sign < 0:
            out[idx] = np.cos(tau - np.multiply.outer(tt, np.sin(tau))) @ w
        else:
            with np.errstate(over="ignore"):
                peak = np.exp(np.multiply.outer(-2.0 * tt, np.sin(tau / 2.0) ** 2))
                out[idx] = peak @ (w * np.cos(tau)) * np.exp(tt)
    return out.reshape(t.shape)


@functools.lru_cache(maxsize=256)
def _phi_expansion(n: int, sign: int) -> tuple[tuple[int, int, float], ...]:
    """Terms (a, q, coeff) with

    d^n/dY^n [e^(-2 s Y) Y^(-lam) K_lam(2Y)] =
        e^(-2 s Y) * sum coeff * Y^(a) * [Y^(-(lam+q)) K_(lam+q)(2Y)].

    Derivative rules per term  c * Y^a * g_q * e^(-2 s Y):
        a c Y^(a-1) g_q  -  2 c Y^(a+1) g_(q+1)  -  2 s c Y^a g_q.
    """
    terms: dict[tuple[int, int], float] = {(0, 0): 1.0}
    for _ in range(n):
        nxt: dict[tuple[int, int], float] = {}
        for (a, q), coeff in terms.items():
            if a > 0:
                key = (a - 1, q)
                nxt[key] = nxt.get(key, 0.0) + a * coeff
            key = (a + 1, q + 1)
            nxt[key] = nxt.get(key, 0.0) - 2.0 * coeff
            key = (a, q)
            nxt[key] = nxt.get(key, 0.0) - 2.0 * sign * coeff
        terms = nxt
    return tuple((a, q, c) for (a, q), c in sorted(terms.items()))


def phi_factor(sign: int, Y: float, n: int, lam: float, kvals: dict | None = None) -> float:
    """The n-th derivative factor Phi_sign(Y, n, lam), 0 <= n <= 8, exactly
    expanded.  Each K_(lam+q)(2Y) is evaluated once and kept in kvals under
    (|order|, argument), as K_-lam = K_lam; Phi values that share one dict (a
    call's r and -r, coinciding arguments) evaluate each distinct Bessel value once."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not Y > 0:
        raise ValueError(f"Y must be positive, got {Y}")
    if not 0 <= n <= 8:
        raise ValueError(f"derivative order n must be in [0, 8], got {n}")
    kvals = {} if kvals is None else kvals
    total = 0.0
    for a, q, coeff in _phi_expansion(n, sign):
        key = (abs(lam + q), 2.0 * Y)
        kval = kvals[key] if key in kvals else kvals.setdefault(key, bessel_k(*key))
        if kval == 0.0:
            continue
        total += coeff * Y ** (a - lam - q) * kval
    return total

