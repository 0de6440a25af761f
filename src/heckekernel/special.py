"""Complex gamma, Riemann zeta, the MacDonald function, and the
derivative factor Phi.

    gamma_fn   Lanczos approximation (g = 7), reflection below Re(s) = 1/2
    zeta_fn    79 direct terms plus hurwitz_tail, the Euler-Maclaurin
               remainder sum_{nu >= a} nu^(-s) with 10 corrections
    bessel_k   K_lam(x) = 1/2 int_0^inf exp(-(x/2)(t + 1/t)) t^(lam-1) dt,
               evaluated on the cosh substitution by a trapezoid rule
    phi_factor Phi_sgn(Y, n, lam) = e^(2 sgn Y) d^n/dY^n [e^(-2 sgn Y)
               Y^(-lam) K_lam(2Y)], expanded exactly via the recurrence
               d/dY [Y^(-mu) K_mu(2Y)] = -2 Y^(-mu) K_(mu+1)(2Y)
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import PoleAt
from .types import PhiArgs

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


def phi_factor(args: PhiArgs, kvals: dict | None = None) -> float:
    """The n-th derivative factor Phi_sgn(Y, n, lam), exactly expanded.  Each
    K_(lam+q)(2Y) is evaluated once and kept in kvals under (|order|, argument),
    as K_-lam = K_lam; Phi values that share one dict (a call's r and -r,
    coinciding arguments) evaluate each distinct Bessel value once."""
    Y, lam = args.Y, args.lam
    kvals = {} if kvals is None else kvals
    total = 0.0
    for a, q, coeff in _phi_expansion(args.n, args.sign):
        key = (abs(lam + q), 2.0 * Y)
        kval = kvals[key] if key in kvals else kvals.setdefault(key, bessel_k(*key))
        if kval == 0.0:
            continue
        total += coeff * Y ** (a - lam - q) * kval
    return total

