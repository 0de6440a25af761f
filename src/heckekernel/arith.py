"""Exact integer and multiplicative arithmetic.

Provides the classical exponential sums and divisor-type functions:

    phi(c)        Euler totient, #{1 <= a <= c : gcd(a, c) = 1}
    d(n)          number of positive divisors
    sigma_e(r)    sum of d^e over positive divisors d of |r| (complex e)
    C_c(r)        Ramanujan sum, sum of e(a r / c) over units a mod c
    K(a, b; c)    Kloosterman sum, sum of e((a m + b m*) / c) over units m

All residue sums run over 1 <= m <= c with gcd(m, c) = 1, so c = 1
contributes the single term m = 1.  This is the convention under which
the Dirichlet series  sum_c C_c(r)/c^s = sigma_{1-s}(r)/zeta(s)  holds.

Single-modulus Ramanujan and Kloosterman sums come from kloosterman_matrix,
a product of root-of-unity tables over the units mod c and their inverses
(O(c) per sum); integer-valued results are asserted to be within 1e-9 of
an integer before rounding.  The Kloosterman zeta's K_c, c = 1..C, come
from kloosterman_sums by twisted multiplicativity over c = prod_i q_i,

    K(a, b; c) = prod_i K(a, b u_i*^2; q_i),   u_i = c / q_i mod q_i,

with one FFT row K(x, t; q) over all t mod q per prime power q.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import PrecisionLoss

_INT_TOL = 1e-9


def euler_phi(c: int) -> int:
    """Euler totient phi(c) by trial-division factorization."""
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    result = c
    n = c
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def divisor_count(n: int) -> int:
    """d(n): number of positive divisors."""
    return len(divisors(n))


def divisor_sieve(C: int) -> np.ndarray:
    """[d(1), ..., d(C)] by a sieve over the multiples of each i <= C."""
    d = np.zeros(C + 1, dtype=np.int64)
    for i in range(1, C + 1):
        d[i::i] += 1
    return d[1:]


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def divisor_sigma(exponent: complex, r: int) -> complex:
    """sigma_exponent(r) = sum_{d | |r|} d^exponent, r != 0.

    The exponent may be complex; real integer exponents give exact-ish
    integer results (plain float powers of ints).
    """
    if r == 0:
        raise ValueError("r must be nonzero")
    e = complex(exponent)
    total = 0j
    for d in divisors(abs(r)):
        if e == 0:
            total += 1
        else:
            total += complex(d) ** e
    if abs(total.imag) == 0.0:
        return complex(total.real, 0.0)
    return total


def _unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (units, inverses) of residues 1..c coprime to c.

    Inverses are computed as m^(phi(c)-1) mod c with vectorised
    square-and-multiply; both arrays use the 1..c representatives.
    """
    if c == 1:
        return np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)
    m = np.arange(1, c + 1, dtype=np.int64)
    units = m[np.gcd(m, c) == 1]
    exp = euler_phi(c) - 1
    result = np.ones_like(units)
    base = units % c
    e = exp
    while e > 0:
        if e & 1:
            result = (result * base) % c
        base = (base * base) % c
        e >>= 1
    result[result == 0] = c
    return units, result


@functools.lru_cache(maxsize=8192)
def unit_inverse_table(c: int) -> tuple[np.ndarray, np.ndarray]:
    """_unit_inverses(c), cached for the lattice kernels that reread it
    (the Kloosterman kernels read each table once and build it uncached)."""
    return _unit_inverses(c)


def kloosterman_matrix(c: int, a, b) -> np.ndarray:
    """Complex matrix K(a_i, b_j; c) = sum over units m of e((a_i m + b_j m*)/c).

    One (len(a) x phi(c)) @ (phi(c) x len(b)) product of tables of the c-th
    roots of unity over _unit_inverses(c), the reference for kloosterman_sums.
    """
    units, invs = _unit_inverses(c)
    a = np.mod(np.asarray(a, dtype=np.int64), c)
    b = np.mod(np.asarray(b, dtype=np.int64), c)
    roots = np.exp((2j * math.pi / c) * np.arange(c))
    A = roots[np.mod(np.multiply.outer(a, units), c)]
    B = roots[np.mod(np.multiply.outer(b, invs), c)]
    return A @ B.T


def kloosterman_sums(C: int, a, b):
    """Yield (c, K_c) for c = 1..C, K_c the real matrix K(a_i, b_j; c), as
    the product over the prime powers q_i of c of K(a, b u_i*^2; q_i).

    The rows of q (_prime_power_rows) are built at c = q and dropped after
    its last multiple up to C, or at once if 4 q > C: holding those rows
    until their two or three multiples would nearly double the peak memory."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    spf = np.arange(C + 1)
    for p in range(2, math.isqrt(C) + 1):
        np.minimum(spf[p * p::p], p, out=spf[p * p::p])
    spf = spf.tolist()
    rows = {}
    for c in range(1, C + 1):
        K = np.ones((len(a), len(b)))
        n = c
        while n > 1:
            p, q = spf[n], 1
            while n % p == 0:
                n, q = n // p, q * p
            if q not in rows:
                rows[q] = _prime_power_rows(q, a, b)
            ab, offset, table = rows[q]
            K *= table.take(ab * pow(c // q, -2, q) % q + offset)
            if c + q > C or 4 * q > C:
                del rows[q]
        yield c, K


def _prime_power_rows(q: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """(ab, offset, table) with K(a_i, b_j w; q) = table[ab[i, j] w mod q + offset[i]].

    With g = gcd(a_i, q) and a' = a_i / g (a' = 1 if q | a_i), K(a_i, t; q) =
    K(g, a' t; q): the table holds one row K(g, t; q), t = 0..q-1, per
    distinct g, each one length-q FFT of f[m*] = e(-g m / q) over the units
    m, and ab[i, j] = a' b_j mod q."""
    g = np.gcd(a, q)
    gs, row_of = np.unique(g, return_inverse=True)
    units, invs = _unit_inverses(q)
    f = np.zeros(q, dtype=np.complex128)
    table = np.empty((len(gs), q))
    for i, x in enumerate(gs.tolist()):
        f[invs % q] = np.exp((-2j * math.pi / q) * (units * x % q))
        table[i] = np.fft.fft(f).real
    ab = np.multiply.outer(np.where(g == q, 1, a // g) % q, b % q) % q
    return ab, q * row_of.reshape(-1, 1), table.ravel()


def ramanujan_sum(c: int, r: int) -> int:
    """Ramanujan sum C_c(r) = K(r, 0; c), rounded to its integer value."""
    val = complex(kloosterman_matrix(c, [r], [0])[0, 0])
    nearest = round(val.real)
    if abs(val.imag) >= _INT_TOL or abs(val.real - nearest) >= _INT_TOL:
        raise PrecisionLoss(
            f"C_{c}({r}) = {val} deviates from an integer by >= {_INT_TOL}"
        )
    return int(nearest)


def weil_bound(a: int, b: int, c: int) -> float:
    """Weil's estimate: |K(a,b;c)| <= sqrt(c) * min over the two arguments
    of sqrt(gcd) * d(c / gcd)."""
    ga = math.gcd(abs(a), c) if a != 0 else c
    gb = math.gcd(abs(b), c) if b != 0 else c
    bound_a = math.sqrt(ga) * divisor_count(c // ga)
    bound_b = math.sqrt(gb) * divisor_count(c // gb)
    return math.sqrt(c) * min(bound_a, bound_b)
