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

One smallest-prime-factor sieve (smallest_prime_factors, built on demand)
gives phi, mu and d over 1..N as multiplicative functions, the exact
integer Ramanujan sums C_c(r) = sum over d | (c, r) of mu(c/d) d, and the
factorizations that kloosterman_sums walks.  Single-modulus Kloosterman
sums come from kloosterman_matrix, a product of root-of-unity tables over
the units mod c and their inverses, taken in O(c) from the powers of a
generator mod each prime power of c (O(c) per sum).  The Kloosterman
zeta's K_c, c = 1..C, come from kloosterman_sums by twisted
multiplicativity over c = prod_i q_i,

    K(a, b; c) = prod_i K(a, b u_i*^2; q_i),   u_i = c / q_i mod q_i,

with one FFT row K(x, t; q) over all t mod q per prime power q.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def smallest_prime_factors(N: int) -> np.ndarray:
    """spf[n], the smallest prime factor of n, for n = 0..N (spf[0] = 0, spf[1] = 1)."""
    spf = np.arange(N + 1, dtype=np.int64)
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p::p], p, out=spf[p * p::p])
    return spf


def _multiplicative(N: int, at_prime_power) -> np.ndarray:
    """[f(1), ..., f(N)] for the multiplicative f with f(p^e) = at_prime_power(p, e).

    Each n >= 2 is p^e m with p = spf(n) prime to m, so f(n) = f(p^e) f(m);
    the pass f[n] <- f(p^e) f[m] runs until it changes nothing, at most once
    per distinct prime of n.
    """
    p = smallest_prime_factors(N)[2:]
    m, e = np.arange(2, N + 1, dtype=np.int64) // p, np.ones_like(p)
    while (more := m % p == 0).any():
        m[more] //= p[more]
        e[more] += 1
    at_pe = at_prime_power(p, e)
    f = np.ones(N + 1, dtype=np.int64)
    while not np.array_equal(f[2:], nxt := at_pe * f[m]):
        f[2:] = nxt
    return f[1:]


def totient_sieve(N: int) -> np.ndarray:
    """[phi(1), ..., phi(N)], phi(p^e) = p^e - p^(e-1)."""
    return _multiplicative(N, lambda p, e: p**e - p ** (e - 1))


def mobius_sieve(N: int) -> np.ndarray:
    """[mu(1), ..., mu(N)], mu(p) = -1 and mu(p^e) = 0 for e >= 2."""
    return _multiplicative(N, lambda p, e: np.where(e == 1, -1, 0))


def divisor_count(n: int) -> int:
    """d(n): number of positive divisors."""
    return len(divisors(n))


def divisor_sieve(N: int) -> np.ndarray:
    """[d(1), ..., d(N)], d(p^e) = e + 1."""
    return _multiplicative(N, lambda p, e: e + 1)


def ramanujan_sieve(N: int, r: int) -> np.ndarray:
    """[C_1(r), ..., C_N(r)] in exact integers, C_c(r) = sum_{d | (c, r)} mu(c/d) d
    (every d divides r = 0, so C_c(0) = phi(c))."""
    mu = mobius_sieve(N)
    out = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        if r % d == 0:
            out[d::d] += d * mu[:N // d]
    return out[1:]


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
    """Arrays (units, inverses) of residues 1..c coprime to c, ascending, in 1..c.

    The units mod a prime power q = p^e are the +-g^k, k < h = q/4, g = 5,
    for p = 2, e >= 2, and the g^k, k < h = phi(q), with g the least
    primitive root mod odd p (g + p where g^(p-1) = 1 mod p^2); the inverse
    of +-g^k is +-g^(h-k).  For composite c the inverses are a CRT sum.
    """
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    if c == 1:
        return np.array([1], dtype=np.int64), np.array([1], dtype=np.int64)
    spf = smallest_prime_factors(math.isqrt(c))
    primes = np.flatnonzero(spf == np.arange(len(spf)))[2:].tolist()
    inv, is_unit = np.zeros(c, dtype=np.int64), np.ones(c, dtype=bool)
    for p, q in _prime_powers(c, primes):
        g, h = (5, max(q // 4, 1)) if p == 2 else (_primitive_root(p, primes), q - q // p)
        if p > 2 and pow(g, p - 1, p * p) == 1:
            g += p  # then a primitive root mod every p^e
        pw = _powers(g, q, h)
        inv_pw = np.concatenate((pw[:1], pw[:0:-1]))  # g^(h-k), the inverse of g^k
        inv_q = np.zeros(q, dtype=np.int64)  # at the residues 0..q-1, 0 at non-units
        inv_q[pw] = inv_pw
        if p == 2:
            inv_q[q - pw] = q - inv_pw
        if q == c:  # a prime power: no CRT
            return (units := np.flatnonzero(inv_q)), inv_q[units]
        is_unit.reshape(-1, q)[...] &= inv_q > 0  # residue j q + r of c at r mod q
        inv.reshape(-1, q)[...] += inv_q * (c // q * pow(c // q, -1, q))  # 1 mod q, 0 mod c/q
    units = np.flatnonzero(is_unit)
    return units, inv[units] % c


def _prime_powers(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """[(p, p^e)] over the primes p of n, from the primes up to sqrt(n)."""
    out = [(p, math.gcd(n, p ** n.bit_length())) for p in primes if n % p == 0]  # the p-part
    rest = n // math.prod(q for _, q in out)
    return out + [(rest, rest)] * (rest > 1)


def _primitive_root(p: int, primes: list[int]) -> int:
    """The least g with g^((p-1)/r) != 1 (mod p) for each prime r | p - 1, p odd."""
    cofactors = [(p - 1) // r for r, _ in _prime_powers(p - 1, primes)]
    return next(g for g in range(2, p) if all(pow(g, k, p) != 1 for k in cofactors))


def _powers(g: int, q: int, h: int) -> np.ndarray:
    """[g^k mod q, k < h]: baby steps g^j, giant steps g^(jM), M = ceil(sqrt(h)), outer product."""
    M = math.isqrt(h - 1) + 1
    baby, giant = [1], [1]
    for _ in range(M - 1):
        baby.append(baby[-1] * g % q)
    for _ in range((h - 1) // M):
        giant.append(giant[-1] * baby[-1] * g % q)
    return (np.multiply.outer(giant, baby) % q).ravel()[:h]


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
    a = np.array([int(x) % c for x in a], dtype=np.int64)  # as Python ints: any size
    b = np.array([int(x) % c for x in b], dtype=np.int64)
    roots = np.exp((2j * math.pi / c) * np.arange(c))
    A = roots[np.mod(np.multiply.outer(a, units), c)]
    B = roots[np.mod(np.multiply.outer(b, invs), c)]
    return A @ B.T


def kloosterman_sums(C: int, a, b):
    """Yield (c, K_c) for c = 1..C, K_c the real matrix K(a_i, b_j; c), as
    the product over the prime powers q_i of c of K(a, b u_i*^2; q_i).

    The rows of q (_prime_power_rows) are built once, at c = q, and dropped
    after its last multiple up to C, or at once if 4 q > C, with the factors
    of the later multiples m q (m = 2, 3 prime to q): holding those rows
    would nearly double the peak memory."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    spf = smallest_prime_factors(C).tolist()
    rows, later = {}, {}
    for c in range(1, C + 1):
        K = np.ones((len(a), len(b)))
        n = c
        while n > 1:
            p, q = spf[n], 1
            while n % p == 0:
                n, q = n // p, q * p
            if (c, q) in later:
                K *= later.pop((c, q))
                continue
            if q not in rows:
                rows[q] = _prime_power_rows(q, a, b)
            ab, offset, table = rows[q]
            factor = lambda m: table.take(ab * pow(m, -2, q) % q + offset)  # at c = m q
            K *= factor(c // q)
            if 4 * q > C:
                later.update(((m * q, q), factor(m)) for m in (2, 3) if m * q <= C and m % p)
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
        f[invs] = np.exp((-2j * math.pi / q) * (units * x % q))
        table[i] = np.fft.fft(f).real
    ab = np.multiply.outer(np.where(g == q, 1, a // g) % q, b % q) % q
    return ab, q * row_of.reshape(-1, 1), table.ravel()


def weil_bound(a: int, b: int, c: int) -> float:
    """Weil's estimate: |K(a,b;c)| <= sqrt(c) * min over the two arguments
    of sqrt(gcd) * d(c / gcd)."""
    ga = math.gcd(abs(a), c) if a != 0 else c
    gb = math.gcd(abs(b), c) if b != 0 else c
    bound_a = math.sqrt(ga) * divisor_count(c // ga)
    bound_b = math.sqrt(gb) * divisor_count(c // gb)
    return math.sqrt(c) * min(bound_a, bound_b)
