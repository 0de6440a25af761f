import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckekernel import arith
from heckekernel.arith import (
    divisor_count,
    divisor_sieve,
    divisor_sigma,
    divisors,
    kloosterman_matrix,
    kloosterman_sums,
    mobius_sieve,
    ramanujan_sieve,
    smallest_prime_factors,
    totient_sieve,
    unit_inverse_table,
    weil_bound,
)


def phi_brute(c: int) -> int:
    return sum(1 for a in range(1, c + 1) if math.gcd(a, c) == 1)


def ramanujan_brute(c: int, r: int) -> complex:
    return sum(
        cmath.exp(2j * cmath.pi * a * r / c)
        for a in range(1, c + 1)
        if math.gcd(a, c) == 1
    )


def kloosterman_brute(a: int, b: int, c: int) -> complex:
    total = 0j
    for m in range(1, c + 1):
        if math.gcd(m, c) != 1:
            continue
        minv = 1 if c == 1 else pow(m, -1, c)
        total += cmath.exp(2j * cmath.pi * (a * m + b * minv) / c)
    return total


def phi_of(c: int) -> int:
    return int(totient_sieve(c)[-1])


def ramanujan_of(c: int, r: int) -> int:
    return int(ramanujan_sieve(c, r)[-1])


class TestSieve:
    """The smallest-prime-factor sieve and every array built on it, against
    their definitions for every n <= N."""

    N = 3000

    def test_smallest_prime_factors(self):
        spf = smallest_prime_factors(self.N).tolist()
        assert spf[:2] == [0, 1]
        for n in range(2, self.N + 1):
            assert spf[n] == next(p for p in range(2, n + 1) if n % p == 0)

    def test_totient_mobius_divisor(self):
        phi, mu, d = totient_sieve(self.N), mobius_sieve(self.N), divisor_sieve(self.N)
        assert len(phi) == len(mu) == len(d) == self.N
        for n in range(1, self.N + 1):
            m = np.arange(1, n + 1)
            units = m[np.gcd(m, n) == 1]
            assert phi[n - 1] == len(units)
            assert d[n - 1] == np.count_nonzero(n % m == 0)
            # mu(n) is the sum of the primitive n-th roots of unity
            assert mu[n - 1] == round(np.cos(2 * np.pi * units / n).sum())

    def test_ramanujan_against_exponential_sums(self):
        rs = np.arange(-12, 13)
        table = np.array([ramanujan_sieve(self.N, int(r)) for r in rs])
        assert table.dtype == np.int64
        np.testing.assert_array_equal(table[rs == 0][0], totient_sieve(self.N))
        for c in range(1, self.N + 1):
            # the DFT of the units' indicator mod c: sum over units a of e(-a k / c) = C_c(k)
            sums = np.fft.fft(np.gcd(np.arange(c), c) == 1)
            np.testing.assert_allclose(table[:, c - 1], sums[rs % c], rtol=0, atol=1e-8)

    def test_empty_range(self):
        for table in (totient_sieve(0), mobius_sieve(0), divisor_sieve(0), ramanujan_sieve(0, 6)):
            assert table.tolist() == []


class TestEulerPhi:
    def test_one(self):
        assert phi_of(1) == 1

    def test_twelve(self):
        assert phi_of(12) == phi_brute(12) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_primes(self, p):
        assert phi_of(p) == phi_brute(p) == p - 1

    def test_matches_brute_force(self):
        assert totient_sieve(199).tolist() == [phi_brute(c) for c in range(1, 200)]


class TestDivisors:
    def test_count(self):
        assert divisor_count(1) == 1
        assert divisor_count(6) == len({1, 2, 3, 6}) == 4
        assert divisor_count(16) == len([d for d in range(1, 17) if 16 % d == 0]) == 5

    def test_sieve_matches_count(self):
        assert divisor_sieve(500).tolist() == [divisor_count(c) for c in range(1, 501)]

    def test_divisors_sorted(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_sigma_zero_is_count(self):
        assert divisor_sigma(0, 6) == 4

    def test_sigma_negative_exponent(self):
        assert divisor_sigma(-1, 4) == pytest.approx(1 + 0.5 + 0.25)

    def test_sigma_one(self):
        assert divisor_sigma(1, 6) == pytest.approx(12)

    def test_sigma_uses_absolute_value(self):
        assert divisor_sigma(1, -6) == divisor_sigma(1, 6)

    def test_sigma_rejects_zero(self):
        with pytest.raises(ValueError):
            divisor_sigma(1, 0)


class TestModInverse:
    """The modular inverses of unit_inverse_table(c): units and inverses
    as 1..c representatives."""

    def test_modulus_one(self):
        units, invs = unit_inverse_table(1)
        assert units.tolist() == [1] and invs.tolist() == [1]

    def test_three_mod_seven(self):
        units, invs = unit_inverse_table(7)
        assert dict(zip(units.tolist(), invs.tolist()))[3] == 5
        assert (3 * 5) % 7 == 1

    def test_not_invertible(self):
        units, _ = unit_inverse_table(4)
        assert units.tolist() == [1, 3]
        assert 2 not in units.tolist()

    @pytest.mark.parametrize("c", [0, -3])
    def test_rejects_bad_modulus(self, c):
        with pytest.raises(ValueError):
            unit_inverse_table(c)

    def test_range_convention(self):
        for c in range(1, 60):
            units, invs = unit_inverse_table(c)
            assert units.tolist() == [m for m in range(1, c + 1) if math.gcd(m, c) == 1]
            for m, inv in zip(units.tolist(), invs.tolist()):
                assert 1 <= inv <= c
                assert (m * inv) % c == 1 % c

    def test_every_modulus_up_to_4096(self):
        # the generator tables put together by CRT, uncached: phi(c) ascending
        # units prime to c, each inverse in 1..c
        phi = totient_sieve(4096)
        for c in range(1, 4097):
            units, invs = arith._unit_inverses(c)
            assert units.dtype == invs.dtype == np.int64
            assert len(units) == phi[c - 1] and (np.diff(units) > 0).all()
            assert (np.gcd(units, c) == 1).all() and 1 <= units[0] and units[-1] <= c
            assert ((1 <= invs) & (invs <= c)).all()
            assert (units * invs % c == 1 % c).all()

    def test_lifted_primitive_root(self, monkeypatch):
        # no least primitive root g mod p with p^2 <= 4000 has g^(p-1) = 1
        # (mod p^2); 14 mod 29 does, and its powers miss units mod 841
        assert sorted(pow(14, k, 29) for k in range(28)) == list(range(1, 29))
        assert pow(14, 28, 29 * 29) == 1
        assert len(set(arith._powers(14, 841, 812).tolist())) == 28
        monkeypatch.setattr(arith, "_primitive_root", lambda p, primes: 14 if p == 29 else 2)
        units, invs = arith._unit_inverses(841)
        assert units.tolist() == [m for m in range(1, 842) if m % 29]
        assert invs.tolist() == [pow(m, -1, 841) for m in units.tolist()]


class TestRamanujan:
    @pytest.mark.parametrize("r", [-3, 0, 1, 7])
    def test_modulus_one(self, r):
        assert ramanujan_of(1, r) == 1

    def test_small_values(self):
        assert ramanujan_of(2, 1) == -1
        assert ramanujan_of(4, 2) == -2

    def test_against_brute_force(self):
        for r in (0, 1, 2, 5, 12):
            for c, value in enumerate(ramanujan_sieve(39, r).tolist(), 1):
                assert value == pytest.approx(ramanujan_brute(c, r).real, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 50), r=st.integers(-100, 100))
    def test_periodicity(self, c, r):
        assert ramanujan_of(c, r) == ramanujan_of(c, r % c)


class TestKloosterman:
    def test_modulus_one(self):
        assert kloosterman_matrix(1, [1], [1])[0, 0] == pytest.approx(1)

    def test_modulus_two(self):
        assert kloosterman_matrix(2, [1], [1])[0, 0] == pytest.approx(1)

    def test_modulus_five(self):
        expected = 2 + 2 * math.cos(4 * math.pi / 5)
        assert kloosterman_matrix(5, [1], [1])[0, 0].real == pytest.approx(expected)
        assert expected == pytest.approx(0.3819660113, abs=1e-9)

    def test_against_brute_force(self):
        for c in range(1, 30):
            for a, b in ((1, 1), (2, 3), (0, 1), (-1, 4)):
                assert kloosterman_matrix(c, [a], [b])[0, 0] == pytest.approx(
                    kloosterman_brute(a, b, c), abs=1e-9
                )

    def test_matrix_against_brute_force(self):
        a = (0, 1, -1, 2, -3, 7, 31)
        b = (0, 1, -2, 4, 5, -11)
        for c in range(1, 30):
            K = kloosterman_matrix(c, a, b)
            assert K.shape == (len(a), len(b))
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    assert K[i, j] == pytest.approx(kloosterman_brute(ai, bj, c), abs=1e-9)

    def test_imaginary_part_small(self):
        for c in range(1, 120):
            assert abs(kloosterman_matrix(c, [3], [7])[0, 0].imag) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 50), a=st.integers(1, 20), b=st.integers(1, 20))
    def test_symmetry(self, c, a, b):
        K = kloosterman_matrix(c, [a, b], [a, b])
        assert K[0, 1] == pytest.approx(K[1, 0], abs=1e-9)

    def test_weil_bound_small_grid(self):
        a_list, b_list = (1, 2, 7), (1, 3, 20)
        for c in range(1, 60):
            K = np.abs(kloosterman_matrix(c, a_list, b_list))
            for i, a in enumerate(a_list):
                for j, b in enumerate(b_list):
                    assert K[i, j] <= weil_bound(a, b, c) + 1e-9

    def test_rejects_bad_modulus(self):
        # _unit_inverses refuses c < 1
        with pytest.raises(ValueError):
            kloosterman_matrix(0, [1], [1])


class TestKloostermanSums:
    # the modes +-1..+-8, a = 0, and p-divisible arguments up to 2^9, 3^6, 5^3, 7^3
    A = np.array([k * sgn for k in range(1, 9) for sgn in (1, -1)] + [0, 24, -36, 250, 343, 512, -729])

    def test_against_matrix_every_c(self):
        # c <= 600 covers 2^9, 3^5, 5^3, 7^3 and products of three prime
        # powers; b holds both pairings (-a and a) and b = 0
        b = np.concatenate([-self.A, self.A])
        cs = []
        for c, K in kloosterman_sums(600, self.A, b):
            cs.append(c)
            assert K.dtype == np.float64
            np.testing.assert_allclose(K, kloosterman_matrix(c, self.A, b).real, rtol=0, atol=1e-10)
        assert cs == list(range(1, 601))

    @settings(max_examples=30, deadline=None)
    @given(C=st.integers(1, 2000),
           a=st.lists(st.integers(-50, 50), min_size=1, max_size=4),
           b=st.lists(st.integers(-50, 50), min_size=1, max_size=4))
    def test_last_modulus_against_matrix(self, C, a, b):
        for c, K in kloosterman_sums(C, a, b):
            pass
        assert c == C
        np.testing.assert_allclose(K, kloosterman_matrix(C, a, b).real, rtol=0, atol=1e-10)

    def test_each_prime_power_row_built_once(self, monkeypatch):
        # q in (150, 300] has the later multiples 2q and 3q up to 600, whose
        # factors come from the one build at c = q
        built, rows = [], arith._prime_power_rows
        monkeypatch.setattr(arith, "_prime_power_rows", lambda q, a, b: built.append(q) or rows(q, a, b))
        for _ in kloosterman_sums(600, self.A, -self.A):
            pass
        spf = smallest_prime_factors(600)
        prime_powers = [q for q in range(2, 601) if q == spf[q] ** round(math.log(q, spf[q]))]
        assert built == prime_powers

    def test_modulus_one_and_empty_range(self):
        assert [(c, K.tolist()) for c, K in kloosterman_sums(1, [3, 0], [-2])] == [(1, [[1.0], [1.0]])]
        assert list(kloosterman_sums(0, [1], [1])) == []
