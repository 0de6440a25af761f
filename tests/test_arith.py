import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckekernel.arith import (
    divisor_count,
    divisor_sieve,
    divisor_sigma,
    divisors,
    euler_phi,
    kloosterman,
    kloosterman_abc,
    kloosterman_matrix,
    mod_inverse,
    ramanujan_sum,
    weil_bound,
)
from heckekernel.errors import NotInvertible
from heckekernel.types import KloostermanParams


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


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    def test_twelve(self):
        assert euler_phi(12) == phi_brute(12) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_primes(self, p):
        assert euler_phi(p) == phi_brute(p) == p - 1

    def test_matches_brute_force(self):
        for c in range(1, 200):
            assert euler_phi(c) == phi_brute(c)


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
    def test_modulus_one(self):
        assert mod_inverse(1, 1) == 1

    def test_three_mod_seven(self):
        assert mod_inverse(3, 7) == 5
        assert (3 * 5) % 7 == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inverse(2, 4)

    def test_range_convention(self):
        for c in range(1, 60):
            for m in range(1, c + 1):
                if math.gcd(m, c) != 1:
                    continue
                inv = mod_inverse(m, c)
                assert 1 <= inv <= c
                assert (m * inv) % c == 1 % c


class TestRamanujan:
    @pytest.mark.parametrize("r", [-3, 0, 1, 7])
    def test_modulus_one(self, r):
        assert ramanujan_sum(1, r) == 1

    def test_small_values(self):
        assert ramanujan_sum(2, 1) == -1
        assert ramanujan_sum(4, 2) == -2

    def test_against_brute_force(self):
        for c in range(1, 40):
            for r in (0, 1, 2, 5, 12):
                assert ramanujan_sum(c, r) == pytest.approx(
                    ramanujan_brute(c, r).real, abs=1e-9
                )

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 50), r=st.integers(-100, 100))
    def test_periodicity(self, c, r):
        assert ramanujan_sum(c, r) == ramanujan_sum(c, r % c)


class TestKloosterman:
    def test_modulus_one(self):
        assert kloosterman(KloostermanParams(1, 1, 1)) == pytest.approx(1)

    def test_modulus_two(self):
        assert kloosterman(KloostermanParams(1, 1, 2)) == pytest.approx(1)

    def test_modulus_five(self):
        expected = 2 + 2 * math.cos(4 * math.pi / 5)
        assert kloosterman(KloostermanParams(1, 1, 5)).real == pytest.approx(expected)
        assert expected == pytest.approx(0.3819660113, abs=1e-9)

    def test_against_brute_force(self):
        for c in range(1, 30):
            for a, b in ((1, 1), (2, 3), (0, 1), (-1, 4)):
                assert kloosterman_abc(a, b, c) == pytest.approx(
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
            assert abs(kloosterman_abc(3, 7, c).imag) < 1e-9

    @settings(max_examples=150, deadline=None)
    @given(c=st.integers(1, 50), a=st.integers(1, 20), b=st.integers(1, 20))
    def test_symmetry(self, c, a, b):
        assert kloosterman_abc(a, b, c) == pytest.approx(kloosterman_abc(b, a, c), abs=1e-9)

    def test_weil_bound_small_grid(self):
        for c in range(1, 60):
            for a in (1, 2, 7):
                for b in (1, 3, 20):
                    assert abs(kloosterman_abc(a, b, c)) <= weil_bound(a, b, c) + 1e-9

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            KloostermanParams(1, 1, 0)
