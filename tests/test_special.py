import math
import random

import mpmath as mp
import pytest

from heckekernel.errors import PoleAt
from heckekernel.special import (
    bessel_k,
    gamma_fn,
    phi_factor,
    rgamma,
    zeta_fn,
    zeta_near_one,
)
from heckekernel.types import PhiArgs

from oracles import phi_factor_fd

mp.mp.dps = 30


class TestGamma:
    def test_one(self):
        assert gamma_fn(1) == pytest.approx(1.0, rel=1e-13)

    def test_factorial(self):
        assert gamma_fn(5) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma_fn(0.5) == pytest.approx(1.7724538509055160273, rel=1e-12)

    def test_against_mpmath_grid(self):
        pts = [0.1, 2.5 + 3j, -1.5 + 0.3j, 8 - 2j, 12.3, 0.25 - 0.7j, -3.2 + 1j]
        for s in pts:
            ref = complex(mp.gamma(s))
            assert abs(gamma_fn(s) - ref) / abs(ref) < 1e-12

    def test_functional_equation(self):
        rng = random.Random(7)
        for _ in range(100):
            s = complex(rng.uniform(0.05, 9.0), rng.uniform(-4.0, 4.0))
            lhs = gamma_fn(s + 1)
            rhs = s * gamma_fn(s)
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_pole(self):
        for k in (0, -1, -5):
            with pytest.raises(PoleAt):
                gamma_fn(k)

    def test_rgamma_zero_at_poles(self):
        assert rgamma(0) == 0
        assert rgamma(-3) == 0
        assert rgamma(2.5) == pytest.approx(1.0 / gamma_fn(2.5))


class TestZeta:
    def test_two(self):
        assert zeta_fn(2).real == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_four(self):
        assert zeta_fn(4).real == pytest.approx(math.pi**4 / 90, rel=1e-12)

    def test_three(self):
        assert zeta_fn(3).real == pytest.approx(1.2020569031595943, rel=1e-12)

    def test_against_mpmath(self):
        for s in [0.6, 0.75, 1.5, 2 + 3j, 0.51 + 0.2j, 6, 11.5]:
            ref = complex(mp.zeta(s))
            assert abs(zeta_fn(s) - ref) / abs(ref) < 1e-10

    def test_euler_product(self):
        s = 4.0
        prod = 1.0
        sieve = [True] * 100_001
        for p in range(2, 100_001):
            if sieve[p]:
                for q in range(p * p, 100_001, p):
                    sieve[q] = False
                prod *= 1.0 / (1.0 - p ** (-s))
        assert prod == pytest.approx(zeta_fn(s).real, abs=1e-6)

    def test_pole(self):
        with pytest.raises(PoleAt):
            zeta_fn(1.0)

    def test_near_one_expansion(self):
        for u in (1e-8, -1e-7, 3e-6):
            ref = mp.zeta(mp.mpf(1) + mp.mpf(u))
            assert abs(zeta_near_one(u) - complex(ref)) / abs(complex(ref)) < 1e-12


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi / (2x)) exp(-x)
        for x in (0.5, 2.0, 7.0):
            expected = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert bessel_k(0.5, x) == pytest.approx(expected, rel=1e-12)

    def test_order_symmetry(self):
        assert bessel_k(-0.5, 2.0) == bessel_k(0.5, 2.0)
        assert bessel_k(-2.3, 1.7) == bessel_k(2.3, 1.7)

    def test_recurrence(self):
        # K_{l+1}(x) = K_{l-1}(x) + (2 l / x) K_l(x)
        for lam, x in ((0.5, 4.0), (1.0, 2.5), (2.5, 6.0)):
            lhs = bessel_k(lam + 1, x)
            rhs = bessel_k(lam - 1, x) + (2 * lam / x) * bessel_k(lam, x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_against_mpmath(self):
        for lam, x in [(0.5, 2), (1.5, 4), (0, 1), (2.5, 0.3), (3, 10), (0.5, 0.05), (7.5, 3), (2.1, 6.28)]:
            ref = float(mp.besselk(lam, x))
            assert bessel_k(lam, x) == pytest.approx(ref, rel=1e-10)

    def test_underflow_flag(self):
        # beyond x = 700 the value is flagged by being exactly 0.0
        assert bessel_k(0.5, 701.0) == 0.0
        assert bessel_k(0.5, 2.0) > 0.0

    def test_decreasing_and_log_convex(self):
        for lam in (0.0, 0.5, 1.5):
            xs = [0.5 + 0.25 * i for i in range(79)]
            vals = [bessel_k(lam, x) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            logs = [math.log(v) for v in vals]
            for i in range(1, len(logs) - 1):
                assert logs[i] <= 0.5 * (logs[i - 1] + logs[i + 1]) + 1e-12

    def test_subexponential_factor_decays(self):
        # e^(0.9 x) K(x) -> 0 monotonically at x = 10, 20, 40
        vals = [math.exp(0.9 * x) * bessel_k(1.5, x) for x in (10.0, 20.0, 40.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            bessel_k(0.5, 0.0)


class TestPhiFactor:
    def test_zeroth_derivative_closed_form(self):
        for Y, lam in ((0.7, -0.5), (1.3, 0.8), (2.0, 1.5)):
            expected = Y ** (-lam) * bessel_k(lam, 2 * Y)
            assert phi_factor(PhiArgs(1, Y, 0, lam)) == pytest.approx(expected, rel=1e-12)
            assert phi_factor(PhiArgs(-1, Y, 0, lam)) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences_n2_positive(self):
        sym = phi_factor(PhiArgs(1, 1.0, 2, -0.5))
        fd = phi_factor_fd(1, 1.0, 2, -0.5)
        assert sym == pytest.approx(fd, rel=1e-5)

    def test_matches_finite_differences_n2_negative_sign(self):
        # for sign = -1, lam = -1/2 the bracketed function is constant, so
        # the derivative factor vanishes identically
        sym = phi_factor(PhiArgs(-1, 2.0, 2, -0.5))
        fd = phi_factor_fd(-1, 2.0, 2, -0.5)
        assert sym == 0.0
        assert abs(fd) < 1e-9

    @pytest.mark.parametrize("sign,Y,n,lam", [
        (1, 1.5, 1, 0.7), (1, 3.0, 2, 1.5), (-1, 1.2, 1, 0.3), (-1, 2.5, 2, 1.1),
    ])
    def test_matches_finite_differences_grid(self, sign, Y, n, lam):
        sym = phi_factor(PhiArgs(sign, Y, n, lam))
        fd = phi_factor_fd(sign, Y, n, lam)
        assert sym == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_derivative_order_ceiling(self):
        with pytest.raises(ValueError):
            PhiArgs(1, 1.0, 9, 0.5)

    def test_underflow_propagates_to_zero(self):
        assert phi_factor(PhiArgs(1, 400.0, 2, -0.5)) == 0.0
