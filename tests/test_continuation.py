import cmath
import math

import numpy as np
import pytest

from heckekernel.arith import divisor_sigma
from heckekernel.continuation import (
    a0_sum,
    alpha_const,
    alpha_const_m2,
    ar_sum,
    arprime_sum,
    arrprime_sum,
    beta_mode,
    c_prefactor,
    kloosterman_zeta,
    s_series_fourier,
    shift_correction,
    xi_extrapolated,
    xi_fourier,
    xi_star,
    omega2,
)
from heckekernel.errors import PoleAt
from heckekernel.latsum import limit_fit, s_series_direct, xi_direct
from heckekernel.special import bessel_k, gamma_fn, phi_factor, zeta_fn
from heckekernel.types import FourierAssemblyConfig, PhiArgs, TruncationPolicy

Z1 = 0.1 + 1.2j
Z2 = -0.3 + 0.9j

FAST_CFG = FourierAssemblyConfig(R=6, C=600, corr_C=80, corr_K=40, tol=1e-2)
DIRECT_POL = TruncationPolicy(B=100_000, tol=1e-2)


class TestSSeriesFourier:
    @pytest.mark.parametrize("z", [0.3 + 1.1j, 1j, -0.2 + 0.7j])
    @pytest.mark.parametrize("n,s", [(0, 1.6), (0, 2.0), (1, 1.6), (2, 2.0), (3, 2.3)])
    def test_matches_direct_sum(self, z, n, s):
        d = s_series_direct(z, n, s, DIRECT_POL)
        f = s_series_fourier(z, n, s, R=20)
        assert abs(d.value - f.value) / abs(d.value) < 1e-8

    def test_low_height_needs_more_modes(self):
        z = 0.2 + 0.3j
        d = s_series_direct(z, 0, 2.0, DIRECT_POL)
        f = s_series_fourier(z, 0, 2.0, R=40)
        assert abs(d.value - f.value) / abs(d.value) < 1e-7

    def test_corrupted_prefactor_fails(self):
        # negative control: halving the constant term (the misprinted
        # variant) must break the equivalence
        z, n, s = 0.3 + 1.1j, 0, 2.0
        d = s_series_direct(z, n, s, DIRECT_POL).value
        f = s_series_fourier(z, n, s, R=20).value
        corrupted = f - 0.5 * alpha_const(n, s) * z.imag ** (1 + n - 2 * s)
        assert abs(d - corrupted) / abs(d) > 1e-2

    def test_mode_truncation_bound(self):
        z = 0.3 + 1.2j
        f5 = s_series_fourier(z, 0, 1.8, R=5)
        f10 = s_series_fourier(z, 0, 1.8, R=10)
        assert abs(f5.value - f10.value) <= f5.err_estimate

    def test_rejects_convergence_boundary(self):
        # s = (n + 1)/2 is a pole of the continuation for even n
        with pytest.raises(PoleAt):
            s_series_fourier(1j, 2, 1.5)


class TestCoefficients:
    def test_alpha_m2_closed_form_matches_moment_sum(self):
        for sigma in (1.7, 2.0, 2.6, 3.1):
            head, zero = alpha_const_m2(sigma)
            assert head * zero == pytest.approx(alpha_const(2, sigma), rel=1e-12)

    def test_alpha0_value(self):
        # sqrt(pi) Gamma(sigma - 1/2) / Gamma(sigma)
        for sigma in (1.0, 1.5, 2.0):
            expected = math.sqrt(math.pi) * gamma_fn(sigma - 0.5) / gamma_fn(sigma)
            assert alpha_const(0, sigma) == pytest.approx(expected, rel=1e-12)

    def test_a0_boundary_value(self):
        # at s = n = 1 the zeta pole cancels the Gamma zero:
        # a0 -> -3 / (y1 y2)
        val = a0_sum(1, 1.0, Z1, Z2)
        assert val == pytest.approx(-3.0 / (Z1.imag * Z2.imag), rel=1e-10)

    def test_a0_limit_branch_continuity(self):
        at = a0_sum(1, 1.0, Z1, Z2)
        for eps in (1e-7, -1e-7, 1e-9):
            near = a0_sum(1, 1.0 + eps, Z1, Z2)
            assert abs(near - at) < 1e-5

    def test_a0_against_partial_totient_sums(self):
        # n = 0, s = 2: zeta(7)/zeta(8) from phi(c)/c^8 partial sums
        n, s = 0, 2.0
        C = 100_000
        phi = np.arange(C + 1, dtype=np.int64)
        for p in range(2, C + 1):
            if phi[p] == p:
                phi[p::p] -= phi[p::p] // p
        c = np.arange(1, C + 1, dtype=np.float64)
        dirichlet = float(np.sum(phi[1:] / c**8))
        expected = (
            dirichlet
            / zeta_fn(8).real
            * zeta_fn(8).real  # the ratio zeta(7)/zeta(8) appears via the sum itself
        )
        val = a0_sum(n, s, Z1, Z2)
        closed = (
            dirichlet
            * alpha_const(0, 2 * s).real ** 2
            * (Z1.imag * Z2.imag) ** (1 - 4 * s)
        )
        assert val.real == pytest.approx(closed, rel=1e-6)

    def test_a0_sign_alternation(self):
        # the (-1)^n prefactor flips the sign between n = 0 and n = 1
        s = 1.6
        assert a0_sum(0, s, Z1, Z2).real > 0
        assert a0_sum(1, s, Z1, Z2).real < 0

    def test_ar_vanishes_at_boundary(self):
        assert ar_sum(1, 1, 1.0, Z1, Z2) == 0
        assert ar_sum(-3, 1, 1.0, Z1, Z2) == 0

    def test_ar_decay(self):
        s = 1.25
        mags = [abs(ar_sum(r, 1, s, Z1, Z2)) for r in (1, 2, 4)]
        assert mags[0] > mags[1] > mags[2]

    def test_arprime_finite_nonzero_at_boundary(self):
        val = arprime_sum(1, 1, 1.0, Z1, Z2)
        assert 0 < abs(val) < 1.0

    def test_arprime_decay(self):
        mags = [abs(arprime_sum(rp, 1, 1.25, Z1, Z2)) for rp in (1, 2, 4)]
        assert mags[0] > mags[1] > mags[2]

    def test_arprime_phi_consistency(self):
        # replacing the exact derivative factor by its finite-difference
        # oracle moves the value by < 1e-5 relative
        from heckekernel.special import phi_factor_fd

        rp, n, s = 1, 1, 1.3
        exact = arprime_sum(rp, n, s, Z1, Z2)
        Y = math.pi * abs(rp) * Z1.imag
        lam = 2 * s - 2 * n - 0.5
        ratio = phi_factor_fd(1, Y, 2 * n, lam) / phi_factor(PhiArgs(1, Y, 2 * n, lam))
        assert abs(ratio - 1.0) < 1e-5
        assert abs(exact * ratio - exact) / abs(exact) < 1e-5

    def test_c_prefactor_at_boundary(self):
        # C(1, 1) = -pi^(5/2)
        assert c_prefactor(1, 1.0) == pytest.approx(-math.pi**2.5, rel=1e-12)

    def test_arrprime_prefactor_identity(self):
        # the beta product equals C(n,s) |r|^(2s-n-1/2) |r'|^(4s-2n-1)
        # y2^(n+1/2-2s) K_(2s-n-1/2)(2 pi |r| y2) Phi(pi |r'| y1) Z(...)
        n, s, r, rp = 1, 1.3, 2, -1
        val = arrprime_sum(r, rp, n, s, Z1, Z2, C=400)
        zval, _ = kloosterman_zeta(r, rp, 4 * s - 2 * n, 400)
        y1, y2 = Z1.imag, Z2.imag
        sgn = 1 if rp > 0 else -1
        expected = (
            c_prefactor(n, s)
            * abs(r) ** (2 * s - n - 0.5)
            * abs(rp) ** (4 * s - 2 * n - 1)
            * y2 ** (n + 0.5 - 2 * s)
            * bessel_k(2 * s - n - 0.5, 2 * math.pi * abs(r) * y2)
            * phi_factor(PhiArgs(sgn, math.pi * abs(rp) * y1, 2 * n, 2 * s - 2 * n - 0.5))
            * zval
        )
        assert val == pytest.approx(expected, rel=1e-11)

    def test_arrprime_magnitude_bound(self):
        # |A^(r,r')| <= |prefactors| * sqrt(min(|r|,|r'|)) zeta(4s-2n-1/2)^2
        n, s, r, rp = 1, 1.2, 1, 1
        val = abs(arrprime_sum(r, rp, n, s, Z1, Z2, C=2000))
        zeta_bound = abs(zeta_fn(4 * s - 2 * n - 0.5)) ** 2
        y1, y2 = Z1.imag, Z2.imag
        bound = (
            abs(c_prefactor(n, s))
            * y2 ** (n + 0.5 - 2 * s)
            * bessel_k(2 * s - n - 0.5, 2 * math.pi * y2)
            * abs(phi_factor(PhiArgs(1, math.pi * y1, 2 * n, 2 * s - 2 * n - 0.5)))
            * zeta_bound
        )
        assert val <= bound

    def test_mode_families_decrease(self):
        s = 1.25
        za, zb = 0.1 + 1.1j, -0.2 + 1.3j
        arr = [abs(arrprime_sum(r, 1, 1, s, za, zb, C=400)) for r in (1, 2, 3)]
        assert arr[0] > arr[1] > arr[2]


class TestKloostermanZeta:
    def test_matches_naive_sum(self):
        from heckekernel.arith import kloosterman_abc

        for r, rp, p in ((1, 1, 2.6), (2, -3, 2.2)):
            naive = sum(kloosterman_abc(r, -rp, c) * c ** (-p) for c in range(1, 200))
            fast, _ = kloosterman_zeta(r, rp, p, C=199)
            assert fast == pytest.approx(naive, abs=1e-10)

    def test_printed_pairing_differs(self):
        a, _ = kloosterman_zeta(1, 2, 2.5, C=150, pairing="derived")
        b, _ = kloosterman_zeta(1, 2, 2.5, C=150, pairing="printed")
        assert abs(a - b) > 1e-3

    def test_weil_tail_bound_honored_stepwise(self):
        # partial sums never exceed the Weil majorant at any truncation
        from heckekernel.arith import divisor_count, kloosterman_abc

        r, rp, p = 1, 1, 2.0
        partial = 0.0
        majorant = 0.0
        for c in range(1, 300):
            partial += abs(kloosterman_abc(r, -rp, c)) * c ** (-p)
            majorant += divisor_count(c) * c ** (0.5 - p)
            assert partial <= majorant + 1e-12

    def test_weil_tail_bit_identical_to_trial_division(self):
        # the sieve-built running sums reproduce the plain left-to-right
        # sum of d(c) c^(-p) exactly, whichever cutoff is asked for first
        from heckekernel.arith import divisor_count
        from heckekernel.continuation import _weil_zeta_tail

        for exponent in (2.5, 3.1, 4.0):
            p = exponent - 0.5
            full = abs(zeta_fn(p)) ** 2
            for C in (400, 3000, 1200, 1):
                partial = sum(divisor_count(c) * c ** (-p) for c in range(1, C + 1))
                expected = math.sqrt(3) * max(full - partial, 0.0)
                assert _weil_zeta_tail(3, exponent, C) == expected

    def test_every_entry_sums_to_C(self):
        # every (r, r') entry sums c = 1..C, whatever |r| + |r'| is; the
        # reference builds each K(r, -r'; c) from pow(m, -1, c)
        from heckekernel.continuation import _kloosterman_zeta_cached

        rs = (1, -1, 2, -2, 3, -3)
        C, p = 500, 2.5
        Z, T = _kloosterman_zeta_cached(rs, rs, p, C, "derived")
        naive = np.zeros((len(rs), len(rs)), dtype=np.complex128)
        for c in range(1, C + 1):
            units = np.array([m for m in range(1, c + 1) if math.gcd(m, c) == 1])
            invs = np.array([1 if c == 1 else pow(int(m), -1, c) for m in units])
            for i, r in enumerate(rs):
                for j, rp in enumerate(rs):
                    phase = np.exp(2j * np.pi * (r * units - rp * invs) / c)
                    naive[i, j] += phase.sum() * c ** (-p)
        assert np.max(np.abs(np.array(Z) - naive)) < 1e-12
        tail = abs(zeta_fn(p - 0.5)) ** 2 - sum(
            divisor_sigma(0, c).real * c ** (0.5 - p) for c in range(1, C + 1))
        for i, r in enumerate(rs):
            for j, rp in enumerate(rs):
                a_min = min(abs(r), abs(rp))
                assert T[i][j] == pytest.approx(math.sqrt(a_min) * tail, rel=1e-12)

    def test_tail_estimate_consistency(self):
        v1, t1 = kloosterman_zeta(1, 1, 2.0, C=2000)
        v2, _ = kloosterman_zeta(1, 1, 2.0, C=4000)
        assert abs(v1 - v2) <= t1


class TestXiFourier:
    @pytest.mark.parametrize("n,s,tol", [(1, 1.5, 1e-6), (0, 1.5, 1e-8)])
    def test_overlap_with_direct(self, n, s, tol):
        d = xi_direct(Z1, Z2, n, s, TruncationPolicy(H=600, tol=1e-2))
        f = xi_fourier(Z1, Z2, n, s, FAST_CFG, DIRECT_POL)
        assert abs(d.value - f.value) / abs(d.value) < tol

    @pytest.mark.slow
    def test_overlap_slow_decay(self):
        d = xi_direct(Z1, Z2, 1, 1.25, TruncationPolicy(H=600, tol=1e-2))
        cfg = FourierAssemblyConfig(R=6, C=1500, corr_C=100, corr_K=48, tol=1e-2)
        f = xi_fourier(Z1, Z2, 1, 1.25, cfg, DIRECT_POL)
        assert abs(d.value - f.value) / abs(d.value) < 1e-4

    def test_printed_pairing_rejected_by_overlap(self):
        # the alternative double-mode convention fails the direct-sum oracle
        d = xi_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=400, tol=1e-2))
        bad_cfg = FourierAssemblyConfig(R=6, C=600, corr_C=60, corr_K=32, tol=1e-2, pairing="printed")
        f = xi_fourier(Z1, Z2, 1, 1.5, bad_cfg, DIRECT_POL)
        assert abs(d.value - f.value) / abs(d.value) > 1e-5

    def test_exact_translation_invariance(self):
        f1 = xi_fourier(Z1, Z2, 1, 1.5, FAST_CFG, DIRECT_POL).value
        f2 = xi_fourier(Z1 + 1, Z2, 1, 1.5, FAST_CFG, DIRECT_POL).value
        f3 = xi_fourier(Z1, Z2 - 2, 1, 1.5, FAST_CFG, DIRECT_POL).value
        assert abs(f1 - f2) < 1e-12 * abs(f1) + 1e-13
        assert abs(f1 - f3) < 1e-12 * abs(f1) + 1e-13

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            xi_fourier(Z1, Z2, 2, 1.5)
        with pytest.raises(ValueError):
            xi_fourier(Z1, Z2, 1, 0.9)


class TestCorrection:
    def test_decays_in_c(self):
        cfg_small = FourierAssemblyConfig(R=4, C=100, corr_C=30, corr_K=32, tol=1e-2)
        cfg_big = FourierAssemblyConfig(R=4, C=100, corr_C=60, corr_K=32, tol=1e-2)
        a, err_a = shift_correction(Z1, Z2, 1, 1.5, cfg_small)
        b, _ = shift_correction(Z1, Z2, 1, 1.5, cfg_big)
        assert abs(a - b) <= max(err_a, 1e-9)


class TestExtrapolation:
    def test_limit_fit_recovers_polynomial(self):
        xs = [1.1, 1.3, 1.5, 1.7]
        ys = [(2 - x) ** 3 + 1j * x for x in xs]
        val = limit_fit([x - 1.0 for x in xs], ys, range(len(xs)))
        assert val == pytest.approx(1.0 + 1j, rel=1e-12)

    def test_boundary_agreement_with_fourier(self):
        cfg = FourierAssemblyConfig(R=8, C=3000, corr_C=160, corr_K=48, tol=1e-3)
        fb = xi_fourier(Z1, Z2, 1, 1.0, cfg, DIRECT_POL)
        ex = xi_extrapolated(Z1, Z2, 1, 1.0, (1.1, 1.15, 1.25, 1.4, 1.6),
                             TruncationPolicy(H=700, tol=1e-2))
        assert abs(fb.value - ex.value) <= fb.err_estimate + ex.err_estimate
        assert abs(fb.value - ex.value) < 1e-3

    def test_sample_set_robustness(self):
        pol = TruncationPolicy(H=400, tol=1e-2)
        e1 = xi_extrapolated(Z1, Z2, 1, 1.0, (1.2, 1.4, 1.6), pol)
        e2 = xi_extrapolated(Z1, Z2, 1, 1.0, (1.15, 1.35, 1.55), pol)
        assert abs(e1.value - e2.value) < 2 * (e1.err_estimate + e2.err_estimate)

    def test_translation_invariance(self):
        pol = TruncationPolicy(H=300, tol=1e-2)
        e1 = xi_extrapolated(Z1, Z2, 1, 1.0, (1.2, 1.4, 1.6), pol)
        e2 = xi_extrapolated(Z1 + 1, Z2 + 1, 1, 1.0, (1.2, 1.4, 1.6), pol)
        assert abs(e1.value - e2.value) < 1e-6

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            xi_extrapolated(Z1, Z2, samples=(1.2, 1.4))
        with pytest.raises(ValueError):
            xi_extrapolated(Z1, Z2, samples=(0.9, 1.2, 1.4))
        # omega2 shares the sample rules
        with pytest.raises(ValueError):
            omega2(Z1, Z2, samples=(1.3,))
        with pytest.raises(ValueError):
            omega2(Z1, Z2, samples=(1.2, 1.3, 1.3))
        with pytest.raises(ValueError):
            omega2(Z1, Z2, samples=(1.2, 1.4, 1.9))

    def test_rejects_samples_below_abscissa(self, monkeypatch):
        # at n = 2 the direct sum converges only for s > 3/2: the default
        # samples are refused before any of them is evaluated
        import heckekernel.continuation as continuation

        def unexpected(*args, **kwargs):
            raise AssertionError("a sample was evaluated")

        monkeypatch.setattr(continuation, "xi_direct", unexpected)
        with pytest.raises(ValueError, match=r"n = 2 .*\(n \+ 1\)/2 = 1\.5, got samples \(1\.2, 1\.4, 1\.6\)"):
            xi_extrapolated(Z1, Z2, n=2, s_target=1.7)
        with pytest.raises(ValueError, match="abscissa"):
            xi_extrapolated(Z1, Z2, n=2, s_target=1.7, samples=(1.5, 1.6, 1.7))


class TestXiStar:
    @pytest.mark.slow
    def test_inversion_cocycle(self):
        # Xi*(gamma z1, z2) = (c z1 + d)^2 Xi* + 24 c (c z1 + d)  for S
        cfg = FourierAssemblyConfig(R=8, C=2000, corr_C=120, corr_K=48, tol=1e-3)
        z1 = 0.2 + 1.3j
        xs = xi_star(z1, Z2, cfg).value
        xsS = xi_star(-1 / z1, Z2, cfg).value
        resid = abs(xsS - (z1**2 * xs + 24 * z1)) / abs(xsS)
        assert resid < 1e-3
        # the printed constant 12 fails by half the cocycle
        resid12 = abs(xsS - (z1**2 * xs + 12 * z1)) / abs(xsS)
        assert resid12 > 0.1

    def test_translation_invariance(self):
        xs = xi_star(Z1, Z2, FAST_CFG).value
        xsT = xi_star(Z1 + 1, Z2, FAST_CFG).value
        assert abs(xs - xsT) < 1e-6

    @pytest.mark.slow
    def test_holomorphic_in_z1(self):
        # Cauchy-Riemann residual of the completed combination
        cfg = FourierAssemblyConfig(R=8, C=2000, corr_C=120, corr_K=48, tol=1e-3)
        h = 1e-3

        def F(z):
            return xi_star(z, Z2, cfg).value

        fx = (F(Z1 + h) - F(Z1 - h)) / (2 * h)
        fy = (F(Z1 + 1j * h) - F(Z1 - 1j * h)) / (2 * h)
        dbar = 0.5 * (fx + 1j * fy)
        assert abs(dbar) < 1e-3


class TestOmega2:
    @pytest.mark.slow
    def test_vanishes(self):
        for z1, z2 in ((Z1, Z2), (0.25 + 1.05j, -0.15 + 1.3j)):
            r = omega2(z1, z2, policy=TruncationPolicy(H=800, tol=1e-2))
            assert abs(r.value) < 1e-2

    def test_error_estimate_shrinks_with_height(self):
        lo = omega2(Z1, Z2, policy=TruncationPolicy(H=200, tol=1e-2))
        hi = omega2(Z1, Z2, policy=TruncationPolicy(H=400, tol=1e-2))
        assert hi.err_estimate < lo.err_estimate * 1.5
