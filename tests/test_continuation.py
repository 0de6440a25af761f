import cmath
import math

import numpy as np
import pytest

from heckekernel import continuation, special
from heckekernel.arith import divisor_sigma, kloosterman_matrix, totient_sieve
from heckekernel.continuation import (
    _kloosterman_zeta_cached,
    _modes,
    _zeta_ratio_times_alpha2n,
    a0_sum,
    alpha_const,
    ar_sum,
    arprime_sum,
    beta_mode,
    s_series_fourier,
    shift_correction,
    xi_extrapolated,
    xi_fourier,
    xi_star,
    xi_tilde_fourier,
    omega2,
)
from heckekernel.errors import PoleAt
from heckekernel.latsum import limit_fit, s_series_direct, xi_direct
from heckekernel.special import bessel_k, gamma_fn, phi_factor, zeta_fn
from heckekernel.types import FourierAssemblyConfig, PhiArgs, TruncationPolicy

from oracles import (alpha_moment_sum, c_prefactor, kloosterman_zeta, kloosterman_zeta_per_c,
                     phi_factor_fd, xi_tilde_per_use)

Z1 = 0.1 + 1.2j
Z2 = -0.3 + 0.9j

FAST_CFG = FourierAssemblyConfig(R=6, C=600, corr_C=80, corr_K=40, tol=1e-2)
DIRECT_POL = TruncationPolicy(B=100_000, tol=1e-2)
# the shift-correction estimate doubles differences of the c <= 5 slices of
# two windows; each slice is rounded at ~1e-19 (0.7 to 1.5e-19 from a 40-digit
# sum at (Z1, Z2), c = 5), so an estimate repeats to ~1e-18 absolute only
ESTIMATE_ROUNDING = 1e-18


def double_mode(r, rp, n, s, z1, z2, C):
    """The (r, r') double-mode coefficient that xi_tilde_fourier sums:
    beta_0(r, 2s - n, y2) beta_2n(r', 2s, y1) Z(r, r')."""
    zval, _ = kloosterman_zeta(r, rp, 4.0 * s - 2.0 * n, C)
    return beta_mode(0, r, 2.0 * s - n, z2.imag) * beta_mode(2 * n, rp, 2.0 * s, z1.imag) * zval


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
    def test_alpha_closed_form_matches_moment_sum(self):
        # m = 0..8, sigma = 0.3 .. 8.0 in steps of 0.1 off the half-integer
        # poles; at the integer zeros the moment sum leaves a cancellation
        # residue where the closed form is exactly 0
        for m in range(9):
            for sigma in (k / 10 for k in range(3, 81) if k % 10 != 5):
                ref = alpha_moment_sum(m, sigma)
                assert alpha_const(m, sigma) == pytest.approx(ref, rel=1e-11, abs=1e-14), (m, sigma)

    def test_alpha0_value(self):
        # sqrt(pi) Gamma(sigma - 1/2) / Gamma(sigma)
        for sigma in (1.0, 1.5, 2.0):
            expected = math.sqrt(math.pi) * gamma_fn(sigma - 0.5) / gamma_fn(sigma)
            assert alpha_const(0, sigma) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a0_boundary_value(self, n):
        # at the edge s = (n + 1)/2 the zeta pole cancels the zero of
        # alpha_2n(2s): zeta(4s-2n-1) alpha_2n(2s) -> -pi/(2n), and
        # a0 -> -3 / (n y1 y2)
        edge = (n + 1) / 2.0
        lead = _zeta_ratio_times_alpha2n(n, edge) * zeta_fn(2.0)
        assert lead == pytest.approx(-math.pi / (2 * n), rel=1e-13)
        val = a0_sum(n, edge, Z1, Z2)
        assert val == pytest.approx(-3.0 / (n * Z1.imag * Z2.imag), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a0_limit_branch_continuity(self, n):
        edge = (n + 1) / 2.0
        at = a0_sum(n, edge, Z1, Z2)
        for eps in (1e-7, -1e-7, 1e-9):
            near = a0_sum(n, edge + eps, Z1, Z2)
            assert abs(near - at) < 1e-5

    def test_a0_against_partial_totient_sums(self):
        # n = 0, s = 2: zeta(7)/zeta(8) from phi(c)/c^8 partial sums
        n, s = 0, 2.0
        C = 100_000
        c = np.arange(1, C + 1, dtype=np.float64)
        dirichlet = float(np.sum(totient_sieve(C) / c**8))
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
        val = double_mode(r, rp, n, s, Z1, Z2, C=400)
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
        val = abs(double_mode(r, rp, n, s, Z1, Z2, C=2000))
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
        arr = [abs(double_mode(r, 1, 1, s, za, zb, C=400)) for r in (1, 2, 3)]
        assert arr[0] > arr[1] > arr[2]


class TestKloostermanZeta:
    def test_matches_naive_sum(self):
        for r, rp, p in ((1, 1, 2.6), (2, -3, 2.2)):
            naive = sum(kloosterman_matrix(c, [r], [-rp])[0, 0] * c ** (-p) for c in range(1, 200))
            fast, _ = kloosterman_zeta(r, rp, p, C=199)
            assert fast == pytest.approx(naive, abs=1e-10)

    def test_printed_pairing_differs(self):
        a, _ = kloosterman_zeta(1, 2, 2.5, C=150, pairing="derived")
        b, _ = kloosterman_zeta(1, 2, 2.5, C=150, pairing="printed")
        assert abs(a - b) > 1e-3

    def test_weil_tail_bound_honored_stepwise(self):
        # partial sums never exceed the Weil majorant at any truncation
        from heckekernel.arith import divisor_count

        r, rp, p = 1, 1, 2.0
        partial = 0.0
        majorant = 0.0
        for c in range(1, 300):
            partial += abs(kloosterman_matrix(c, [r], [-rp])[0, 0]) * c ** (-p)
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
                expected = max(full - partial, 0.0)
                assert _weil_zeta_tail(exponent, C) == expected

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

    @pytest.mark.parametrize("pairing", ["derived", "printed"])
    @pytest.mark.parametrize("exponent", [2.0, 3.0])
    def test_matches_per_c_reference(self, exponent, pairing):
        # the prime-power rows against one direct kloosterman_matrix per c
        rs = tuple(_modes(8))
        Z, T = _kloosterman_zeta_cached(rs, rs, exponent, 1000, pairing)
        ref, ref_tails = kloosterman_zeta_per_c(rs, rs, exponent, 1000, pairing)
        np.testing.assert_allclose(np.array(Z), ref, rtol=1e-13, atol=0)
        assert np.array_equal(np.array(T), ref_tails)

    def test_cold_build_peak_memory(self):
        # a cold R = 8, C = 4000 build stays under the 2.56 MiB that one
        # direct 16 x phi(c) x 16 product per c needs at c near C
        import tracemalloc

        rs = tuple(_modes(8))
        misses = _kloosterman_zeta_cached.cache_info().misses
        tracemalloc.start()
        try:
            _kloosterman_zeta_cached(rs, rs, 3.0625, 4000, "derived")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _kloosterman_zeta_cached.cache_info().misses == misses + 1
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("s", [1.0, 1.4])
    def test_cold_build_bits_pinned(self, s):
        # the R = 8, C = 4000 matrix at the exponent xi_tilde_fourier passes
        # at n = 1, built afresh, pinned to the bytes of the build from
        # modpow unit tables
        import hashlib

        rs = tuple(_modes(8))
        Z, _ = _kloosterman_zeta_cached.__wrapped__(rs, rs, 4.0 * s - 2.0, 4000, "derived")
        assert hashlib.sha256(np.array(Z).tobytes()).hexdigest() == {
            1.0: "fab91b41717e1d39e4979881e0136985543e13ddd1a2875cbda6b8fdb0c0d34d",
            1.4: "1d92cd6094fff9fa76824c4a437f71d95f4d4409a732d14686fb6a8acb646510"}[s]

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

    @pytest.mark.parametrize("n,s", [(2, 1.8), (3, 2.3)])
    def test_overlap_with_direct_above_n1(self, n, s):
        d = xi_direct(Z1, Z2, n, s, TruncationPolicy(H=400, tol=1e-2))
        cfg = FourierAssemblyConfig(R=6, C=600, corr_C=60, corr_K=32, tol=1e-2)
        f = xi_fourier(Z1, Z2, n, s, cfg, DIRECT_POL)
        assert abs(d.value - f.value) <= d.err_estimate + f.err_estimate

    @pytest.mark.parametrize("n,value,estimate", [
        (0, 12.070719950323268 + 1.729000506727656e-19j, 2.558332161913875e-10),
        (1, -4.425681436702716 + 2.980941160543048j, 1.0995471077453612e-06),
    ], ids=["n0", "n1"])
    def test_pinned_cli_default_values(self, n, value, estimate):
        # `eval xi --method fourier --s 1.4` at the CLI defaults; values pinned
        # when the offset expansion summed its 1-D windows at every unit,
        # estimates when the c = 0 sum's round-off floor became a bound
        r = xi_fourier(Z1, Z2, n, 1.4, FourierAssemblyConfig(), TruncationPolicy())
        assert abs(r.value - value) <= 1e-15 * abs(value)
        assert abs(r.err_estimate - estimate) <= 1e-15 * estimate + ESTIMATE_ROUNDING

    def test_rejects_bad_inputs(self):
        # 0 <= n <= 4 (derivative order 2n <= 8) and s >= max(1, (n + 1)/2)
        with pytest.raises(ValueError):
            xi_fourier(Z1, Z2, 5, 3.5)
        with pytest.raises(ValueError):
            xi_fourier(Z1, Z2, 2, 1.4)
        with pytest.raises(ValueError):
            xi_fourier(Z1, Z2, 1, 0.9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 5.0, 0.011])
    def test_assembly_tol_checked_as_policy_tol(self, tol):
        # tol in (0, 1e-2], as TruncationPolicy has it; tol = 0 used to reach
        # the acceptance gate and raise NotConverged, a numerical error
        for config in (FourierAssemblyConfig, TruncationPolicy):
            with pytest.raises(ValueError, match="tol must be in"):
                config(tol=tol)
        assert FourierAssemblyConfig(tol=1e-2).tol == 1e-2


BOUNDARY_CFG = FourierAssemblyConfig(R=8, C=3000, corr_C=160, corr_K=48, tol=1e-3)


class TestFourierGoldenBits:
    """Values and estimates of the Fourier route to the last bit (IEEE
    doubles, numpy's float64 pow), like test_latsum.TestGoldenBits: a change
    that computes each factor fewer times but with the same operations in
    the same order keeps them all."""

    def test_xi_fourier_at_the_boundary(self):
        r = xi_fourier(Z1, Z2, 1, 1.0, BOUNDARY_CFG, TruncationPolicy(B=100_000, tol=1e-2))
        assert r.value == -4.129446780390383 + 1.7116030637905912j
        assert r.err_estimate == 0.0005245632633882536

    def test_xi_tilde_fourier_at_the_boundary(self):
        value, err = xi_tilde_fourier(Z1, Z2, 1, 1.0, BOUNDARY_CFG)
        assert value == -2.813740976794963 - 0.025939771240955235j
        assert err == 0.00020988425634221728

    @pytest.mark.parametrize("n,value,estimate", [
        (0, 12.070719950323268 + 1.758607048773915e-19j, 2.558332161913875e-10),
        (1, -4.425681436702716 + 2.980941160543048j, 1.0995471077453612e-06),
    ], ids=["n0", "n1"])
    def test_xi_fourier_at_cli_defaults(self, n, value, estimate):
        r = xi_fourier(Z1, Z2, n, 1.4, FourierAssemblyConfig(), TruncationPolicy())
        assert r.value == value
        assert r.err_estimate == estimate

    def test_s_series_fourier(self):
        # n = 2: Phi's expansion reads K_(lam+1) in two of its terms
        r = s_series_fourier(0.3 + 1.1j, 2, 2.0, R=20)
        assert r.value == 0.012217162526927021 - 0.03735959390014072j
        assert r.err_estimate == 1.533031764979536e-60


class TestOncePerCall:
    @pytest.mark.parametrize("z1,z2", [(Z1, Z2), (-0.45 + 0.3j, 0.2 + 1.9j)])
    @pytest.mark.parametrize("n,s,pairing", [
        (1, 1.0, "derived"), (0, 1.4, "derived"), (1, 1.4, "derived"), (2, 1.5, "derived"),
        (3, 2.2, "derived"), (4, 2.5, "derived"), (1, 1.3, "printed")])
    def test_shared_factors_keep_every_bit(self, z1, z2, n, s, pairing):
        # the factors computed once per call, and the z2 single modes skipped
        # at the edge, give the per-use assembly's value and estimate exactly
        cfg = FourierAssemblyConfig(R=6, C=600, corr_C=60, corr_K=32, tol=1e-2, pairing=pairing)
        assert xi_tilde_fourier(z1, z2, n, s, cfg) == xi_tilde_per_use(z1, z2, n, s, cfg)

    @pytest.mark.parametrize("n,s,pairs", [(1, 1.0, 24), (0, 1.4, 16)])
    def test_each_bessel_and_zeta_value_once(self, monkeypatch, n, s, pairs):
        # one xi_tilde_fourier call at R = 8 evaluates each distinct Bessel
        # (|order|, argument) and each zeta argument once: 24 pairs at n = 1,
        # s = 1 (the z2 mode R + 1 vanishes there and is not built; K_-1/2 is
        # K_1/2 at the 9 arguments of the beta_2 family, 33 keyed on the signed
        # order) and 16 at n = 0, s = 1.4, where xi_tilde_per_use makes 165 and
        # 66 evaluations; the values keep the bits of the signed-order keys
        bessel_args, zeta_args = [], []
        bessel_k_fn, zeta = special.bessel_k, special.zeta_fn

        def counted_bessel(lam, x):
            bessel_args.append((lam, x))
            return bessel_k_fn(lam, x)

        def counted_zeta(x):
            zeta_args.append(x)
            return zeta(x)

        monkeypatch.setattr(special, "bessel_k", counted_bessel)
        monkeypatch.setattr(special, "zeta_fn", counted_zeta)
        monkeypatch.setattr(continuation, "zeta_fn", counted_zeta)
        cfg = FourierAssemblyConfig(R=8, C=600, corr_C=60, corr_K=32, tol=1e-2)
        value, err = xi_tilde_fourier(Z1, Z2, n, s, cfg)
        assert len(bessel_args) == len(set(bessel_args)) == pairs
        assert (value, err) == {
            1: (-2.8137409803169473 - 0.025939760652603207j, 0.00040126591014882495),
            0: (1.081439006303001 + 1.8633354467083232e-19j, 2.066489525770524e-14)}[n]
        assert len(zeta_args) == len(set(zeta_args))


class TestCorrection:
    def test_decays_in_c(self):
        cfg_small = FourierAssemblyConfig(R=4, C=100, corr_C=30, corr_K=32, tol=1e-2)
        cfg_big = FourierAssemblyConfig(R=4, C=100, corr_C=60, corr_K=32, tol=1e-2)
        a, err_a = shift_correction(Z1, Z2, 1, 1.5, cfg_small)
        b, _ = shift_correction(Z1, Z2, 1, 1.5, cfg_big)
        assert abs(a - b) <= max(err_a, 1e-9)

    @pytest.mark.parametrize("z1,z2,value,estimate", [
        (0.1 + 1.2j, -0.3 + 0.9j, 0.3476302629357435 + 1.1272825250823586j, 5.239737533962812e-05),
        (0.316 + 0.423j, 0.479 + 0.566j, 6.795340219235364 + 15.512469585252314j, 0.004077670045040717),
        (-0.245 + 0.463j, 0.005 + 0.538j, -8.156419590828577 - 2.38192067998322j, 0.003935423160504623),
        (0.297 + 0.478j, -0.197 + 0.368j, 6.4734743310281395 + 1.1235811839562977j, 0.002462406264591685),
    ], ids=["pair1", "pair2", "pair3", "pair4"])
    def test_pinned_window_table_values(self, z1, z2, value, estimate):
        # the pairs of the ROADMAP window table, pinned when the offset
        # expansion summed its 1-D windows at every unit
        val, est = shift_correction(z1, z2, 1, 1.0, FourierAssemblyConfig(corr_C=160, corr_K=48))
        assert abs(val - value) <= 1e-15 * abs(value)
        assert abs(est - estimate) <= 1e-15 * estimate + ESTIMATE_ROUNDING


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

    def test_edge_agreement_with_fourier_n2(self):
        # the edge s = (n + 1)/2 at n = 2, where the constant family is the
        # limit -3 / (2 y1 y2) and the z2 modes vanish
        cfg = FourierAssemblyConfig(R=8, C=3000, corr_C=160, corr_K=48, tol=1e-2)
        fb = xi_fourier(Z1, Z2, 2, 1.5, cfg, DIRECT_POL)
        ex = xi_extrapolated(Z1, Z2, 2, 1.5, (1.6, 1.65, 1.75, 1.9, 2.1),
                             TruncationPolicy(H=600, tol=1e-2))
        assert abs(fb.value - ex.value) <= fb.err_estimate + ex.err_estimate

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
        # samples lie above it and agree with the direct sum, while samples
        # at or below it are refused before any of them is evaluated
        import heckekernel.continuation as continuation

        ex = xi_extrapolated(Z1, Z2, n=2, s_target=1.7, policy=TruncationPolicy(H=200, tol=1e-2))
        d = xi_direct(Z1, Z2, 2, 1.7, TruncationPolicy(H=400, tol=1e-2))
        assert abs(ex.value - d.value) <= ex.err_estimate + d.err_estimate

        def unexpected(*args, **kwargs):
            raise AssertionError("a sample was evaluated")

        monkeypatch.setattr(continuation, "xi_direct", unexpected)
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
