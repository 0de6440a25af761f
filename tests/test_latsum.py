import cmath
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heckekernel import latsum
from heckekernel.latsum import (
    _inverse_expansion,
    _line_tail,
    ball_sum,
    omega_direct,
    omega_n_direct,
    omega_n_term_fn,
    omega_term_fn,
    psi_direct,
    psi_term_fn,
    s_series_direct,
    xi0_direct,
    xi_direct,
    xi_term_fn,
    xic_direct,
    xic_offset_diffs,
    xic_offset_expansion,
    xic_slice,
)
from heckekernel.accumulate import tree_sum
from heckekernel.arith import unit_inverse_table
from heckekernel.continuation import _c_tail, alpha_const, s_series_fourier, shift_correction
from heckekernel.errors import NearDiagonal, NotConverged
from heckekernel.modforms import delta_series, delta_value
from heckekernel.types import FourierAssemblyConfig, TruncationPolicy

from oracles import (IntMatrix2, beta_mode, enumerate_matrices, mu, mu_factorized,
                     psi_residue_fit)

Z1 = 0.1 + 1.2j
Z2 = -0.3 + 0.9j


@pytest.fixture(scope="module")
def xi_reference():
    return xi_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=900, tol=1e-2, refine="lsq"))


@functools.lru_cache(maxsize=None)
def slow_decay_reference(s):
    """(value, err) of Xi_1 and of its c > 0 part, (Xi_1 - xi0) / 2, at
    Z1, Z2 from the fitted sum at H = 1600."""
    xi = xi_direct(Z1, Z2, 1, s, TruncationPolicy(H=1600, tol=1e-2, refine="lsq"))
    xi0 = xi0_direct(Z1, Z2, 1, s, TruncationPolicy(tol=1e-2))
    return {"xi": (xi.value, xi.err_estimate),
            "xic": ((xi.value - xi0.value) / 2, (xi.err_estimate + xi0.err_estimate) / 2)}


def brute_count(m, H):
    count = 0
    for a in range(-H, H + 1):
        for b in range(-H, H + 1):
            for c in range(-H, H + 1):
                for d in range(-H, H + 1):
                    if a * d - b * c == m:
                        count += 1
    return count


def enum_term_sum(term_fn, z1, z2, m, H):
    total = 0j
    z2b = z2.conjugate()
    for g in enumerate_matrices(m, H):
        m1 = np.array([mu(g, z1, z2)])
        m2 = np.array([mu(g, z1, z2b)])
        total += complex(term_fn(m1, m2)[0])
    return total


class TestMu:
    def test_identity_matrix(self):
        g = IntMatrix2(1, 0, 0, 1)
        assert mu(g, Z1, 2j) == 2j - Z1

    def test_translation(self):
        g = IntMatrix2(1, 1, 0, 1)
        assert mu(g, Z1, 2j) == 2j - Z1 - 1

    def test_inversion_at_i_2i(self):
        g = IntMatrix2(0, -1, 1, 0)
        assert mu(g, 1j, 2j) == pytest.approx(-1.0)

    def test_factorization(self):
        for g in (IntMatrix2(2, 1, 3, 2), IntMatrix2(0, -1, 1, 0), IntMatrix2(5, 2, 7, 3)):
            w = 0.4 + 0.7j
            assert mu(g, Z1, w) == pytest.approx(mu_factorized(g, Z1, w), rel=1e-14)


class TestEnumeration:
    def test_height_one_count_matches_brute_force(self):
        assert sum(1 for _ in enumerate_matrices(1, 1)) == brute_count(1, 1) == 20

    def test_counts_match_brute_force(self):
        for m, H in ((1, 3), (2, 2), (3, 2), (4, 2)):
            assert sum(1 for _ in enumerate_matrices(m, H)) == brute_count(m, H)

    def test_uniqueness_and_negation_closure(self):
        mats = list(enumerate_matrices(1, 2))
        as_tuples = {(g.a, g.b, g.c, g.d) for g in mats}
        assert len(as_tuples) == len(mats)
        assert all((-g.a, -g.b, -g.c, -g.d) in as_tuples for g in mats)

    def test_determinants(self):
        assert all(g.det == 2 for g in enumerate_matrices(2, 3))

    def test_height_respected(self):
        assert all(g.height() <= 3 for g in enumerate_matrices(1, 3))

    def test_grows_quadratically(self):
        n10 = sum(1 for _ in enumerate_matrices(1, 10))
        n20 = sum(1 for _ in enumerate_matrices(1, 20))
        assert 2.5 < n20 / n10 < 5.5


class TestBallSumEngine:
    @pytest.mark.parametrize("name,term_fn", [
        ("xi", xi_term_fn(1, 1.6)),
        ("xi0n", xi_term_fn(0, 2.0)),
        ("omega", omega_term_fn(12)),
        ("omega_n", omega_n_term_fn(1, 1.5)),
        ("psi1", psi_term_fn(1, 1.3)),
        ("psi2", psi_term_fn(2, 1.3)),
    ])
    def test_vectorized_engine_matches_enumeration(self, name, term_fn):
        H = 9
        ref = enum_term_sum(term_fn, Z1, Z2, 1, H)
        val = ball_sum(Z1, Z2, 1, (H,), term_fn)[0][0]
        assert abs(val - ref) < 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 9, 12])
    def test_general_determinant_path(self, m):
        term_fn = omega_term_fn(12)
        for H in (6, 13):
            ref = enum_term_sum(term_fn, Z1, Z2, m, H)
            val = ball_sum(Z1, Z2, m, (H,), term_fn)[0][0]
            # |ref| is 1e-5 to 5e-10, so the relative bound is the real check
            assert abs(val - ref) < 1e-15, (m, H)
            assert abs(val - ref) <= 1e-13 * abs(ref), (m, H)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 9, 12])
    def test_counts_every_matrix_once(self, m):
        def ones(mu1, mu2):
            return np.ones(mu1.shape)

        heights = tuple(range(1, 14))
        counts, abs_sum = ball_sum(Z1, Z2, m, heights, ones)
        for H, count in zip(heights, counts):
            assert count == sum(1 for _ in enumerate_matrices(m, H)), (m, H)
        assert abs_sum == counts[-1]  # sum |term| over the largest ball

    @settings(max_examples=20, deadline=None)
    @given(heights=st.lists(st.integers(1, 60), min_size=1, max_size=6),
           m=st.integers(1, 12))
    def test_heights_tuple_matches_single_heights(self, heights, m):
        fn = omega_term_fn(12) if m > 1 else xi_term_fn(1, 1.4)
        vals, _ = ball_sum(Z1, Z2, m, tuple(heights), fn)
        for H, val in zip(heights, vals):
            ref = ball_sum(Z1, Z2, m, (H,), fn)[0][0]
            assert abs(val - ref) <= 1e-14 * abs(ref), (m, H)

    @pytest.mark.parametrize("m", [1, 6])
    def test_split_blocks_match_one_block(self, m, monkeypatch):
        # a 64-point block budget splits every chunk with more points into
        # blocks of whole rows (at H = 40 the c = 1, a = +-1 rows are longer
        # than a block and go alone): each matrix is still counted once, and
        # the sums agree with the one-block run up to the regrouped sum order
        def ones(mu1, mu2):
            return np.ones(mu1.shape)

        heights, fn = (7, 20, 40), xi_term_fn(1, 1.4) if m == 1 else omega_term_fn(12)
        ref, ref_abs = ball_sum(Z1, Z2, m, heights, fn)
        monkeypatch.setattr(latsum, "_BLOCK", 64)
        counts, _ = ball_sum(Z1, Z2, m, heights, ones)
        for H, count in zip(heights, counts):
            assert count == sum(1 for _ in enumerate_matrices(m, H)), (m, H)
        vals, abs_sum = ball_sum(Z1, Z2, m, heights, fn)
        assert np.all(np.abs(vals - ref) <= 1e-14 * np.abs(ref)), (m, vals - ref)
        assert abs(abs_sum - ref_abs) <= 1e-14 * ref_abs


class TestGoldenBits:
    """Values and estimates of the direct routes to the last bit (IEEE
    doubles, numpy's float64 pow): a change to the enumerator that keeps
    its points, term rounding and summation order keeps them all."""

    def test_xi_direct(self):
        r = xi_direct(Z1, Z2, 1, 1.4, TruncationPolicy(H=120, tol=1e-2))
        assert r.value == -4.42568238941505 + 2.9809420116651295j
        assert r.err_estimate == 0.00013316713316386357

    def test_omega_direct(self):
        r = omega_direct(Z1, Z2, 12, 6, TruncationPolicy(H=40, tol=1e-2))
        assert r.value == 1.2815441910547843e-08 - 1.113758474704404e-08j
        assert r.err_estimate == 5.662909018808743e-15

    def test_unshifted_xic_direct(self):
        r = xic_direct(Z1, Z2, 1, 1.4, TruncationPolicy(H=100, tol=1e-2))
        assert r.value == -1.8602403974414026 + 1.826271024682491j
        assert r.err_estimate == 0.00043751748522656244


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
def test_direct_sum_reuses_its_buffers():
    # in a fresh process (no earlier free has moved the allocator's
    # thresholds), each xi_direct(H = 900) call from the second on takes
    # fewer than 5k minor page faults; an enumerator that allocates its
    # arrays afresh in every block takes about 60k
    script = """if True:
        import json, resource
        from heckekernel.latsum import xi_direct
        from heckekernel.types import TruncationPolicy
        policy, faults = TruncationPolicy(H=900, tol=1e-2, refine="lsq"), []
        for z1, z2, s in [(0.1 + 1.2j, -0.3 + 0.9j, 1.5), (0.2 + 1.3j, -0.45 + 1.05j, 1.3),
                          (-0.15 + 0.95j, 0.3 + 1.15j, 1.7)]:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            xi_direct(z1, z2, 1, s, policy)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps(faults))
    """
    src = os.path.dirname(os.path.dirname(latsum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         check=True)
    faults = json.loads(out.stdout)
    assert max(faults[1:]) < 5000, faults


class TestOmega:
    def test_proportional_to_delta_product(self):
        policy = TruncationPolicy(H=200, tol=1e-2, refine="none")
        pairs = [(Z1, Z2), (0.2 + 1.3j, -0.45 + 1.05j), (0.05 + 1.1j, 0.4 + 1.25j)]
        ratios = []
        for z1, z2 in pairs:
            w = omega_direct(z1, z2, 12, 1, policy)
            ratios.append(w.value / (delta_value(z1) * delta_value(z2).conjugate()))
        mean = sum(ratios) / len(ratios)
        assert all(abs(r - mean) / abs(mean) < 1e-4 for r in ratios)

    def test_weight_covariance_under_inversion(self):
        policy = TruncationPolicy(H=300, tol=1e-2, refine="none")
        z1 = 0.2 + 1.1j
        lhs = omega_direct(-1 / z1, Z2, 12, 1, policy).value
        rhs = z1**12 * omega_direct(z1, Z2, 12, 1, policy).value
        assert abs(lhs - rhs) / abs(rhs) < 1e-4

    @pytest.mark.parametrize("z1,z2", [(Z1, Z2), (0.2 + 1.3j, -0.45 + 1.05j)])
    def test_hecke_relation_at_large_height(self, z1, z2):
        # omega_m is the kernel of T(m) and S_12 is spanned by Delta, so
        # omega_m = tau(m) m^(-11) omega_1 (Zagier); this pins the det-m
        # kernel at a height enumerate_matrices cannot reach
        tau = delta_series(6).coeffs
        pol = TruncationPolicy(H=200, tol=1e-2)
        w1 = omega_direct(z1, z2, 12, 1, pol).value
        for m in range(2, 7):
            wm = omega_direct(z1, z2, 12, m, pol).value
            assert abs(wm - tau[m] * m**-11 * w1) <= 1e-12 * abs(wm), m

    def test_estimate_has_round_off_floor(self):
        # the height-ball sums h_0..h_4 agree to the last bit here, so the
        # estimate is the round-off floor 2e-16 sum |terms| alone
        r = omega_direct(0.85j, -0.3 + 0.43j, 12, 1, TruncationPolicy(H=200, tol=1e-2))
        assert abs(r.value) > 0.28
        assert r.err_estimate > 0.0

    @pytest.mark.parametrize("refine", ["lsq"])
    @pytest.mark.parametrize("H", [100, 200])
    @pytest.mark.parametrize("z1,z2", [(Z1, Z2), (0.2 + 1.3j, -0.45 + 1.05j)])
    def test_weight_four_vanishes_within_estimate(self, z1, z2, H, refine):
        # S_4 = 0, so the weight-4 kernel is 0 and its truncation error is
        # the whole value
        r = omega_direct(z1, z2, 4, 1, TruncationPolicy(H=H, tol=1e-2, refine=refine))
        assert abs(r.value) <= r.err_estimate

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            omega_direct(Z1, Z2, 11)

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_determinant_below_one(self, m):
        # T(m) and the enumerator's c = 0 rows need m >= 1
        with pytest.raises(ValueError, match="m must be a positive integer"):
            omega_direct(Z1, Z2, 12, m, TruncationPolicy(H=40))


class TestXi:
    def test_decomposition_identity(self):
        # xi = xi0 + 2 xic at matched cutoffs
        pol = TruncationPolicy(H=200, B=200, C=200, refine="none", tol=1e-2)
        for n, s in ((0, 2.0), (1, 1.6)):
            xi = xi_direct(Z1, Z2, n, s, pol)
            xi0 = xi0_direct(Z1, Z2, n, s, pol)
            xic = xic_direct(Z1, Z2, n, s, pol, shifted=False)
            resid = abs(xi.value - (xi0.value + 2 * xic.value)) / abs(xi.value)
            assert resid < 1e-6

    @pytest.mark.parametrize("H", [6, 13])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_xic_matches_restricted_enumeration(self, H, n):
        # the c > 0 part of the full enumeration is the ground truth for
        # xic_direct, whose kernel xi_direct shares
        s = 1.7
        gammas = [g for g in enumerate_matrices(1, H) if g.c > 0]
        mu1 = np.array([mu(g, Z1, Z2) for g in gammas])
        mu2 = np.array([mu(g, Z1, Z2.conjugate()) for g in gammas])
        terms = xi_term_fn(n, s)(mu1, mu2)
        ref = complex(math.fsum(terms.real), math.fsum(terms.imag))
        pol = TruncationPolicy(H=H, C=H, refine="none", tol=1e-2)
        val = xic_direct(Z1, Z2, n, s, pol, shifted=False).value
        assert abs(val - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("C", [10, 50])
    def test_xic_estimate_covers_c_cutoff(self, C):
        # the c-cutoff drops with the height in the estimate, so a C below H
        # shows in it
        r = xic_direct(Z1, Z2, 1, 1.6, TruncationPolicy(H=200, C=C, refine="none", tol=1e-2))
        ref = xic_direct(Z1, Z2, 1, 1.6, TruncationPolicy(H=400, C=400, refine="none", tol=1e-2))
        assert abs(r.value - ref.value) <= r.err_estimate + ref.err_estimate

    def test_direct_sums_raise_where_they_diverge(self):
        pol = TruncationPolicy(H=60, refine="none", tol=1e-2)
        with pytest.raises(ValueError):
            xi_direct(Z1, Z2, 1, 1.0, pol)
        with pytest.raises(ValueError):
            omega_n_direct(Z1, Z2, 2, 1.3, pol)
        with pytest.raises(ValueError):
            psi_direct(1, Z1, Z2, 0.9, pol)

    def test_joint_translation_invariance(self):
        pol = TruncationPolicy(H=300, refine="none", tol=1e-2)
        a = xi_direct(Z1, Z2, 0, 2.0, pol).value
        b = xi_direct(Z1 + 1, Z2 + 1, 0, 2.0, pol).value
        assert abs(a - b) / abs(a) < 1e-8

    def test_inversion_covariance(self):
        # Xi_n(gamma z1, z2, s) = |c z1 + d|^(4s) (c conj(z1) + d)^(-2n) Xi_n
        pol = TruncationPolicy(H=800, refine="none", tol=1e-2)
        n, s = 1, 1.5
        z1 = 0.2 + 1.1j
        lhs = xi_direct(-1 / z1, Z2, n, s, pol).value
        cov = abs(z1) ** (4 * s) * z1.conjugate() ** (-2 * n)
        rhs = cov * xi_direct(z1, Z2, n, s, pol).value
        assert abs(lhs - rhs) / abs(rhs) < 1e-4

    def test_warns_outside_absolute_convergence(self):
        pol = TruncationPolicy(H=60, refine="none", tol=1e-2)
        r = xi_direct(Z1, Z2, 1, 1.05, pol)
        assert "NotAbsolutelyConvergent" in r.warnings
        assert "NotAbsolutelyConvergent" in xi_direct(Z1, Z2, 1, 1.1, pol).warnings

    @pytest.mark.parametrize("refine,H", [
        ("lsq", 11), ("lsq", 14), ("lsq", 16), ("lsq", 20), ("lsq", 30), ("lsq", 40),
    ])
    def test_small_height_within_estimate(self, refine, H, xi_reference):
        r = xi_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=H, tol=1e-2, refine=refine))
        assert abs(r.value - xi_reference.value) <= r.err_estimate + xi_reference.err_estimate

    @pytest.mark.parametrize("refine,H", [("lsq", 5), ("lsq", 2)])
    def test_fit_refuses_too_small_height(self, refine, H):
        # every fit needs three distinct heights among its six ladder rungs
        with pytest.raises(ValueError, match="too small"):
            xi_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=H, tol=1e-2, refine=refine))

    def test_one_fit_mode(self):
        assert TruncationPolicy().refine == "lsq"
        with pytest.raises(ValueError, match="refine"):
            TruncationPolicy(refine="richardson")

    @settings(max_examples=20, deadline=None)
    @given(x1=st.floats(-0.5, 0.49), x2=st.floats(-0.5, 0.49), ly1=st.floats(0.0, math.log(2.0)),
           ly2=st.floats(0.0, math.log(2.0)), n=st.integers(0, 1), decay=st.floats(1.5, 2.99),
           H=st.integers(80, 200))
    @example(x1=0.0, x2=0.0, ly1=0.0, ly2=0.25, n=0, decay=1.5, H=181)
    def test_estimate_covers_error(self, x1, x2, ly1, ly2, n, decay, H):
        # decay = 4s - 2n - 2 is the power of H in the truncation error
        z1, z2 = complex(x1, math.exp(ly1)), complex(x2, math.exp(ly2))
        assume(abs(z1 - z2) >= 0.1)  # away from the diagonal, where mu1 = 0
        s = (decay + 2 * n + 2) / 4.0
        r = xi_direct(z1, z2, n, s, TruncationPolicy(H=H, tol=1e-2, refine="lsq"))
        ref = xi_direct(z1, z2, n, s, TruncationPolicy(H=4 * H, tol=1e-2, refine="lsq"))
        assert abs(r.value - ref.value) <= r.err_estimate + ref.err_estimate

    @pytest.mark.parametrize("route,s,H", [
        pytest.param("xi", 1.2, 100, id="100"),
        pytest.param("xi", 1.2, 200, id="200"),
        pytest.param("xic", 1.2, 100, id="xic-1.2-100"),
        pytest.param("xic", 1.2, 200, id="xic-1.2-200"),
        pytest.param("xic", 1.1, 100, id="xic-1.1-100"),
        pytest.param("xic", 1.1, 200, id="xic-1.1-200"),
    ])
    def test_raw_estimate_covers_slow_decay(self, route, s, H):
        # decay 4s - 4 < 1: the tail past H exceeds the spread over H/2..H
        ref, ref_err = slow_decay_reference(s)[route]
        pol = TruncationPolicy(H=H, C=H, tol=1e-2, refine="none")
        if route == "xi":
            r = xi_direct(Z1, Z2, 1, s, pol)
        else:
            r = xic_direct(Z1, Z2, 1, s, pol, shifted=False)
        assert abs(r.value - ref) <= r.err_estimate + ref_err

    @settings(max_examples=20, deadline=None)
    @given(x1=st.floats(-0.5, 0.49), x2=st.floats(-0.5, 0.49), ly1=st.floats(0.0, math.log(2.0)),
           ly2=st.floats(0.0, math.log(2.0)), n=st.integers(0, 1), decay=st.floats(0.3, 2.99),
           H=st.integers(80, 200))
    @example(x1=0.0, x2=0.0, ly1=0.0, ly2=0.3, n=1, decay=2.648, H=97)  # Xi = 0 by symmetry
    def test_raw_estimate_covers_error(self, x1, x2, ly1, ly2, n, decay, H):
        # a raw sum either covers its error or refuses: at decay ~0.5 and
        # H = 80 the estimate can exceed 0.1 |value|
        z1, z2 = complex(x1, math.exp(ly1)), complex(x2, math.exp(ly2))
        assume(abs(z1 - z2) >= 0.1)
        s = (decay + 2 * n + 2) / 4.0
        try:
            r = xi_direct(z1, z2, n, s, TruncationPolicy(H=H, tol=1e-2, refine="none"))
        except NotConverged:
            return
        ref = xi_direct(z1, z2, n, s, TruncationPolicy(H=4 * H, tol=1e-2, refine="lsq"))
        assert abs(r.value - ref.value) <= r.err_estimate + ref.err_estimate

    def test_tol_halving_consistency(self):
        pol_lo = TruncationPolicy(H=150, tol=1e-2)
        pol_hi = TruncationPolicy(H=300, tol=5e-3)
        a = xi_direct(Z1, Z2, 1, 1.5, pol_lo)
        b = xi_direct(Z1, Z2, 1, 1.5, pol_hi)
        assert abs(a.value - b.value) <= max(a.err_estimate, b.err_estimate) * 1.5


class TestXi0:
    def test_matches_restricted_enumeration(self):
        # c = 0 slice of the full enumeration is the ground truth
        n, s = 0, 2.0
        B = 60
        term_fn = xi_term_fn(n, s)
        ref = 0j
        for g in enumerate_matrices(1, B):
            if g.c != 0:
                continue
            m1 = np.array([mu(g, Z1, Z2)])
            m2 = np.array([mu(g, Z1, Z2.conjugate())])
            ref += complex(term_fn(m1, m2)[0])
        pol = TruncationPolicy(B=B, tol=1e-2)
        val = xi0_direct(Z1, Z2, n, s, pol).value
        # the Euler-Maclaurin tail is far below the comparison scale here
        assert abs(val - ref) < 1e-10

    def test_b_range_doubling_stability(self):
        n, s = 1, 1.0
        lo = xi0_direct(Z1, Z2, n, s, TruncationPolicy(B=20_000, tol=1e-2))
        hi = xi0_direct(Z1, Z2, n, s, TruncationPolicy(B=40_000, tol=1e-2))
        assert abs(lo.value - hi.value) <= max(lo.err_estimate, 1e-9)

    def test_converges_at_n1_s1(self):
        r = xi0_direct(Z1, Z2, 1, 1.0, TruncationPolicy(B=50_000, tol=1e-2))
        assert abs(r.value) < 10

    def test_asymmetric_halves(self):
        # the two b-tails genuinely differ at generic points, so the sum
        # over b in Z is kept (the folded 4 sum_{b>0} form only holds on
        # symmetric points)
        n, s = 0, 2.0
        b = np.arange(1, 2000, dtype=float)
        w1, w2 = Z2 - Z1, Z2.conjugate() - Z1
        t_pos = np.sum(1.0 / (np.abs(w1 - b) ** (2 * s) * np.abs(w2 - b) ** (2 * s)))
        t_neg = np.sum(1.0 / (np.abs(w1 + b) ** (2 * s) * np.abs(w2 + b) ** (2 * s)))
        assert abs(t_pos - t_neg) / abs(t_pos) > 0.1


class TestXic:
    def test_shift_difference_converges_under_doubling(self):
        n, s = 1, 1.2
        diffs = []
        for K in (16, 32):
            t = xic_slice(Z1, Z2, 3, n, s, K, shifted=False)
            sft = xic_slice(Z1, Z2, 3, n, s, K, shifted=True)
            diffs.append(t - sft)
        assert abs(diffs[1] - diffs[0]) < 0.05 * abs(diffs[1])

    def test_c1_slice_equals_s_series_product(self):
        # for c = 1 the shifted slice factors into S_0 x S_{2n} exactly
        n, s = 1, 1.6
        K = 3000
        slice_val = xic_slice(Z1, Z2, 1, n, s, K, shifted=True)
        pol = TruncationPolicy(B=100_000, tol=1e-2)
        s0 = s_series_direct(Z2 + 1.0, 0, 2 * s - n, pol).value
        s2n = s_series_direct(Z1 + 1.0, 2 * n, 2 * s, pol).value
        assert abs(slice_val - s0 * s2n) / abs(slice_val) < 1e-6

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_factorization_small_c(self, c):
        # shifted c-slice = c^(2n-4s) sum over units of S_0 S_{2n}
        n, s = 1, 1.6
        from heckekernel.arith import unit_inverse_table

        slice_val = xic_slice(Z1, Z2, c, n, s, 800, shifted=True)
        pol = TruncationPolicy(B=50_000, tol=1e-2)
        units, invs = unit_inverse_table(c)
        d0 = (-invs) % c
        d0[d0 == 0] = c
        total = 0j
        for a0, dd in zip(units, d0):
            s0 = s_series_direct(Z2 + a0 / c, 0, 2 * s - n, pol).value
            s2n = s_series_direct(Z1 + dd / c, 2 * n, 2 * s, pol).value
            total += s0 * s2n
        total *= float(c) ** (2 * n - 4 * s)
        assert abs(slice_val - total) / abs(total) < 1e-5

    def test_shifted_sum_stops_at_height(self, monkeypatch):
        # the shifted branch sums c = 1..min(C, H), as the unshifted one
        # does: one slice per c up to H = 20, not up to the default C = 4000
        cs, slice_fn = [], latsum.xic_slice

        def counted(z1, z2, c, *args, **kwargs):
            cs.append(c)
            return slice_fn(z1, z2, c, *args, **kwargs)

        monkeypatch.setattr(latsum, "xic_slice", counted)
        xic_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=20, tol=1e-2), shifted=True)
        assert cs == list(range(1, 21))


def _slice_reference(z1, z2, c, n, s, K, shifted=False):
    """The generic 2-D window sum of xi_term_fn(n, s) over one c-slice:
    the same (a0, k, l) windows as xic_slice, every term evaluated from
    mu1 and mu2 separately (the unfactorized form of the kernel)."""
    term_fn = xi_term_fn(n, s)
    units, invs = unit_inverse_table(c)
    d0 = (-invs) % c
    d0[d0 == 0] = c
    kk = np.arange(-K, K + 1, dtype=np.float64)
    z2b = z2.conjugate()
    total = []
    for a0, dd in zip(units.astype(np.float64), d0.astype(np.float64)):
        k_off = np.round(z2.real + a0 / c)
        l_off = np.round(-z1.real - dd / c)
        u = (z1 + dd / c + l_off) + kk
        v = (z2 + a0 / c - k_off) - kk
        vb = (z2b + a0 / c - k_off) - kk
        mu1 = c * u[:, None] * v[None, :]
        mu2 = c * u[:, None] * vb[None, :]
        if not shifted:
            mu1 = mu1 + 1 / c
            mu2 = mu2 + 1 / c
        total.append(complex(np.sum(term_fn(mu1, mu2))))
    return tree_sum(total)


def _shift_correction_reference(z1, z2, n, s, cfg):
    """shift_correction's value and estimate, built on _slice_reference:
    the c-tail is the 1/c^3 envelope of the slices C/2 < c <= C times
    sum_(c > C) c^(-3)."""

    def diff(c, K):
        return _slice_reference(z1, z2, c, n, s, K) - _slice_reference(z1, z2, c, n, s, K, shifted=True)

    C = cfg.corr_C
    vals = [diff(c, cfg.corr_K) for c in range(1, C + 1)]
    half_K = max(8, cfg.corr_K // 2)
    window = sum(abs(diff(c, half_K) - vals[c - 1]) for c in range(1, min(6, C + 1)))
    envelope = max(abs(vals[c - 1]) * c**3 for c in range(C // 2 + 1, C + 1))
    tail = envelope * (1.2020569031595942 - sum(float(c) ** -3 for c in range(1, C + 1)))  # zeta(3)
    return tree_sum(vals), tail + 2.0 * window


class TestSliceKernel:
    """xic_slice's closed-form shifted windows and fused true-term pass
    against the generic window sum."""

    PAIRS = ((Z1, Z2), (0.45 + 1.7j, 0.38 + 1.05j))

    @pytest.mark.parametrize("mode", ["shifted", "true"])
    @pytest.mark.parametrize("c", [1, 2, 3, 6, 7, 12])
    def test_matches_reference(self, c, mode):
        shifted = mode == "shifted"
        for z1, z2 in self.PAIRS:
            for n in (0, 1, 2):
                for s in (1.0, 1.3, 1.75):
                    ref = _slice_reference(z1, z2, c, n, s, 12, shifted)
                    val = xic_slice(z1, z2, c, n, s, 12, shifted=shifted)
                    assert abs(val - ref) <= 1e-12 * abs(ref), (z1, z2, n, s)

    def test_large_windows_split_into_blocks(self):
        # one unit's 2-D window (241 x 241) overfills a block, so l is split
        ref = _slice_reference(Z1, Z2, 5, 1, 1.3, 120)
        assert abs(xic_slice(Z1, Z2, 5, 1, 1.3, 120) - ref) <= 1e-12 * abs(ref)

    def test_shifted_window_is_linear_in_K(self):
        # a (units x K x K) grid here would take 4 x 4001^2 x 16 B = 1 GB
        tracemalloc.start()
        try:
            xic_slice(Z1, Z2, 5, 1, 1.3, 2000, shifted=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024

    @pytest.mark.parametrize("n,s", [(1, 1.0), (0, 1.3)])
    def test_shift_correction_matches_reference(self, n, s):
        cfg = FourierAssemblyConfig(corr_C=20, corr_K=24)
        val, est = shift_correction(Z1, Z2, n, s, cfg)
        ref, ref_est = _shift_correction_reference(Z1, Z2, n, s, cfg)
        assert abs(val - ref) <= 1e-13
        # the estimate is built from differences of O(1) slices, so its
        # rounding floor is absolute (~1e-15); at n = 0 it is only ~3e-8
        assert abs(est - ref_est) <= 1e-9 * ref_est + 1e-14


def _abs_shifted(z1, z2, c, n, s, K):
    """Sum of |shifted term| over a c-slice window: |conj(U)^(2n) |U|^(-4s)
    |v|^(2n-4s)| is the n = 0 term at s - n/2."""
    return xic_slice(z1, z2, c, 0, s - n / 2.0, K, shifted=True).real


def _window_rows(mp):
    """Record the rows of every latsum._window_sums call: the N Chebyshev
    nodes on the interpolation path, one run of units on the per-unit path."""
    rows, window_sums = [], latsum._window_sums

    def recording(z1, z2, c, a0, d0, *args):
        rows.append(a0.shape[0])
        return window_sums(z1, z2, c, a0, d0, *args)

    mp.setattr(latsum, "_window_sums", recording)
    return rows


class TestOffsetExpansion:
    """xic_offset_expansion against xic_slice's 2-D true pass, and
    shift_correction's split between the two."""

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 4), data=st.data(), x1=st.floats(-0.5, 0.5), x2=st.floats(-0.5, 0.5),
           y1=st.floats(0.25, 2.0), y2=st.floats(0.25, 2.0), K=st.integers(8, 24))
    def test_matches_2d_pass(self, n, data, x1, x2, y1, y2, K):
        lo = max(1.0, (n + 1) / 2.0)
        s_range = st.floats(lo, max(lo, 2.0))
        s = data.draw(st.one_of(st.just(float(n)), s_range) if lo <= n <= 2 else s_range, label="s")
        z1, z2 = complex(x1, y1), complex(x2, y2)
        cs = [c for c in range(1, 41) if 1.0 / (c * c * y1 * y2) <= latsum._OFFSET_TAU]
        assume(cs)
        for c, val in zip(cs, xic_offset_expansion(z1, z2, cs, n, s, K)):
            ref = xic_slice(z1, z2, c, n, s, K) - xic_slice(z1, z2, c, n, s, K, shifted=True)
            assert abs(val - ref) <= 4e-15 * _abs_shifted(z1, z2, c, n, s, K), (c, val, ref)

    @pytest.mark.parametrize("im,direct_cs", [(0.25, range(1, 20)), (1.5, range(1, 4))])
    def test_shift_correction_uses_both_paths(self, monkeypatch, im, direct_cs):
        # tau_c = 1/(c^2 Im z1 Im z2) > 1/25 keeps the 2-D pass: c < 20 at
        # Im z = 0.25, c < 4 at Im z = 1.5; every other c is expanded
        z1, z2, n, s, K = complex(0.1, im), complex(-0.3, im), 1, 1.3, 12
        true_pass = []
        slice_fn = latsum.xic_slice

        def recording(z1, z2, c, n, s, K, shifted=False):
            if not shifted:
                true_pass.append((c, K))
            return slice_fn(z1, z2, c, n, s, K, shifted)

        monkeypatch.setattr(latsum, "xic_slice", recording)
        val, _ = shift_correction(z1, z2, n, s, FourierAssemblyConfig(corr_C=30, corr_K=K))
        assert sorted(c for c, k in true_pass if k == K) == list(direct_cs)
        ref = tree_sum([slice_fn(z1, z2, c, n, s, K) - slice_fn(z1, z2, c, n, s, K, shifted=True)
                        for c in range(1, 31)])
        scale = sum(_abs_shifted(z1, z2, c, n, s, K) for c in range(1, 31))
        assert abs(val - ref) <= 4e-15 * scale

    @pytest.mark.parametrize("n,s", [(1, 1.0), (1, 1.4), (0, 1.3), (4, 4.0), (1, 60.0)])
    @pytest.mark.parametrize("tau", [0.04, 0.01, 1e-4])
    def test_node_count_falls_as_im_z_grows(self, n, s, tau):
        counts = [latsum._offset_nodes(tau, y, n, s) for y in (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 8.0)]
        assert all(a >= b >= 2 for a, b in zip(counts, counts[1:])), counts

    @pytest.mark.parametrize("tau", [0.0, -0.01, 0.5, 0.7, float("nan")])
    def test_node_count_refuses_what_the_order_refuses(self, tau):
        with pytest.raises(ValueError):
            latsum._offset_order(tau, 1, 1.0)
        with pytest.raises(ValueError):
            latsum._offset_nodes(tau, 1.0, 1, 1.0)

    @pytest.mark.parametrize("n,s", [(1, 1.0), (1, 1.4)])
    def test_matches_2d_pass_near_real_axis(self, n, s):
        # Im z1 = Im z2 = 0.1: the 2-D pass keeps c <= c0 = 49; the node
        # count of c0 + 1 (several hundred) is past the units' break-even,
        # so every unit up to c = 160 sums its own windows
        z1, z2, K = 0.1 + 0.1j, -0.3 + 0.1j, 48
        c0 = 49
        vals = xic_offset_expansion(z1, z2, range(c0 + 1, 161), n, s, K)
        for c in (c0 + 1, 2 * c0, 160):
            ref = xic_slice(z1, z2, c, n, s, K) - xic_slice(z1, z2, c, n, s, K, shifted=True)
            assert abs(vals[c - c0 - 1] - ref) <= 4e-15 * _abs_shifted(z1, z2, c, n, s, K), c

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(0, 4), data=st.data(), x1=st.floats(-0.5, 0.5), x2=st.floats(-0.5, 0.5),
           y1=st.floats(1.0, 2.0), y2=st.floats(1.0, 2.0))
    def test_interpolants_match_2d_pass(self, n, data, x1, x2, y1, y2):
        # Im z >= 1 at corr_K = 48 and corr_C = 160: the window sums run once,
        # at the N nodes, and their interpolants serve every c
        lo = max(1.0, (n + 1) / 2.0)
        s_range = st.floats(lo, max(lo, 2.0))
        s = data.draw(st.one_of(st.just(float(n)), s_range) if lo <= n <= 2 else s_range, label="s")
        z1, z2, K = complex(x1, y1), complex(x2, y2), 48
        cs = [c for c in range(1, 161) if 1.0 / (c * c * y1 * y2) <= latsum._OFFSET_TAU]
        with pytest.MonkeyPatch.context() as mp:
            rows = _window_rows(mp)
            vals = xic_offset_expansion(z1, z2, cs, n, s, K)
        assert rows == [latsum._offset_nodes(1.0 / (cs[0] ** 2 * y1 * y2), min(y1, y2), n, s)]
        for c in (cs[0], 40, 160):
            ref = xic_slice(z1, z2, c, n, s, K) - xic_slice(z1, z2, c, n, s, K, shifted=True)
            assert abs(vals[c - cs[0]] - ref) <= 4e-15 * _abs_shifted(z1, z2, c, n, s, K), c

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 4), data=st.data(), y1=st.floats(0.25, 2.0), y2=st.floats(0.25, 2.0),
           C=st.integers(1, 160))
    def test_offset_orders_in_one_pass(self, n, data, y1, y2, C):
        # J(c) does not rise with c, so xic_offset_expansion searches each c's
        # order from the previous c's (one pass); every order must still be
        # the least J, the one a fresh search from J = 1 returns
        lo = max(1.0, (n + 1) / 2.0)
        s = data.draw(st.floats(lo, lo + 3.0), label="s")
        z1, z2 = complex(0.1, y1), complex(-0.3, y2)
        cs = [c for c in range(1, C + 1) if 1.0 / (c * c * y1 * y2) <= latsum._OFFSET_TAU]
        assume(cs)
        calls, order = [], latsum._offset_order

        def recording(tau, n, s, J=1):
            calls.append((tau, J, order(tau, n, s, J)))
            return calls[-1][2]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(latsum, "_offset_order", recording)
            xic_offset_expansion(z1, z2, cs, n, s, 8)
        passed = calls[:len(cs)]  # then _offset_nodes' own search at cs[0]
        assert [tau for tau, _, _ in passed] == [1.0 / (c * c * (y1 * y2)) for c in cs]
        assert [J for _, J, _ in passed] == [1] + [J for _, _, J in passed[:-1]]
        assert [J for _, _, J in passed] == [order(tau, n, s) for tau, _, _ in passed]

    @pytest.mark.parametrize("z1,z2,c0", [(0.1 + 0.1j, -0.3 + 0.1j, 49), (0.1 + 0.01j, -0.3 + 2.0j, 35)],
                             ids=["symmetric", "lopsided"])
    def test_near_axis_units_sum_their_own_windows(self, monkeypatch, z1, z2, c0):
        # N grows as min(Im z) falls: about 500 at Im z = 0.1 and 5000 at
        # Im z1 = 0.01, past the units' break-even, so every unit sums its own
        # windows and nothing is sized by N (an N x N coefficient step took
        # 220 MB per array at the lopsided pair)
        rows = _window_rows(monkeypatch)
        tracemalloc.start()
        try:
            shift_correction(z1, z2, 1, 1.0, FourierAssemblyConfig(corr_C=160, corr_K=48))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rows) == sum(len(latsum._unit_rows(c)[0]) for c in range(c0 + 1, 161))
        assert peak <= 3 * 1024 * 1024
        vals = xic_offset_expansion(z1, z2, [c0 + 1, 160], 1, 1.0, 48)
        for c, val in zip([c0 + 1, 160], vals):
            ref = xic_slice(z1, z2, c, 1, 1.0, 48) - xic_slice(z1, z2, c, 1, 1.0, 48, shifted=True)
            assert abs(val - ref) <= 4e-15 * _abs_shifted(z1, z2, c, 1, 1.0, 48), c

    def test_shift_correction_memory_stays_flat(self):
        # blocks sized by elements, with reused buffers (a 2-D pass at every
        # c peaked at 2.8-3.0 MiB)
        cfg = FourierAssemblyConfig(corr_C=160, corr_K=48)
        tracemalloc.start()
        try:
            shift_correction(Z1, Z2, 1, 1.4, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 1024 * 1024

    def test_c_tail_covers_the_next_slices(self):
        # at this pair the c = 160 slice nearly cancels: |v_c| c^3 is 1.5e-8
        # there against 4.6e-5 to 1e-3 for the other c in 120..165, so the
        # last slice alone (|v_160| 160/2 = 3e-13) misses the tail (1.1e-10)
        vals = xic_offset_diffs(Z1, Z2, 1, 1.0, 640, 48)
        for C in (20, 40, 80, 160):
            assert abs(tree_sum(vals[C:])) <= _c_tail(vals[:C]), C


class TestShiftedDoublePeriodicity:
    def test_independent_unit_shifts(self):
        # the shifted series is periodic in z1 and z2 separately
        n, s = 1, 1.3
        base = sum(xic_slice(Z1, Z2, c, n, s, 40, shifted=True) for c in range(1, 6))
        sh1 = sum(xic_slice(Z1 + 1, Z2, c, n, s, 40, shifted=True) for c in range(1, 6))
        sh2 = sum(xic_slice(Z1, Z2 + 1, c, n, s, 40, shifted=True) for c in range(1, 6))
        assert abs(base - sh1) < 1e-8 * max(1.0, abs(base))
        assert abs(base - sh2) < 1e-8 * max(1.0, abs(base))


class TestDomainValidation:
    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            xi_direct(0.1 - 1.2j, Z2, 1, 1.5)
        with pytest.raises(ValueError):
            omega_direct(Z1, 0.3 - 0.2j, 12)

    def test_real_axis_rejected_for_s_series(self):
        with pytest.raises(ValueError):
            s_series_direct(0.7, 0, 2.0)

    @pytest.mark.filterwarnings("error")
    def test_diagonal_raises_near_diagonal(self):
        # mu1 = 0 for the identity (z1 = z2) or a translation (z2 = z1 + 1);
        # omega's term depends on mu2 only and stays finite there
        pol = TruncationPolicy(H=30, B=100, tol=1e-2, refine="none")
        with pytest.raises(NearDiagonal):
            xi_direct(Z1, Z1, 1, 1.5, pol)
        with pytest.raises(NearDiagonal):
            psi_direct(1, Z1, Z1 + 1, 1.4, pol)
        with pytest.raises(NearDiagonal):
            xi0_direct(1j, 1j, 0, 2.0, pol)
        assert math.isfinite(abs(omega_direct(Z1, Z1, 12, 1, pol).value))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_mu1_raises_near_diagonal(self):
        # |mu1|^2 of the identity underflows to 0 although mu1 != 0
        z1, z2 = 1j, 8.4e-167 + 1j
        with pytest.raises(NearDiagonal):
            xi_direct(z1, z2, 0, 1.0)
        with pytest.raises(NearDiagonal):
            xi0_direct(z1, z2, 0, 1.0)


class TestSSeries:
    def test_value_at_i(self):
        # S_0(i, 0, 2) = 1 + 2 sum_{nu >= 1} (1 + nu^2)^(-2), brute oracle
        nu = np.arange(1, 2_000_000, dtype=np.float64)
        oracle = 1.0 + 2.0 * float(np.sum((1.0 + nu**2) ** (-2.0)))
        val = s_series_direct(1j, 0, 2.0, TruncationPolicy(B=10_000, tol=1e-2))
        assert val.value.real == pytest.approx(oracle, abs=1e-8)
        assert abs(val.value.imag) < 1e-12

    def test_real_on_imaginary_axis(self):
        val = s_series_direct(1.3j, 0, 1.7, TruncationPolicy(B=10_000, tol=1e-2)).value
        assert abs(val.imag) < 1e-12

    def test_translation_exact(self):
        pol = TruncationPolicy(B=10_000, tol=1e-2)
        a = s_series_direct(0.3 + 1.1j, 2, 2.0, pol).value
        b = s_series_direct(1.3 + 1.1j, 2, 2.0, pol).value
        assert abs(a - b) < 1e-10

    def test_lower_half_plane_conjugation(self):
        pol = TruncationPolicy(B=10_000, tol=1e-2)
        up = s_series_direct(0.2 + 0.8j, 2, 2.0, pol).value
        # conj(S_m(conj z)) = S_m(z)
        down = s_series_direct(0.2 - 0.8j, 2, 2.0, pol).value
        assert abs(up - down.conjugate()) < 1e-12

    def test_tail_correction_improves(self):
        # modest window plus the analytic tail reaches the huge-window value
        big = s_series_direct(0.3 + 1.1j, 0, 1.1, TruncationPolicy(B=2_000_000, tol=1e-2)).value
        small = s_series_direct(0.3 + 1.1j, 0, 1.1, TruncationPolicy(B=5_000, tol=1e-2)).value
        assert abs(big - small) < 1e-9


class TestLineTails:
    """The 1-D sums (S_n and the c = 0 series) finished by _line_tail."""

    def test_xi0_continued_below_abscissa_is_b_independent(self):
        # s = 0.7 < (2n + 1)/4 = 3/4: the analytic continuation in s
        vals = [xi0_direct(Z1, Z2, 1, 0.7, TruncationPolicy(B=B, tol=1e-2))
                for B in (300, 3000, 100_000)]
        assert all("NotAbsolutelyConvergent" in r.warnings for r in vals)
        for r in vals[1:]:
            assert abs(r.value - vals[0].value) < 1e-12

    def test_s1_at_cancelled_leading_order_matches_fourier(self):
        # at n = s = 1 the nu^(-1) order cancels between nu and -nu; the
        # Fourier formula alpha_1(1) y^0 + sum_r beta_1(r, 1, y) e(r x)
        z = 0.1 + 1.2j
        d = s_series_direct(z, 1, 1.0)
        f = alpha_const(1, 1.0) + sum(beta_mode(1, r, 1.0, z.imag) * cmath.exp(2j * math.pi * r * z.real)
                                      for r in range(-30, 31) if r)
        assert abs(d.value - f) < 1e-12

    def test_xi0_tail_matches_brute_force(self):
        # n = s = 1, B = 200: the terms 200 < |b| <= M summed with fsum, plus
        # the far tail 2 sum_{nu > M} nu^(-2) (higher orders < 1e-18 there)
        n, s, B, M = 1, 1.0, 200, 2_000_000
        e1 = _inverse_expansion(Z2 - Z1, n, s)
        e2 = _inverse_expansion(Z2.conjugate() - Z1, n, s)
        coefs = [sum(e1[j] * e2[m - j] for j in range(m + 1)) for m in range(len(e1))]
        tail, bound = _line_tail(coefs, 4 * s - 2 * n, B, 0)
        b = np.concatenate([np.arange(-M, -B, dtype=np.float64), np.arange(B + 1, M + 1, dtype=np.float64)])
        t = xi_term_fn(n, s)(Z2 - Z1 - b, Z2.conjugate() - Z1 - b)
        far = 2.0 * (1.0 / M - 0.5 / M**2 + 1.0 / (6.0 * M**3))
        brute = complex(math.fsum(t.real) + far, math.fsum(t.imag))
        assert abs(tail - brute) < 1e-15
        assert bound < 1e-15

    @pytest.mark.parametrize("n,s", [(1, 1.0), (0, 1.3)])
    def test_cap_above_the_stop_is_bit_identical(self, n, s):
        # the sums stop where their tail bound does, far below either cap
        for evaluate in (lambda B: xi0_direct(Z1, Z2, n, s, TruncationPolicy(B=B, tol=1e-2)),
                         lambda B: s_series_direct(Z1, n, s, TruncationPolicy(B=B, tol=1e-2))):
            lo, hi = evaluate(100_000), evaluate(10_000_000)
            assert (lo.value, lo.err_estimate) == (hi.value, hi.err_estimate)

    def test_cap_below_the_stop_is_honoured(self, monkeypatch):
        # B = 10 < B': exactly the 2B + 1 terms are summed, and the estimate
        # holds the tail bound at B
        sizes, line_result = [], latsum._line_result

        def counted(terms_of, *args):
            return line_result(lambda nu: sizes.append(nu.size) or terms_of(nu), *args)

        monkeypatch.setattr(latsum, "_line_result", counted)
        pol = TruncationPolicy(B=10, tol=1e-2)
        n, s = 1, 1.0
        xi0 = xi0_direct(Z1, Z2, n, s, pol)
        e1, e2 = _inverse_expansion(Z2 - Z1, n, s), _inverse_expansion(Z2.conjugate() - Z1, n, s)
        coefs = [sum(e1[j] * e2[m - j] for j in range(m + 1)) for m in range(len(e1))]
        assert xi0.err_estimate >= 2.0 * _line_tail(coefs, 4 * s - 2 * n, 10, 0)[1] > 0
        ss = s_series_direct(Z1, n, s, pol)
        assert ss.err_estimate >= _line_tail(_inverse_expansion(Z1, n, s), 2 * s - n, 10, n)[1] > 0
        assert sizes == [21, 21]

    def test_far_pair_evaluates_at_most_cap_plus_window(self, monkeypatch):
        # Im z ~ 5000: the bound needs the whole cap, and the terms are
        # evaluated at the window and then once at B' = B
        counts, terms = [], latsum._terms
        monkeypatch.setattr(latsum, "_terms",
                            lambda fn, mu1, mu2: counts.append(mu1.size) or terms(fn, mu1, mu2))
        B = TruncationPolicy().B
        xi0_direct(0.3 + 5000j, -0.2 + 8000j, 0, 1.3)
        assert counts[-1] == 2 * B + 1
        assert sum(counts) <= 2 * B + 1 + 2 * latsum._LINE_WINDOW + 1

    @settings(max_examples=25, deadline=None)
    @given(x1=st.floats(-0.5, 0.5), y1=st.floats(0.1, 2.0), x2=st.floats(-0.5, 0.5),
           y2=st.floats(0.1, 2.0))
    def test_estimates_cover_closed_forms(self, x1, y1, x2, y2):
        # at s = n = 1 the summands are 1/((w1 - b)(w2 - b)) and 1/(z + nu):
        # xi0 = 2 pi (cot pi w2 - cot pi w1)/(w1 - w2) by partial fractions
        # and S_1(z, 0, 1) = pi cot pi z, taken at 30 digits from the same w
        assume(abs(y2 - y1) >= 0.05 or abs(x2 - x1 - round(x2 - x1)) >= 0.05)
        z1, z2 = complex(x1, y1), complex(x2, y2)
        w1, w2 = mpmath.mpc(z2 - z1), mpmath.mpc(complex(np.conj(np.complex128(z2)) - z1))
        with mpmath.workdps(30):
            pi = mpmath.pi
            exact = (2 * pi * (mpmath.cot(pi * w2) - mpmath.cot(pi * w1)) / (w1 - w2),
                     pi * mpmath.cot(pi * mpmath.mpc(z1)))
        for r, e in zip((xi0_direct(z1, z2, 1, 1.0), s_series_direct(z1, 1, 1.0)), exact):
            assert abs(r.value - complex(e)) <= r.err_estimate

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(-1.0, 1.0), y=st.floats(0.2, 2.0), n=st.integers(0, 3),
           ds=st.floats(0.05, 1.0))
    def test_s_series_matches_fourier(self, x, y, n, ds):
        z = complex(x, y)
        s = min(3.0, (n + 1) / 2.0 + ds)
        d = s_series_direct(z, n, s, TruncationPolicy(B=2000, tol=1e-2)).value
        f = s_series_fourier(z, n, s, R=40).value
        assert abs(d - f) <= 1e-8 * abs(f)

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(-1.0, 1.0), y=st.floats(0.2, 2.0), n=st.integers(0, 3),
           ds=st.floats(-0.5, 0.0))
    def test_s_series_continuations_agree(self, x, y, n, ds):
        # below the abscissa both routes return the continuation; its poles
        # are the half-odd s <= n // 2 + 1/2
        s = (n + 1) / 2.0 + ds
        assume(abs(s - 0.5 - round(s - 0.5)) >= 0.02)
        z = complex(x, y)
        d = s_series_direct(z, n, s, TruncationPolicy(B=2000, tol=1e-2))
        f = s_series_fourier(z, n, s, R=40)
        assert d.warnings == f.warnings == ("NotAbsolutelyConvergent",)
        assert abs(d.value - f.value) <= 1e-10 * max(1.0, abs(f.value))

    @settings(max_examples=25, deadline=None)
    @given(x1=st.floats(-0.5, 0.5), y1=st.floats(0.2, 2.0), x2=st.floats(-0.5, 0.5),
           y2=st.floats(0.2, 2.0), n=st.integers(0, 3), ds=st.floats(-0.2, 1.0))
    def test_xi0_is_b_independent(self, x1, y1, x2, y2, n, ds):
        # both sides of the abscissa (2n + 1)/4, the nearest pole; the next
        # pole lies 1/2 below it.  z2 = z1 + b is the diagonal singularity.
        assume(abs(ds) >= 0.02)
        assume(abs(y2 - y1) >= 0.05 or abs(x2 - x1 - round(x2 - x1)) >= 0.05)
        z1, z2, s = complex(x1, y1), complex(x2, y2), (2 * n + 1) / 4.0 + ds
        lo = xi0_direct(z1, z2, n, s, TruncationPolicy(B=300, tol=1e-2)).value
        hi = xi0_direct(z1, z2, n, s, TruncationPolicy(B=3000, tol=1e-2)).value
        assert abs(lo - hi) <= 1e-12 * max(1.0, abs(hi))


class TestOmegaN:
    def test_hand_checked_identity_term(self):
        # n = 1, s = 1 summand at the identity matrix, z1 = i, z2 = 2i:
        # conj(mu2)^2 / |mu2|^4 with mu2 = conj(z2) - z1 = -3i gives -1/9
        fn = omega_n_term_fn(1, 1.0)
        val = complex(fn(np.array([1j]), np.array([-3j]))[0])
        assert val == pytest.approx(-1.0 / 9.0)

    def test_shell_stability(self):
        lo = omega_n_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=200, tol=1e-2))
        hi = omega_n_direct(Z1, Z2, 1, 1.5, TruncationPolicy(H=400, tol=1e-2))
        assert abs(lo.value - hi.value) <= max(lo.err_estimate, hi.err_estimate) * 1.5

    def test_warns_near_its_abscissa(self):
        # Omega_2 converges absolutely for s > 3/2, not s > 1
        r = omega_n_direct(Z1, Z2, 2, 1.55, TruncationPolicy(H=60, refine="none", tol=1e-2))
        assert "NotAbsolutelyConvergent" in r.warnings

    def test_negation_symmetry_in_engine(self):
        fn = omega_n_term_fn(1, 1.3)
        t1 = complex(fn(np.array([0.5 + 0.2j]), np.array([1.2 - 0.7j]))[0])
        t2 = complex(fn(np.array([-0.5 - 0.2j]), np.array([-1.2 + 0.7j]))[0])
        assert t1 == pytest.approx(t2)


class TestPsi:
    def test_positive_and_monotone_in_height(self):
        fn = psi_term_fn(1, 1.4)
        vals = [ball_sum(Z1, Z2, 1, (H,), fn)[0][0].real for H in (25, 50, 100, 200)]
        assert all(v > 0 for v in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_both_variants_real_positive(self):
        pol = TruncationPolicy(H=200, tol=1e-2)
        for which in (1, 2):
            v = psi_direct(which, Z1, Z2, 1.4, pol).value
            assert abs(v.imag) < 1e-12 and v.real > 0

    @pytest.mark.slow
    def test_residue_at_one(self):
        # fitted residue of (s-1) Psi^i at s = 1; the value validated
        # numerically is 3/(y1 y2) (the printed 3/2 fails by a factor 2)
        target = 3.0 / (Z1.imag * Z2.imag)
        for which in (1, 2):
            fitted = psi_residue_fit(Z1, Z2, which)
            assert abs(fitted - target) / target < 0.05

    def test_rejects_bad_which(self):
        with pytest.raises(ValueError):
            psi_direct(3, Z1, Z2, 1.4)


class TestDeterminism:
    def test_worker_count_bit_identical(self):
        pol1 = TruncationPolicy(H=150, tol=1e-2, workers=1)
        pol4 = TruncationPolicy(H=150, tol=1e-2, workers=4)
        a = xi_direct(Z1, Z2, 1, 1.5, pol1).value
        b = xi_direct(Z1, Z2, 1, 1.5, pol4).value
        assert a == b  # bitwise
