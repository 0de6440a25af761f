import json
import math

import numpy as np
import pytest

from heckekernel.errors import AmbiguousNormalization
from heckekernel.identities import (
    DEFAULT_PAIRS,
    _fundamental_domain_rule,
    check_dbar_z1,
    check_dbar_z2,
    check_dirichlet,
    check_lemma1,
    check_omega_proportionality,
    check_petersson,
    check_theorem3,
    check_weil,
)
from heckekernel.types import CheckReport, FourierAssemblyConfig

FAST_CFG = FourierAssemblyConfig(R=6, C=800, corr_C=80, corr_K=40, tol=1e-2)


class TestCheckReport:
    def test_pass_recomputed_from_residuals(self):
        rep = CheckReport(name="x", residuals=[1e-9, 5e-8], tolerance=1e-7)
        assert rep.passed
        rep.residuals.append(2e-7)
        assert not rep.passed  # no cached verdict

    def test_empty_report_fails(self):
        assert not CheckReport(name="x", tolerance=1.0).passed

    def test_json_round_trip(self):
        rep = CheckReport(name="x", points=[1 + 2j], residuals=[1e-9], tolerance=1e-7,
                          details="d")
        doc = json.loads(json.dumps(rep.to_dict()))
        assert set(doc) == {"name", "points", "residuals", "tolerance", "pass", "details"}
        assert doc["pass"] is True


    def test_numpy_residuals_give_python_bool(self):
        # residuals computed from numpy scalars must still serialise
        rep = CheckReport(name="x", residuals=[np.float64(1e-9)], tolerance=1e-7)
        assert rep.passed is True
        assert json.loads(json.dumps(rep.to_dict()))["pass"] is True
        rep.residuals.append(np.float64(2e-7))
        assert rep.passed is False
        assert json.loads(json.dumps(rep.to_dict()))["pass"] is False


class TestLemma1:
    def test_default_grid_passes(self):
        rep = check_lemma1()
        assert rep.passed and max(rep.residuals) < 1e-7

    def test_deterministic(self):
        a = check_lemma1().to_dict()
        b = check_lemma1().to_dict()
        assert a == b

    def test_negative_control(self):
        # corrupting the tolerance direction: a deliberately wrong
        # prefactor must not slip under the tolerance
        from heckekernel.continuation import alpha_const, s_series_fourier
        from heckekernel.latsum import s_series_direct
        from heckekernel.types import TruncationPolicy

        z, n, s = 0.3 + 1.1j, 0, 1.6
        d = s_series_direct(z, n, s, TruncationPolicy(B=50_000, tol=1e-2)).value
        f = s_series_fourier(z, n, s).value
        corrupted = f + 0.01 * alpha_const(n, s) * z.imag ** (1 + n - 2 * s)
        assert abs(d - corrupted) / abs(d) > 1e-4

    def test_low_height_site(self):
        rep = check_lemma1(points=(0.2 + 0.3j,), n_list=(0,), s_list=(2.0,), R=40)
        assert rep.passed


class TestDirichletAndWeil:
    def test_dirichlet_passes(self):
        rep = check_dirichlet()
        assert rep.passed and len(rep.residuals) == 5

    def test_dirichlet_smaller_cutoff_consistent(self):
        rep = check_dirichlet(C=20_000, tolerance=5e-3)
        assert rep.passed

    def test_weil_passes_exhaustively(self):
        rep = check_weil(c_max=200, ab_max=20)
        assert rep.passed
        assert "equality cases" in rep.details

    def test_weil_negative_control(self):
        # halving the bound must fail
        from heckekernel.arith import kloosterman_matrix, weil_bound

        violations = 0
        for c in range(1, 60):
            K = abs(kloosterman_matrix(c, [1, 3], [1, 7]))
            for i, a in enumerate((1, 3)):
                for j, b in enumerate((1, 7)):
                    if K[i, j] > 0.5 * weil_bound(a, b, c):
                        violations += 1
        assert violations > 0


# <Delta, Delta>, weight-12 Petersson norm of the normalised discriminant
PUBLISHED_DELTA_NORM = 1.035362056804320922e-6


class TestOmegaProportionality:
    def test_constant_ratio(self):
        rep = check_omega_proportionality(H=200)
        assert rep.passed
        assert "proportionality constant" in rep.details

    def test_constant_is_zagiers(self):
        # the last residual is |kappa <Delta, Delta> / C_12 - 1|
        rep = check_omega_proportionality(H=200, tolerance=1e-10)
        assert rep.points[-1] == "kappa <Delta, Delta> / C_12"
        assert rep.residuals[-1] <= 1e-12
        assert rep.passed

    def test_gauss_rule_delta_norm(self):
        _, w, delta = _fundamental_domain_rule()
        norm = float(np.sum(w * np.abs(delta) ** 2))
        assert abs(norm / PUBLISHED_DELTA_NORM - 1.0) <= 1e-12

    def test_petersson_with_constant(self):
        rep = check_petersson(z2_list=(0.1 + 1.1j,))
        assert rep.tolerance == 1e-10
        assert rep.passed

    def test_translation_invariant_ratio(self):
        from heckekernel.latsum import omega_direct
        from heckekernel.modforms import delta_value
        from heckekernel.types import TruncationPolicy

        pol = TruncationPolicy(H=150, tol=1e-2, refine="none")
        z1, z2 = 0.1 + 1.2j, -0.3 + 0.9j
        r1 = omega_direct(z1, z2, 12, 1, pol).value / (
            delta_value(z1) * delta_value(z2).conjugate())
        r2 = omega_direct(z1 + 1, z2, 12, 1, pol).value / (
            delta_value(z1 + 1) * delta_value(z2).conjugate())
        assert abs(r1 - r2) / abs(r1) < 1e-6

    def test_hecke_action_marker_out_of_scope(self):
        # det-2 enumeration is supported, but no eigenvalue machinery; the
        # m = 2 ratio omega_2 = tau(2) 2^(-11) omega_1 is asserted in
        # test_latsum.py::test_hecke_relation_at_large_height; the kernel still evaluates
        from heckekernel.latsum import omega_direct
        from heckekernel.types import TruncationPolicy

        r = omega_direct(0.1 + 1.2j, -0.3 + 0.9j, 12, 2, TruncationPolicy(H=60, tol=1e-2, refine="none"))
        assert r.err_estimate < 1e-6


@pytest.mark.slow
class TestBoundaryCheckers:
    def test_dbar_z1(self):
        rep = check_dbar_z1(0.1 + 1.2j, -0.3 + 0.9j)
        assert rep.passed
        assert "+24" in rep.details

    def test_dbar_z1_second_pair(self):
        rep = check_dbar_z1(0.2 + 1.3j, -0.45 + 1.05j)
        assert rep.passed

    def test_dbar_z2(self):
        rep = check_dbar_z2(0.1 + 1.2j, -0.3 + 0.9j)
        assert rep.passed
        assert "omega2" in rep.details

    def test_theorem3_unique_candidate(self):
        rep = check_theorem3(cfg=FAST_CFG)
        assert rep.passed
        assert "t=24, rhs x2" in rep.details

    def test_theorem3_stable_across_point_sets(self):
        alt_pairs = ((0.12 + 1.15j, -0.25 + 0.95j), (0.3 + 1.25j, -0.4 + 1.1j),
                     (-0.2 + 1.05j, 0.35 + 0.9j))
        rep = check_theorem3(point_pairs=alt_pairs, near_diagonal=False, cfg=FAST_CFG)
        assert rep.passed and "t=24, rhs x2" in rep.details

    def test_theorem3_tight_tolerance_ambiguous(self):
        with pytest.raises(AmbiguousNormalization):
            check_theorem3(point_pairs=DEFAULT_PAIRS[:2], near_diagonal=False,
                           cfg=FAST_CFG, tolerance=1e-15)
