"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline).  The optional Petersson quadrature extension of criterion 11 is
behind the ``slow`` marker and excluded from the default suite.
"""

import json
import math
import time
from pathlib import Path

import pytest

from heckekernel.cli import main as cli_main
from heckekernel.continuation import xi_extrapolated, xi_fourier
from heckekernel.identities import (
    DEFAULT_PAIRS,
    check_dbar_z1,
    check_dbar_z2,
    check_dirichlet,
    check_lemma1,
    check_omega_proportionality,
    check_petersson,
    check_theorem3,
)
from heckekernel.latsum import s_series_direct, xi0_direct, xi_direct, xic_direct, xic_slice
from heckekernel.continuation import omega2
from heckekernel.identities import check_weil
from heckekernel.types import FourierAssemblyConfig, TruncationPolicy

pytestmark = pytest.mark.acceptance

Z1 = 0.1 + 1.2j
Z2 = -0.3 + 0.9j

BOUNDARY_CFG = FourierAssemblyConfig(R=8, C=3000, corr_C=160, corr_K=48, tol=1e-3)
OVERLAP_CFG = FourierAssemblyConfig(R=6, C=1500, corr_C=100, corr_K=48, tol=1e-2)


def report(criterion: int, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {status}  {detail}  ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget:.0f}s budget"


def test_criterion_01_lemma1_equivalence():
    t0 = time.time()
    rep = check_lemma1(tolerance=1e-7)
    worst = max(rep.residuals)
    report(1, rep.passed, f"lemma-1 direct vs fourier, max rel {worst:.2e} <= 1e-7",
           time.time() - t0, 10.0)


def test_criterion_02_decomposition():
    t0 = time.time()
    worst = 0.0
    pol = TruncationPolicy(H=600, B=600, C=600, refine="none", tol=1e-2)
    for n, s in ((0, 2.0), (1, 1.6)):
        xi = xi_direct(Z1, Z2, n, s, pol)
        xi0 = xi0_direct(Z1, Z2, n, s, pol)
        xic = xic_direct(Z1, Z2, n, s, pol, shifted=False)
        worst = max(worst, abs(xi.value - (xi0.value + 2 * xic.value)) / abs(xi.value))
    report(2, worst <= 1e-5, f"xi = xi0 + 2 xic at H=600, max rel {worst:.2e} <= 1e-5",
           time.time() - t0, 60.0)


def test_criterion_03_factorization():
    t0 = time.time()
    from heckekernel.arith import unit_inverse_table

    pol = TruncationPolicy(B=50_000, tol=1e-2)
    worst = 0.0
    for n, s in ((1, 1.6), (0, 2.0)):
        for c in range(1, 6):
            slice_val = xic_slice(Z1, Z2, c, n, s, 800, shifted=True)
            units, invs = unit_inverse_table(c)
            d0 = (-invs) % c
            d0[d0 == 0] = c
            total = 0j
            for a0, dd in zip(units, d0):
                s0 = s_series_direct(Z2 + a0 / c, 0, 2 * s - n, pol).value
                s2n = s_series_direct(Z1 + dd / c, 2 * n, 2 * s, pol).value
                total += s0 * s2n
            total *= float(c) ** (2 * n - 4 * s)
            worst = max(worst, abs(slice_val - total) / abs(total))
    report(3, worst <= 1e-5, f"c-slices vs S-series products (c <= 5), max rel {worst:.2e} <= 1e-5",
           time.time() - t0, 30.0)


def test_criterion_04_continuation_overlap():
    t0 = time.time()
    worst = 0.0
    for n, s in ((1, 1.5), (1, 1.25), (0, 1.5)):
        d = xi_direct(Z1, Z2, n, s, TruncationPolicy(H=600, tol=1e-2))
        f = xi_fourier(Z1, Z2, n, s, OVERLAP_CFG, TruncationPolicy(B=100_000, tol=1e-2))
        worst = max(worst, abs(d.value - f.value) / abs(d.value))
    errata = Path(__file__).resolve().parents[1] / "ERRATA.md"
    documented = errata.exists() and "pairing" in errata.read_text(encoding="utf-8").lower()
    report(4, worst <= 1e-4 and documented,
           f"fourier vs direct overlap, max rel {worst:.2e} <= 1e-4; pairing documented: {documented}",
           time.time() - t0, 120.0)


# the 5-point grid for the boundary comparison: generic pairs with
# y >= 0.9 where the polynomial s-extrapolation is well conditioned
# (the function is analytic at s = 1 with radius ~ 1/4)
BOUNDARY_PAIRS = (
    (0.1 + 1.2j, -0.3 + 0.9j),
    (0.1 + 1.2j, -0.3 + 1.0j),
    (-0.15 + 1.05j, 0.3 + 1.15j),
    (0.05 + 1.1j, 0.4 + 1.25j),
    (0.15 + 1.15j, -0.2 + 1.2j),
)


def test_criterion_05_boundary_value():
    t0 = time.time()
    worst_abs = 0.0
    within = True
    for z1, z2 in BOUNDARY_PAIRS:
        f = xi_fourier(z1, z2, 1, 1.0, BOUNDARY_CFG, TruncationPolicy(B=100_000, tol=1e-2))
        e = xi_extrapolated(z1, z2, 1, 1.0, (1.1, 1.15, 1.25, 1.4, 1.6),
                            TruncationPolicy(H=900, tol=1e-2, refine="lsq"))
        diff = abs(f.value - e.value)
        worst_abs = max(worst_abs, diff)
        within = within and diff <= f.err_estimate + e.err_estimate
    report(5, within and worst_abs <= 1e-3,
           f"boundary s=1: max |fourier - extrapolated| {worst_abs:.2e} <= 1e-3, within combined estimates: {within}",
           time.time() - t0, 300.0)


def test_criterion_06_dbar_residuals():
    t0 = time.time()
    passing = True
    worst = 0.0
    for z1, z2 in (DEFAULT_PAIRS[0], DEFAULT_PAIRS[1]):
        r1 = check_dbar_z1(z1, z2)
        r2 = check_dbar_z2(z1, z2)
        passing = passing and r1.passed and r2.passed
        worst = max(worst, max(r1.residuals), max(r2.residuals))
    report(6, passing, f"dbar residuals (two pairs, step-halved) max {worst:.2e} <= 1e-2",
           time.time() - t0, 120.0)


def test_criterion_07_omega2_vanishing():
    t0 = time.time()
    worst = 0.0
    for z1, z2 in (DEFAULT_PAIRS[0], (0.25 + 1.05j, -0.15 + 1.3j)):
        r = omega2(z1, z2, policy=TruncationPolicy(H=800, tol=1e-2))
        worst = max(worst, abs(r.value))
    report(7, worst < 1e-2, f"|omega2| {worst:.2e} < 1e-2 at two pairs (H=800)",
           time.time() - t0, 120.0)


def test_criterion_08_theorem3():
    t0 = time.time()
    rep = check_theorem3(tolerance=1e-3)
    worst = max(rep.residuals)
    report(8, rep.passed and "t=24, rhs x2" in rep.details,
           f"unique normalization [{rep.details.split(';')[0].split(': ')[1]}], max rel {worst:.2e} <= 1e-3",
           time.time() - t0, 300.0)


def test_criterion_09_weil_bound():
    t0 = time.time()
    rep = check_weil(c_max=200, ab_max=20)
    report(9, rep.passed, f"Weil bound exhaustive on c <= 200, (a,b) in [1,20]^2; worst excess {max(rep.residuals):.1e}",
           time.time() - t0, 10.0)


def test_criterion_10_dirichlet_identities():
    t0 = time.time()
    rep = check_dirichlet(C=100_000, s=3.0, tolerance=1e-3)
    report(10, rep.passed, f"phi/Ramanujan/divisor Dirichlet identities at s=3, C=1e5, max {max(rep.residuals):.2e} <= 1e-3",
           time.time() - t0, 10.0)


def test_criterion_11_omega_proportionality():
    t0 = time.time()
    rep = check_omega_proportionality(point_pairs=DEFAULT_PAIRS[:4], H=400, tolerance=1e-4)
    report(11, rep.passed, f"weight-12 kernel/Delta-product ratio constant across 4 pairs and equal to "
           f"C_12/<Delta, Delta>, max dev {max(rep.residuals):.2e} <= 1e-4 ({rep.details})",
           time.time() - t0, 120.0)


@pytest.mark.slow
def test_criterion_11_optional_petersson():
    t0 = time.time()
    rep = check_petersson()
    report(11, rep.passed, f"<Delta, omega_1(., conj z2)> = C_12 Delta(z2) at 3 z2 to 1e-10 relative; "
           f"{rep.details}", time.time() - t0, 120.0)


def test_criterion_12_determinism(capsys):
    t0 = time.time()
    outputs = {}
    for workers in (1, 8):
        docs = []
        for argv in (
            ["eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i", "--n", "0",
             "--s", "2.0", "--height", "600", "--json", "--workers", str(workers)],
            ["eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i", "--n", "1",
             "--s", "1.5", "--method", "fourier", "--rmax", "6", "--cmax", "1500",
             "--json", "--workers", str(workers)],
        ):
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0
            # the policy echo records the requested worker count; strip it
            # before comparing (the computed values must be bit-identical)
            docs.append(out.replace(f'"workers": {workers}', '"workers": W'))
        outputs[workers] = docs
    identical = outputs[1] == outputs[8]
    with capsys.disabled():
        report(12, identical, "workers 1 vs 8 produce bit-identical JSON on criteria 2/4 inputs",
               time.time() - t0, 60.0)
