"""End-to-end identity checkers.

Each checker evaluates both sides of one asserted identity on a default
grid, records per-site residuals in a CheckReport, and leaves pass/fail
to the report (pass iff max residual <= tolerance).  Where the source
formulas are ambiguous up to normalization constants, the checker scans
the candidate constants and requires exactly one survivor; the winning
convention is recorded in the report details and in ERRATA.md.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import (divisor_sieve, divisor_sigma, kloosterman_matrix, ramanujan_sieve,
                    totient_sieve, weil_bound)
from .continuation import omega2, s_series_fourier, xi_fourier
from .errors import AmbiguousNormalization
from .latsum import omega_direct, s_series_direct
from .modforms import delta_value, theorem3_rhs
from .special import zeta_fn
from .types import CheckReport, FourierAssemblyConfig, TruncationPolicy

DEFAULT_Z_GRID = (0.3 + 1.1j, 1j, -0.2 + 0.7j)
DEFAULT_PAIRS = (
    (0.1 + 1.2j, -0.3 + 0.9j),
    (0.2 + 1.3j, -0.45 + 1.05j),
    (-0.15 + 0.95j, 0.3 + 1.15j),
    (0.05 + 1.1j, 0.4 + 1.25j),
    (-0.35 + 1.15j, 0.15 + 0.85j),
)


def check_lemma1(points=DEFAULT_Z_GRID, n_list=(0, 2), s_list=(1.6, 2.0),
                 tolerance: float = 1e-7, R: int = 20,
                 policy: TruncationPolicy | None = None) -> CheckReport:
    """Power-sum Fourier expansion against direct summation."""
    policy = policy or TruncationPolicy(B=100_000, tol=1e-2)
    report = CheckReport(name="lemma1", tolerance=tolerance)
    for z in points:
        r_eff = R if z.imag >= 0.5 else max(R, 40)
        for n in n_list:
            for s in s_list:
                if s <= (n + 1) / 2.0 + 0.1:
                    continue
                d = s_series_direct(z, n, s, policy)
                f = s_series_fourier(z, n, s, R=r_eff)
                rel = abs(d.value - f.value) / max(1e-300, abs(d.value))
                report.points.append((z, n, s))
                report.residuals.append(rel)
    report.details = f"grid of {len(report.residuals)} sites, R={R}"
    return report


_DBAR_CANDIDATES = (-12.0, 12.0, 24.0, -24.0)


def _dbar_fd(fun, z, step):
    fx = (fun(z + step) - fun(z - step)) / (2.0 * step)
    fy = (fun(z + 1j * step) - fun(z - 1j * step)) / (2.0 * step)
    return 0.5 * (fx + 1j * fy)


# the finite-difference checks compare O(1) derivative targets at 1e-2
# relative; assembly truncation errors are smooth in z and cancel in the
# symmetric differences, so a light configuration suffices
_FD_CFG = FourierAssemblyConfig(R=6, C=1000, corr_C=80, corr_K=40, tol=1e-2)


def check_dbar_z1(z1: complex, z2: complex, cfg: FourierAssemblyConfig | None = None,
                  step: float = 1e-3, tolerance: float = 1e-2) -> CheckReport:
    """d/d conj(z1) of (z2 - conj z2) Xi_1(z1, z2) against t/(z1 - conj z1)^2.

    The candidate scan resolves t; the value validated by the finite
    differences (and by the Psi-residue bookkeeping) is t = +24, i.e.
    -6 / (Im z1)^2.
    """
    cfg = cfg or _FD_CFG
    w2 = z2 - z2.conjugate()

    def F(z):
        return xi_fourier(z, z2, 1, 1.0, cfg).value * w2

    report = CheckReport(name="dbar_z1", tolerance=tolerance)
    dbar = _dbar_fd(F, z1, step)
    dbar_half = _dbar_fd(F, z1, step / 2.0)
    target = 24.0 / (z1 - z1.conjugate()) ** 2
    rel = abs(dbar - target) / abs(target)
    rel_half = abs(dbar_half - target) / abs(target)
    report.points.append((z1, z2))
    report.residuals.append(max(rel, rel_half))
    best = min(_DBAR_CANDIDATES, key=lambda t: abs(dbar - t / (z1 - z1.conjugate()) ** 2))
    report.details = (
        f"step-halving residuals {rel:.2e} / {rel_half:.2e}; best candidate "
        f"coefficient {best:+g} (printed form uses -12)"
    )
    return report


def check_dbar_z2(z1: complex, z2: complex, cfg: FourierAssemblyConfig | None = None,
                  step: float = 1e-3, tolerance: float = 1e-2) -> CheckReport:
    """d/d conj(z2) of (z2 - conj z2) Xi_1 vanishes (it equals -omega_2,
    a weight-2 cusp form); cross-reports the omega_2 estimate."""
    cfg = cfg or _FD_CFG

    def F(z):
        return xi_fourier(z1, z, 1, 1.0, cfg).value * (z - z.conjugate())

    report = CheckReport(name="dbar_z2", tolerance=tolerance)
    dbar = _dbar_fd(F, z2, step)
    dbar_half = _dbar_fd(F, z2, step / 2.0)
    om = omega2(z1, z2)
    report.points.append((z1, z2))
    report.residuals.append(max(abs(dbar), abs(dbar_half)))
    report.details = (
        f"|dbar| = {abs(dbar):.2e} (half-step {abs(dbar_half):.2e}); "
        f"|omega2| = {abs(om.value):.2e} +/- {om.err_estimate:.1e}"
    )
    return report


_THEOREM3_CANDIDATES = (
    # (label, additive coefficient t in Xi (z2 - conj z2) - t/(z1 - conj z1),
    #  rhs factor, extra (z2 - conj z2) on the left)
    ("t=12, rhs x1", 12.0, 1.0, False),
    ("t=12, rhs x2", 12.0, 2.0, False),
    ("t=24, rhs x1", 24.0, 1.0, False),
    ("t=24, rhs x2", 24.0, 2.0, False),
    ("t=12, rhs x2, extra (z2-z2bar)", 12.0, 2.0, True),
    ("t=24, rhs x2, extra (z2-z2bar)", 24.0, 2.0, True),
)


def check_theorem3(point_pairs=DEFAULT_PAIRS, near_diagonal: bool = True,
                   cfg: FourierAssemblyConfig | None = None,
                   tolerance: float = 1e-3) -> CheckReport:
    """Boundary kernel against the j/Delta logarithmic derivative.

    Scans the normalization candidates and requires exactly one to pass on
    every pair; raises AmbiguousNormalization otherwise.  The surviving
    convention is

        Xi_1(z1, z2)(z2 - conj z2) - 24/(z1 - conj z1)
            = 2 [ j'(z1)/(j(z1) - j(z2)) + Delta'(z1)/Delta(z1) ].
    """
    cfg = cfg or FourierAssemblyConfig(R=8, C=2000, corr_C=120, corr_K=48, tol=1e-3)
    pairs = list(point_pairs)
    if near_diagonal:
        base = pairs[0]
        pairs.append((base[1] + 0.05, base[1]))
    rows = [(z1, z2, xi_fourier(z1, z2, 1, 1.0, cfg).value, theorem3_rhs(z1, z2, 1.0))
            for z1, z2 in pairs]
    survivors = []
    all_resids = {}
    for label, t, kappa, extra in _THEOREM3_CANDIDATES:
        resids = []
        for z1, z2, xi, rhs1 in rows:
            w2 = z2 - z2.conjugate()
            lhs = xi * w2 - t / (z1 - z1.conjugate())
            if extra:
                lhs = lhs * w2
            rhs = kappa * rhs1
            resids.append(abs(lhs - rhs) / max(abs(rhs), 1e-12))
        all_resids[label] = max(resids)
        if max(resids) <= tolerance:
            survivors.append((label, resids))
    report = CheckReport(name="theorem3", tolerance=tolerance)
    report.points = [(z1, z2) for z1, z2, *_ in rows]
    if len(survivors) != 1:
        raise AmbiguousNormalization(
            f"{len(survivors)} candidates passed at {tolerance}: "
            + ", ".join(f"{k}={v:.2e}" for k, v in sorted(all_resids.items()))
        )
    label, resids = survivors[0]
    report.residuals = resids
    report.details = (
        f"unique passing normalization: {label}; rejected: "
        + ", ".join(f"[{k}] {v:.1e}" for k, v in sorted(all_resids.items()) if k != label)
    )
    return report


def check_weil(c_max: int = 200, ab_max: int = 20, tolerance: float = 1e-9) -> CheckReport:
    """Exhaustive |K(a, b; c)| <= Weil bound over the (a, b, c) grid."""
    report = CheckReport(name="weil", tolerance=tolerance)
    worst = -math.inf
    worst_site = None
    equalities = []
    args = range(1, ab_max + 1)
    for c in range(1, c_max + 1):
        K = np.abs(kloosterman_matrix(c, args, args)).tolist()
        for a in args:
            for b in args:
                excess = K[a - 1][b - 1] - weil_bound(a, b, c)
                if excess > worst:
                    worst = excess
                    worst_site = (a, b, c)
                if abs(excess) < 1e-9:
                    equalities.append((a, b, c))
    report.points.append(f"c<= {c_max}, a,b <= {ab_max}")
    report.residuals.append(max(worst, 0.0))
    report.details = (
        f"worst excess {worst:.3e} at {worst_site}; "
        f"{len(equalities)} equality cases (first: {equalities[:3]})"
    )
    return report


def check_dirichlet(C: int = 100_000, s: float = 3.0, tolerance: float = 1e-3) -> CheckReport:
    """The three Dirichlet-series identities at real s:

        sum phi(c)/c^s   = zeta(s-1)/zeta(s)
        sum C_c(r)/c^s   = sigma_(1-s)(r)/zeta(s),   r in {1, 2, 6}
        sum d(c)/c^s     = zeta(s)^2
    """
    report = CheckReport(name="dirichlet", tolerance=tolerance)
    c = np.arange(1, C + 1, dtype=np.float64)
    phi = totient_sieve(C).astype(np.float64)
    dcount = divisor_sieve(C).astype(np.float64)
    inv_cs = c ** (-s)
    lhs_phi = float(np.sum(phi * inv_cs))
    rhs_phi = (zeta_fn(s - 1.0) / zeta_fn(s)).real
    report.points.append("phi")
    report.residuals.append(abs(lhs_phi - rhs_phi))
    for r in (1, 2, 6):
        ram = ramanujan_sieve(C, r).astype(np.float64)
        lhs = float(np.sum(ram * inv_cs))
        rhs = (divisor_sigma(1.0 - s, r) / zeta_fn(s)).real
        report.points.append(f"ramanujan r={r}")
        report.residuals.append(abs(lhs - rhs))
    lhs_d = float(np.sum(dcount * inv_cs))
    rhs_d = (zeta_fn(s) ** 2).real
    report.points.append("divisor")
    report.residuals.append(abs(lhs_d - rhs_d))
    report.details = f"partial sums to C = {C} at s = {s}"
    return report


# Zagier's theorem at weight 12, det 1: <Delta, omega_1(., conj z2; 12)>
# = C_12 Delta(z2), so the kernel is C_12 Delta(z1) conj Delta(z2) / <Delta, Delta>
_C12 = math.pi / (2.0**9 * 11.0)
_GAUSS_NODES = 32  # per axis of the fundamental-domain rule
_PETERSSON_H = 30  # height ball of omega at each node


def _fundamental_domain_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes z, weights w and Delta(z) of the tensor Gauss rule for the
    weight-12 Petersson product <Delta, g> = sum w Delta(z) conj g(z) over
    the fundamental domain |x| <= 1/2, |z| >= 1, for a cusp form g.

    Gauss-Legendre in x on [-1/2, 1/2] times Gauss-Laguerre at rate 4 pi in
    t = y - sqrt(1 - x^2), the decay of a product of two cusp forms; w
    carries the measure y^12 dx dy / y^2.
    """
    u, wu = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    t, wt = np.polynomial.laguerre.laggauss(_GAUSS_NODES)
    rate = 4.0 * math.pi
    x = u / 2.0
    y = np.sqrt(1.0 - x**2)[:, None] + t / rate
    w = (wu / 2.0)[:, None] * (wt * np.exp(t) / rate) * y**10
    z = (x[:, None] + 1j * y).ravel()
    return z, w.ravel(), np.array([delta_value(complex(p)) for p in z])


def check_omega_proportionality(point_pairs=DEFAULT_PAIRS[:4], H: int = 400,
                                tolerance: float = 1e-4) -> CheckReport:
    """At weight 12, det 1 the kernel is kappa Delta(z1) conj(Delta(z2))
    with kappa = C_12 / <Delta, Delta>.  The residuals are each pair's ratio
    against the mean ratio, then |mean <Delta, Delta> / C_12 - 1| with the
    norm from the Gauss rule."""
    policy = TruncationPolicy(H=H, tol=1e-2)
    ratios = []
    report = CheckReport(name="omega_proportionality", tolerance=tolerance)
    for z1, z2 in point_pairs:
        w = omega_direct(z1, z2, 12, 1, policy)
        ratios.append(w.value / (delta_value(z1) * delta_value(z2).conjugate()))
    mean = sum(ratios) / len(ratios)
    for (z1, z2), ratio in zip(point_pairs, ratios):
        report.points.append((z1, z2))
        report.residuals.append(abs(ratio - mean) / abs(mean))
    _, w, delta = _fundamental_domain_rule()
    norm = float(np.sum(w * np.abs(delta) ** 2))
    report.points.append("kappa <Delta, Delta> / C_12")
    report.residuals.append(abs(mean * norm / _C12 - 1.0))
    report.details = (f"measured proportionality constant {mean.real:.10g}{mean.imag:+.3e}j "
                      f"at H={H}; C_12 / <Delta, Delta> = {_C12 / norm:.10g}")
    return report


def check_petersson(z2_list=(0.1 + 1.1j, -0.2 + 0.9j, 0.3 + 1.3j),
                    tolerance: float = 1e-10) -> CheckReport:
    """Zagier's theorem at weight 12, det 1 with its constant:
    <Delta, omega_1(., conj z2; 12)> = C_12 Delta(z2), C_12 = pi / (2^9 11).

    The product is the tensor Gauss rule of _fundamental_domain_rule with
    omega_direct at each node; the residual at each z2 is
    |integral / (C_12 Delta(z2)) - 1|.
    """
    z, w, delta = _fundamental_domain_rule()
    policy = TruncationPolicy(H=_PETERSSON_H, tol=1e-2)
    report = CheckReport(name="petersson", tolerance=tolerance)
    for z2 in z2_list:
        omega = np.array([omega_direct(complex(p), z2, 12, 1, policy).value for p in z])
        integral = complex(np.sum(w * delta * np.conj(omega)))
        report.points.append(z2)
        report.residuals.append(abs(integral / (_C12 * delta_value(z2)) - 1.0))
    report.details = (f"{_GAUSS_NODES}x{_GAUSS_NODES} Gauss rule over the fundamental domain, "
                      f"omega at H={_PETERSSON_H}; worst |integral / (C_12 Delta(z2)) - 1| = "
                      f"{max(report.residuals, default=0.0):.1e}")
    return report
