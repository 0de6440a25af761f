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

from .arith import divisor_sieve, divisor_sigma, kloosterman_matrix, weil_bound
from .continuation import omega2, s_series_fourier, xi_fourier
from .errors import AmbiguousNormalization
from .latsum import ball_sum, limit_fit, omega_direct, psi_term_fn, s_series_direct
from .modforms import default_cache, delta_value
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
    cache = default_cache()
    rows = []
    for z1, z2 in pairs:
        xi = xi_fourier(z1, z2, 1, 1.0, cfg).value
        G = cache.j_prime_at(z1) / (cache.j_at(z1) - cache.j_at(z2))
        D = cache.dlog_delta_at(z1)
        rows.append((z1, z2, xi, G, D))
    survivors = []
    all_resids = {}
    for label, t, kappa, extra in _THEOREM3_CANDIDATES:
        resids = []
        for z1, z2, xi, G, D in rows:
            w2 = z2 - z2.conjugate()
            lhs = xi * w2 - t / (z1 - z1.conjugate())
            if extra:
                lhs = lhs * w2
            rhs = kappa * (G + D)
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
    phi = _phi_sieve(C).astype(np.float64)
    dcount = divisor_sieve(C).astype(np.float64)
    inv_cs = c ** (-s)
    lhs_phi = float(np.sum(phi * inv_cs))
    rhs_phi = (zeta_fn(s - 1.0) / zeta_fn(s)).real
    report.points.append("phi")
    report.residuals.append(abs(lhs_phi - rhs_phi))
    for r in (1, 2, 6):
        ram = _ramanujan_sieve(C, r).astype(np.float64)
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


def _phi_sieve(C: int) -> np.ndarray:
    phi = np.arange(C + 1, dtype=np.int64)
    for p in range(2, C + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi[1:]


def _mobius_sieve(C: int) -> np.ndarray:
    mu = np.ones(C + 1, dtype=np.int64)
    is_prime = np.ones(C + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, C + 1):
        if is_prime[p]:
            is_prime[2 * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def _ramanujan_sieve(C: int, r: int) -> np.ndarray:
    """C_c(r) for all c <= C via C_c(r) = sum_{d | (c, r)} mu(c/d) d."""
    mu = _mobius_sieve(C)
    out = np.zeros(C + 1, dtype=np.int64)
    for d in range(1, C + 1):
        if r % d == 0:
            out[d::d] += d * mu[np.arange(1, C // d + 1)]
    return out[1:]


def check_omega_proportionality(point_pairs=DEFAULT_PAIRS[:4], H: int = 400,
                                tolerance: float = 1e-4) -> CheckReport:
    """At weight 12, det 1 the kernel is proportional to
    Delta(z1) conj(Delta(z2)); the common ratio is reported, not asserted."""
    policy = TruncationPolicy(H=H, tol=1e-2, refine="none")
    ratios = []
    report = CheckReport(name="omega_proportionality", tolerance=tolerance)
    for z1, z2 in point_pairs:
        w = omega_direct(z1, z2, 12, 1, policy)
        ratios.append(w.value / (delta_value(z1) * delta_value(z2).conjugate()))
    mean = sum(ratios) / len(ratios)
    for (z1, z2), ratio in zip(point_pairs, ratios):
        report.points.append((z1, z2))
        report.residuals.append(abs(ratio - mean) / abs(mean))
    report.details = f"measured proportionality constant {mean.real:.10g}{mean.imag:+.3e}j at H={H}"
    return report


def check_petersson(z2_list=(0.1 + 1.1j, -0.2 + 0.9j, 0.3 + 1.3j),
                    nx: int = 200, ny: int = 400, y_cap: float = 20.0,
                    H: int = 60, tolerance: float = 1e-2) -> CheckReport:
    """Fundamental-domain quadrature of Delta against the weight-12 kernel.

    Midpoint rule on {|x| <= 1/2, |z| >= 1, y <= y_cap}; asserts the ratio
    integral / Delta(z2) is z2-independent and cross-reports it against
    the proportionality constant and C_12 = pi / (2^9 11).
    """
    xs = (np.arange(nx) + 0.5) / nx - 0.5
    ys = np.exp(np.linspace(math.log(math.sqrt(3.0) / 2.0), math.log(y_cap), ny + 1))
    y_mid = 0.5 * (ys[1:] + ys[:-1])
    y_wid = ys[1:] - ys[:-1]
    X, Y = np.meshgrid(xs, y_mid, indexing="ij")
    W = np.broadcast_to(y_wid[None, :], X.shape) / nx
    Z = X + 1j * Y
    inside = np.abs(Z) >= 1.0
    pts = Z[inside]
    wts = W[inside]
    cache = default_cache()
    delta_vals = np.array([cache.delta_at(complex(z)) for z in pts])
    report = CheckReport(name="petersson", tolerance=tolerance)
    ratios = []
    for z2 in z2_list:
        omega_vals = _omega_on_grid(pts, z2, 12, H)
        integrand = delta_vals * np.conj(omega_vals) * pts.imag**10
        integral = complex(np.sum(integrand * wts))
        ratios.append(integral / cache.delta_at(z2))
    mean = sum(ratios) / len(ratios)
    for z2, ratio in zip(z2_list, ratios):
        report.points.append(z2)
        report.residuals.append(abs(ratio - mean) / abs(mean))
    c12 = math.pi / (2.0**9 * 11.0)
    # loop closure: the same grid's Delta norm times the measured
    # proportionality constant must reproduce the integral ratio
    norm_grid = float(np.sum(np.abs(delta_vals) ** 2 * pts.imag**10 * wts))
    z1p, z2p = DEFAULT_PAIRS[0]
    w = omega_direct(z1p, z2p, 12, 1, TruncationPolicy(H=max(200, H), tol=1e-2, refine="none"))
    kappa = w.value / (delta_value(z1p) * delta_value(z2p).conjugate())
    closure = mean / (kappa.conjugate() * norm_grid)
    report.details = (
        f"integral/Delta(z2) = {mean:.6g}; C_12 = {c12:.6g}; "
        f"discrepancy factor vs C_12: {(mean / c12).real:.6g}{(mean / c12).imag:+.2e}j; "
        f"grid norm |Delta|^2 = {norm_grid:.6g}; "
        f"loop closure ratio vs kappa*norm: {closure.real:.6g}{closure.imag:+.2e}j"
    )
    return report


def _omega_on_grid(pts: np.ndarray, z2: complex, k: int, H: int) -> np.ndarray:
    """omega_1(z, conj z2, k) for an array of z (vectorized over z)."""
    out = np.zeros(pts.shape, dtype=np.complex128)
    z2b = complex(z2).conjugate()
    from .latsum import enumerate_matrices

    for g in enumerate_matrices(1, H):
        mu2 = g.c * pts * z2b + g.d * z2b - g.a * pts - g.b
        out += mu2 ** (-k)
    return out


def psi_residue_fit(z1: complex, z2: complex, which: int = 1,
                    samples=(1.05, 1.08, 1.12, 1.18, 1.25),
                    heights=(300, 600, 1200)) -> float:
    """Fitted residue of Psi at s = 1: the height limit of each sample (all
    heights from one ball_sum), then the constant term of a quadratic fit of
    (s-1) Psi(s) in s - 1."""
    rvals = []
    for s in samples:
        vals = ball_sum(z1, z2, 1, heights, psi_term_fn(which, s)).real
        decay = 4.0 * s - 4.0
        rvals.append((s - 1.0) * limit_fit(heights, vals, (0.0, -decay, -decay - 1.0)).real)
    return limit_fit([s - 1.0 for s in samples], rvals, (0, 1, 2)).real
