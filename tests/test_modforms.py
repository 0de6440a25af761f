import cmath
import math
import random

import numpy as np
import pytest

from heckekernel import modforms
from heckekernel.errors import NearDiagonal, TailTooLarge
from heckekernel.modforms import (
    delta_series,
    delta_value,
    dlog_delta,
    eisenstein,
    evaluate,
    j_invariant,
    j_prime,
    j_q_series,
    reduce_to_fundamental,
    theorem3_rhs,
)

RHO = complex(-0.5, math.sqrt(3.0) / 2.0)


# reference bits: repr of j, j', Delta'/Delta and Delta inside F, on its
# boundary arcs and lines, and outside F with Im z down to 0.05, |Re z| up to 2;
# then theorem3_rhs at factors 1 and 2 on pairs of such points
PINNED_POINTS = [
    (complex(0.0, 1.0), '(1727.9999999999998+0j)', '2.1768768151261515e-12j',
     '6j', '(0.0017853698506421524+0j)'),
    (complex(0.3, 1.1), '(356.6479117587324-781.1038124900538j)', '(-7003.650726464891+1364.3563843480104j)',
     '(0.1426150758671955+6.329972395454142j)', '(-0.0002883882696899428+0.0009613517347784486j)'),
    (complex(-0.2, 2.5), '(2051264.5932470385+6310853.416039035j)', '(39652261.81403096-12883800.748348257j)',
     '(-2.161303654263364e-05+6.283178284688592j)', '(4.656983585676473e-08-1.4332553961167054e-07j)'),
    (complex(0.45, 0.95), '(-1.2788765333734018-36.997509960378984j)', '(-899.6904116364304+604.2649770926254j)',
     '(0.11741012943697642+6.647474682496809j)', '(-0.0025610126005636354+0.0008857554207588261j)'),
    (complex(0.1, 3.0), '(124227678.27211197-90256150.87090872j)', '(-567096121.0441487-780540848.1614629j)',
     '(5.772337108618351e-07+6.283184512685562j)', '(5.268651777921205e-09+3.827898842380485e-09j)'),
    (complex(-0.5, 0.8660254037844386), '(-2.3104912647824093e-14-2.0103115814926245e-30j)', '(-5.0826780530196735e-28+8.042670309637297e-13j)',
     '(-7.796343665038747e-17+6.928203230275509j)', '(-0.004805138377052951-6.488697095119414e-19j)'),
    (complex(0.5, 0.8660254037844386), '(-2.3104912647824093e-14-2.0103115814926245e-30j)', '(-5.0826780530196735e-28+8.042670309637297e-13j)',
     '(-7.796343665038747e-17+6.928203230275509j)', '(-0.004805138377052951-6.488697095119414e-19j)'),
    (complex(-0.32328956686350335, 0.9463000876874145), '(271.0988480758818-1.8962008000726536e-13j)', '(3545.438972571019-1211.2473037856141j)',
     '(-0.35103982204913503+6.460411017146114j)', '(-0.0010590130226781672-0.002474214687203583j)'),
    (complex(0.26749882862458735, 0.963558185417193), '(535.0717824667788+3.0495315623923603e-13j)', '(-5029.78279379402-1396.3464022605533j)',
     '(0.3513725387880611+6.324466788581251j)', '(-0.00012749479577395972+0.0023595234466231192j)'),
    (complex(0.5, 1.4), '(-5896.089887331031+8.060611820457381e-13j)', '(5.108221505545904e-12+41355.85688252144j)',
     '(-2.7909621256478657e-18+6.305985589791143j)', '(-0.00015181774101617667-1.8659778422342785e-20j)'),
    (complex(-0.5, 2.0), '(-286007.9994772047+3.51168237579373e-11j)', '(2.2064656650098414e-10+1801707.3267517514j)',
     '(-6.440023604746106e-20+6.28371118051594j)', '(-3.487634244257942e-06-4.271477586681229e-22j)'),
    (complex(0.1, 0.35), '(479160.82671891083-16137462.712797381j)', '(637749036.7293433+423541459.047663j)',
     '(15.99555154403711-8.564412642771849j)', '(0.0019181142027176312-0.01128480426982772j)'),
    (complex(0.37, 0.21), '(2291.1530952396506+359.4261183004436j)', '(-29621.922932988182-35874.157898770936j)',
     '(4.72305814054328+31.57414888102986j)', '(18.778808386398158-3.5102537601705395j)'),
    (complex(-1.3, 0.05), '(-4855.820311312961-14742.066710322251j)', '(2095616.6886036713+2219248.4985741363j)',
     '(67.67866009984+91.50274138073256j)', '(-48754.81876010587+22767.321573058223j)'),
    (complex(2.0, 0.1), '(1.938773508354868e+27+0j)', '(-0+1.2181673221644324e+30j)',
     '(-0-508.3185307179585j)', '(5.157900062542845e-16+0j)'),
    (complex(-2.0, 0.7), '(8679.99233811076+0j)', '(-0+101110.2834287962j)',
     '(-0+4.358947183925633j)', '(0.009105159016440071+0j)'),
    (complex(1.7, 0.05), '(-4855.820311312961-14742.066710322251j)', '(2095616.6886036713+2219248.4985741363j)',
     '(67.67866009984+91.50274138073256j)', '(-48754.81876010587+22767.321573058223j)'),
    (complex(0.25, 0.5), '(7924.310069709193-22082.675210824927j)', '(151182.20934862937+442018.4781568916j)',
     '(6.467964562231093+7.124327101287435j)', '(0.039725674706458304+0.02361018114051565j)'),
    (complex(-0.8, 0.3), '(-1923742.4647360009-474343.2637224681j)', '(94677385.22241485-14612352.810535628j)',
     '(26.15326572703026+9.102654221744293j)', '(-0.09012304519443567-0.05294782792683626j)'),
    (complex(1.05, 0.08), '(-2.4885141686100755e+24-2.2780596891287996e+24j)', '(2.2839149456008047e+27+6.757753599711296e+26j)',
     '(567.1693278302824-201.49504731726213j)', '(-5.658961784960764e-13+1.8832881286394242e-13j)'),
    (complex(-0.45, 0.12), '(5283.223918929334+69663.02145172168j)', '(-4859197.1792909345-4300901.286949162j)',
     '(30.51555371516224+19.783647360766924j)', '(-149.48206290994855-13.566699013624406j)'),
]

PINNED_PAIRS = [
    (complex(0.1, 1.2), complex(-0.3, 0.9),
     '(-1.5404391472850525+1.283503157464609j)', '(-3.080878294570105+2.567006314929218j)'),
    (complex(0.1, 1.2), complex(-0.4, 0.9),
     '(-1.1982109191711692+1.76292187414073j)', '(-2.3964218383423384+3.52584374828146j)'),
    (complex(0.0, 1.0), complex(0.5, 0.8660254037844386),
     '(1.4655807509118877e-48+6.000000000000001j)', '(2.9311615018237754e-48+12.000000000000002j)'),
    (complex(0.3, 0.2), complex(-1.1, 0.6),
     '(2.7831359229866752+25.14835896098298j)', '(5.5662718459733505+50.29671792196596j)'),
    (complex(-0.45, 0.12), complex(1.7, 0.05),
     '(-26.53224984857721+70.50081464221797j)', '(-53.06449969715442+141.00162928443595j)'),
    (complex(0.25, 2.0), complex(0.2, 0.3),
     '(-0.9268683800757382+6.37358466579139j)', '(-1.8537367601514765+12.74716933158278j)'),
    (complex(1.5, 0.8), complex(-0.1, 1.4),
     '(-0.05147470626213473+7.172110018752467j)', '(-0.10294941252426947+14.344220037504934j)'),
    (complex(-0.6, 0.4), complex(0.05, 2.9),
     '(4.634972148768815+15.183541407581952j)', '(9.26994429753763+30.367082815163904j)'),
    (complex(0.37, 0.21), complex(0.1, 0.35),
     '(4.720891286726211+31.57604847005381j)', '(9.441782573452421+63.15209694010762j)'),
    (complex(-2.0, 0.7), complex(0.45, 0.95),
     '(0.04963560124704837+16.00568007997758j)', '(0.09927120249409674+32.01136015995516j)'),
]


def eta_product_coeffs(order: int) -> list[int]:
    """Delta = q prod (1 - q^n)^24; brute polynomial expansion oracle."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for n in range(1, order + 1):
        for _ in range(24):
            # multiply by (1 - q^n)
            for i in range(order, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return [0] + coeffs[: order]  # shift by the leading q


class TestSeriesConstruction:
    def test_e4_coefficients(self):
        e4 = eisenstein(4, 3)
        assert [int(c) for c in e4.coeffs] == [1, 240, 2160, 6720]

    def test_e6_coefficients(self):
        e6 = eisenstein(6, 2)
        assert [int(c) for c in e6.coeffs] == [1, -504, -16632]

    def test_delta_small(self):
        d = delta_series(2)
        assert list(d.coeffs) == [0, 1, -24]

    def test_tau_five(self):
        assert delta_series(5).coeffs[5] == 4830

    def test_delta_matches_eta_product(self):
        order = 12
        assert list(delta_series(order).coeffs) == eta_product_coeffs(order)

    def test_tau_multiplicativity(self):
        d = delta_series(6)
        assert d.coeffs[6] == d.coeffs[2] * d.coeffs[3] == -6048

    def test_discriminant_constant_term_exact_zero(self):
        e4, e6 = eisenstein(4, 8), eisenstein(6, 8)
        num = (e4**3) - (e6**2)
        assert num.coeffs[0] == 0  # exact rational arithmetic

    def test_j_series(self):
        j = j_q_series(2)
        assert j.offset == -1
        assert [int(c) for c in j.coeffs[:3]] == [1, 744, 196884]

    def test_e4_lattice_sum_oracle(self):
        # (1/2) sum over coprime (c, d), |c|,|d| <= 300 of (c z + d)^-4
        z = 2j
        rng = np.arange(-300, 301)
        C, D = np.meshgrid(rng, rng, indexing="ij")
        mask = np.gcd(np.abs(C), np.abs(D)) == 1
        vals = (C[mask] * z + D[mask]) ** (-4.0)
        lattice = 0.5 * complex(np.sum(vals))
        series = evaluate(eisenstein(4, 40), z, tol=math.inf).value
        assert abs(lattice - series) < 1e-6


class TestEvaluation:
    def test_high_imaginary_single_term(self):
        z = 0.37 + 10j
        q = cmath.exp(2j * math.pi * z)
        val = evaluate(delta_series(40), z, tol=math.inf).value
        assert abs(val - q) / abs(q) < 1e-12

    def test_j_at_i(self):
        assert abs(j_invariant(1j) - 1728.0) < 1e-9

    def test_j_at_rho(self):
        assert abs(j_invariant(RHO)) < 1e-6

    def test_j_periodic(self):
        z = 0.3 + 1.1j
        assert abs(j_invariant(z + 1) - j_invariant(z)) < 1e-9

    def test_j_invariance_under_generators(self):
        rng = random.Random(3)
        for _ in range(6):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
            jz = j_invariant(z)
            assert abs(j_invariant(z + 1) - jz) / max(1.0, abs(jz)) < 1e-8
            assert abs(j_invariant(-1 / z) - jz) / max(1.0, abs(jz)) < 1e-8
            assert abs(j_invariant(-1 / z + 1) - jz) / max(1.0, abs(jz)) < 1e-8

    def test_delta_weight_12_covariance(self):
        rng = random.Random(11)
        for _ in range(20):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.5))
            dz = delta_value(z)
            assert abs(delta_value(z + 1) - dz) / abs(dz) < 1e-8
            assert abs(delta_value(-1 / z) - z**12 * dz) / abs(z**12 * dz) < 1e-8

    def test_tail_bound_honest(self):
        for z in (0.2 + 0.5j, -0.3 + 0.8j, 0.1 + 1.5j):
            lo = evaluate(delta_series(20), z, tol=math.inf)
            hi = evaluate(delta_series(40), z, tol=math.inf)
            assert abs(hi.value - lo.value) <= lo.err_estimate

    def test_tail_too_large(self):
        # already reduced and next to rho, where |q| is largest: the order-3 tail is ~5e-6
        with pytest.raises(TailTooLarge):
            evaluate(delta_series(3), -0.5 + 0.87j, tol=1e-12)

    def test_reduction_matrix(self):
        z = 0.37 + 0.21j
        w, (a, b, c, d) = reduce_to_fundamental(z)
        assert a * d - b * c == 1
        assert abs(w.real) <= 0.5 + 1e-12 and abs(w) >= 1 - 1e-12
        assert abs((a * z + b) / (c * z + d) - w) < 1e-12


class TestDerivatives:
    def test_dlog_delta_cocycle(self):
        z = 0.2 + 1.3j
        lhs = dlog_delta(-1 / z)
        rhs = z**2 * dlog_delta(z) + 12 * z
        assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_dlog_delta_periodic(self):
        z = 0.2 + 1.3j
        assert abs(dlog_delta(z + 1) - dlog_delta(z)) < 1e-10

    def test_dlog_delta_cusp_limit(self):
        val = dlog_delta(0.4 + 12j)
        assert abs(val - 2j * math.pi) < 1e-8

    def test_j_prime_finite_difference(self):
        z = 0.17 + 1.05j
        h = 1e-5
        fd = (j_invariant(z + h) - j_invariant(z - h)) / (2 * h)
        assert abs(j_prime(z) - fd) / abs(fd) < 1e-7


class TestTheorem3Rhs:
    def test_z2_periodicity(self):
        z1, z2 = 0.1 + 1.2j, -0.4 + 0.9j
        assert abs(theorem3_rhs(z1, z2 + 1) - theorem3_rhs(z1, z2)) < 1e-9

    def test_log_derivative_oracle(self):
        # (log F(z1+h) - log F(z1-h)) / 2h with F = (j(z1)-j(z2)) Delta(z1)
        z1, z2 = 0.1 + 1.2j, -0.4 + 0.9j
        h = 1e-4

        def logF(z):
            return cmath.log(j_invariant(z) - j_invariant(z2)) + cmath.log(delta_value(z))

        fd = (logF(z1 + h) - logF(z1 - h)) / (2 * h)
        assert abs(theorem3_rhs(z1, z2, factor=1.0) - fd) < 1e-6

    def test_pole_residue(self):
        # as z1 -> z2 the j-part behaves like 1/(z1 - z2); the ratio tends
        # to 1 with an O(|z1 - z2|) curvature correction
        z2 = -0.4 + 0.9j
        z1 = z2 + 1e-3
        val = theorem3_rhs(z1, z2, factor=1.0) - dlog_delta(z1)
        assert abs((z1 - z2) * val - 1.0) < 1e-2
        z1 = z2 + 1e-5
        val = theorem3_rhs(z1, z2, factor=1.0) - dlog_delta(z1)
        assert abs((z1 - z2) * val - 1.0) < 1e-4

    def test_near_diagonal_error(self):
        z2 = -0.4 + 0.9j
        with pytest.raises(NearDiagonal):
            theorem3_rhs(z2 + 1e-12, z2)

    def test_one_reduction_per_point(self, monkeypatch):
        calls = []

        def counted(z):
            calls.append(z)
            return reduce_to_fundamental(z)

        monkeypatch.setattr(modforms, "reduce_to_fundamental", counted)
        theorem3_rhs(0.37 + 0.21j, -1.3 + 0.05j)
        assert calls == [0.37 + 0.21j, -1.3 + 0.05j]

    def test_coefficients_converted_once(self):
        theorem3_rhs(0.1 + 1.2j, -0.3 + 0.9j)
        converted = [s.complex_coeffs for s in modforms._series()]
        delta_value(0.3 + 0.2j)
        assert all(s.complex_coeffs is c for s, c in zip(modforms._series(), converted))

    def test_configurable_factor(self):
        z1, z2 = 0.1 + 1.2j, -0.4 + 0.9j
        assert theorem3_rhs(z1, z2, factor=2.0) == pytest.approx(
            2 * theorem3_rhs(z1, z2, factor=1.0)
        )


class TestQDerivative:
    # D = q d/dq, so dF/dz = 2 pi i D F
    def test_quasi_modular_refused_outside_f(self):
        # Delta' is only quasi-modular: the weight factor alone gave
        # -0.0323 - 0.0229i at 0.1 + 0.6i, against 0.0091 - 0.0029i by a
        # central difference
        d_delta = delta_series(40).q_derivative()
        assert d_delta.weight is None and (d_delta * eisenstein(4, 40)).weight is None
        assert (delta_series(40) - d_delta).weight is None
        with pytest.raises(ValueError, match="no modular weight"):
            evaluate(d_delta, 0.1 + 0.6j)

    @pytest.mark.parametrize("z", [0.1 + 1.2j, 2.1 + 1.2j, -0.45 + 0.9j])
    def test_quasi_modular_in_f_and_its_translates(self, z):
        h = 1e-5
        fd = (delta_value(z + h) - delta_value(z - h)) / (2 * h)
        value = 2j * math.pi * evaluate(delta_series(40).q_derivative(), z).value
        assert abs(value - fd) / abs(fd) < 1e-7

    @pytest.mark.parametrize("z", [0.1 + 0.6j, 0.3 + 0.2j])
    def test_derivative_of_weight_zero_has_weight_two(self, z):
        # j' is modular of weight 2, so it is carried into F like any form
        d_j = j_q_series(40).q_derivative()
        assert d_j.weight == 2
        assert abs(2j * math.pi * evaluate(d_j, z, tol=1e-6).value - j_prime(z)) <= 1e-12 * abs(j_prime(z))


class TestQSeriesOps:
    def test_rows_export(self):
        rows = delta_series(3).rows()
        assert rows[0] == (0, 0j) and rows[1] == (1, 1 + 0j)

    def test_weight_tags(self):
        assert eisenstein(4, 2).weight == 4
        assert delta_series(2).weight == 12
        assert (eisenstein(4, 4) ** 3).weight == 12


class TestPinnedReference:
    """Each value keeps its bits: the same floating-point expressions in the same order."""

    @pytest.mark.parametrize("z, j, jp, dlog, delta", PINNED_POINTS)
    def test_point_values(self, z, j, jp, dlog, delta):
        assert [repr(j_invariant(z)), repr(j_prime(z)), repr(dlog_delta(z)), repr(delta_value(z))] == [
            j, jp, dlog, delta]

    @pytest.mark.parametrize("z1, z2, rhs1, rhs2", PINNED_PAIRS)
    def test_theorem3_rhs_values(self, z1, z2, rhs1, rhs2):
        assert [repr(theorem3_rhs(z1, z2, factor=1.0)), repr(theorem3_rhs(z1, z2, factor=2.0))] == [rhs1, rhs2]

    @pytest.mark.parametrize("z1", [complex(-0.3, 0.9) + 1e-12, -1 / complex(-0.3, 0.9), complex(0.7, 0.9)])
    def test_near_diagonal(self, z1):
        # z1 next to z2, its image under S, and under T
        with pytest.raises(NearDiagonal):
            theorem3_rhs(z1, complex(-0.3, 0.9))
