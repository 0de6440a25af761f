import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from heckekernel import identities, latsum
from heckekernel.cli import _CONFIG_KEYS, build_parser, main, parse_complex
from heckekernel.types import CheckReport


# K(a, b; c) for c = 1..20 as `table kloosterman --json` prints them
KLOOSTERMAN_ROWS = {
    (1, 1): [
        1.0, 1.0, -0.9999999999999993, -2.0, 0.3819660112501053, -1.0000000000000013,
        2.0489173395223053, -4.440892098500626e-16, 1.0418890660015823, 2.6180339887498945,
        -2.357872262870507, 1.999999999999999, 5.2595340479050074, -2.3568958678922094,
        -2.618033988749895, 5.656854249492378, -3.9590650700996464, 4.596266658713867,
        0.8947711179711799, -0.7639320225002102,
    ],
    (2, -3): [
        1.0, -1.0, -1.0000000000000002, 1.224646799147353e-16, 2.618033988749895,
        1.0000000000000002, 2.0489173395223053, -1.1102230246251563e-16, 1.220033347542441e-16,
        -0.3819660112501053, -0.7575874396798334, -1.2246467991473525e-16, -0.8706384382417061,
        2.3568958678922103, -0.38196601125010354, 2.7755575615628914e-16, 2.00765183491822,
        -5.549676326524895e-17, 5.90038733599582, 3.3306690738754696e-16,
    ],
}


# one invocation per eval target and method, with the stdout each prints in
# text and in --json, byte for byte (every one exits 0)
P = ("--z1", "0.1+1.2i", "--z2", "-0.3+0.9i")
PINNED_EVAL = {
    "xi-direct": (
        ("xi", *P, "--n", "1", "--s", "1.5", "--height", "120"),
        'value    = -4.60966677636784 +3.38814297631182i\nerr est  = 2.418e-05\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -4.60966677636784, '
        '"im": 3.3881429763118223}, "err_estimate": 2.4184919996439244e-05, '
        '"method": "direct", "policy": {"H": 120, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 1e-06, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "xi-fourier": (
        ("xi", *P, "--n", "1", "--s", "1.5", "--method", "fourier", "--rmax", "4", "--cmax", "300"),
        'value    = -4.60966691192392 +3.3881427585238i\nerr est  = 3.540e-07\nmethod   = fourier\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -4.609666911923917, '
        '"im": 3.3881427585238026}, "err_estimate": 3.540235656512777e-07, '
        '"method": "fourier", "policy": {"R": 4, "C": 300, "corr_C": 160, "corr_K": 48, '
        '"tol": 1e-06, "pairing": "derived", "workers": 1}, "warnings": [], '
        '"timing_ms": null}\n',
    ),
    "xi-fourier-printed": (
        ("xi", *P, "--n", "1", "--s", "1.5", "--method", "fourier", "--rmax", "4", "--cmax", "300", "--pairing", "printed"),
        'value    = -4.6094728243168 +3.39189092765713i\nerr est  = 3.540e-07\nmethod   = fourier\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -4.6094728243168035, '
        '"im": 3.391890927657131}, "err_estimate": 3.540235656512777e-07, "method": "fourier", '
        '"policy": {"R": 4, "C": 300, "corr_C": 160, "corr_K": 48, "tol": 1e-06, '
        '"pairing": "printed", "workers": 1}, "warnings": [], "timing_ms": null}\n',
    ),
    "xi-fourier-cmax-raised": (
        ("xi", *P, "--n", "1", "--s", "1.5", "--method", "fourier", "--rmax", "2", "--cmax", "8", "--tol", "1e-2"),
        'value    = -4.60966450811006 +3.38814303485816i\nerr est  = 1.357e-05\nmethod   = fourier\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -4.609664508110065, '
        '"im": 3.388143034858159}, "err_estimate": 1.3569094481391655e-05, '
        '"method": "fourier", "policy": {"R": 2, "C": 16, "corr_C": 160, "corr_K": 48, '
        '"tol": 0.01, "pairing": "derived", "workers": 1}, "warnings": [], '
        '"timing_ms": null}\n',
    ),
    "xi-extrapolate": (
        ("xi", *P, "--n", "2", "--s", "1.7", "--method", "extrapolate", "--height", "200", "--tol", "1e-2"),
        'value    = -6.74263298910744 -3.52157568941839i\nerr est  = 2.498e-03\nmethod   = extrapolated\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -6.742632989107442, '
        '"im": -3.521575689418391}, "err_estimate": 0.0024975289300640732, '
        '"method": "extrapolated", "policy": {"H": 200, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 0.01, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "xi0": (
        ("xi0", *P, "--n", "1", "--s", "1.5"),
        'value    = -0.764011076143055 -0.710537223450111i\nerr est  = 1.401e-14\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -0.764011076143055, '
        '"im": -0.7105372234501107}, "err_estimate": 1.4009199121536817e-14, '
        '"method": "direct", "policy": {"H": 400, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 1e-06, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "xic": (
        ("xic", *P, "--n", "1", "--s", "1.5", "--height", "100", "--tol", "1e-3"),
        'value    = -1.92284983373914 +2.04933326997104i\nerr est  = 8.646e-05\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -1.9228498337391355, '
        '"im": 2.0493332699710445}, "err_estimate": 8.645549886966461e-05, "method": "direct", '
        '"policy": {"H": 100, "B": 100000, "C": 4000, "R": 8, "tol": 0.001, "workers": 1, '
        '"refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "xic-shifted": (
        ("xic", *P, "--n", "1", "--s", "1.5", "--shifted", "--height", "100", "--cmax", "40", "--tol", "1e-3"),
        'value    = -1.12434954237164 -0.0358452526397862i\nerr est  = 5.209e-04\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -1.124349542371636, '
        '"im": -0.03584525263978616}, "err_estimate": 0.0005209107495393729, '
        '"method": "direct", "policy": {"H": 100, "B": 100000, "C": 40, "R": 8, "tol": 0.001, '
        '"workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "s-series-direct": (
        ("s-series", "--z", "0.3+1.1i", "--n", "0", "--s", "2.0"),
        'value    = 1.17438557031624 -5.46506435757399e-29i\nerr est  = 3.260e-15\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 1.1743855703162418, '
        '"im": -5.465064357573988e-29}, "err_estimate": 3.2595747608704632e-15, '
        '"method": "direct", "policy": {"H": 400, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 1e-06, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "s-series-fourier": (
        ("s-series", "--z", "0.3+1.1i", "--n", "0", "--s", "2.0", "--method", "fourier"),
        'value    = 1.17438557031624 +0i\nerr est  = 1.442e-25\nmethod   = fourier\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 1.1743855703162422, "im": 0.0}, '
        '"err_estimate": 1.4423191750005684e-25, "method": "fourier", "policy": null, '
        '"warnings": [], "timing_ms": null}\n',
    ),
    "s-series-extrapolate": (
        ("s-series", "--z", "0.3+1.1i", "--n", "1", "--s", "1.5", "--method", "extrapolate"),
        'value    = 0.0111520072092078 -1.81428716521993i\nerr est  = 9.406e-15\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 0.01115200720920783, '
        '"im": -1.8142871652199333}, "err_estimate": 9.405554165057013e-15, '
        '"method": "direct", "policy": {"H": 400, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 1e-06, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "omega-m2": (
        ("omega", *P, "--k", "12", "--m", "2", "--height", "40"),
        'value    = 9.00879796847885e-06 -7.82932430589996e-06i\nerr est  = 5.578e-16\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 9.008797968478852e-06, '
        '"im": -7.829324305899956e-06}, "err_estimate": 5.578114789614495e-16, '
        '"method": "direct", "policy": {"H": 40, "B": 100000, "C": 4000, "R": 8, "tol": 1e-06, '
        '"workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "omega-n": (
        ("omega-n", *P, "--n", "1", "--s", "1.5", "--height", "100", "--tol", "1e-3"),
        'value    = 0.241082839076773 +0.168704520875862i\nerr est  = 3.280e-06\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 0.24108283907677278, '
        '"im": 0.16870452087586246}, "err_estimate": 3.2798563700506196e-06, '
        '"method": "direct", "policy": {"H": 100, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 0.001, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "psi1": (
        ("psi1", *P, "--s", "1.5", "--height", "100", "--tol", "1e-3"),
        'value    = 57.797753437199 +0i\nerr est  = 1.928e-04\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 57.79775343719905, "im": 0.0}, '
        '"err_estimate": 0.00019283467137844109, "method": "direct", "policy": {"H": 100, '
        '"B": 100000, "C": 4000, "R": 8, "tol": 0.001, "workers": 1, "refine": "lsq"}, '
        '"warnings": [], "timing_ms": null}\n',
    ),
    "psi2": (
        ("psi2", *P, "--s", "1.5", "--height", "100", "--tol", "1e-3"),
        'value    = 3.58367776422703 +0i\nerr est  = 1.933e-04\nmethod   = direct\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 3.5836777642270348, "im": 0.0}, '
        '"err_estimate": 0.00019327150218504267, "method": "direct", "policy": {"H": 100, '
        '"B": 100000, "C": 4000, "R": 8, "tol": 0.001, "workers": 1, "refine": "lsq"}, '
        '"warnings": [], "timing_ms": null}\n',
    ),
    "xi-star": (
        ("xi-star", "--z1", "0.2+1.3i", "--z2", "-0.3+0.9i", "--cmax", "300", "--tol", "1e-3"),
        'value    = -2.09907487431909 -0.20318669588797i\nerr est  = 1.292e-04\nmethod   = fourier\n',
        '{"schema": "hecke-kernel/1", "value": {"re": -2.0990748743190917, '
        '"im": -0.20318669588797}, "err_estimate": 0.00012916040443917864, '
        '"method": "fourier", "policy": {"R": 8, "C": 300, "corr_C": 160, "corr_K": 48, '
        '"tol": 0.001, "pairing": "derived", "workers": 1}, "warnings": [], '
        '"timing_ms": null}\n',
    ),
    "omega2": (
        ("omega2", *P),
        'value    = 0.000263952288617071 +0.000593995378278426i\nerr est  = 2.134e-03\nmethod   = extrapolated\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 0.00026395228861707113, '
        '"im": 0.000593995378278426}, "err_estimate": 0.0021342212720819073, '
        '"method": "extrapolated", "policy": {"H": 800, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 0.01, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
    "omega2-flagged": (
        ("omega2", *P, "--height", "400", "--tol", "1e-2"),
        'value    = 0.000297223500458405 +0.000647997121191812i\nerr est  = 2.578e-03\nmethod   = extrapolated\n',
        '{"schema": "hecke-kernel/1", "value": {"re": 0.0002972235004584051, '
        '"im": 0.0006479971211918117}, "err_estimate": 0.002577809004242093, '
        '"method": "extrapolated", "policy": {"H": 400, "B": 100000, "C": 4000, "R": 8, '
        '"tol": 0.01, "workers": 1, "refine": "lsq"}, "warnings": [], "timing_ms": null}\n',
    ),
}


# the document each identity check prints with --json, byte for byte (every
# one exits 0), and the text of dbar-z1, which prints its tolerance
PINNED_CHECK = {
    "lemma1": (
        '{"schema": "hecke-kernel/1", "name": "lemma1", "points": ["((0.3+1.1j), 0, 1.6)", '
        '"((0.3+1.1j), 0, 2.0)", "((0.3+1.1j), 2, 2.0)", "(1j, 0, 1.6)", "(1j, 0, 2.0)", '
        '"(1j, 2, 2.0)", "((-0.2+0.7j), 0, 1.6)", "((-0.2+0.7j), 0, 2.0)", '
        '"((-0.2+0.7j), 2, 2.0)"], "residuals": [5.819357288960678e-16, '
        '3.7814600338667056e-16, 3.425664098058233e-15, 0.0, 2.752038041001346e-16, '
        '8.3869616088464785e-16, 2.097239395500968e-16, 2.869844049206298e-30, '
        '1.095782123374425e-15], "tolerance": 1e-07, "pass": true, '
        '"details": "grid of 9 sites, R=20"}\n'
    ),
    "weil": (
        '{"schema": "hecke-kernel/1", "name": "weil", "points": ["c<= 200, a,b <= 20"], '
        '"residuals": [0.0], "tolerance": 1e-09, "pass": true, "details": "worst excess '
        '0.000e+00 at (1, 1, 1); 400 equality cases (first: [(1, 1, 1), (1, 2, 1), (1, 3, 1)])"}\n'
    ),
    "theorem3": (
        '{"schema": "hecke-kernel/1", "name": "theorem3", "points": ["((0.1+1.2j), (-0.3+0.9j))", '
        '"((0.2+1.3j), (-0.45+1.05j))", "((-0.15+0.95j), (0.3+1.15j))", '
        '"((0.05+1.1j), (0.4+1.25j))", "((-0.35+1.15j), (0.15+0.85j))", '
        '"((-0.25+0.9j), (-0.3+0.9j))"], "residuals": [3.179984739882208e-06, '
        '2.694402655214193e-06, 7.2623194220181556e-06, 2.379133516373056e-06, '
        '1.2350651444619197e-06, 1.3500669911431083e-06], "tolerance": 0.001, "pass": true, '
        '"details": "unique passing normalization: t=24, rhs x2; rejected: [t=12, rhs x1] '
        '2.7e+00, [t=12, rhs x2] 1.6e+00, [t=12, rhs x2, extra (z2-z2bar)] 3.8e+00, '
        '[t=24, rhs x1] 1.0e+00, [t=24, rhs x2, extra (z2-z2bar)] 2.7e+00"}\n'
    ),
    "dbar-z1": (
        '{"schema": "hecke-kernel/1", "name": "dbar_z1", "points": ["((0.1+1.2j), (-0.3+0.9j))"], '
        '"residuals": [6.231039155279712e-05], "tolerance": 0.01, "pass": true, '
        '"details": "step-halving residuals 6.23e-05 / 1.54e-05; best candidate coefficient '
        '+24 (printed form uses -12)"}\n'
    ),
    "dbar-z2": (
        '{"schema": "hecke-kernel/1", "name": "dbar_z2", "points": ["((0.1+1.2j), (-0.3+0.9j))"], '
        '"residuals": [0.0003442221910963032], "tolerance": 0.01, "pass": true, '
        '"details": "|dbar| = 3.44e-04 (half-step 3.91e-05); |omega2| = 6.50e-04 +/- 2.1e-03"}\n'
    ),
}
DBAR_Z1_TEXT = ("PASS dbar_z1: max residual 6.231e-05 (tolerance 1.0e-02)\n"
                "step-halving residuals 6.23e-05 / 1.54e-05; best candidate coefficient +24 "
                "(printed form uses -12)\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_config(tmp_path, flags):
    """flags with "hk.cfg" replaced by a readable, valid config file."""
    cfg = tmp_path / "hk.cfg"
    cfg.write_text("height=130\n")
    return [str(cfg) if f == "hk.cfg" else f for f in flags]


class TestComplexParsing:
    def test_basic(self):
        assert parse_complex("0.1+1.2i") == complex(0.1, 1.2)
        assert parse_complex("-0.3+0.9i") == complex(-0.3, 0.9)
        assert parse_complex("2.0-0.5i") == complex(2.0, -0.5)

    def test_whitespace(self):
        assert parse_complex(" 0.1 + 1.2 i ") == complex(0.1, 1.2)

    def test_bare_real(self):
        assert parse_complex("1.5") == complex(1.5, 0.0)
        assert parse_complex("-2") == complex(-2.0, 0.0)

    def test_scientific_notation(self):
        assert parse_complex("1e-3+2.5e1i") == complex(1e-3, 25.0)

    def test_sign_required_on_imaginary(self):
        with pytest.raises(ValueError):
            parse_complex("1.2i")
        with pytest.raises(ValueError):
            parse_complex("0.1 1.2i")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("bogus")


class TestPinnedStdout:
    @pytest.mark.parametrize("name", PINNED_EVAL)
    def test_stdout_bytes(self, capsys, name):
        argv, text, doc = PINNED_EVAL[name]
        assert run_cli(capsys, "eval", *argv) == (0, text, "")
        assert run_cli(capsys, "eval", *argv, "--json") == (0, doc, "")

    def test_timing_adds_only_the_time(self, capsys):
        argv, text, doc = PINNED_EVAL["xi-direct"]
        code, out, _ = run_cli(capsys, "eval", *argv, "--timing")
        *lines, last = out.splitlines(keepends=True)
        assert code == 0 and "".join(lines) == text
        assert re.fullmatch(r"time     = \d+\.\d ms\n", last)
        code, out, _ = run_cli(capsys, "eval", *argv, "--json", "--timing")
        timed = json.loads(out)
        assert code == 0 and isinstance(timed["timing_ms"], float) and timed["timing_ms"] >= 0
        assert out.replace(f'"timing_ms": {timed["timing_ms"]!r}', '"timing_ms": null') == doc

    @pytest.mark.parametrize("name", PINNED_CHECK)
    def test_check_stdout_bytes(self, capsys, name):
        assert run_cli(capsys, "check", name, "--json") == (0, PINNED_CHECK[name], "")

    def test_check_text_bytes(self, capsys):
        assert run_cli(capsys, "check", "dbar-z1") == (0, DBAR_Z1_TEXT, "")


class TestEval:
    def test_json_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.5", "--height", "120", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "hecke-kernel/1"
        assert set(doc["value"]) == {"re", "im"}
        assert doc["method"] == "direct"
        assert doc["policy"]["H"] == 120
        assert doc["timing_ms"] is None

    def test_fourier_method_tag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.5", "--method", "fourier",
            "--rmax", "4", "--cmax", "300", "--json",
        )
        assert code == 0
        assert json.loads(out)["method"] == "fourier"

    def test_fourier_estimate_comparable_to_value_is_numerical_error(self, capsys):
        # Im z1 = 0.15 needs far more than C = 1500: the estimate (~64) is
        # as large as the value, which the direct route puts ~50 away
        code, _, err = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+0.15i", "--z2", "-0.3+0.9i", "--n", "1",
            "--s", "1.5", "--method", "fourier", "--cmax", "1500", "--tol", "1e-2",
        )
        assert code == 3
        assert "NotConverged" in err

    def test_round_trip_byte_identical(self, capsys):
        argv = ("eval", "s-series", "--z", "0.3+1.1i", "--n", "0", "--s", "2.0",
                "--bmax", "5000", "--json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        # re-parse and regenerate with the same serializer
        doc = json.loads(out1)
        regenerated = json.dumps(doc, separators=(", ", ": ")) + "\n"
        assert regenerated == out1

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "eval", "xi", "--z1", "0.1+1.2i")
        assert code == 2
        assert "requires" in err

    def test_bad_complex_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "xi", "--z1", "bogus", "--z2", "1+1i")
        assert code == 2

    def test_numerical_error_exit_code(self, capsys):
        # a hopeless tolerance at a slowly converging point -> exit 3
        code, _, err = run_cli(
            capsys, "eval", "omega-n", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.05", "--height", "40", "--tol", "1e-9",
        )
        assert code == 3
        assert "numerical error" in err

    @pytest.mark.parametrize("flags", [
        ("--z1", "0.1-1.2i", "--n", "1", "--s", "1.5"),
        ("--n", "2", "--s", "1.4", "--method", "fourier"),
        ("--n", "5", "--s", "3.5", "--method", "fourier"),
        ("--n", "1", "--s", "1.5", "--tol", "0.5"),
        ("--n", "1", "--s", "1.5", "--height", "0"),
        ("--n", "1", "--s", "1.5", "--workers", "0"),
        ("--n", "1", "--s", "1.0", "--height", "60"),
    ], ids=["lower-half-plane", "fourier-n2", "fourier-n5", "tol", "height", "workers",
            "divergent"])
    def test_invalid_value_is_usage_error(self, capsys, flags):
        code, _, err = run_cli(capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i", *flags)
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ("omega", "--k", "3"),
        ("omega-n", "--n", "2", "--s", "1.3", "--height", "60"),
        ("psi1", "--s", "0.9", "--height", "60"),
        ("xic", "--n", "1", "--s", "0.9", "--tol", "1e-2"),
        ("xic", "--shifted", "--n", "0", "--s", "0.4", "--height", "100"),
        ("omega", "--k", "12", "--m", "0", "--height", "40"),
        ("omega", "--k", "12", "--m", "-2", "--height", "40"),
    ], ids=["omega-odd-k", "omega-n-divergent", "psi1-divergent", "xic-divergent",
            "xic-shifted-divergent", "omega-m0", "omega-m-negative"])
    def test_invalid_target_value_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, "eval", argv[0], "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                               *argv[1:])
        assert code == 2
        assert err.startswith("usage error:")

    def test_linalg_error_is_numerical_error(self, capsys, monkeypatch):
        # LinAlgError subclasses ValueError but is a numerical failure
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(latsum, "xi_direct", singular)
        code, _, err = run_cli(capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                               "--n", "1", "--s", "1.5")
        assert code == 3
        assert "numerical error" in err

    def test_extrapolate_samples_above_abscissa(self, capsys):
        # at n = 2 the default samples (1.7, 1.9, 2.1) lie above the direct
        # sum's abscissa 3/2
        code, _, _ = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i", "--method",
            "extrapolate", "--n", "2", "--s", "1.7", "--height", "200", "--tol", "1e-2",
        )
        assert code == 0

    def test_extrapolate_estimate_over_gate_is_numerical_error(self, capsys):
        # at the default tol 1e-6 the gate is 1e-3; the default samples
        # (1.2, 1.4, 1.6) leave an estimate near 1e-2 at this pair
        code, _, err = run_cli(
            capsys, "eval", "xi", "--z1", "-0.464+1.429i", "--z2", "-0.034+1.888i", "--n", "1",
            "--s", "1.0", "--method", "extrapolate",
        )
        assert code == 3
        assert "NotConverged" in err

    def test_omega2_defaults_to_its_own_policy(self, capsys):
        # with no policy flag the CLI leaves omega2 its default policy
        # (H = 800, tol 1e-2); under the eval default (H = 400, tol 1e-6)
        # this pair's estimate 2.2e-3 is over the gate and exits 3
        code, out, _ = run_cli(capsys, "eval", "omega2", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["policy"]["H"] == 800
        assert abs(complex(doc["value"]["re"], doc["value"]["im"])) <= doc["err_estimate"]

    def test_s_series_at_cancelled_leading_order(self, capsys):
        # the nu^(-1) order of S_1 cancels between nu and -nu at s = 1
        code, out, _ = run_cli(capsys, "eval", "s-series", "--z", "0.1+1.2i", "--n", "1",
                               "--s", "1.0", "--json")
        assert code == 0
        value = json.loads(out)["value"]
        assert abs(complex(value["re"], value["im"]) - (0.0019645759514 - 3.1442948840j)) < 1e-9

    @pytest.mark.parametrize("argv", [
        ("s-series", "--z", "0.1+1.2i", "--n", "0", "--s", "0.5"),
        ("s-series", "--z", "0.1+1.2i", "--n", "2", "--s", "1.5"),
        ("xi0", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i", "--n", "1", "--s", "0.75"),
        ("s-series", "--method", "fourier", "--z", "0.1+1.2i", "--n", "2", "--s", "1.5"),
    ], ids=["s-series-n0", "s-series-n2", "xi0-n1", "s-series-fourier-n2"])
    def test_pole_is_numerical_error(self, capsys, argv):
        code, _, err = run_cli(capsys, "eval", *argv)
        assert code == 3
        evaluator = ("xi0_direct" if argv[0] == "xi0" else
                     "s_series_fourier" if "fourier" in argv else "s_series_direct")
        assert "PoleAt" in err and evaluator in err and f"s = {argv[-1]}" in err
        assert "Hurwitz" not in err

    def test_s_series_fourier_continues_below_abscissa(self, capsys):
        # the Fourier route has the direct route's domain: s = 1 is the
        # abscissa (n + 1)/2 for n = 1
        code, out, _ = run_cli(capsys, "eval", "s-series", "--method", "fourier", "--z", "0.1+1.2i",
                               "--n", "1", "--s", "1.0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert abs(complex(doc["value"]["re"], doc["value"]["im"]) - (0.0019645759514 - 3.1442948840j)) < 1e-9
        assert doc["warnings"] == ["NotAbsolutelyConvergent"]

    @pytest.mark.parametrize("z", ["0.3+0.05i", "0.3+0.02i"])
    def test_s_series_fourier_estimate_over_gate_is_numerical_error(self, capsys, z):
        # this close to the real axis R = 8 modes leave estimates of 2e2 and
        # 5e3 (the direct route gives 39.339 +- 1e-13 at Im z = 0.05)
        code, out, err = run_cli(capsys, "eval", "s-series", "--method", "fourier", "--z", z,
                                 "--n", "0", "--s", "1.5")
        assert code == 3
        assert out == "" and "NotConverged" in err

    def test_s_series_methods_warn_alike(self, capsys):
        # s = 1.05 lies within the warning margin above the abscissa 1
        docs = []
        for method in ("direct", "fourier"):
            code, out, _ = run_cli(capsys, "eval", "s-series", "--z", "0.1+1.2i", "--n", "1",
                                   "--s", "1.05", "--method", method, "--json")
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["warnings"] == docs[1]["warnings"] == ["NotAbsolutelyConvergent"]
        values = [complex(d["value"]["re"], d["value"]["im"]) for d in docs]
        assert abs(values[0] - values[1]) < 1e-9

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("xi0", "--z1", "0.1+1.2i", "--z2", "0.1+1.2i", "--n", "0", "--s", "2"),
        ("xi", "--z1", "0.1+1.2i", "--z2", "1.1+1.2i", "--n", "1", "--s", "1.5", "--height", "50",
         "--tol", "1e-2"),
        ("xi", "--z1", "0+1i", "--z2", "0+1i", "--n", "1", "--s", "1.5", "--height", "50",
         "--tol", "1e-2"),
    ], ids=["xi0-identity", "xi-translation", "xi-identity"])
    def test_diagonal_is_near_diagonal(self, capsys, argv):
        code, _, err = run_cli(capsys, "eval", *argv)
        assert code == 3
        assert "NearDiagonal" in err

    def test_xi0_continuation_is_bmax_independent(self, capsys):
        values = []
        for bmax in ("300", "3000", "100000"):
            code, out, _ = run_cli(capsys, "eval", "xi0", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                                   "--n", "1", "--s", "0.7", "--bmax", bmax, "--json")
            assert code == 0
            doc = json.loads(out)
            assert doc["warnings"] == ["NotAbsolutelyConvergent"]
            values.append(complex(doc["value"]["re"], doc["value"]["im"]))
        assert max(abs(v - values[0]) for v in values) < 1e-12

    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "s-series", "--z", "0.3+1.1i", "--n", "0", "--s", "2.0",
            "--bmax", "5000",
        )
        assert code == 0
        assert "value" in out and "method" in out

    def test_workers_bit_identical(self, capsys):
        base = ("eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                "--n", "1", "--s", "1.5", "--height", "150", "--json")
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out8, _ = run_cli(capsys, *base, "--workers", "8")
        assert out1.replace('"workers": 1', "") == out8.replace('"workers": 8', "")


class TestCheck:
    def test_dirichlet_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "dirichlet", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert set(doc) >= {"name", "points", "residuals", "tolerance", "pass", "details"}

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "check", "nonsense")
        assert code == 2
        assert "unknown check" in err

    def test_pairs_flag_removed(self, capsys):
        code, _, _ = run_cli(capsys, "check", "dirichlet", "--pairs", "x")
        assert code == 2

    def test_json_with_numpy_residuals(self, capsys, monkeypatch):
        # check_theorem3's residuals are numpy scalars
        def theorem3():
            return CheckReport(name="theorem3", points=[(1j, 2j)],
                               residuals=[np.float64(1e-5)], tolerance=1e-3)

        monkeypatch.setattr(identities, "check_theorem3", theorem3)
        code, out, _ = run_cli(capsys, "check", "theorem3", "--json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("flags", [
        ("--height", "5"), ("--shifted",), ("--tol", "0.5"), ("--config", "hk.cfg"),
    ], ids=["height", "shifted", "tol", "config"])
    def test_evaluator_flags_rejected(self, capsys, tmp_path, flags):
        code, _, _ = run_cli(capsys, "check", "dirichlet", *with_config(tmp_path, flags))
        assert code == 2

    @pytest.mark.parametrize("name", ["dbar-z1", "dbar-z2"])
    @pytest.mark.parametrize("flag", ["--z1", "--z2"])
    def test_dbar_point_zero_is_a_usage_error(self, capsys, name, flag):
        # 0 is parsed, reaches the checker and is refused; it used to be
        # replaced by the default point, with exit 0
        code, out, err = run_cli(capsys, "check", name, flag, "0", "--json")
        assert (code, out) == (2, "")
        assert f"{flag[2:]} must lie in the upper half-plane" in err

    def test_dbar_default_points(self, capsys):
        # without flags the check runs at the parser's default points
        default = run_cli(capsys, "check", "dbar-z1", "--json")
        explicit = run_cli(capsys, "check", "dbar-z1", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i", "--json")
        assert default == explicit and default[0] == 0
        assert json.loads(default[1])["points"] == ["((0.1+1.2j), (-0.3+0.9j))"]

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "check", "weil")
        assert code == 0
        assert out.startswith("PASS weil")


class TestTable:
    def test_kloosterman_rows(self, capsys):
        # every row pinned bit for bit
        for (a, b), values in KLOOSTERMAN_ROWS.items():
            code, out, _ = run_cli(capsys, "table", "kloosterman", "--a", str(a), "--b", str(b),
                                   "--cmax", "20", "--json")
            assert code == 0
            doc = json.loads(out)
            assert doc["columns"] == ["c", f"K({a},{b};c)"]
            assert doc["rows"] == [[c, v] for c, v in enumerate(values, 1)]

    @pytest.mark.parametrize("a,b", [(10**20, 1), (-(10**20) - 7, 3), (2, 3 * 10**25)])
    def test_kloosterman_arguments_past_int64(self, capsys, a, b):
        # K(a, b; c) depends on a and b mod c only: each row equals the row
        # of the reduced arguments, in text and in JSON
        def rows(a, b, cmax, fmt):
            code, out, _ = run_cli(capsys, "table", "kloosterman", f"--a={a}", f"--b={b}",
                                   "--cmax", str(cmax), *fmt)
            assert code == 0
            return json.loads(out)["rows"] if fmt else [line.split() for line in out.splitlines()[1:]]

        for fmt in ((), ("--json",)):
            table = rows(a, b, 12, fmt)
            assert len(table) == 12
            for c, row in enumerate(table, 1):
                assert row == rows(a % c, b % c, c, fmt)[-1], (c, fmt)

    def test_qseries_delta(self, capsys):
        code, out, _ = run_cli(capsys, "table", "qseries", "--series", "delta",
                               "--order", "6", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[1] == [1, 1.0] and rows[2] == [2, -24.0]

    def test_qseries_j_laurent(self, capsys):
        code, out, _ = run_cli(capsys, "table", "qseries", "--series", "j",
                               "--order", "3", "--json")
        rows = json.loads(out)["rows"]
        assert rows[0] == [-1, 1.0] and rows[1] == [0, 744.0]

    def test_totient_text(self, capsys):
        code, out, _ = run_cli(capsys, "table", "totient", "--cmax", "6")
        assert code == 0
        assert out.splitlines()[-1].split() == ["6", "2"]

    @pytest.mark.parametrize("name, flag, default", [
        ("kloosterman", "--cmax", 20), ("ramanujan", "--cmax", 20), ("totient", "--cmax", 20),
        ("divisor", "--cmax", 20), ("qseries", "--order", 16),
    ])
    def test_row_counts(self, capsys, name, flag, default):
        # the default applies only without the flag; every count below 1 is a usage error
        first = 0 if name == "qseries" else 1  # a q-series of order k has rows q^0..q^k
        for value, rows in ((None, default), ("1", 1), ("3", 3)):
            code, out, _ = run_cli(capsys, "table", name, *((flag, value) if value else ()), "--json")
            assert code == 0
            assert [row[0] for row in json.loads(out)["rows"]] == list(range(first, rows + 1))
        for value in ("0", "-3"):
            code, out, err = run_cli(capsys, "table", name, flag, value, "--json")
            assert (code, out) == (2, "")
            assert f"{flag} must be >= 1" in err

    @pytest.mark.parametrize("flags", [
        ("--tol", "0.5"), ("--height", "5"), ("--z1", "0.1+1.2i"), ("--config", "hk.cfg"),
    ], ids=["tol", "height", "z1", "config"])
    def test_evaluator_flags_rejected(self, capsys, tmp_path, flags):
        code, _, _ = run_cli(capsys, "table", "totient", "--cmax", "6",
                             *with_config(tmp_path, flags))
        assert code == 2


class TestConfig:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "hk.cfg"
        cfg.write_text("height=130\ntol=1e-3\n")
        code, out, _ = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.5", "--json", "--config", str(cfg),
        )
        assert code == 0
        assert json.loads(out)["policy"]["H"] == 130

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "hk.cfg"
        cfg.write_text("height=130\n")
        code, out, _ = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.5", "--json", "--config", str(cfg),
            "--height", "90",
        )
        assert code == 0
        assert json.loads(out)["policy"]["H"] == 90

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "hk.cfg"
        cfg.write_text("heighth=130\n")
        code, _, err = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.5", "--config", str(cfg),
        )
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize("text, name, flag", [
        ("height=130\n", "xi-direct", ()),  # the pinned flags hold --height 120
        ("method=fourier\n", "xi-direct", ("--method", "direct")),
        ("method=direct\n", "xi-fourier", ()),  # the pinned flags hold --method fourier
    ])
    def test_flags_beat_config_anywhere(self, capsys, tmp_path, text, name, flag):
        cfg = tmp_path / "hk.cfg"
        cfg.write_text(text)
        argv, _, doc = PINNED_EVAL[name]
        for flags in ((*argv, *flag, "--config", str(cfg)), ("--config", str(cfg), *argv, *flag)):
            assert run_cli(capsys, "eval", *flags, "--json") == (0, doc, "")

    @pytest.mark.parametrize("text", ["method=fourrier\n", "height=abc\n", "tol=0.5\n", "tol=0\n",
                                      "pairing=derivd\n", "height=\n", "workers=0\n"])
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path, text):
        # every config value goes through the parser and the policy checks;
        # method=fourrier used to run the direct route and exit 0
        cfg = tmp_path / "hk.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                                 "--n", "1", "--s", "1.5", "--height", "60", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "usage" in err

    @pytest.mark.parametrize("text, message", [("heighth=130\n", "usage error: unknown config key 'heighth'"),
                                               ("height 130\n", "usage error: malformed config line 'height 130'")])
    def test_config_messages(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "hk.cfg"
        cfg.write_text(f"# comment\n\n{text}")
        code, out, err = run_cli(capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
                                 "--n", "1", "--s", "1.5", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == message

    def test_env_workers(self, capsys, monkeypatch):
        monkeypatch.setenv("HECKE_WORKERS", "2")
        code, out, _ = run_cli(
            capsys, "eval", "xi", "--z1", "0.1+1.2i", "--z2", "-0.3+0.9i",
            "--n", "1", "--s", "1.5", "--height", "100", "--json",
        )
        assert code == 0


class TestReadme:
    def test_flag_lists_match_parser(self):
        # README's per-subcommand flag lists are the CLI reference
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        documented = {
            cmd: set(re.findall(r"--[a-z][a-z0-9-]*", body))
            for cmd, body in re.findall(r"^- `(\w+) [A-Z]+`: (.*?)(?=^- `|^$)", text, re.M | re.S)
        }
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actual = {
            cmd: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
            for cmd, p in sub.choices.items()
        }
        assert documented == actual

    def test_config_keys_match_cli(self):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        keys = re.search(r"^Config keys: (.*?)\.$", text, re.M | re.S).group(1)
        assert set(re.findall(r"`(\w+)`", keys)) == _CONFIG_KEYS
