import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from heckekernel import identities, latsum
from heckekernel.cli import build_parser, main, parse_complex
from heckekernel.types import CheckReport


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
        ("--n", "2", "--s", "1.5", "--method", "fourier"),
        ("--n", "1", "--s", "1.5", "--tol", "0.5"),
        ("--n", "1", "--s", "1.5", "--height", "0"),
        ("--n", "1", "--s", "1.5", "--workers", "0"),
        ("--n", "1", "--s", "1.0", "--height", "60"),
    ], ids=["lower-half-plane", "fourier-n2", "tol", "height", "workers", "divergent"])
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
    ], ids=["omega-odd-k", "omega-n-divergent", "psi1-divergent", "xic-divergent",
            "xic-shifted-divergent"])
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

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "check", "weil")
        assert code == 0
        assert out.startswith("PASS weil")


class TestTable:
    def test_kloosterman_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "kloosterman", "--a", "1", "--b", "1",
                               "--cmax", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 20
        assert doc["rows"][0] == [1, 1.0]

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
