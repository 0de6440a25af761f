"""Command-line interface: evaluate series, run checkers, emit tables.

Exit codes: 0 success / check passed, 1 check failed, 2 usage error,
3 numerical error (non-convergence, poles, tails over budget).

JSON outputs carry a top-level  "schema": "hecke-kernel/1"  and print
floats with 17 significant digits in a stable key order, so identical
inputs regenerate byte-identical documents (timing is opt-in via
--timing precisely to keep the default output deterministic).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict, fields
from functools import partial

import numpy as np

from . import arith, continuation, identities, latsum, modforms
from .errors import HeckeKernelError, UsageError
from .types import (
    EvalResult,
    FourierAssemblyConfig,
    TruncationPolicy,
    accept,
    complex_to_json,
    _format_float,
)

SCHEMA = "hecke-kernel/1"

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-])\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*i)?\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse 'x+yi' (sign on the imaginary part mandatory) or a bare real."""
    m = _COMPLEX_RE.match(text)
    if not m:
        # ValueError so argparse reports it as a usage problem (exit 2)
        raise ValueError(
            f"cannot parse complex number {text!r}; expected 'x+yi' with an "
            "explicit sign on the imaginary part, or a bare real"
        )
    re_part = float(m.group(1))
    if m.group(2) is None:
        return complex(re_part, 0.0)
    im = float(m.group(3))
    if m.group(2) == "-":
        im = -im
    return complex(re_part, im)


_COMPLEX_FLAGS = ("--z1", "--z2", "--z")


def _glue_complex_args(argv: list[str]) -> list[str]:
    """Join '--z2 -0.3+0.9i' into '--z2=-0.3+0.9i' so argparse does not
    mistake a negative complex literal for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _COMPLEX_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# each policy flag (every config key but method) and the field it sets in
# TruncationPolicy, FourierAssemblyConfig or both
_FIELD_OF_FLAG = {"height": "H", "bmax": "B", "cmax": "C", "rmax": "R", "tol": "tol",
                  "workers": "workers", "pairing": "pairing"}


def _flagged_fields(args, config_class) -> dict:
    """The fields of config_class that the flags set."""
    names = {f.name for f in fields(config_class)}
    return {field: getattr(args, flag) for flag, field in _FIELD_OF_FLAG.items()
            if field in names and getattr(args, flag) is not None}


def _policy_from_args(args) -> TruncationPolicy | None:
    """The policy the flags set, or None when no policy flag is given."""
    kw = _flagged_fields(args, TruncationPolicy)
    return TruncationPolicy(**kw) if kw else None


def _assembly_from_args(args) -> FourierAssemblyConfig:
    """The Fourier assembly config the flags set, with C raised to at least 16."""
    kw = _flagged_fields(args, FourierAssemblyConfig)
    if "C" in kw:
        kw["C"] = max(16, kw["C"])
    return FourierAssemblyConfig(**kw)


def _emit_eval(result: EvalResult, args, elapsed_ms: float) -> None:
    if args.json:
        policy = result.policy
        if policy is None:
            policy_doc = None
        else:
            policy_doc = {k: (v if isinstance(v, (int, str)) else _format_float(v))
                          for k, v in asdict(policy).items()}
        doc = {
            "schema": SCHEMA,
            "value": complex_to_json(result.value),
            "err_estimate": _format_float(result.err_estimate),
            "method": result.method,
            "policy": policy_doc,
            "warnings": list(result.warnings),
            "timing_ms": _format_float(elapsed_ms) if args.timing else None,
        }
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        v = result.value
        print(f"value    = {v.real:.15g} {v.imag:+.15g}i")
        print(f"err est  = {result.err_estimate:.3e}")
        print(f"method   = {result.method}")
        for w in result.warnings:
            print(f"warning  = {w}")
        if args.timing:
            print(f"time     = {elapsed_ms:.1f} ms")


def _s_series_fourier(args, policy: TruncationPolicy) -> EvalResult:
    r = continuation.s_series_fourier(args.z, args.n, args.s, R=policy.R)
    return accept(r.value, r.err_estimate, r.method, policy.tol, warnings=r.warnings)


# eval target, or "target method" where the method picks the route: the flags it
# needs and its evaluation from (args, policy, assembly config); omega2 keeps its
# own default policy unless a policy flag is given
_TARGETS = {
    "xi": ("z1 z2 n s", lambda a, p, c: latsum.xi_direct(a.z1, a.z2, a.n, a.s, p)),
    "xi fourier": ("z1 z2 n s", lambda a, p, c: continuation.xi_fourier(a.z1, a.z2, a.n, a.s, c, p)),
    "xi extrapolate": ("z1 z2 n s",
                       lambda a, p, c: continuation.xi_extrapolated(a.z1, a.z2, a.n, a.s, policy=p)),
    "xi0": ("z1 z2 n s", lambda a, p, c: latsum.xi0_direct(a.z1, a.z2, a.n, a.s, p)),
    "xic": ("z1 z2 n s", lambda a, p, c: latsum.xic_direct(a.z1, a.z2, a.n, a.s, p, shifted=a.shifted)),
    "s-series": ("z n s", lambda a, p, c: latsum.s_series_direct(a.z, a.n, a.s, p)),
    "s-series fourier": ("z n s", lambda a, p, c: _s_series_fourier(a, p)),
    "omega": ("z1 z2 k", lambda a, p, c: latsum.omega_direct(a.z1, a.z2, a.k, a.m, p)),
    "omega-n": ("z1 z2 n s", lambda a, p, c: latsum.omega_n_direct(a.z1, a.z2, a.n, a.s, p)),
    "psi1": ("z1 z2 s", lambda a, p, c: latsum.psi_direct(1, a.z1, a.z2, a.s, p)),
    "psi2": ("z1 z2 s", lambda a, p, c: latsum.psi_direct(2, a.z1, a.z2, a.s, p)),
    "xi-star": ("z1 z2", lambda a, p, c: continuation.xi_star(a.z1, a.z2, c, p)),
    "omega2": ("z1 z2", lambda a, p, c: continuation.omega2(a.z1, a.z2, policy=_policy_from_args(a))),
}


def _run_eval(args) -> int:
    policy = _policy_from_args(args) or TruncationPolicy()
    cfg = _assembly_from_args(args)
    needs, evaluate = _TARGETS.get(f"{args.target} {args.method}") or _TARGETS[args.target]
    for name in needs.split():
        if getattr(args, name) is None:
            raise UsageError(f"eval target {args.target!r} requires --{name}")
    t0 = time.perf_counter()
    result = evaluate(args, policy, cfg)
    _emit_eval(result, args, (time.perf_counter() - t0) * 1e3)
    return 0


_CHECKS = {
    "lemma1": lambda args: identities.check_lemma1(),
    "dbar-z1": lambda args: identities.check_dbar_z1(args.z1 or 0.1 + 1.2j, args.z2 or -0.3 + 0.9j),
    "dbar-z2": lambda args: identities.check_dbar_z2(args.z1 or 0.1 + 1.2j, args.z2 or -0.3 + 0.9j),
    "theorem3": lambda args: identities.check_theorem3(),
    "weil": lambda args: identities.check_weil(),
    "dirichlet": lambda args: identities.check_dirichlet(),
    "omega-proportionality": lambda args: identities.check_omega_proportionality(),
    "petersson": lambda args: identities.check_petersson(),
}


def _run_check(args) -> int:
    if args.name not in _CHECKS:
        raise UsageError(f"unknown check {args.name!r}; available: {', '.join(sorted(_CHECKS))}")
    report = _CHECKS[args.name](args)
    if args.json:
        doc = {"schema": SCHEMA}
        doc.update(report.to_dict())
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        status = "PASS" if report.passed else "FAIL"
        worst = max(report.residuals) if report.residuals else float("nan")
        print(f"{status} {report.name}: max residual {worst:.3e} (tolerance {report.tolerance:.1e})")
        print(report.details)
    return 0 if report.passed else 1


def _table_size(args, flag: str) -> int:
    """The row count --cmax or --order, at least 1."""
    size = getattr(args, flag)
    if size < 1:
        raise UsageError(f"--{flag} must be >= 1, got {size}")
    return size


_QSERIES = {"e4": partial(modforms.eisenstein, 4), "e6": partial(modforms.eisenstein, 6),
            "delta": modforms.delta_series, "j": modforms.j_q_series}


def _qseries_rows(args) -> list[tuple]:
    order = _table_size(args, "order")
    if args.series not in _QSERIES:
        raise UsageError(f"unknown series {args.series!r}; available: {', '.join(sorted(_QSERIES))}")
    return [(nn, v.real) for nn, v in _QSERIES[args.series](order).rows()]


def _rows(values) -> list[tuple]:
    return list(enumerate(values.tolist(), 1))


# table name -> its column headers and rows
_TABLES = {
    "kloosterman": lambda a: (("c", f"K({a.a},{a.b};c)"), [
        (c, arith.kloosterman_matrix(c, [a.a], [a.b])[0, 0].real) for c in range(1, _table_size(a, "cmax") + 1)]),
    "ramanujan": lambda a: (("c", f"C_c({a.r})"), _rows(arith.ramanujan_sieve(_table_size(a, "cmax"), a.r))),
    "totient": lambda a: (("c", "phi(c)"), _rows(arith.totient_sieve(_table_size(a, "cmax")))),
    "divisor": lambda a: (("n", "d(n)"), _rows(arith.divisor_sieve(_table_size(a, "cmax")))),
    "qseries": lambda a: (("n", f"coefficient[{a.series}]"), _qseries_rows(a)),
}


def _run_table(args) -> int:
    if args.name not in _TABLES:
        raise UsageError(f"unknown table {args.name!r}")
    header, rows = _TABLES[args.name](args)
    if args.json:
        doc = {
            "schema": SCHEMA,
            "table": args.name,
            "columns": list(header),
            "rows": [[r[0], _format_float(float(r[1]))] for r in rows],
        }
        print(json.dumps(doc, separators=(", ", ": ")))
    else:
        print(f"{header[0]:>8}  {header[1]}")
        for key, val in rows:
            print(f"{key:>8}  {val:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-kernel",
        description="Evaluate Hecke-kernel lattice series and verify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a series")
    p_eval.add_argument("target", choices=list(dict.fromkeys(t.split()[0] for t in _TARGETS)))
    p_eval.add_argument("--z1", type=parse_complex)
    p_eval.add_argument("--z2", type=parse_complex)
    p_eval.add_argument("--z", type=parse_complex)
    p_eval.add_argument("--n", type=int)
    p_eval.add_argument("--s", type=float)
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--m", type=int, default=1)
    p_eval.add_argument("--method", choices=("direct", "fourier", "extrapolate"), default="direct")
    p_eval.add_argument("--height", type=int, help="matrix height bound H")
    p_eval.add_argument("--bmax", type=int, help="cap on the b-range of c = 0 sums")
    p_eval.add_argument("--cmax", type=int, help="c cutoff")
    p_eval.add_argument("--rmax", type=int, help="Fourier index cutoff")
    p_eval.add_argument("--tol", type=float)
    p_eval.add_argument("--workers", type=int)
    p_eval.add_argument("--pairing", choices=("derived", "printed"))
    p_eval.add_argument("--shifted", action="store_true")
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("--timing", action="store_true")
    p_eval.add_argument("--config", type=str, help="key=value defaults file (flags win)")

    p_check = sub.add_parser("check", help="run an identity checker")
    p_check.add_argument("name")
    p_check.add_argument("--z1", type=parse_complex, help="point of the dbar checks")
    p_check.add_argument("--z2", type=parse_complex, help="point of the dbar checks")
    p_check.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="emit a value table")
    p_table.add_argument("name")
    p_table.add_argument("--a", type=int, default=1)
    p_table.add_argument("--b", type=int, default=1)
    p_table.add_argument("--r", type=int, default=1)
    p_table.add_argument("--series", type=str, default="delta")
    p_table.add_argument("--order", type=int, default=16)
    p_table.add_argument("--cmax", type=int, default=20, help="last row")
    p_table.add_argument("--json", action="store_true")

    return parser


_CONFIG_KEYS = {*_FIELD_OF_FLAG, "method"}


def _config_flags(path: str) -> list[str]:
    """The key=value lines of a config file as --key=value flags."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    flags = []
    for line in map(str.strip, lines):
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise UsageError(f"malformed config line {line!r}")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        flags.append(f"--{key}={value}")
    return flags


_COMMANDS = {"eval": _run_eval, "check": _run_check, "table": _run_table}


def main(argv: list[str] | None = None) -> int:
    argv = _glue_complex_args(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go ahead of the command line's, and the last flag wins
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (HeckeKernelError, ValueError) as exc:
        # a UsageError, or a ValueError for an argument value an evaluator
        # rejects, is a usage error; every other package error is numerical,
        # and so is LinAlgError, though it is a ValueError
        if isinstance(exc, np.linalg.LinAlgError) or not isinstance(exc, (UsageError, ValueError)):
            print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 3
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
