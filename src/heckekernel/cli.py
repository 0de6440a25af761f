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
from dataclasses import asdict

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


def _policy_from_args(args) -> TruncationPolicy | None:
    """The policy the flags set, or None when no policy flag is given."""
    kw = {}
    if args.height is not None:
        kw["H"] = args.height
    if args.bmax is not None:
        kw["B"] = args.bmax
    if args.cmax is not None:
        kw["C"] = args.cmax
    if args.rmax is not None:
        kw["R"] = args.rmax
    if args.tol is not None:
        kw["tol"] = args.tol
    if args.workers is not None:
        kw["workers"] = args.workers
    return TruncationPolicy(**kw) if kw else None


def _assembly_from_args(args) -> FourierAssemblyConfig:
    kw = {}
    if args.rmax is not None:
        kw["R"] = args.rmax
    if args.cmax is not None:
        kw["C"] = max(16, args.cmax)
    if args.tol is not None:
        kw["tol"] = args.tol
    if args.workers is not None:
        kw["workers"] = args.workers
    if args.pairing is not None:
        kw["pairing"] = args.pairing
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


def _run_eval(args) -> int:
    flagged = _policy_from_args(args)
    policy = flagged or TruncationPolicy()
    cfg = _assembly_from_args(args)
    t0 = time.perf_counter()
    target = args.target
    if target == "xi":
        _need(args, "z1", "z2", "n", "s")
        if args.method == "fourier":
            result = continuation.xi_fourier(args.z1, args.z2, args.n, args.s, cfg, policy)
        elif args.method == "extrapolate":
            result = continuation.xi_extrapolated(args.z1, args.z2, args.n, args.s, policy=policy)
        else:
            result = latsum.xi_direct(args.z1, args.z2, args.n, args.s, policy)
    elif target == "xi0":
        _need(args, "z1", "z2", "n", "s")
        result = latsum.xi0_direct(args.z1, args.z2, args.n, args.s, policy)
    elif target == "xic":
        _need(args, "z1", "z2", "n", "s")
        result = latsum.xic_direct(args.z1, args.z2, args.n, args.s, policy, shifted=args.shifted)
    elif target == "s-series":
        _need(args, "z", "n", "s")
        if args.method == "fourier":
            r = continuation.s_series_fourier(args.z, args.n, args.s, R=policy.R)
            result = accept(r.value, r.err_estimate, r.method, policy.tol, warnings=r.warnings)
        else:
            result = latsum.s_series_direct(args.z, args.n, args.s, policy)
    elif target == "omega":
        _need(args, "z1", "z2", "k")
        result = latsum.omega_direct(args.z1, args.z2, args.k, args.m, policy)
    elif target == "omega-n":
        _need(args, "z1", "z2", "n", "s")
        result = latsum.omega_n_direct(args.z1, args.z2, args.n, args.s, policy)
    elif target in ("psi1", "psi2"):
        _need(args, "z1", "z2", "s")
        result = latsum.psi_direct(int(target[-1]), args.z1, args.z2, args.s, policy)
    elif target == "xi-star":
        _need(args, "z1", "z2")
        result = continuation.xi_star(args.z1, args.z2, cfg, policy)
    elif target == "omega2":
        _need(args, "z1", "z2")
        result = continuation.omega2(args.z1, args.z2, policy=flagged)
    else:
        raise UsageError(f"unknown eval target {target!r}")
    _emit_eval(result, args, (time.perf_counter() - t0) * 1e3)
    return 0


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"eval target {args.target!r} requires --{name.replace('_', '-')}")


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


def _table_size(args, flag: str, default: int) -> int:
    """The row count --cmax or --order: default when the flag is absent, else at least 1."""
    size = getattr(args, flag)
    size = default if size is None else size
    if size < 1:
        raise UsageError(f"--{flag} must be >= 1, got {size}")
    return size


def _run_table(args) -> int:
    rows: list[tuple]
    if args.name == "kloosterman":
        a = args.a if args.a is not None else 1
        b = args.b if args.b is not None else 1
        cmax = _table_size(args, "cmax", 20)
        rows = [(c, arith.kloosterman_matrix(c, [a], [b])[0, 0].real) for c in range(1, cmax + 1)]
        header = ("c", f"K({a},{b};c)")
    elif args.name == "ramanujan":
        r = args.r if args.r is not None else 1
        rows = list(enumerate(arith.ramanujan_sieve(_table_size(args, "cmax", 20), r).tolist(), 1))
        header = ("c", f"C_c({r})")
    elif args.name == "totient":
        rows = list(enumerate(arith.totient_sieve(_table_size(args, "cmax", 20)).tolist(), 1))
        header = ("c", "phi(c)")
    elif args.name == "divisor":
        rows = list(enumerate(arith.divisor_sieve(_table_size(args, "cmax", 20)).tolist(), 1))
        header = ("n", "d(n)")
    elif args.name == "qseries":
        order = _table_size(args, "order", 16)
        series = {
            "e4": lambda: modforms.eisenstein(4, order),
            "e6": lambda: modforms.eisenstein(6, order),
            "delta": lambda: modforms.delta_series(order),
            "j": lambda: modforms.j_q_series(order),
        }
        if args.series not in series:
            raise UsageError(f"unknown series {args.series!r}; available: {', '.join(sorted(series))}")
        rows = [(nn, v.real) for nn, v in series[args.series]().rows()]
        header = ("n", f"coefficient[{args.series}]")
    else:
        raise UsageError(f"unknown table {args.name!r}")
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
    p_eval.add_argument("target", choices=(
        "xi", "xi0", "xic", "s-series", "omega", "omega-n", "psi1", "psi2",
        "xi-star", "omega2"))
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
    p_table.add_argument("--a", type=int)
    p_table.add_argument("--b", type=int)
    p_table.add_argument("--r", type=int)
    p_table.add_argument("--series", type=str, default="delta")
    p_table.add_argument("--order", type=int)
    p_table.add_argument("--cmax", type=int, help="last row")
    p_table.add_argument("--json", action="store_true")

    return parser


_CONFIG_KEYS = {
    "height": int, "bmax": int, "cmax": int, "rmax": int, "tol": float,
    "workers": int, "pairing": str, "method": str,
}


def _apply_config(args, argv_flags: set) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if f"--{key}" in argv_flags:
            continue  # command-line flags win
        setattr(args, key, _CONFIG_KEYS[key](value))


def main(argv: list[str] | None = None) -> int:
    argv = _glue_complex_args(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "eval":
            _apply_config(args, {a.split("=")[0] for a in argv if a.startswith("--")})
            return _run_eval(args)
        if args.command == "check":
            return _run_check(args)
        if args.command == "table":
            return _run_table(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (HeckeKernelError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # argument values the evaluators reject (LinAlgError, a numerical
        # failure, is a ValueError too and is caught above)
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
