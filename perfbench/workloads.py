"""Seeded inputs, operations and oracles of the three benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The seed only drives the input
generator; the program under test receives the generated points.

Pair generator (shared by all workloads): Re z uniform on [-0.5, 0.5),
Im z log-uniform on [1, 2], for z1 and z2 independently.  Every such point
lies in the standard fundamental domain (|Re z| <= 1/2, |z| >= 1), and the
strip covers the acceptance gate's Im z ~ 1-1.3.  Below Im z ~ 0.8 the seed
code misses its accuracy targets or its own error estimates on a large share
of points (ROADMAP aim 3 and item 4); the benchmark times operations that
are meant to succeed, and README.md keeps the failure figures measured there.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IM_RANGE = (1.0, 2.0)
S_RANGE = (1.25, 1.75)


@dataclass(frozen=True)
class Op:
    """One generated operation input."""

    z1: complex
    z2: complex
    n: int = 1
    s: float = 1.0


def _point(rng: random.Random) -> complex:
    lo, hi = (math.log(v) for v in IM_RANGE)
    x = rng.uniform(-0.5, 0.5)
    return complex(x, math.exp(rng.uniform(lo, hi)))


def boundary_inputs(seed: int) -> Iterator[Op]:
    """(z1, z2) pairs at s = n = 1."""
    rng = random.Random(seed)
    while True:
        yield Op(_point(rng), _point(rng))


def direct_inputs(seed: int) -> Iterator[Op]:
    """(z1, z2) pairs at n = 1, s uniform on [1.25, 1.75]."""
    rng = random.Random(seed)
    while True:
        z1, z2 = _point(rng), _point(rng)
        yield Op(z1, z2, 1, rng.uniform(*S_RANGE))


def scan_inputs(seed: int) -> Iterator[Op]:
    """(z1, z2) pairs from the same generator, s uniform on [1.25, 1.75] and
    n drawn from {0, 1} in blocks of two holding one of each, in seeded order.

    n = 0 operations cost about 40% less than n = 1 ones and a run holds only
    a few operations, so an unbalanced draw would move the median latency
    by more than any gate could tolerate."""
    rng = random.Random(seed)
    while True:
        block = [0, 1]
        rng.shuffle(block)
        for n in block:
            z1, z2 = _point(rng), _point(rng)
            yield Op(z1, z2, n, rng.uniform(*S_RANGE))


def hk(module: str):
    """A heckekernel submodule, imported on first use so that the
    environment is pinned before numpy loads."""
    return importlib.import_module(f"heckekernel.{module}")


def child_env() -> dict:
    """Environment of every child process: the source tree on the path,
    one BLAS/OpenMP thread, and no HECKE_WORKERS override."""
    env = dict(os.environ)
    env.pop("HECKE_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def clear_caches() -> None:
    """Empty every lru cache of the package, as a fresh process would have them."""
    for name in ("arith", "special", "modforms", "latsum", "continuation"):
        module = hk(name)
        for attr in vars(module).values():
            # a traced run's wrapper holds the lru-cached function in __wrapped__
            for fn in (attr, getattr(attr, "__wrapped__", None)):
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


def theorem3_reference(op: Op) -> tuple[complex, float]:
    """Xi_1(z1, z2) from the Theorem 3 right-hand side (ERRATA section 8):

        Xi_1 (z2 - conj z2) - 24 / (z1 - conj z1) = rhs,

    so |value - reference| <= err_estimate is the identity check divided by
    |z2 - conj z2|.  The q-series side is exact to rounding."""
    rhs = hk("modforms").theorem3_rhs(op.z1, op.z2)
    w2 = op.z2 - op.z2.conjugate()
    return (rhs + 24.0 / (op.z1 - op.z1.conjugate())) / w2, 0.0


@dataclass(frozen=True)
class Workload:
    """A workload: its inputs, one timed operation, its warm-up and its oracle.

    ``target`` is the accuracy target of one operation, relative to
    max(1, |value|): an operation whose estimate exceeds it has failed.
    """

    name: str
    target: float
    cutoffs: dict
    inputs: Callable[[int], Iterator[Op]]
    run: Callable[[Op], tuple[complex, float]]
    oracle: Callable[[Op], tuple[complex, float]]
    warm: Callable[[Op], None] | None = None
    in_process: bool = True
    # a timed run ends only after a whole number of input blocks
    block: int = 1
    # in-process stand-in for `run` in the traced run, given the recorder
    replay: Callable[[Op, object], tuple[complex, float]] | None = None


def boundary(smoke: bool = False) -> Workload:
    """xi_fourier at s = n = 1 with the acceptance-criterion-5 configuration."""
    if smoke:
        assembly = dict(R=2, C=16, corr_C=4, corr_K=4, tol=1e-2)
        policy = dict(B=2000, tol=1e-2)
    else:
        assembly = dict(R=8, C=3000, corr_C=160, corr_K=48, tol=1e-3)
        policy = dict(B=100_000, tol=1e-2)

    def configs():
        types = hk("types")
        return types.FourierAssemblyConfig(**assembly), types.TruncationPolicy(**policy)

    def run(op: Op):
        cfg, pol = configs()
        r = hk("continuation").xi_fourier(op.z1, op.z2, 1, 1.0, cfg, pol)
        return r.value, r.err_estimate

    def warm(op: Op) -> None:
        # builds the s = 1 Kloosterman-zeta table and the unit tables
        hk("continuation").xi_tilde_fourier(op.z1, op.z2, 1, 1.0, configs()[0])

    cfg, pol = configs()
    return Workload("boundary", 1e-3, {"assembly": asdict(cfg), "policy": asdict(pol)},
                    boundary_inputs, run, theorem3_reference, warm)


DIRECT_POLICY = dict(H=900, tol=1e-2, refine="lsq")
# the Fourier side of acceptance criterion 4 (continuation overlap) with
# corr_C 100 -> 50: the shift-correction window K limits its accuracy, so
# this moves values by ~1e-11 and the estimate by under 1%, in a quarter to
# a third of the time
ORACLE_ASSEMBLY = dict(R=6, C=1500, corr_C=50, corr_K=48, tol=1e-2)
ORACLE_POLICY = dict(B=100_000, tol=1e-2)


def _xi_direct(op: Op, policy: dict) -> tuple[complex, float]:
    r = hk("latsum").xi_direct(op.z1, op.z2, op.n, op.s, hk("types").TruncationPolicy(**policy))
    return r.value, r.err_estimate


def direct(smoke: bool = False) -> Workload:
    """xi_direct at n = 1, s in [1.25, 1.75], over refined height balls (the
    direct route, which the extrapolation to s = 1 calls once per sample).

    The policy is the one acceptance criterion 5 gives each extrapolation
    sample; the oracle is the Fourier assembly at ORACLE_ASSEMBLY, checked
    against the sum of both estimates."""
    policy = dict(DIRECT_POLICY, H=40) if smoke else DIRECT_POLICY
    assembly = dict(R=2, C=16, corr_C=4, corr_K=4, tol=1e-2) if smoke else ORACLE_ASSEMBLY

    def run(op: Op):
        return _xi_direct(op, policy)

    def oracle(op: Op):
        types = hk("types")
        r = hk("continuation").xi_fourier(op.z1, op.z2, op.n, op.s, types.FourierAssemblyConfig(**assembly),
                                          types.TruncationPolicy(**ORACLE_POLICY))
        return r.value, r.err_estimate

    types = hk("types")
    return Workload("direct", 1e-2,
                    {"policy": asdict(types.TruncationPolicy(**policy)),
                     "oracle_assembly": asdict(types.FourierAssemblyConfig(**assembly)),
                     "oracle_policy": asdict(types.TruncationPolicy(**ORACLE_POLICY)),
                     "s_range": list(S_RANGE)},
                    direct_inputs, run, oracle)


def _fmt(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


CLI_FLAGS = ("--method", "fourier", "--json", "--tol", "1e-4")


def cli_argv(op: Op, extra: tuple = ()) -> list[str]:
    return ["eval", "xi", "--z1", _fmt(op.z1), "--z2", _fmt(op.z2), "--n", str(op.n),
            "--s", repr(op.s), *CLI_FLAGS, *extra]


def cli_cutoffs(extra: tuple = ()) -> dict:
    """The assembly config and truncation policy that `eval xi` resolves
    from these flags, CLI defaults included."""
    cli = hk("cli")
    args = cli.build_parser().parse_args(["eval", "xi", *CLI_FLAGS, *extra])
    return {"assembly": asdict(cli._assembly_from_args(args)),
            "policy": asdict(cli._policy_from_args(args))}


def parse_cli_output(code: int, stdout: str, stderr: str) -> tuple[complex, float]:
    """(value, err_estimate) of an `eval --json` run; raises on a nonzero exit."""
    if code != 0:
        raise RuntimeError(f"exit {code}: {stderr.strip().splitlines()[-1:] or ''}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    return complex(doc["value"]["re"], doc["value"]["im"]), float(doc["err_estimate"])


def cli_scan(smoke: bool = False) -> Workload:
    """One fresh `hecke-kernel eval xi --method fourier` process per operation,
    started as `python -m heckekernel.cli` so that no install is needed.

    All options not named are CLI defaults (R=8, C=4000, corr_C=160,
    corr_K=48); the cutoffs the CLI resolves are recorded.  The oracle is the
    direct sum with the `direct` workload's policy (H=900, least-squares
    refinement), checked against the sum of both estimates."""
    extra = ("--cmax", "16", "--rmax", "2") if smoke else ()
    oracle_policy = dict(DIRECT_POLICY, H=40) if smoke else DIRECT_POLICY

    def run(op: Op):
        proc = subprocess.run([sys.executable, "-m", "heckekernel.cli", *cli_argv(op, extra)],
                              env=child_env(), capture_output=True, text=True, check=False)
        return parse_cli_output(proc.returncode, proc.stdout, proc.stderr)

    def replay(op: Op, recorder):
        # through cli.main with every cache emptied, like a fresh process
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with recorder.span("cli.main"), redirect_stdout(out), redirect_stderr(err):
            code = hk("cli").main(cli_argv(op, extra))
        return parse_cli_output(code, out.getvalue(), err.getvalue())

    def oracle(op: Op):
        return _xi_direct(op, oracle_policy)

    return Workload("cli_scan", 1e-4,
                    {"cli_flags": [*CLI_FLAGS, *extra], **cli_cutoffs(extra),
                     "oracle_policy": oracle_policy, "s_range": list(S_RANGE)},
                    scan_inputs, run, oracle, in_process=False, replay=replay, block=2)


WORKLOADS = {"boundary": boundary, "direct": direct, "cli_scan": cli_scan}


def verdict(target: float, value: complex | None, err: float | None,
            ref: complex | None, ref_err: float) -> tuple[str, bool]:
    """(failure cause or "", incorrect) for one operation.

    An operation fails if it raised (value None), returned a non-finite
    value, reported an estimate above its target x max(1, |value|), or
    missed its oracle by more than the sum of both estimates.  It is
    *incorrect* if it returned a value that claims the target (estimate
    within it) but misses the oracle by more than the target allows.
    """
    if value is None:
        return "raised", False
    if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(err)):
        return "non-finite value", True
    allowed = target * max(1.0, abs(value))
    if ref is None:
        return "oracle raised", False
    if err > allowed:
        return f"estimate {err:.3g} above target {allowed:.3g}", False
    miss = abs(value - ref)
    if miss > err + ref_err:
        return f"oracle miss {miss:.3g} above estimate {err + ref_err:.3g}", miss > allowed + ref_err
    return "", False
