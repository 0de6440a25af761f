"""Benchmark of the hecke-kernel evaluator.

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 18 --trace 0

Runs one workload (boundary, direct or cli_scan, see workloads.py) as
a closed loop for --seconds, checks every result against its oracle, prints
a report and, as the last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, median
latency, throughput, peak memory); error estimate and fail ratio are printed
in the report and counted in "failed".  With --trace 1 the same seed is
replayed with span wrappers around the package's layers, and the metrics
are the per-layer ones of tracing.PER_LAYER; the traced run then re-runs
its own operations untraced, to check that the value digests are identical
and to report the tracing overhead.  Each run also writes its per-operation
records (and spans) to perfbench/out/.

--smoke uses tiny cutoffs.  --seconds 0 runs exactly one input block.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

OUT = Path(__file__).resolve().parent / "out"
# per batch of set-up timings; a run takes two batches
PROCESS_REPEATS = 10
WARM_REPEATS = 1
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import heckekernel.continuation, heckekernel.latsum, heckekernel.modforms; "
                "print(time.perf_counter() - t)")


def pin_environment() -> None:
    """One thread everywhere and no worker override, for this process and its children."""
    os.environ.update(W.child_env())
    os.environ.pop("HECKE_WORKERS", None)
    if str(W.SRC) not in sys.path:
        sys.path.insert(0, str(W.SRC))


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=W.child_env(),
                          capture_output=True, text=True, check=True)


def setup_samples(wl: W.Workload, first: W.Op) -> tuple[list[float], list[float]]:
    """One batch of set-up timings, (starts, warm-ups): import times of fresh
    interpreters and cache warm-ups (caches emptied before each) for the
    in-process workloads, wall times of a trivial CLI process for cli_scan.
    A warm-up batch leaves the caches warm."""
    if not wl.in_process:
        walls = []
        for _ in range(PROCESS_REPEATS):
            t0 = time.perf_counter()
            _child(["-m", "heckekernel.cli", "table", "totient", "--cmax", "1"])
            walls.append(time.perf_counter() - t0)
        return walls, []
    imports = [float(_child(["-c", IMPORT_PROBE]).stdout) for _ in range(PROCESS_REPEATS)]
    W.hk("continuation")  # imported here so that the warm-up timings exclude it
    warms = []
    for _ in range(WARM_REPEATS if wl.warm is not None else 0):
        W.clear_caches()
        t0 = time.perf_counter()
        wl.warm(first)
        warms.append(time.perf_counter() - t0)
    return imports, warms


def setup_time(batches: list[tuple[list[float], list[float]]], wl: W.Workload) -> tuple[float, str]:
    """Median set-up time over all batches: the median start (process or
    import) plus the median warm-up.  The batches are taken before the timed
    loop and after the oracle checks, so that the median spans the run
    rather than the few seconds of machine state before it."""
    starts = [v for b in batches for v in b[0]]
    warms = [v for b in batches for v in b[1]] or [0.0]
    if not wl.in_process:
        return statistics.median(starts), f"median of {len(starts)} `table totient --cmax 1` processes"
    return (statistics.median(starts) + statistics.median(warms),
            f"median import of {len(starts)} + median warm-up of {len(warms) if wl.warm else 0}")


def run_one(wl: W.Workload, op: W.Op, recorder=None) -> dict:
    """One timed operation; a raised exception is recorded, not propagated."""
    rec = {"z1": repr(op.z1), "z2": repr(op.z2), "n": op.n, "s": op.s,
           "value": None, "err": None, "error": None}
    t0 = time.perf_counter()
    try:
        if recorder is not None and wl.replay is not None:
            value, err = wl.replay(op, recorder)
        else:
            value, err = wl.run(op)
        rec["value"], rec["err"] = complex(value), float(err)
    except Exception as exc:  # a failed operation is a result, not an abort
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["latency_s"] = time.perf_counter() - t0
    return rec


def run_ops(wl: W.Workload, seed: int, seconds: float, recorder=None) -> tuple[list, float]:
    """The timed closed loop: start operations until --seconds have passed
    and a whole input block is done."""
    inputs = wl.inputs(seed)
    records = []
    t_start = time.perf_counter()
    while not records or len(records) % wl.block or time.perf_counter() - t_start < seconds:
        op = next(inputs)
        if recorder is not None:
            recorder.op = len(records)
        records.append((op, run_one(wl, op, recorder)))
    loop_s = time.perf_counter() - t_start
    if recorder is not None:
        recorder.op = None
    return records, loop_s


def check(wl: W.Workload, records: list, recorder=None) -> list[dict]:
    """Oracle check of every operation, outside the timed loop."""
    out = []
    for i, (op, rec) in enumerate(records):
        if recorder is not None:
            recorder.op = ("oracle", i)
        ref, ref_err = None, 0.0
        if rec["error"] is None:
            try:
                ref, ref_err = wl.oracle(op)
            except Exception as exc:  # recorded as the cause below
                rec["oracle_error"] = f"{type(exc).__name__}: {exc}"
        cause, incorrect = W.verdict(wl.target, rec["value"], rec["err"], ref, ref_err)
        if rec["error"]:
            cause = rec["error"]
        value = rec["value"]
        rec.update(cause=cause, incorrect=incorrect,
                   ref=None if ref is None else [ref.real, ref.imag], ref_err=ref_err,
                   value=None if value is None else [value.real, value.imag],
                   digest=digest_of(value, rec["err"]))
        out.append(rec)
    if recorder is not None:
        recorder.op = None
    return out


def digest_of(value: complex | None, err: float | None) -> str:
    """Value and estimate at 17 significant digits, so bit changes show."""
    if value is None:
        return "raised"
    return f"{value.real:.17g} {value.imag:.17g} {err:.17g}"


def run_digest(records: list[dict]) -> str:
    return hashlib.sha256("\n".join(r["digest"] for r in records).encode()).hexdigest()[:16]


def metadata(wl: W.Workload, seed: int, args) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (W.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(W.ROOT.parent)})
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((W.SRC / "heckekernel").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {"workload": wl.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "cutoffs": wl.cutoffs, "target": wl.target,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit, "source_sha256": src.hexdigest()[:16]}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(records: list[dict], loop_s: float, setup_s: float, rss_mb: float) -> dict:
    returned = [r for r in records if r["value"] is not None and math.isfinite(r["err"])]
    rel = [r["err"] / max(1.0, abs(complex(*r["value"]))) for r in returned]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(r["latency_s"] for r in records), "s"),
        "evals_per_s": (len(records) / loop_s, "1/s"),
        "err_estimate_rel_p50": (statistics.median(rel) if rel else math.inf, "1"),
        "fail_ratio": (sum(1 for r in records if r["cause"]) / len(records), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# printed, but not gated: the estimate depends on which points a seed draws,
# and fail_ratio reads 0 on the workloads' domain; failures count in "failed"
REPORT_ONLY = ("err_estimate_rel_p50", "fail_ratio")


def compare_untraced(wl: W.Workload, raw: list, records: list[dict]) -> tuple[bool, str]:
    """Re-run the traced operations untraced, after the traced run: their
    value digests must be identical, and the difference of the median
    latencies is the tracing overhead."""
    untraced = [run_one(wl, op) for op, _ in raw]
    same = [digest_of(r["value"], r["err"]) for r in untraced] == [r["digest"] for r in records]
    base = statistics.median(r["latency_s"] for r in untraced)
    traced = statistics.median(r["latency_s"] for r in records)
    return same, (f"untraced re-run, {len(untraced)} ops: value digests "
                  f"{'identical' if same else 'DIFFER'}; tracing overhead {traced - base:+.4f} s/op "
                  f"({(traced - base) / base:+.2%}) over untraced p50 {base:.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny cutoffs, for self-tests")
    args = parser.parse_args(argv)
    if not (W.SRC / "heckekernel" / "__init__.py").is_file():
        print(f"error: package source not found under {W.SRC}", file=sys.stderr)
        return 2
    pin_environment()
    from tracing import OP, PER_LAYER, Recorder, layer_metrics

    wl = W.WORKLOADS[args.workload](smoke=args.smoke)
    meta = metadata(wl, args.seed, args)
    recorder = Recorder() if args.trace else None
    with recorder.installed() if recorder else contextlib.nullcontext():
        first = next(wl.inputs(args.seed))
        batches = [setup_samples(wl, first)]
        raw, loop_s = run_ops(wl, args.seed, args.seconds, recorder)
        # taken before the oracles run in this process
        rss_mb = peak_rss_mb(children=not wl.in_process)
        records = check(wl, raw, recorder)
        batches.append(setup_samples(wl, first))
    setup_s, setup_how = setup_time(batches, wl)
    e2e = end_to_end(records, loop_s, setup_s, rss_mb)
    failed = sum(1 for r in records if r["cause"])
    correct = not any(r["incorrect"] for r in records)
    tag = f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    doc = {"meta": meta, "end_to_end": e2e, "digest": run_digest(records), "records": records}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  failed {failed}  loop {loop_s:.2f} s")
    if recorder:
        print("  traced run: the timings below include tracing overhead")
    print("  " + "  ".join(f"{k}={v}" for k, v in meta.items() if k not in ("workload", "seed")))
    for name, (value, unit) in e2e.items():
        note = {"setup_s": setup_how, "latency_p50_s": f"n={len(records)}",
                "fail_ratio": f"{failed}/{len(records)}"}.get(name, "")
        print(f"  {name:<22} {value:<14.6g} {unit:<4} {note}")
    print(f"  value digest {doc['digest']}")
    for i, r in enumerate(records):
        if r["cause"] or r["incorrect"]:
            print(f"  op {i} z1={r['z1']} z2={r['z2']} n={r['n']} s={r['s']:.4f}: "
                  f"{r['cause']}{'  [INCORRECT]' if r['incorrect'] else ''}")
    if recorder:
        layers = layer_metrics(recorder.spans, recorder.chunks, [r["latency_s"] for r in records])
        same, note = compare_untraced(wl, raw, records)
        correct = correct and same
        spans = sum(1 for sp in recorder.spans if isinstance(sp[OP], int))
        print(f"  {note}\n  {spans / len(records):.0f} spans per operation")
        for name, value in layers.items():
            print(f"  {name:<42} {value:.6g}")
        doc.update(layers=layers, trace_check=note, spans=recorder.write_rows())
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items() if k not in REPORT_ONLY}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(doc))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
