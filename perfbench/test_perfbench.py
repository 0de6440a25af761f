"""Self-tests of the benchmark (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py

The smoke runs use tiny cutoffs; cli_scan still pays the CLI's default
shift-correction window, so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

import run
import tracing
import workloads as W

sys.path.insert(0, str(W.SRC))
BENCH = json.loads((W.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def bench(*args: str, cwd: Path = W.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_same_inputs():
    for gen in (W.boundary_inputs, W.direct_inputs, W.scan_inputs):
        first = list(islice(gen(7), 50))
        assert first == list(islice(gen(7), 50))
        assert first != list(islice(gen(8), 50))
        for op in first:
            for z in (op.z1, op.z2):
                assert -0.5 <= z.real < 0.5 and W.IM_RANGE[0] <= z.imag <= W.IM_RANGE[1]
    assert {op.n for op in islice(W.scan_inputs(7), 50)} == {0, 1}


def test_benchmark_json_names_match_the_harness():
    assert set(tracing.PER_LAYER) == PER_LAYER
    assert {w["name"] for w in BENCH["workloads"]} == set(W.WORKLOADS)
    assert E2E | set(run.REPORT_ONLY) == {"setup_s", "latency_p50_s", "evals_per_s",
                                          "err_estimate_rel_p50", "fail_ratio", "peak_rss_mb"}


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_smoke_traced_then_untraced(workload):
    # --seconds 0 runs exactly one input block; the traced run goes first,
    # so its digest check cannot lean on an earlier untraced record
    block = W.WORKLOADS[workload](smoke=True).block
    common = ["--workload", workload, "--seed", "3", "--seconds", "0", "--smoke"]
    traced = bench(*common, "--trace", "1")
    out = result_line(traced)
    assert out["attempted"] == block
    assert set(out["metrics"]) == PER_LAYER
    assert f"untraced re-run, {block} ops: value digests identical" in traced.stdout
    assert "tracing overhead" in traced.stdout
    plain = bench(*common, "--trace", "0")
    out = result_line(plain)
    assert out["attempted"] == block and 0 <= out["failed"] <= out["attempted"]
    assert set(out["metrics"]) == E2E
    for name in E2E | set(run.REPORT_ONLY):
        assert name in plain.stdout


def _exact(wl: W.Workload, shift: float) -> W.Workload:
    """The workload with its operation replaced by the oracle value plus shift."""

    def fake_run(op):
        ref, _ = wl.oracle(op)
        return ref + shift * max(1.0, abs(ref)), 1e-12

    return replace(wl, run=fake_run)


def test_perturbed_value_is_counted_in_fail_ratio():
    wl = W.boundary(smoke=True)
    ops = list(islice(wl.inputs(5), 3))
    exact = run.check(wl, [(op, run.run_one(_exact(wl, 0.0), op)) for op in ops])
    assert [r["cause"] for r in exact] == ["", "", ""]
    perturbed = run.check(wl, [(op, run.run_one(_exact(wl, 0.1), op)) for op in ops])
    e2e = run.end_to_end(perturbed, 1.0, 0.0, 1.0)
    assert e2e["fail_ratio"][0] == 1.0
    assert all(r["cause"].startswith("oracle miss") and r["incorrect"] for r in perturbed)


def test_refuses_without_the_package(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(W.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "boundary", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
