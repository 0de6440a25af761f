"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 101-110 [--workload boundary ...]

Runs run.py once per workload and seed (untraced, BENCHMARK.json's
run_seconds), one at a time, and prints for each metric the median, the
quartiles and the interquartile distance as a share of the median, which
must stay inside the metric's bound.  Fail counts are summed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from workloads import ROOT


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append", help="default: all of BENCHMARK.json")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        walls = []
        for seed in range(first, last + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            walls.append(time.perf_counter() - t0)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += out["attempted"]
            failed += out["failed"]
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
        print(f"{workload}: {last - first + 1} runs, failed {failed}/{attempted} operations, "
              f"run wall time {min(walls):.0f}-{max(walls):.0f} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {(q3 - q1) / med:.4f} (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
