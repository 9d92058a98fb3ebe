"""Run the benchmark on ten seeds per workload and report each metric's spread.

Usage: python3 bench/spread.py [--first-seed 1]

Runs ``run.py`` untraced, once per seed and one run at a time, on every
workload of BENCHMARK.json for its ``run_seconds``, and prints for each
end-to-end metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance between
the quartiles as a share of the median; then the operations attempted and
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    first = parser.parse_args().first_seed
    seconds = config["run_seconds"]
    for workload in (w["name"] for w in config["workloads"]):
        results = []
        for seed in range(first, first + RUNS):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        print(f"{workload}: {RUNS} runs, seeds {first}..{first + RUNS - 1}, {seconds} s each")
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            if None in values:
                print(f"  {name:34s} n/a (an operation failed)")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"iqr/median {(q3 - q1) / med:.4f} {metric['unit']}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"  attempted {attempted}, failed {failed}, all correct {correct}")


if __name__ == "__main__":
    main()
