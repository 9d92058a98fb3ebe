"""Benchmark of isolev: time to obtain every verdict of a workload.

Usage:
    python3 bench/run.py --workload {long-words,many-words,graph-aut}
                         --seed N --seconds S --trace {0,1}

Each round runs every operation of the workload once in a fresh interpreter
(``worker.py``), one child at a time, so no in-process cache carries over
from one repetition to the next; two more children per round only set up,
for more samples of the set-up time.  Rounds repeat until the next one would
end after S seconds (at least three; four with --trace 1, where every second
round is traced).  Every output is checked against answers computed apart
from the program (``checks.py``).

Times are reported at a reference host speed (see README): each measured
time is scaled by REFERENCE_PROBE_S over the time the worker's probe loop
took right before and after it.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.  If
an operation failed, the metrics made from the operations' times and memory
are null: a broken operation must not read as a gain.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import check, expectation  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

# No run may take longer than this, whatever --seconds says.
HARD_LIMIT_S = 170
# Set-up-only children per round, besides the round's own set-up.
EXTRA_SETUPS = 2
# Seconds the worker's probe loop takes at the reference host speed.
REFERENCE_PROBE_S = 0.002

UNITS = {"verdict_s": "s", "slowest_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def run_child(plan_path, workdir, flag, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(workdir)]
    if flag:
        cmd.append(flag)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"round exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def at_reference(seconds, before, after):
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2)


def summarize(rounds, n_ops, failed):
    """End-to-end figures of a set of rounds: each operation's median over
    the rounds, at the reference speed.  If any operation failed, the figures
    made from the operations are None, so a broken operation cannot read as
    a gain."""
    setup_s = statistics.median(at_reference(*s) for r in rounds for s in r["setups"])
    if failed:
        return {"verdict_s": None, "slowest_op_s": None, "setup_s": setup_s,
                "peak_rss_mb": None}
    times = [statistics.median(at_reference(r["ops"][i]["s"], *r["probes"][i + 1:i + 3])
                               for r in rounds)
             for i in range(n_ops)]
    return {
        "verdict_s": sum(times),
        "slowest_op_s": max(times),
        "setup_s": setup_s,
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024,
    }


def layer_figures(traced, plain, n_ops, failed):
    """Per-layer figures: medians over the traced rounds, times at the
    reference speed of each round, and the tracing overhead."""
    out = {}
    for name in traced[0]["layers"]:
        values = []
        for r in traced:
            value = r["layers"][name]
            speed = REFERENCE_PROBE_S / statistics.median(r["probes"])
            if name.endswith("_per_s"):
                value /= speed
            elif name.endswith("_s") or name.endswith(".s"):
                value *= speed
            values.append(value)
        out[name] = statistics.median(values)
    out["trace.overhead_s"] = None if failed else (
        summarize(traced, n_ops, 0)["verdict_s"] - summarize(plain, n_ops, 0)["verdict_s"])
    return out


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_rounds(args, plan_path, workdir, started):
    rounds = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        budget = HARD_LIMIT_S - (time.perf_counter() - started)
        record = run_child(plan_path, workdir, "--trace" if traced else None, budget)
        record["traced"] = traced
        record["setups"] = [(record["setup_s"], *record["probes"][:2])]
        for _ in range(0 if args.trace else EXTRA_SETUPS):
            extra = run_child(plan_path, workdir, "--setup-only", budget)
            record["setups"].append((extra["setup_s"], *extra["probes"]))
        rounds.append(record)
        elapsed = time.perf_counter() - t0
        if len(rounds) >= (4 if args.trace else 3) and \
                elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            return rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, exit through the handlers that kill and reap the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    started = time.perf_counter()
    if not (ROOT / "src" / "isolev" / "__init__.py").is_file():
        print(f"error: no isolev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed)
    ops = plan["ops"]
    expected = [expectation(op) for op in ops]

    workdir = BENCH / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    try:
        # Compiles the byte code and fills the file cache before timing.
        run_child(plan_path, workdir, "--setup-only", HARD_LIMIT_S)
        rounds = run_rounds(args, plan_path, workdir, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    problems = []
    for record in rounds:
        for op, exp, res in zip(ops, expected, record["ops"]):
            out = res.get("out", {})
            if "error" in res or out.get("exit", 0) not in (0, 1):
                failed += 1
                problems.append(f"{op['id']}: {res.get('error') or out}")
                continue
            problems.extend(f"{op['id']}: {p}" for p in check(op, out, exp))
    wrong = len(problems) - failed
    for p in problems[:10]:
        print(f"check: {p}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        figures = layer_figures([r for r in rounds if r["traced"]], plain, len(ops), failed)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in figures.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in summarize(plain, len(ops), failed).items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations in {time.perf_counter() - started:.1f} s")
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value} {m['unit']}")
    attempted = len(rounds) * len(ops)
    print(f"  attempted {attempted}, failed {failed}, wrong outputs {wrong}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
