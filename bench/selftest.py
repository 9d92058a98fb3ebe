"""Show that every check of the benchmark rejects a planted wrong answer.

Usage: python3 bench/selftest.py

For each kind of operation it builds a right output from the expected
answers, confirms the check accepts it, then plants one fault at a time and
confirms the check rejects it.  Runs without isolev; exits 1 if any case
goes the wrong way.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check, expectation  # noqa: E402
from workloads import make_plan  # noqa: E402


def _op(workload, prefix):
    return next(op for op in make_plan(workload, 7)["ops"] if op["id"].startswith(prefix))


def _jsonable(x):
    return int(x) if x.denominator == 1 else str(x)


def _swap(n, a, b):
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return perm


def language_cases():
    op = _op("many-words", "isom theorem6(layers=6)")
    exp = expectation(op)
    n = len(exp["lengths"])
    # Words 2 and 3 share layer 2 (a simplex), so swapping them is an isometry.
    good = {"degree": n, "order": str(exp["order"]), "orbit_sizes": [len(b) for b in exp["blocks"]],
            "generators": [_swap(n, 2, 3)]}
    yield "isom", op, exp, good, None
    bad = dict(good, order=str(exp["order"] * 2))
    yield "isom", op, exp, bad, "order off by a factor of 2"
    bad = dict(good, orbit_sizes=good["orbit_sizes"][:-1] + [1])
    yield "isom", op, exp, bad, "one orbit size changed"
    bad = dict(good, generators=[_swap(n, 0, 2)])
    yield "isom", op, exp, bad, "generator swaps words of two layers"
    bad = dict(good, generators=[[0] * n])
    yield "isom", op, exp, bad, "generator is not a permutation"

    op = _op("long-words", "matrix theorem5")
    exp = expectation(op)
    good = {"words": ["x" * k for k in exp["lengths"]],
            "entries": [[_jsonable(x) for x in row] for row in exp["matrix"]]}
    yield "matrix", op, exp, good, None
    bad = copy.deepcopy(good)
    bad["entries"][3][9] = _jsonable(exp["matrix"][3][9] + 1)
    yield "matrix", op, exp, bad, "one matrix entry changed"
    bad = copy.deepcopy(good)
    bad["words"][0] += "x"
    yield "matrix", op, exp, bad, "one word one symbol longer"


def graph_cases():
    op = _op("graph-aut", "aut prism-8")
    exp = expectation(op)
    rotation = [(i + 1) % 8 for i in range(8)] + [8 + (i + 1) % 8 for i in range(8)]
    good = {"order": str(exp["order"]), "orbits": exp["blocks"], "generators": [rotation]}
    yield "graph_aut", op, exp, good, None
    yield "graph_aut", op, exp, dict(good, order=str(exp["order"] // 2)), "order off by a factor of 2"
    yield "graph_aut", op, exp, dict(good, orbits=[list(range(8)), list(range(8, 16))]), \
        "orbit split in two"
    yield "graph_aut", op, exp, dict(good, generators=[rotation, _swap(16, 0, 1)]), \
        "non-automorphism generator"

    op = _op("graph-aut", "aut rcubic-12 #0 relabelled")
    exp = expectation(op)
    good = {"order": str(exp["order"]), "orbits": exp["blocks"], "generators": []}
    yield "graph_aut", op, exp, good, None
    yield "graph_aut", op, exp, dict(good, order=str(exp["order"] * 2)), \
        "relabelled random cubic graph with twice the order"


def other_cases():
    op = _op("many-words", "lev")
    exp = expectation(op)
    good = {"values": [str(x) for x in exp]}
    yield "lev", op, exp, good, None
    bad = {"values": list(good["values"])}
    bad["values"][17] = str(Fraction(bad["values"][17]) + Fraction(1, 2))
    yield "lev", op, exp, bad, "one distance off by 1/2"

    op = _op("many-words", "verify bounds gamma=2")
    report = {"claim": "bounds", "passed": True, "witnesses": [],
              "params": {"gamma": 2, "theta": 3, "samples": op["samples"], "max_len": 12,
                         "seed": op["seed"]},
              "details": {"checked_samples": op["samples"]}}
    yield "verify", op, None, report, None
    yield "verify", op, None, dict(report, passed=False), "verdict FAIL"
    yield "verify", op, None, dict(report, details={"checked_samples": op["samples"] - 1}), \
        "one sample short"
    yield "verify", op, None, dict(report, params=dict(report["params"], theta="5/2")), \
        "report for another weight"


def main():
    wrong = 0
    for kind, op, exp, payload, fault in [*language_cases(), *graph_cases(), *other_cases()]:
        out = {"exit": 0, "stdout": json.dumps(payload)} if kind in ("isom", "matrix", "verify") \
            else payload
        problems = check(op, out, exp)
        ok = bool(problems) == (fault is not None)
        wrong += not ok
        what = f"planted {fault}" if fault else "right output"
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {op['id']}: {what} -> {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{wrong} case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
