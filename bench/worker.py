"""One round of a workload, in a fresh interpreter.

Usage: python3 bench/worker.py PLAN.json WORKDIR [--trace | --setup-only]

Imports isolev from the checkout's ``src``, builds the plan's inputs (the
set-up), runs every operation once through the public entry points, and
prints one JSON object: the set-up time, each operation's time and output,
the host-speed probes taken around them, the peak resident memory and, with
--trace, the per-layer figures.  With --setup-only it stops after the
set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

from workloads import build_graph, random_pairs  # noqa: E402


def make_language(spec, isolev):
    C = isolev.constructs
    fam = spec["family"]
    graphs = [C.catalog_graph(g) for g in spec.get("graphs", ())]
    if fam == "theorem2":
        return C.theorem2_language(graphs[0])
    if fam == "theorem3":
        return C.theorem3_language(graphs, spec["depth"])
    if fam == "theorem5":
        return C.theorem5_language(graphs[0], graphs[1], spec["depth"])
    if fam == "theorem4":
        return C.theorem4_language(spec["k"], spec["depth"])
    if fam == "theorem6":
        return C.theorem6_language(spec["layers"])
    if fam == "lemma5":
        b = spec["base_layer"]
        base = isolev.Language(w for w in C.theorem6_language(b) if len(w) == 6 * b)
        return C.lemma5_language(base, spec["depth"])
    if fam == "prop4":
        return C.prop4_language(spec["max"])
    raise ValueError(f"unknown family {fam!r}")


def build_input(op, index, workdir, isolev):
    kind = op["kind"]
    if kind in ("isom", "matrix"):
        lang = make_language(op["lang"], isolev)
        rename = str.maketrans("0123"[: len(op["symbols"])], op["symbols"])
        path = workdir / f"op{index}.lang"
        isolev.langlib.save_language(isolev.Language(w.translate(rename) for w in lang), path)
        argv = [kind, "--lang", str(path), "--theta", op["theta"]]
        return argv + ["--format", "json"] if kind == "matrix" else argv
    if kind == "verify":
        return ["verify", op["claim"], "--gamma", op["gamma"], "--theta", op["theta"],
                "--samples", str(op["samples"]), "--seed", str(op["seed"]), "--json"]
    if kind == "lev":
        W = isolev.editdist.Weights
        return [(u, v, W(g, t)) for u, v, g, t in random_pairs(op["seed"], op["symbols"])]
    if op["graph"][0] == "catalog":
        return isolev.constructs.catalog_graph(op["graph"][1])
    n, edges = build_graph(op["graph"])
    return isolev.constructs.SimpleGraph.from_edges(n, sorted(edges))


def run_op(op, arg, isolev, tracer):
    """(seconds, output) of one operation; only the call itself is timed."""
    kind = op["kind"]
    if kind in ("isom", "matrix", "verify"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t = time.perf_counter()
            code = isolev.cli.main(arg)
            dt = time.perf_counter() - t
        text = buf.getvalue()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(text.encode())
        return dt, {"exit": code, "stdout": text}
    if kind == "lev":
        lev = isolev.editdist.lev
        t = time.perf_counter()
        values = [lev(u, v, w) for u, v, w in arg]
        dt = time.perf_counter() - t
        return dt, {"values": [str(x) for x in values]}
    t = time.perf_counter()
    group = isolev.isomgroup.graph_automorphisms(arg)
    order = group.order()
    orbits = group.orbits()
    dt = time.perf_counter() - t
    return dt, {"order": str(order), "orbits": [list(b) for b in orbits.blocks],
                "generators": [list(g.images) for g in group.generators]}


PROBE_LOOPS = 40_000


def probe():
    """Seconds a fixed pure-Python loop takes now: the median of three runs.

    The host's speed drifts by up to 1.6x within seconds; a probe before and
    after each timed span tells the parent how fast the host was then.
    """
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def main(argv):
    plan = json.loads(Path(argv[1]).read_text())
    workdir = Path(argv[2])
    probes = [probe()]
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import isolev
    import isolev.cli

    if not Path(isolev.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"isolev was imported from {isolev.__file__}, not from {SRC}")
    tracer = None
    if "--trace" in argv:
        from tracing import install
        tracer = install(isolev)
    inputs = [build_input(op, i, workdir, isolev) for i, op in enumerate(plan["ops"])]
    setup_s = time.perf_counter() - t0
    probes.append(probe())
    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_s, "probes": probes}))
        return 0

    results = []
    for op, arg in zip(plan["ops"], inputs):
        try:
            dt, out = run_op(op, arg, isolev, tracer)
        except Exception as exc:  # reported as a failed operation
            results.append({"error": f"{type(exc).__name__}: {exc}"})
        else:
            results.append({"s": dt, "out": out})
        probes.append(probe())
    record = {"setup_s": setup_s, "ops": results, "probes": probes,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from tracing import layer_metrics
        record["layers"] = layer_metrics(tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
