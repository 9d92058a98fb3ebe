"""Operation lists of the three workloads, and the inputs they are built from.

Everything here is plain Python with no import of isolev, so that the
checker (``checks.py``) can derive expected answers without the program.  A
plan is a JSON-ready list of operation specs; the same seed gives the same
plan.
"""

from __future__ import annotations

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG_DIR = ROOT / "src" / "isolev" / "data"

WORKLOADS = ("long-words", "many-words", "graph-aut")

# Printable ASCII symbols a language file accepts ('#' starts a comment),
# less the alphabet of the random words inside verify metric/bounds.
SYMBOL_POOL = "".join(chr(c) for c in range(33, 127) if chr(c) not in "#01")

THETAS = ("1", "3/2", "2")


def _lang_op(command, spec, theta):
    family = spec["family"]
    label = family + "(" + ",".join(
        f"{k}={'+'.join(v) if isinstance(v, list) else v}"
        for k, v in spec.items() if k != "family"
    ) + ")"
    return {"id": f"{command} {label} theta={theta}", "kind": command,
            "lang": spec, "theta": theta}


def long_words_ops():
    """isom and matrix on the stretched-incidence families, 6-16 words of
    up to 912 symbols.  The three kernel regimes theta = gamma,
    gamma < theta < 2 gamma and theta >= 2 gamma each run on the longest
    words (theorem5) and on one theorem2 family."""
    t2 = lambda g: {"family": "theorem2", "graphs": [g]}
    t3 = {"family": "theorem3", "graphs": ["k4", "petersen"], "depth": 2}
    t5 = {"family": "theorem5", "graphs": ["k4", "k33"], "depth": 1}
    ops = []
    for theta in THETAS:
        ops.append(_lang_op("isom", t2("k33"), theta))
        ops.append(_lang_op("matrix", t2("petersen"), theta))
    ops.append(_lang_op("isom", t2("frucht"), "2"))
    ops.append(_lang_op("isom", t3, "3/2"))
    ops.append(_lang_op("matrix", t5, "1"))
    ops.append(_lang_op("isom", t5, "3/2"))
    ops.append(_lang_op("matrix", t5, "2"))
    return ops


# Weights of the random short pairs: theta = gamma, theta < gamma,
# gamma < theta < 2 gamma with gamma != 1, and theta > 2 gamma.
PAIR_WEIGHTS = (("1", "1"), ("1", "1/2"), ("2", "3"), ("1", "3"))
PAIR_COUNT = 1500
PAIR_MAX_LEN = 16


def many_words_ops(seed):
    """isom on 20-72 short words, verify metric/bounds, and a batch of short
    random pairs: validate, the isometry search and per-call overhead."""
    ops = [
        _lang_op("isom", {"family": "theorem6", "layers": 6}, "1"),
        _lang_op("isom", {"family": "theorem6", "layers": 7}, "2"),
        _lang_op("isom", {"family": "theorem6", "layers": 8}, "3/2"),
        _lang_op("isom", {"family": "theorem4", "k": 2, "depth": 2}, "1"),
        _lang_op("isom", {"family": "theorem4", "k": 3, "depth": 1}, "3/2"),
        _lang_op("isom", {"family": "lemma5", "base_layer": 2, "depth": 4}, "1"),
        _lang_op("isom", {"family": "prop4", "max": 16}, "2"),
    ]
    rng = random.Random(f"verify-{seed}")
    for claim, samples in (("metric", 300), ("bounds", 1000)):
        for gamma, theta in (("1", "1"), ("2", "3")):
            ops.append({"id": f"verify {claim} gamma={gamma} theta={theta}",
                        "kind": "verify", "claim": claim, "gamma": gamma,
                        "theta": theta, "samples": samples,
                        "seed": rng.randrange(2**31)})
    ops.append({"id": f"lev {PAIR_COUNT} random pairs", "kind": "lev",
                "seed": rng.randrange(2**31)})
    return ops


def graph_aut_ops(seed):
    """graph_automorphisms + order + orbits on regular and rigid graphs.

    Random cubic graphs stay at 12 vertices: at 16 the solver's time ranges
    from 0.04 s to 0.9 s with the graph drawn, which would make the figures
    depend on the seed more than on the code.
    """
    fams = [("prism", n) for n in (8, 10, 12, 14, 16)]
    fams += [("cube", d) for d in (4, 5, 6)]
    fams += [("paley", q) for q in (13, 17, 29, 37, 41)]
    fams += [("gp", n, k) for n, k in ((8, 3), (10, 2), (10, 3), (12, 5), (13, 5))]
    fams += [("catalog", "petersen"), ("catalog", "frucht")]
    ops = [{"id": "aut " + "-".join(map(str, f)), "kind": "graph_aut",
            "graph": list(f)} for f in fams]
    rng = random.Random(f"cubic-{seed}")
    for i in range(4):
        s = rng.randrange(2**31)
        ops.append({"id": f"aut rcubic-12 #{i}", "kind": "graph_aut",
                    "graph": ["rcubic", 12, s]})
        ops.append({"id": f"aut rcubic-12 #{i} relabelled", "kind": "graph_aut",
                    "graph": ["rcubic", 12, s, rng.randrange(2**31)]})
    return ops


def make_plan(workload, seed):
    if workload == "long-words":
        ops = long_words_ops()
    elif workload == "many-words":
        ops = many_words_ops(seed)
    elif workload == "graph-aut":
        ops = graph_aut_ops(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Every language operation and the random pairs get symbols no other
    # operation of the plan uses, so no two operations share a word.
    rng = random.Random(f"symbols-{seed}")
    pool = list(SYMBOL_POOL)
    rng.shuffle(pool)
    for op in ops:
        if op["kind"] in ("isom", "matrix"):
            n = op["lang"]["k"] if op["lang"]["family"] == "theorem4" else 2
            op["symbols"] = "".join(pool[:n])
            del pool[:n]
        elif op["kind"] == "lev":
            op["symbols"] = "".join(pool[:4])
            del pool[:4]
    return {"workload": workload, "seed": seed, "ops": ops}


# ---- inputs built without the program -------------------------------------

def read_catalog(name):
    """Vertex count and 0-indexed edge set of a bundled cubic graph file."""
    n = None
    edges = set()
    for line in (CATALOG_DIR / f"{name}.dimacs").read_text().splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            n = int(parts[1])
        elif parts and parts[0] == "e":
            a, b = int(parts[1]) - 1, int(parts[2]) - 1
            edges.add((min(a, b), max(a, b)))
    return n, edges


def _cycle(offset, n, step=1):
    return [(offset + i, offset + (i + step) % n) for i in range(n)]


def random_cubic(n, seed):
    """Connected simple cubic graph from the seeded pairing model."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            if _connected(n, edges):
                return edges


def _connected(n, edges):
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def build_graph(desc):
    """(vertex count, set of sorted edge pairs) for a graph descriptor."""
    kind = desc[0]
    if kind == "prism":
        n = desc[1]
        es = _cycle(0, n) + _cycle(n, n) + [(i, n + i) for i in range(n)]
        count = 2 * n
    elif kind == "gp":
        n, k = desc[1], desc[2]
        es = _cycle(0, n) + _cycle(n, n, k) + [(i, n + i) for i in range(n)]
        count = 2 * n
    elif kind == "cube":
        count = 2 ** desc[1]
        es = [(v, v ^ (1 << b)) for v in range(count) for b in range(desc[1])]
    elif kind == "paley":
        q = desc[1]
        squares = {x * x % q for x in range(1, q)}
        es = [(a, b) for a in range(q) for b in range(a + 1, q) if (b - a) % q in squares]
        count = q
    elif kind == "catalog":
        return read_catalog(desc[1])
    elif kind == "rcubic":
        count = desc[1]
        es = random_cubic(count, desc[2])
        if len(desc) > 3:
            perm = list(range(count))
            random.Random(desc[3]).shuffle(perm)
            es = [(perm[a], perm[b]) for a, b in es]
    else:
        raise ValueError(f"unknown graph family {kind!r}")
    return count, {(min(a, b), max(a, b)) for a, b in es}


def random_pairs(seed, symbols):
    """Distinct (u, v, gamma, theta) tuples, words of length <= 16."""
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < PAIR_COUNT:
        u = "".join(rng.choice(symbols) for _ in range(rng.randint(0, PAIR_MAX_LEN)))
        v = "".join(rng.choice(symbols) for _ in range(rng.randint(0, PAIR_MAX_LEN)))
        gamma, theta = PAIR_WEIGHTS[len(out) % len(PAIR_WEIGHTS)]
        key = (u, v, gamma, theta)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out
