"""Expected answers computed apart from the program, and the checks that
compare each operation's output with them.

Nothing here imports isolev.  Distance matrices come from closed forms of the
constructions, group orders and orbits from the literature (or from the
layer structure of a construction), random short pairs from a plain dynamic
program, and random cubic graphs from an exhaustive automorphism search.
Each ``check_*`` function returns a list of problems, empty when the output
is right.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import product

from workloads import build_graph, random_pairs, read_catalog

# Automorphism group orders of the bundled cubic graphs.
CATALOG_ORDER = {"k4": 24, "k33": 72, "petersen": 120, "frucht": 1}
# Frucht's graph is rigid; the other three are vertex-transitive.
CATALOG_TRANSITIVE = {"k4": True, "k33": True, "petersen": True, "frucht": False}
# Generalized Petersen graphs GP(n, k): all five are vertex-transitive.
GP_ORDER = {(8, 3): 96, (10, 2): 120, (10, 3): 240, (12, 5): 144, (13, 5): 52}


# ---- languages -------------------------------------------------------------

class Layer:
    """Words of one length class: ``size`` words of length ``length``,
    ``dist(a, b, theta)`` between local indices a != b, the order of the
    layer's isometry group and its orbits as lists of local indices."""

    def __init__(self, size, length, dist, order, blocks):
        self.size, self.length, self.dist = size, length, dist
        self.order, self.blocks = order, blocks


def _empty_word():
    return Layer(1, 0, None, 1, [[0]])


def _graph_layer(name, length):
    n, edges = read_catalog(name)
    blocks = [list(range(n))] if CATALOG_TRANSITIVE[name] else [[v] for v in range(n)]
    # Stretched incidence words: Hamming distance 4 for adjacent vertices,
    # 6 otherwise, each mismatch costing min(theta, 2) once stretched.
    dist = lambda a, b, th: min(th, 2) * (4 if (min(a, b), max(a, b)) in edges else 6)
    return Layer(n, length, dist, CATALOG_ORDER[name], blocks)


def _simplex(size, length):
    # Single-block words at Hamming distance 2: two substitutions or four indels.
    return Layer(size, length, lambda a, b, th: min(2 * th, 4),
                 math.factorial(size), [list(range(size))])


def _hamming_layer(k, level, length):
    words = list(product(range(k), repeat=k ** level))
    dist = lambda a, b, th: min(th, 2) * sum(x != y for x, y in zip(words[a], words[b]))
    m = k ** level
    # Automorphisms of the Hamming space H(m, k): S_k wr S_m.
    return Layer(len(words), length, dist,
                 math.factorial(k) ** m * math.factorial(m), [list(range(len(words)))])


def layers_of(spec):
    """The layers of a construction in the program's word order, from the
    construction's definition."""
    fam = spec["family"]
    if fam == "theorem2":
        n, _ = read_catalog(spec["graphs"][0])
        return [_graph_layer(spec["graphs"][0], 24 * n)]
    if fam == "theorem3":
        out, prev = [_empty_word()], 0
        for name in spec["graphs"][: spec["depth"]]:
            n, _ = read_catalog(name)
            prev = 2 * (prev + 7) + 24 * n
            out.append(_graph_layer(name, prev))
        return out
    if fam == "theorem5":
        g1, g2 = spec["graphs"]
        n = 24 * read_catalog(g1)[0]
        m = 24 * read_catalog(g2)[0]
        gate = 2 * (n + m)
        return [_graph_layer(g1, n)] + [
            _graph_layer(g2, gate + m + 2 * m * p) for p in range(spec["depth"] + 1)
        ]
    if fam == "theorem4":
        k, out, prev = spec["k"], [_empty_word()], 0
        for level in range(1, spec["depth"] + 1):
            prev = k * prev + k ** level * (2 * k ** (level + 1) + 2)
            out.append(_hamming_layer(k, level, prev))
        return out
    if fam == "theorem6":
        return [_simplex(2 * i, 6 * i) for i in range(1, spec["layers"] + 1)]
    if fam == "lemma5":
        n = 6 * spec["base_layer"]
        return [_simplex(2 * spec["base_layer"], n + 2 * n * p)
                for p in range(spec["depth"] + 1)]
    raise ValueError(f"no layered form for {fam!r}")


def expected_language(spec, theta):
    """Expected word lengths, matrix, group order and orbit blocks."""
    th = Fraction(theta)
    if spec["family"] == "prop4":
        return _expected_prop4(spec["max"], th)
    layers = layers_of(spec)
    where = [(li, a) for li, layer in enumerate(layers) for a in range(layer.size)]
    lengths = [layers[li].length for li, _ in where]
    n = len(where)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            (li, a), (lj, b) = where[i], where[j]
            # Words of different layers: the shorter is a subsequence of the
            # longer, so the distance is the length gap.
            d = layers[li].dist(a, b, th) if li == lj else Fraction(abs(lengths[i] - lengths[j]))
            matrix[i][j] = matrix[j][i] = Fraction(d)
    starts = [0]
    for layer in layers:
        starts.append(starts[-1] + layer.size)
    blocks = [[starts[li] + a for a in blk] for li, layer in enumerate(layers) for blk in layer.blocks]
    order = math.prod(layer.order for layer in layers)
    if spec["family"] == "lemma5":
        # A finite run of equal layers at distances 2n|p - q| also admits the
        # layer reversal p -> depth - p.
        order *= 2
        d = spec["depth"]
        blocks = [blocks[p] + (blocks[d - p] if d - p != p else []) for p in range(d // 2 + 1)]
    return _language_answer(lengths, matrix, order, sorted(sorted(b) for b in blocks))


def _expected_prop4(n_max, th):
    """The empty word and the runs 0^n, 1^n: at theta = 2 the integer line
    [-n_max, n_max], whose only nontrivial isometry is the reflection."""
    if th != 2:
        raise ValueError("prop4 is checked at theta = 2 only")
    pos = [0] + list(range(1, n_max + 1)) + [-x for x in range(1, n_max + 1)]
    matrix = [[Fraction(abs(x - y)) for y in pos] for x in pos]
    blocks = [[0]] + [[x, n_max + x] for x in range(1, n_max + 1)]
    return _language_answer([abs(x) for x in pos], matrix, 2, blocks)


def _language_answer(lengths, matrix, order, blocks):
    # Small integer codes of the entries make the generator checks fast.
    code = {x: i for i, x in enumerate(sorted({x for row in matrix for x in row}))}
    return {"lengths": lengths, "matrix": matrix, "order": order, "blocks": blocks,
            "codes": [[code[x] for x in row] for row in matrix]}


# ---- graphs ----------------------------------------------------------------

def search_automorphisms(n, edges):
    """Order and orbits of Aut(G) for a connected graph, by exhaustive
    backtracking over vertex images in breadth-first order."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seq, parent = [0], {0: None}
    for v in seq:
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                seq.append(w)
    if len(seq) != n:
        raise ValueError("graph is not connected")
    img = [None] * n
    used = [False] * n
    orbit = list(range(n))

    def find(x):
        while orbit[x] != x:
            orbit[x] = orbit[orbit[x]]
            x = orbit[x]
        return x

    def extend(k):
        if k == n:
            for v in range(n):
                orbit[find(v)] = find(img[v])
            return 1
        v = seq[k]
        cands = range(n) if k == 0 else adj[img[parent[v]]]
        total = 0
        for c in cands:
            if used[c] or len(adj[c]) != len(adj[v]):
                continue
            if all((u in adj[v]) == (img[u] in adj[c]) for u in seq[:k]):
                img[v], used[c] = c, True
                total += extend(k + 1)
                img[v], used[c] = None, False
        return total

    order = extend(0)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return order, sorted(groups.values())


def expected_graph(desc):
    n, edges = build_graph(desc)
    kind = desc[0]
    if kind == "prism":
        order = 4 * desc[1] if desc[1] != 4 else 48
    elif kind == "cube":
        order = 2 ** desc[1] * math.factorial(desc[1])
    elif kind == "paley":
        order = desc[1] * (desc[1] - 1) // 2
    elif kind == "gp":
        order = GP_ORDER[(desc[1], desc[2])]
    elif kind == "catalog":
        order = CATALOG_ORDER[desc[1]]
    else:
        # A relabelled copy must give the same order as the graph it came
        # from; both are compared with an exhaustive search of the original.
        order, blocks = search_automorphisms(*build_graph(desc[:3]))
        if len(desc) > 3:
            perm = list(range(n))
            random.Random(desc[3]).shuffle(perm)
            blocks = sorted(sorted(perm[v] for v in b) for b in blocks)
        return {"n": n, "edges": edges, "order": order, "blocks": blocks}
    transitive = kind != "catalog" or CATALOG_TRANSITIVE[desc[1]]
    blocks = [list(range(n))] if transitive else [[v] for v in range(n)]
    return {"n": n, "edges": edges, "order": order, "blocks": blocks}


# ---- random short pairs ----------------------------------------------------

def reference_lev(u, v, gamma, theta):
    """Plain O(|u||v|) dynamic program, on integers scaled by the common
    denominator of the weights."""
    g, t = Fraction(gamma), Fraction(theta)
    den = math.lcm(g.denominator, t.denominator)
    g, t = int(g * den), int(t * den)
    prev = [g * j for j in range(len(v) + 1)]
    for i, a in enumerate(u, 1):
        cur = [g * i]
        for j, b in enumerate(v, 1):
            cur.append(min(prev[j] + g, cur[j - 1] + g, prev[j - 1] + (0 if a == b else t)))
        prev = cur
    return Fraction(prev[-1], den)


# ---- per-operation expectations and checks ---------------------------------

def expectation(op):
    kind = op["kind"]
    if kind in ("isom", "matrix"):
        return expected_language(op["lang"], op["theta"])
    if kind == "graph_aut":
        return expected_graph(op["graph"])
    if kind == "lev":
        return [reference_lev(*p) for p in random_pairs(op["seed"], op["symbols"])]
    if kind == "verify":
        return None
    raise ValueError(f"unknown operation kind {kind!r}")


def _preserves(perm, rows):
    """Is ``perm`` a permutation of the indices with
    rows[perm[i]][perm[j]] == rows[i][j] for every i, j?"""
    if sorted(perm) != list(range(len(rows))):
        return False
    return all([rows[p][q] for q in perm] == row for p, row in zip(perm, rows))


def check_matrix(out, exp):
    data = json.loads(out["stdout"])
    problems = []
    if [len(w) for w in data["words"]] != exp["lengths"]:
        problems.append("word lengths differ from the construction")
    got = [[Fraction(str(x)) for x in row] for row in data["entries"]]
    if got != exp["matrix"]:
        bad = [(i, j) for i, row in enumerate(exp["matrix"]) for j, x in enumerate(row)
               if i >= len(got) or j >= len(got[i]) or got[i][j] != x]
        problems.append(f"{len(bad)} matrix entries differ, first at {bad[:1]}")
    return problems


def check_isom(out, exp):
    data = json.loads(out["stdout"])
    problems = []
    n = len(exp["matrix"])
    if data["degree"] != n:
        problems.append(f"degree {data['degree']}, expected {n}")
        return problems
    if int(data["order"]) != exp["order"]:
        problems.append(f"order {data['order']}, expected {exp['order']}")
    sizes = [len(b) for b in exp["blocks"]]
    if data["orbit_sizes"] != sizes:
        problems.append(f"orbit sizes {data['orbit_sizes']}, expected {sizes}")
    for g in data["generators"]:
        if not _preserves(g, exp["codes"]):
            problems.append(f"generator {g} does not preserve the expected matrix")
            break
    return problems


def check_graph_aut(out, exp):
    problems = []
    if int(out["order"]) != exp["order"]:
        problems.append(f"order {out['order']}, expected {exp['order']}")
    if sorted(sorted(b) for b in out["orbits"]) != exp["blocks"]:
        problems.append("orbits differ from the expected ones")
    n, edges = exp["n"], exp["edges"]
    adjacency = [[(min(a, b), max(a, b)) in edges for b in range(n)] for a in range(n)]
    for g in out["generators"]:
        if not _preserves(g, adjacency):
            problems.append(f"generator {g} is not an automorphism")
            break
    return problems


def check_verify(out, op):
    data = json.loads(out["stdout"])
    params = data["params"]
    problems = []
    if not data["passed"]:
        problems.append(f"verdict FAIL: {data['witnesses'][:2]}")
    if data["details"].get("checked_samples") != op["samples"] or params["samples"] != op["samples"]:
        problems.append(f"sample counts {data['details']}, expected {op['samples']}")
    if (Fraction(str(params["gamma"])), Fraction(str(params["theta"])), params["seed"]) != (
            Fraction(op["gamma"]), Fraction(op["theta"]), op["seed"]):
        problems.append(f"report parameters {params} differ from the request")
    return problems


def check_lev(out, exp):
    got = [Fraction(x) for x in out["values"]]
    bad = [i for i, (x, y) in enumerate(zip(got, exp)) if x != y]
    if len(got) != len(exp) or bad:
        return [f"{len(bad)} of {len(exp)} distances differ, first at pair {bad[:1]}"]
    return []


def check(op, out, exp):
    """Problems with one operation's output (``out`` as the worker sent it)."""
    kind = op["kind"]
    if kind == "isom":
        return check_isom(out, exp)
    if kind == "matrix":
        return check_matrix(out, exp)
    if kind == "verify":
        return check_verify(out, op)
    if kind == "lev":
        return check_lev(out, exp)
    return check_graph_aut(out, exp)
