"""Spans and counters recorded from outside the program.

``install`` replaces each traced public name of isolev, at every place its
callers look it up, with a wrapper that records a span (name, start, end,
parent) in memory.  The per-layer metrics are computed from the spans when
the round ends.  Nothing in the program itself changes.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._open = Counter()
        self._lev_seen = set()

    def wrap(self, name, sites, count=None):
        """Route every (owner, attribute) in ``sites`` through one wrapper.

        A call made while a span of the same name is open (a construction
        calling another one) runs unrecorded, so times are not counted twice.
        """
        sites = [(owner, attr) for owner, attr in sites if hasattr(owner, attr)]
        original = getattr(*sites[0])

        spans, stack, is_open = self.spans, self.stack, self._open

        def wrapper(*args, **kwargs):
            if is_open[name]:
                return original(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            is_open[name] = 1
            try:
                result = original(*args, **kwargs)
            finally:
                is_open[name] = 0
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        for owner, attr in sites:
            setattr(owner, attr, wrapper)

    def totals(self):
        """Total and self seconds per span name."""
        total, self_s = Counter(), Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return total, self_s


def _count_lev(tr, args, kwargs, result):
    u, v = args[0], args[1]
    tr.counts["lev.cells"] += (len(u) + 1) * (len(v) + 1)
    key = (args, tuple(sorted(kwargs.items())))
    if key in tr._lev_seen:
        tr.counts["lev.repeat_calls"] += 1
    tr._lev_seen.add(key)


def _count_validate(tr, args, kwargs, result):
    n = args[0].n
    tr.counts["validate.triples"] += n * (n - 1) // 2 * n


def _count_isometries(tr, args, kwargs, result):
    tr.counts["isometries.points"] += args[0].n
    tr.counts["isometries.generators"] += len(result.generators)


def _count_construct(tr, args, kwargs, result):
    tr.counts["constructs.words"] += len(result)
    tr.counts["constructs.symbols"] += sum(result.lengths())


CONSTRUCTIONS = ("theorem2_language", "theorem3_language", "theorem4_language",
                 "theorem5_language", "theorem6_language", "lemma5_language",
                 "prop4_language", "catalog_graph")


def install(isolev):
    """Wrap the traced names of an imported isolev package; return the tracer."""
    from isolev import cli, constructs, editdist, isomgroup, langlib, verify

    tr = Tracer()
    tr.wrap("cli", [(cli, "main")])
    tr.wrap("editdist.lev", [(editdist, "lev"), (verify, "lev"), (cli, "lev"), (isolev, "lev")],
            _count_lev)
    tr.wrap("editdist.matrix", [(editdist, "distance_matrix"), (cli, "distance_matrix"),
                                (verify, "distance_matrix"), (isolev, "distance_matrix")])
    tr.wrap("editdist.validate", [(editdist.DistanceMatrix, "validate")], _count_validate)
    tr.wrap("isomgroup.isometries", [(isomgroup, "isometries"), (cli, "isometries"),
                                     (verify, "isometries"), (isolev, "isometries")],
            _count_isometries)
    tr.wrap("isomgroup.graph_automorphisms",
            [(isomgroup, "graph_automorphisms"), (verify, "graph_automorphisms"),
             (isolev, "graph_automorphisms")])
    for method in ("order", "orbits", "contains"):
        tr.wrap(f"isomgroup.{method}", [(isomgroup.PermutationGroup, method)])
    for fn in CONSTRUCTIONS:
        tr.wrap("constructs.build", [(m, fn) for m in (constructs, cli, verify, isolev)],
                _count_construct if fn != "catalog_graph" else None)
    tr.wrap("langlib.load", [(langlib, "load_language"), (cli, "load_language"),
                             (verify, "load_language"), (isolev, "load_language")])
    tr.wrap("langlib.save", [(langlib, "save_language"), (cli, "save_language"),
                             (isolev, "save_language")])
    for fn in [n for n in dir(verify) if n.startswith("check_")]:
        tr.wrap("verify", [(verify, fn)])
    return tr


def layer_metrics(tr):
    """Per-layer figures of one traced round."""
    total, self_s = tr.totals()
    calls = Counter(name for name, *_ in tr.spans)
    c = tr.counts
    lev_s = total["editdist.lev"]
    return {
        "editdist.lev.calls": calls["editdist.lev"],
        "editdist.lev.s": lev_s,
        "editdist.lev.cells": c["lev.cells"],
        "editdist.lev.cells_per_s": c["lev.cells"] / lev_s if lev_s else 0.0,
        "editdist.lev.repeat_calls": c["lev.repeat_calls"],
        "editdist.validate.s": total["editdist.validate"],
        "editdist.validate.triples": c["validate.triples"],
        "editdist.matrix.s": total["editdist.matrix"],
        "editdist.matrix.self_s": self_s["editdist.matrix"],
        "isomgroup.isometries.calls": calls["isomgroup.isometries"],
        "isomgroup.isometries.s": total["isomgroup.isometries"],
        "isomgroup.isometries.points": c["isometries.points"],
        "isomgroup.isometries.generators": c["isometries.generators"],
        "isomgroup.graph_automorphisms.s": total["isomgroup.graph_automorphisms"],
        "isomgroup.order.s": total["isomgroup.order"],
        "isomgroup.orbits.s": total["isomgroup.orbits"],
        "isomgroup.contains.calls": calls["isomgroup.contains"],
        "isomgroup.contains.s": total["isomgroup.contains"],
        "constructs.build.s": total["constructs.build"],
        "constructs.words": c["constructs.words"],
        "constructs.symbols": c["constructs.symbols"],
        "langlib.load.s": total["langlib.load"],
        "langlib.save.s": total["langlib.save"],
        "verify.self_s": self_s["verify"],
        "cli.self_s": self_s["cli"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
    }
