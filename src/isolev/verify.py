"""Claim checkers behind ``isolev verify``.

Each checker exercises one verifiable claim about the distance family or one
of the language constructions, at explicit parameters, and collects exact
counterexample witnesses when the claim fails.  Reports are reproducible:
every randomized checker takes a seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Optional, Sequence

from .constructs import (
    SimpleGraph,
    _bounded,
    catalog,
    catalog_entry,
    encode_cubic_graph,
    lemma5_language,
    prop4_language,
    theorem2_language,
    theorem3_language,
    theorem4_language,
    theorem5_language,
    theorem6_language,
    unary_language,
)
from .editdist import Rat, Weights, distance_matrix, hamming, lev, normalize
from .langlib import (
    Language,
    _require_hypothesis,
    growth,
    is_subsequence,
    stretch,
    theorem1_audit,
)
from .isomgroup import Permutation, graph_automorphisms, isometries, same_group

DEFAULT_SEED = 20240817
PROP3_LENGTHS = 40  # prop3 draws its word lengths from range(PROP3_LENGTHS)
_WITNESS_CAP = 12


@dataclass
class VerificationReport:
    """Outcome of one claim check: parameters, pass/fail, exact witnesses."""

    claim: str
    params: dict
    passed: bool
    witnesses: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": jsonable(self.params),
            "passed": self.passed,
            "witnesses": list(self.witnesses),
            "details": jsonable(self.details),
            "elapsed_seconds": round(self.elapsed, 3),
        }

    def render(self) -> str:
        lines = [f"claim: {self.claim}"]
        lines.append(
            "params: " + " ".join(f"{k}={_scalar(v)}" for k, v in self.params.items())
        )
        lines.append(
            f"result: {'PASS' if self.passed else 'FAIL'} ({self.elapsed:.2f}s)"
        )
        for key, value in self.details.items():
            lines.append(f"  {key}: {_scalar(value)}")
        if self.witnesses:
            shown = [w for w in self.witnesses if not w.startswith("... and ")]
            lines.append(f"witnesses ({len(shown)} shown):")
            lines.extend(f"  - {w}" for w in self.witnesses)
        return "\n".join(lines)


def _scalar(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def jsonable(value):
    """``value`` with every Fraction as an int, or as "p/q" text when not
    integral, and tuples as lists, ready for ``json.dumps``."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class _Witnesses:
    """Bounded witness list that keeps counting after the cap.  It also times
    the check, from its creation to its report."""

    def __init__(self):
        self.items: list[str] = []
        self.count = 0
        self.t0 = time.perf_counter()

    def add(self, text: str) -> None:
        self.count += 1
        if len(self.items) < _WITNESS_CAP:
            self.items.append(text)

    def report(self, claim, params, details) -> VerificationReport:
        """Close the list with an ``... and N more`` line and report."""
        if self.count > len(self.items):
            self.items.append(f"... and {self.count - len(self.items)} more")
        return VerificationReport(claim, params, self.count == 0, self.items, details,
                                  time.perf_counter() - self.t0)


def _random_word(rng: random.Random, max_len: int, alphabet: str = "01") -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def _sampled(claim, params, samples, seed, sample, details=None) -> VerificationReport:
    """Run ``sample(rng, wit, i)`` for i < ``samples`` on one rng seeded with
    ``seed``, then report; ``seed`` is the last param, and the details default
    to the sample count."""
    _bounded("samples", samples)
    wit = _Witnesses()
    rng = random.Random(seed)
    for i in range(samples):
        sample(rng, wit, i)
    if details is None:
        details = {"checked_samples": samples}
    return wit.report(claim, {**params, "seed": seed}, details)


def check_metric(gamma=1, theta=1, samples=1000, max_len=12, seed=DEFAULT_SEED):
    """Identity of indiscernibles, symmetry, triangle inequality, and the
    context/reversal invariances, on seeded random words."""
    w = Weights(gamma, theta)

    def sample(rng, wit, _):
        u = _random_word(rng, max_len)
        v = _random_word(rng, max_len)
        x = _random_word(rng, max_len)
        uu, uv, vu = lev(u, u, w), lev(u, v, w), lev(v, u, w)
        ux, vx = lev(u, x, w), lev(v, x, w)
        if uu != 0:
            wit.add(f"lev({u!r},{u!r}) = {uu} != 0")
        if u != v and uv <= 0:
            wit.add(f"lev({u!r},{v!r}) = {uv} not positive")
        if uv != vu:
            wit.add(f"asymmetry on ({u!r},{v!r})")
        if ux > uv + vx:
            wit.add(f"triangle fails: lev({u!r},{x!r})={ux} > {uv} + {vx}")
        # context invariance: lev(pxq, pyq) == lev(x, y)
        p = _random_word(rng, 4)
        q = _random_word(rng, 4)
        if lev(p + u + q, p + v + q, w) != uv:
            wit.add(f"context invariance fails on ({p!r},{u!r},{v!r},{q!r})")
        if lev(u[::-1], v[::-1], w) != uv:
            wit.add(f"reversal invariance fails on ({u!r},{v!r})")

    return _sampled("metric", {"gamma": w.gamma, "theta": w.theta, "samples": samples,
                               "max_len": _bounded("max_len", max_len)}, samples, seed, sample)


def check_bounds(gamma=1, theta=1, samples=1000, max_len=12, seed=DEFAULT_SEED):
    """Upper bound, indel lower bound, and the exact characterisation of when
    the lower bound is attained (shorter word embeds as a subsequence)."""
    w = Weights(gamma, theta)

    def sample(rng, wit, _):
        u = _random_word(rng, max_len)
        v = _random_word(rng, max_len)
        d = lev(u, v, w)
        lo, hi = sorted((len(u), len(v)))
        upper = (w.theta - w.gamma) * lo + w.gamma * hi
        if d > upper:
            wit.add(f"upper bound fails: lev({u!r},{v!r})={d} > {upper}")
        lower = w.gamma * (hi - lo)
        if d < lower:
            wit.add(f"lower bound fails: lev({u!r},{v!r})={d} < {lower}")
        shorter, longer = (u, v) if len(u) <= len(v) else (v, u)
        if (d == lower) != is_subsequence(shorter, longer):
            wit.add(
                f"equality characterisation fails on ({u!r},{v!r}): "
                f"lev={d}, bound={lower}, subsequence={is_subsequence(shorter, longer)}"
            )

    return _sampled("bounds", {"gamma": w.gamma, "theta": w.theta, "samples": samples,
                               "max_len": _bounded("max_len", max_len)}, samples, seed, sample)


def check_homothety(samples=500, max_len=12, seed=DEFAULT_SEED):
    """Rescaling to unit indel weight multiplies every distance by the scale
    factor exactly, including weights where substitution exceeds two indels."""
    details = {"cases_with_ratio_above_two": 0}

    def sample(rng, wit, i):
        gamma = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if i % 3 == 0:
            theta = gamma * Fraction(rng.randint(13, 40), 6)  # ratio above 2
        else:
            theta = gamma * Fraction(rng.randint(1, 12), 6)
        w = Weights(gamma, theta)
        nw = normalize(w)
        if theta / gamma > 2:
            details["cases_with_ratio_above_two"] += 1
        u = _random_word(rng, max_len)
        v = _random_word(rng, max_len)
        lhs = lev(u, v, w)
        rhs = nw.scale * lev(u, v, Weights(1, nw.theta_prime))
        if lhs != rhs:
            wit.add(
                f"lev({u!r},{v!r},{gamma},{theta}) = {lhs} != "
                f"{nw.scale} * lev_(1,{nw.theta_prime}) = {rhs}"
            )

    return _sampled("homothety", {"samples": samples, "max_len": _bounded("max_len", max_len)},
                    samples, seed, sample, details)


def check_prop3(count=20, max_size=12, seed=DEFAULT_SEED):
    """One-symbol languages have isometry group of order 1 or 2; arithmetic
    progressions of two or more lengths realise exactly 2."""
    _bounded("count", count)
    _bounded("max_size", max_size, 1, PROP3_LENGTHS)
    wit = _Witnesses()
    rng = random.Random(seed)
    orders = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        lengths = rng.sample(range(PROP3_LENGTHS), size)
        lang = unary_language(lengths)
        order = isometries(distance_matrix(lang)).order()
        orders.append(order)
        if order not in (1, 2):
            wit.add(f"lengths {sorted(lengths)} give group order {order}")
    for size in range(2, 7):
        start = rng.randint(0, 5)
        step = rng.randint(1, 4)
        lengths = [start + step * i for i in range(size)]
        lang = unary_language(lengths)
        order = isometries(distance_matrix(lang)).order()
        if order != 2:
            wit.add(f"arithmetic progression {lengths} gives order {order}, wanted 2")
    return wit.report("prop3", {"count": count, "max_size": max_size, "seed": seed},
                      {"random_orders": orders})


def check_prop4(n_max=6):
    """At unit indel and double substitution weight, the runs language is the
    integer interval [-n, n] with the line metric; the truncation keeps just
    the reflection."""
    wit = _Witnesses()
    lang = prop4_language(n_max)
    w = Weights(1, 2)
    matrix = distance_matrix(lang, w)

    def line_pos(word: str) -> int:
        if not word:
            return 0
        return len(word) if word[0] == "0" else -len(word)

    for i in range(len(lang)):
        for j in range(i + 1, len(lang)):
            expect = Rat(abs(line_pos(lang[i]) - line_pos(lang[j])))
            if matrix.entry(i, j) != expect:
                wit.add(
                    f"lev_2({lang[i]!r},{lang[j]!r}) = {matrix.entry(i, j)}, wanted {expect}"
                )
    group = isometries(matrix)
    if group.order() != 2:
        wit.add(f"truncation group order {group.order()}, wanted 2")
    return wit.report("prop4", {"n_max": n_max},
                      {"words": len(lang), "group_order": str(group.order())})


def check_theorem1(lang: Language, gamma=1, theta=1):
    """Orbit length audit for the isometry group of the given language.

    Raises HypothesisViolated when substitution is not strictly cheaper than
    two indels (the excluded regime).
    """
    wit = _Witnesses()
    w = Weights(gamma, theta)
    bound_check = _require_hypothesis(w)
    group = isometries(distance_matrix(lang, w))
    report = theorem1_audit(lang, group, w)
    for shortest, longest, spread in report.witnesses:
        wit.add(f"orbit spread {spread} > bound {report.bound}: {shortest!r} ~ {longest!r}")
    return wit.report(
        "theorem1",
        {"gamma": w.gamma, "theta": w.theta, "words": len(lang)},
        {
            "bound": report.bound,
            "theta_prime": bound_check.theta_prime,
            "group_order": str(group.order()),
            "orbit_sizes": list(group.orbits().sizes()),
        },
    )


def check_lemma3(samples=200, theta=1, max_len=5, seed=DEFAULT_SEED):
    """Stretching both words with an a^k b a^k pattern, k above their Hamming
    distance, is claimed to make the edit distance equal that Hamming
    distance; checked literally at the given substitution weight."""
    th = Weights(1, theta)

    def sample(rng, wit, _):
        length = rng.randint(1, max_len)
        w1 = "".join(rng.choice("01") for _ in range(length))
        w2 = "".join(rng.choice("01") for _ in range(length))
        a = rng.choice("01")
        b = "1" if a == "0" else "0"
        h = hamming(w1, w2)
        k = h + rng.randint(1, 3)
        pattern = a * k + b + a * k
        got = lev(stretch(w1, pattern), stretch(w2, pattern), th)
        if got != h:
            wit.add(
                f"w1={w1!r} w2={w2!r} k={k} theta={th.theta}: "
                f"stretched distance {got}, hamming {h}"
            )

    return _sampled("lemma3", {"samples": samples, "theta": th.theta,
                               "max_len": _bounded("max_len", max_len, 1)}, samples, seed, sample)


def check_lemma4(graph_name: Optional[str] = None):
    """Incidence encodings of cubic graphs put adjacent vertices at Hamming
    distance 4 and non-adjacent ones at 6."""
    wit = _Witnesses()
    entries = catalog() if graph_name is None else [catalog_entry(graph_name)]
    for entry in entries:
        g = entry.graph
        enc = encode_cubic_graph(g)
        for i in range(g.n):
            if len(enc[i]) != g.edge_count or enc[i].count("1") != 3:
                wit.add(f"{entry.name}: bad incidence word for vertex {i}")
            for j in range(i + 1, g.n):
                expect = _adjacency(g)(i, j)
                got = hamming(enc[i], enc[j])
                if got != expect:
                    wit.add(f"{entry.name}: h(w{i}, w{j}) = {got}, wanted {expect}")
    return wit.report("lemma4", {"graphs": [entry.name for entry in entries]}, {})


def _adjacency(graph: SimpleGraph):
    """Within-layer rule of a stretched incidence block: 4 or 6 by adjacency."""
    return lambda i, j: 4 if graph.has_edge(i, j) else 6


def _check_layered(claim, params, wit: _Witnesses, lang: Language, theta, within,
                   extra=None, order=None, orbits=None, sizes=None,
                   lengths=None) -> VerificationReport:
    """Check a layered construction at weights (1, ``theta``) against the rule
    all its claims share; ``theta`` is recorded as the last param.

    The words are grouped into layers by length.  Their word counts and word
    lengths are compared with ``sizes`` and ``lengths`` when given.  Every
    pair a < b is checked: within layer L its distance is ``within[L](i, j)``
    at the two words' positions i < j in that layer, and across layers it is
    the length gap.  Every within-layer distance must lie below every
    cross-layer one.  Then the isometry group's order and sorted orbit sizes
    are compared with ``order`` and ``orbits`` when given, and
    ``extra(matrix, layers, group, wit, details)``, if given, adds the
    claim's own checks and details.
    """
    th = Weights(1, theta)
    matrix = distance_matrix(lang, th)
    layer_lengths = sorted(set(lang.lengths()))
    layers = [[a for a, word in enumerate(lang) if len(word) == n] for n in layer_lengths]
    layer_sizes = [len(layer) for layer in layers]
    if sizes is not None and layer_sizes != sizes:
        wit.add(f"layer sizes {layer_sizes}, wanted {sizes}")
    if lengths is not None and layer_lengths != lengths:
        wit.add(f"layer lengths {layer_lengths}, wanted {lengths}")
    place = {a: (la, i) for la, layer in enumerate(layers) for i, a in enumerate(layer)}
    # Entries compare as integers over den; only a witness's text builds Fractions.
    den = matrix.den
    within_max, cross_min = 0, None
    for a, row in enumerate(matrix.rows):
        la, i = place[a]
        for b in range(a + 1, len(lang)):
            lb, j = place[b]
            got = row[b]
            if la == lb:
                expect = within[la](i, j)
                within_max = max(within_max, got)
            else:
                expect = abs(len(lang[a]) - len(lang[b]))
                cross_min = got if cross_min is None else min(cross_min, got)
            if got != expect * den:
                wit.add(f"lev(#{a}, #{b}) = {Rat(got, den)}, wanted {Rat(expect)}")
    if cross_min is not None and within_max >= cross_min:
        wit.add(f"layer separation fails: max within {Rat(within_max, den)} "
                f">= min cross {Rat(cross_min, den)}")
    group = isometries(matrix)
    orbit_sizes = sorted(group.orbits().sizes())
    if order is not None and group.order() != order:
        wit.add(f"group order {group.order()}, wanted {order}")
    if orbits is not None and orbit_sizes != sorted(orbits):
        wit.add(f"orbit sizes {orbit_sizes}, wanted {sorted(orbits)}")
    details = {"words": len(lang)}
    if extra is not None:
        extra(matrix, layers, group, wit, details)
    details["group_order"] = str(group.order())
    if orbits is not None:
        details["orbit_sizes"] = orbit_sizes
    return wit.report(claim, {**params, "theta": th.theta}, details)


def check_theorem2(graph_name: str = "k4", theta=1):
    """The stretched incidence language of a cubic graph has distances 4/6
    mirroring adjacency and its isometry group is the automorphism group of
    the graph, acting by the same vertex indices."""
    wit = _Witnesses()
    entry = catalog_entry(graph_name)
    g = entry.graph
    lang = theorem2_language(g)

    def extra(matrix, layers, group, wit, details):
        auts = graph_automorphisms(g)
        if auts.order() != entry.aut_order:
            wit.add(f"graph automorphism order {auts.order()} != catalog {entry.aut_order}")
        if not same_group(group, auts):
            wit.add("isometry group differs from transported automorphism group")
        details["word_length"] = 16 * g.edge_count

    return _check_layered("theorem2", {"graph": entry.name}, wit, lang, theta,
                          [_adjacency(g)], extra, order=entry.aut_order,
                          lengths=[16 * g.edge_count])


def check_theorem3(graphs: Sequence[SimpleGraph], depth: Optional[int] = None, theta=1):
    """Layered union over a graph sequence: cross-layer distances equal the
    length difference, the group is the direct product of the per-graph
    automorphism groups (with their orbits), and growth stays below
    1 + n/24."""
    wit = _Witnesses()
    if depth is None:
        depth = len(graphs)
    lang = theorem3_language(list(graphs), depth)
    auts = [graph_automorphisms(g) for g in graphs[:depth]]

    def extra(matrix, layers, group, wit, details):
        for bound_n in range(max(lang.lengths()) + 1):
            if growth(lang, bound_n) > 1 + Fraction(bound_n, 24):
                wit.add(f"growth({bound_n}) = {growth(lang, bound_n)} exceeds 1 + {bound_n}/24")
                break
        details["layer_lengths"] = [len(lang[layer[0]]) for layer in layers[1:]]

    # layer 0 is the empty word alone, so its rule is never asked for
    return _check_layered(
        "theorem3", {"layers": depth}, wit, lang, theta,
        [None] + [_adjacency(g) for g in graphs[:depth]], extra,
        order=prod(a.order() for a in auts),
        orbits=[1] + [size for a in auts for size in a.orbits().sizes()],
    )


def check_theorem4(k=2, depth=1, theta=1):
    """Layered all-words construction: layer distances are the Hamming
    distances of the underlying words, and the first layer's group order is
    compared against the two candidate product formulas; the check demands
    that one reading matches (they coincide for k=2)."""
    wit = _Witnesses()
    lang = theorem4_language(k, depth)
    within = [None]  # layer 0 is the empty word alone
    for level in range(1, depth + 1):
        words = ["".join(w) for w in product(map(str, range(k)), repeat=k**level)]
        within.append(lambda i, j, words=words: hamming(words[i], words[j]))

    def extra(matrix, layers, group, wit, details):
        layer_orders = [isometries(matrix.submatrix(layer)).order() for layer in layers[1:]]
        readings = {"statement": factorial(k) ** k * factorial(k),
                    "proof": factorial(k) ** k * factorial(2)}
        # the readings differ for k > 2, so at most one of them can match
        matched = sorted(name for name, value in readings.items() if value == layer_orders[0])
        if not matched:
            wit.add(f"layer-1 group order {layer_orders[0]} matches neither reading "
                    f"(statement {readings['statement']}, proof {readings['proof']})")
        if group.order() != prod(layer_orders):
            wit.add(f"full group order {group.order()}, "
                    f"product of layer orders {prod(layer_orders)}")
        measured = [len(lang[layer[0]]) for layer in layers[1:]]
        closed_form = [sum(2 * k**lv * (k ** (lv + 1) + 2) for lv in range(1, level + 1))
                       for level in range(1, depth + 1)]
        details.update(measured_layer_lengths=measured, closed_form_layer_lengths=closed_form,
                       closed_form_matches=measured == closed_form,
                       layer1_group_order=str(layer_orders[0]), matched_reading=matched)

    return _check_layered("theorem4", {"k": k, "depth": depth}, wit, lang, theta, within,
                          extra, sizes=[1] + [k ** (k**level) for level in range(1, depth + 1)])


def check_theorem5(g1: SimpleGraph, g2: SimpleGraph, depth=1, theta=1):
    """One stretched incidence block plus a starred second block: star layers
    are metrically parallel (cross distance 2m|p-q|), and the group is the
    product of the first block's group with depth+1 copies of the second's,
    with their orbits."""
    wit = _Witnesses()
    lang = theorem5_language(g1, g2, depth)
    aut1, aut2 = graph_automorphisms(g1), graph_automorphisms(g2)

    def extra(matrix, layers, group, wit, details):
        details["block_lengths"] = [16 * g1.edge_count, 16 * g2.edge_count]

    return _check_layered(
        "theorem5", {"depth": depth}, wit, lang, theta,
        [_adjacency(g1)] + [_adjacency(g2)] * (depth + 1), extra,
        order=aut1.order() * aut2.order() ** (depth + 1),
        orbits=list(aut1.orbits().sizes()) + list(aut2.orbits().sizes()) * (depth + 1),
    )


def check_lemma5(base: Optional[Language] = None, depth=2, theta=1):
    """Starred copies of a uniform-length block: within-layer distances match
    the base language and cross-layer distances are 2n|p-q|.  The order claim
    |Isom(base)|^(depth+1) is checked literally; the finite truncation also
    admits the layer-order reversal, which this check will report."""
    wit = _Witnesses()
    if base is None:
        base = Language(["00", "11"])
    lang = lemma5_language(base, depth)
    base_matrix = distance_matrix(base, Weights(1, theta))
    size = len(base)

    def extra(matrix, layers, group, wit, details):
        base_group = isometries(base_matrix)
        # every product of per-layer isometries embeds
        for gen, p in product(base_group.generators, range(depth + 1)):
            images = list(range(len(lang)))
            images[p * size:(p + 1) * size] = [p * size + gen(i) for i in range(size)]
            if not group.contains(Permutation(images)):
                wit.add(f"layer-{p} copy of base generator {gen!r} is not an isometry")
        expected = base_group.order() ** (depth + 1)
        if group.order() != expected:
            wit.add(
                f"group order {group.order()}, wanted {expected} "
                f"(ratio {Fraction(group.order(), expected)})"
            )
        details["base_group_order"] = str(base_group.order())

    return _check_layered(
        "lemma5", {"base_words": len(base), "depth": depth}, wit, lang, theta,
        [base_matrix.entry] * (depth + 1), extra,
    )


def check_theorem6(layers=3, theta=1):
    """Single-110-block language in 6-symbol layers: layer i holds 2i words,
    the claimed distance formula max(length gap, 2) is checked literally, and
    the group is the product of the full symmetric groups on the layers."""
    wit = _Witnesses()
    lang = theorem6_language(layers)
    return _check_layered(
        "theorem6", {"layers": layers}, wit, lang, theta,
        [lambda i, j: 2] * layers,
        order=prod(factorial(2 * i) for i in range(1, layers + 1)),
        orbits=[2 * i for i in range(1, layers + 1)],
        sizes=[2 * i for i in range(1, layers + 1)],
        lengths=[6 * i for i in range(1, layers + 1)],
    )
