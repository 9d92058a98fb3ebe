"""Generators for language families with prescribed isometry groups, plus a
small catalog of cubic graphs with known automorphism group orders.

The infinite families are materialised as finite truncations: callers pick a
layer depth, and all group-theoretic claims are made for the truncation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

from .langlib import Language, stretch


class NotCubic(ValueError):
    """The construction needs every vertex to have degree exactly 3."""


class DepthExceedsGraphs(ValueError):
    """More layers requested than graphs supplied."""


class ParametersTooLarge(ValueError):
    """The requested truncation would not fit desk scale."""


class NonUniformLength(ValueError):
    """The star-padding construction needs words of one common length."""


class GraphFormatError(ValueError):
    """Malformed graph file."""


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1 with canonical sorted edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    # Every edge in both orientations, so that has_edge needs no min/max.
    _adjacent: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prev = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n} vertices")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be strictly sorted pairs; use from_edges")
            prev = (u, v)
        adjacent = frozenset(self.edges).union((v, u) for u, v in self.edges)
        object.__setattr__(self, "_adjacent", adjacent)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        canon = []
        seen = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            e = (min(a, b), max(a, b))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        return cls(n, tuple(sorted(canon)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(d == 3 for d in self.degrees())

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self._adjacent


def _require_cubic(graph: SimpleGraph) -> None:
    if not graph.is_cubic():
        raise NotCubic(f"graph has degree sequence {sorted(graph.degrees())}")


def parse_graph(text: str) -> SimpleGraph:
    """Parse the edge-list format: ``c`` comments, one ``p <n> <m>`` header,
    then m lines ``e <u> <v>`` with 1-indexed vertices."""
    n = m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: second header line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative counts")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= a <= n and 1 <= b <= n):
                raise GraphFormatError(f"line {lineno}: vertex out of range")
            if a == b:
                raise GraphFormatError(f"line {lineno}: loop at vertex {a}")
            e = (min(a, b) - 1, max(a, b) - 1)
            if e in seen:
                raise GraphFormatError(f"line {lineno}: duplicate edge")
            seen.add(e)
            edges.append(e)
        else:
            raise GraphFormatError(f"line {lineno}: unknown line {line!r}")
    if n is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise GraphFormatError(f"header claims {m} edges, file has {len(edges)}")
    return SimpleGraph.from_edges(n, edges)


def load_graph(path) -> SimpleGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class GraphCatalogEntry:
    name: str
    graph: SimpleGraph
    aut_order: int


_CATALOG_NAMES = (("k4", 24), ("k33", 72), ("petersen", 120), ("frucht", 1))


@cache
def catalog() -> tuple[GraphCatalogEntry, ...]:
    """Bundled cubic graphs with known automorphism group orders, read once."""
    entries = []
    for name, order in _CATALOG_NAMES:
        text = resources.files("isolev").joinpath(f"data/{name}.dimacs").read_text("utf-8")
        entries.append(GraphCatalogEntry(name, parse_graph(text), order))
    return tuple(entries)


def catalog_entry(name: str) -> GraphCatalogEntry:
    """The catalog entry called ``name``, in any letter case."""
    wanted = name.lower()
    for entry in catalog():
        if entry.name == wanted:
            return entry
    raise ValueError(f"unknown cubic catalog graph {name!r}")


def catalog_graph(name: str) -> SimpleGraph:
    return catalog_entry(name).graph


# Pattern used to stretch incidence words: 7 > 6, the largest Hamming
# distance between incidence rows, so stretching preserves those distances.
_INCIDENCE_PAD = "1" * 7 + "0" + "1" * 7


def encode_cubic_graph(graph: SimpleGraph) -> Language:
    """One incidence word per vertex over the canonical edge order: '1' at
    position j iff the vertex lies on edge j.  Adjacent vertices end up at
    Hamming distance 4, non-adjacent ones at 6."""
    _require_cubic(graph)
    words = []
    for v in range(graph.n):
        words.append("".join("1" if v in e else "0" for e in graph.edges))
    return Language(words)


def theorem2_language(graph: SimpleGraph) -> Language:
    """Stretched incidence words: length 16|E| = 24|V|, pairwise distances in
    {4, 6} mirroring adjacency, so the isometry group is the graph's
    automorphism group acting on vertex indices."""
    return Language(stretch(w, _INCIDENCE_PAD) for w in encode_cubic_graph(graph))


def _bounded(name: str, value: int, least: int = 0, greatest: int | None = None) -> int:
    """``value``, an int (not a bool) from ``least`` to ``greatest``;
    otherwise a ValueError that names it ``name``."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < least
            or greatest is not None and value > greatest):
        bound = f"at least {least}" if greatest is None else f"between {least} and {greatest}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


def _layered(layers: Iterable[Sequence[str]], prefix) -> Language:
    """The empty word, then each layer's words behind ``prefix(n)``, where n
    is the length of the previous layer's words (all of one length)."""
    words = [""]
    for layer in layers:
        head = prefix(len(words[-1]))
        words.extend(head + w for w in layer)
    return Language(words)


def theorem3_language(graphs: Sequence[SimpleGraph], depth: int) -> Language:
    """Layered union: the empty word, then per graph its stretched incidence
    language behind an alternating prefix long enough that any shorter layer
    embeds into the prefix as a subsequence."""
    _bounded("depth", depth, 1)
    if depth > len(graphs):
        raise DepthExceedsGraphs(f"depth {depth} but only {len(graphs)} graphs")
    return _layered(map(theorem2_language, graphs[:depth]), lambda n: "01" * (n + 7))


# Deepest layer per alphabet size k that theorem4 builds.  Layer n holds
# k^(k^n) words: 19 711 for k = 3 at depth 2, too many for a distance matrix.
_LAYER_CAP = {2: 3, 3: 1, 4: 1}


def theorem4_language(k: int, depth: int) -> Language:
    """Layered union over a k-letter digit alphabet: layer n holds every word
    of length k^n, stretched so that distances become Hamming distances, behind
    a cyclic prefix covering all shorter layers."""
    _bounded("depth", depth, 1)
    cap = _LAYER_CAP.get(k)
    if cap is None:
        raise ParametersTooLarge(f"alphabet size must be one of {sorted(_LAYER_CAP)}, got {k}")
    if depth > cap:
        raise ParametersTooLarge(f"depth {depth} too deep for k={k} (cap {cap})")
    alphabet = "".join(map(str, range(k)))
    layers = []
    for level in range(1, depth + 1):
        tail = "0" * (k ** (level + 1))
        pad = tail + "1" + tail
        layers.append([stretch("".join(w), pad) for w in product(alphabet, repeat=k**level)])
    return _layered(layers, lambda n: alphabet * n)


def theorem5_language(g1: SimpleGraph, g2: SimpleGraph, depth: int) -> Language:
    """Union of one stretched incidence language with lemma5's starring of
    another behind a gate: the second block repeats with growing alternating
    tails, giving depth+1 metrically identical layers."""
    _bounded("depth", depth, 1)
    lang1 = theorem2_language(g1)
    lang2 = theorem2_language(g2)
    gate = "01" * (len(lang1[0]) + len(lang2[0]))
    words = list(lang1)
    words.extend(gate + w for w in lemma5_language(lang2, depth))
    return Language(words)


def lemma5_language(lang: Language, depth: int) -> Language:
    """Append alternating tails of 0, n, 2n, ... blocks to every word of a
    uniform-length binary language; each tail length forms one layer."""
    _bounded("depth", depth, 1)
    if len(lang) == 0:
        raise NonUniformLength("language must be non-empty")
    n = len(lang[0])
    if any(len(w) != n for w in lang):
        raise NonUniformLength(f"words must share one length, got {sorted(set(lang.lengths()))}")
    if n == 0:
        raise NonUniformLength("words must be non-empty")
    if not lang.alphabet <= {"0", "1"}:
        raise ValueError(f"words must be binary, alphabet is {sorted(lang.alphabet)}")
    words = []
    for p in range(depth + 1):
        tail = "01" * (n * p)
        words.extend(u + tail for u in lang)
    return Language(words)


def theorem6_language(layers: int) -> Language:
    """All words built from 010-blocks with a single 110-block, of length a
    multiple of 6: layer i has exactly 2i words of length 6i."""
    _bounded("layers", layers, 1)
    words = []
    for i in range(1, layers + 1):
        blocks = 2 * i - 1
        for a in range(blocks + 1):
            words.append("010" * a + "110" + "010" * (blocks - a))
    return Language(words)


def unary_language(lengths: Iterable[int]) -> Language:
    """Words a^n for the given distinct lengths, in ascending order."""
    ls = [_bounded("lengths", n) for n in lengths]
    if len(set(ls)) != len(ls):
        raise ValueError("lengths must be distinct")
    return Language("a" * n for n in sorted(ls))


def prop4_language(n_max: int) -> Language:
    """The empty word plus all runs 0^n and 1^n for 1 <= n <= n_max.

    Under gamma=1, theta=2 this realises the integer interval [-n_max, n_max]
    with its line metric.
    """
    _bounded("n_max", n_max, 1)
    words = [""]
    words.extend("0" * n for n in range(1, n_max + 1))
    words.extend("1" * n for n in range(1, n_max + 1))
    return Language(words)
