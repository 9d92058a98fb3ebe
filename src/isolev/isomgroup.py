"""Permutation groups with stabilizer chains, and complete isometry groups of
finite metric spaces via signature refinement plus backtracking search."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from typing import Iterable, Optional

from .editdist import DistanceMatrix, Rat

BRUTE_MAX_DEGREE = 9


class DegreeTooLarge(ValueError):
    """Brute-force enumeration refused above degree 9."""


class DegreeMismatch(ValueError):
    """Operands act on different point sets."""


class GroupTooLarge(ValueError):
    """Full element enumeration would exceed the requested cap."""


class Permutation:
    """Bijection of 0..n-1.  ``p * q`` applies p first, then q."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree}")
        o = other.images
        return Permutation(o[i] for i in self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            point = self.images[start]
            while point != start:
                cyc.append(point)
                seen.add(point)
                point = self.images[point]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation[{body}]"


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a group action, as sorted blocks ordered by smallest point."""

    blocks: tuple[tuple[int, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


class _ChainLevel:
    __slots__ = ("base", "introduced", "transversal")

    def __init__(self, base: int):
        self.base = base
        self.introduced: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}


def _gens_from(levels: list[_ChainLevel], start: int) -> list[Permutation]:
    return [g for lvl in levels[start:] for g in lvl.introduced]


def _recompute_transversal(levels: list[_ChainLevel], i: int, degree: int) -> None:
    lvl = levels[i]
    gens = _gens_from(levels, i)
    trans = {lvl.base: Permutation.identity(degree)}
    queue = [lvl.base]
    while queue:
        point = queue.pop(0)
        u = trans[point]
        for g in gens:
            npt = g(point)
            if npt not in trans:
                trans[npt] = u * g
                queue.append(npt)
    lvl.transversal = trans


def _sift(levels: list[_ChainLevel], p: Permutation) -> tuple[Permutation, int]:
    """Reduce p by transversal elements; (residue, level where reduction stopped)."""
    for i, lvl in enumerate(levels):
        target = p(lvl.base)
        if target == lvl.base:
            continue
        u = lvl.transversal.get(target)
        if u is None:
            return p, i
        p = p * u.inverse()
    return p, len(levels)


def _build_chain(degree: int, generators: Iterable[Permutation]) -> list[_ChainLevel]:
    """Deterministic Schreier-Sims with full re-verification after every
    addition; base points are the smallest moved points, in natural order."""
    levels: list[_ChainLevel] = []

    def place(p: Permutation) -> bool:
        residue, at = _sift(levels, p)
        if residue.is_identity():
            return False
        if at == len(levels):
            base = min(k for k in range(degree) if residue(k) != k)
            levels.append(_ChainLevel(base))
        levels[at].introduced.append(residue)
        for i in range(len(levels)):
            _recompute_transversal(levels, i, degree)
        return True

    for g in dict.fromkeys(generators):
        if not g.is_identity():
            place(g)

    grew = True
    while grew:
        grew = False
        for i in range(len(levels)):
            lvl = levels[i]
            gens_here = _gens_from(levels, i)
            for point in sorted(lvl.transversal):
                u = lvl.transversal[point]
                for g in gens_here:
                    s = u * g
                    schreier = s * lvl.transversal[s(lvl.base)].inverse()
                    if not schreier.is_identity() and place(schreier):
                        grew = True
                        break
                if grew:
                    break
            if grew:
                break
    return levels


class PermutationGroup:
    """Finitely generated permutation group on 0..degree-1.

    The stabilizer chain is built lazily and deterministically; building it
    twice yields the same chain, so concurrent readers are safe.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Permutation],
        _chain: Optional[list[_ChainLevel]] = None,
    ):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} in group of degree {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(dict.fromkeys(gens))
        self._chain = _chain

    def _ensure_chain(self) -> list[_ChainLevel]:
        if self._chain is None:
            self._chain = _build_chain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        result = 1
        for lvl in self._ensure_chain():
            result *= len(lvl.transversal)
        return result

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"permutation degree {p.degree}, group degree {self.degree}")
        residue, _ = _sift(self._ensure_chain(), p)
        return residue.is_identity()

    def orbits(self) -> OrbitPartition:
        seen = [False] * self.degree
        blocks = []
        for start in range(self.degree):
            if seen[start]:
                continue
            block = [start]
            seen[start] = True
            queue = [start]
            while queue:
                point = queue.pop(0)
                for g in self.generators:
                    npt = g(point)
                    if not seen[npt]:
                        seen[npt] = True
                        block.append(npt)
                        queue.append(npt)
            blocks.append(tuple(sorted(block)))
        return OrbitPartition(tuple(blocks))

    def elements(self, cap: int) -> list[Permutation]:
        """Every element, by breadth-first closure over the generators."""
        if cap < 1:
            raise ValueError("cap must be at least 1")
        ident = Permutation.identity(self.degree)
        found = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in self.generators:
                    q = p * g
                    if q not in found:
                        found.add(q)
                        if len(found) > cap:
                            raise GroupTooLarge(f"group exceeds cap {cap}")
                        nxt.append(q)
            frontier = nxt
        return sorted(found, key=lambda p: p.images)

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, generators={len(self.generators)})"


def same_group(g: PermutationGroup, h: PermutationGroup) -> bool:
    """Equality as permutation groups: mutual containment of generators."""
    if g.degree != h.degree:
        raise DegreeMismatch(f"degrees {g.degree} and {h.degree}")
    return all(h.contains(x) for x in g.generators) and all(
        g.contains(x) for x in h.generators
    )


def _color_matrix(matrix: DistanceMatrix) -> list[list[int]]:
    values = sorted({v for row in matrix.entries for v in row})
    code = {v: i for i, v in enumerate(values)}
    return [[code[v] for v in row] for row in matrix.entries]


def _refine_classes(colors: list[list[int]]) -> list[int]:
    """Iterate per-point signatures (own class, sorted multiset of
    (distance colour, partner class)) until the partition stabilises."""
    n = len(colors)
    cls = [0] * n
    while True:
        sigs = []
        for p in range(n):
            row = colors[p]
            partners = sorted((row[q], cls[q]) for q in range(n) if q != p)
            sigs.append((cls[p], tuple(partners)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == cls:
            return cls
        cls = new


def isometries(matrix: DistanceMatrix) -> PermutationGroup:
    """The full group of index permutations preserving every matrix entry.

    For each point i taken in natural order, a backtracking search finds one
    distance-preserving extension per candidate image of i that fixes
    0..i-1; the collected coset representatives generate the whole group and
    double as a ready-made stabilizer chain.
    """
    n = matrix.n
    if n <= 1:
        return PermutationGroup(n, [])
    colors = _color_matrix(matrix)
    cls = _refine_classes(colors)

    def search(start: int, image: int) -> Optional[Permutation]:
        img = list(range(start)) + [image]
        used = [False] * n
        for x in range(start):
            used[x] = True
        used[image] = True

        def extend(point: int) -> bool:
            if point == n:
                return True
            row = colors[point]
            want = cls[point]
            for cand in range(n):
                if used[cand] or cls[cand] != want:
                    continue
                crow = colors[cand]
                if all(row[x] == crow[img[x]] for x in range(point)):
                    img.append(cand)
                    used[cand] = True
                    if extend(point + 1):
                        return True
                    img.pop()
                    used[cand] = False
            return False

        return Permutation(img) if extend(start + 1) else None

    levels: list[_ChainLevel] = []
    for i in range(n):
        trans = {i: Permutation.identity(n)}
        row = colors[i]
        for j in range(i + 1, n):
            if cls[j] != cls[i]:
                continue
            if any(row[x] != colors[j][x] for x in range(i)):
                continue
            rep = search(i, j)
            if rep is not None:
                trans[j] = rep
        if len(trans) > 1:
            lvl = _ChainLevel(i)
            lvl.transversal = trans
            lvl.introduced = [trans[j] for j in sorted(trans) if j != i]
            levels.append(lvl)

    gens = [g for lvl in levels for g in lvl.introduced]
    for g in gens:
        for a in range(n):
            ga = g(a)
            if any(colors[a][b] != colors[ga][g(b)] for b in range(n)):
                raise RuntimeError("internal error: emitted permutation is not an isometry")
    return PermutationGroup(n, gens, _chain=levels)


def isometries_brute(matrix: DistanceMatrix) -> PermutationGroup:
    """Oracle: test all n! permutations, return every preserving one."""
    n = matrix.n
    if n > BRUTE_MAX_DEGREE:
        raise DegreeTooLarge(f"brute force is capped at degree {BRUTE_MAX_DEGREE}")
    if n == 0:
        return PermutationGroup(0, [])
    colors = _color_matrix(matrix)
    found = []
    for images in _all_permutations(range(n)):
        ok = True
        for a in range(n):
            row = colors[a]
            irow = colors[images[a]]
            for b in range(a + 1, n):
                if row[b] != irow[images[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(Permutation(images))
    return PermutationGroup(n, found)


def graph_automorphisms(graph) -> PermutationGroup:
    """Automorphism group of a simple graph, via the two-coloured matrix
    (distance 1 on edges, 2 on non-edges)."""
    n = graph.n
    if n <= 1:
        return PermutationGroup(n, [])
    adjacent = set(graph.edges)
    zero, one, two = Rat(0), Rat(1), Rat(2)
    rows = []
    for a in range(n):
        rows.append(
            tuple(
                zero if a == b else (one if (min(a, b), max(a, b)) in adjacent else two)
                for b in range(n)
            )
        )
    labels = tuple(str(v) for v in range(n))
    return isometries(DistanceMatrix(labels, tuple(rows)))
