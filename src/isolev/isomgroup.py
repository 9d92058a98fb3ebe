"""Permutation groups with stabilizer chains, and complete isometry groups of
finite metric spaces via individualization-refinement search.

The solver refines ordered partitions of the points to equitable ones
(McKay & Piperno, *Practical Graph Isomorphism II*, 2014), individualizes
one point per level of a base, and searches the levels bottom up so that the
stabilizer below each level is known when the level is searched (Leon's
partition backtrack, 1991).  Candidates in a known orbit are skipped, and a
branch whose refinement differs from the first path's is pruned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .editdist import DistanceMatrix

BRUTE_MAX_DEGREE = 9

# Refinement nodes one isometry search may visit before giving up.
SEARCH_NODE_CAP = 200_000


class DegreeTooLarge(ValueError):
    """Brute-force enumeration refused above degree 9."""


class DegreeMismatch(ValueError):
    """Operands act on different point sets."""


class GroupTooLarge(ValueError):
    """The isometry search would exceed its node cap."""


class Permutation:
    """Bijection of 0..n-1.  ``p * q`` applies p first, then q."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs}")
        self.images = imgs

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images already known to form a permutation, without validation."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._unchecked(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree}")
        return Permutation._unchecked(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._unchecked(tuple(inv))

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
    """One level of a stabilizer chain.  ``schreier`` is the Schreier vector
    of the base's orbit under the generators at this level and below: the
    base maps to None, each other point to (parent, generator).  ``inverses``
    keeps each inverse that a sift multiplied out until the vector is rebuilt."""

    __slots__ = ("base", "introduced", "schreier", "inverses")

    def __init__(self, base: int):
        self.base = base
        self.introduced: list[Permutation] = []
        self.schreier: dict[int, Optional[tuple[int, Permutation]]] = {}
        self.inverses: dict[int, Permutation] = {}

    def rebuild(self, movers: dict[int, list[Permutation]]) -> None:
        self.schreier = _orbit({self.base: None}, movers, [self.base])
        self.inverses = {}

    def inverse_at(self, point: int) -> Permutation:
        """Inverse of the tree's path from the base to point (not the base)."""
        path = []
        while point not in self.inverses and point != self.base:
            path.append(point)
            point = self.schreier[point][0]
        inv = self.inverses.get(point)
        for point in reversed(path):
            step = self.schreier[point][1].inverse()
            inv = self.inverses[point] = step if inv is None else step * inv
        return inv


def _gens_from(levels: list[_ChainLevel], start: int) -> list[Permutation]:
    return [g for lvl in levels[start:] for g in lvl.introduced]


def _movers(movers: dict[int, list[Permutation]], gens: Iterable[Permutation]) -> dict:
    """File each generator, in order, under every point it moves."""
    for g in gens:
        for p, q in enumerate(g.images):
            if p != q:
                movers.setdefault(p, []).append(g)
    return movers


def _orbit(vector: dict, movers: dict[int, list[Permutation]], queue: list[int]) -> dict:
    """Grow a Schreier vector breadth first from queued points it holds; a new
    point maps to (parent, generator) and joins the queue.  From each point it
    follows the generators filed under it: its movers, or any superset."""
    for point in queue:
        for g in movers.get(point, ()):
            image = g.images[point]
            if image not in vector:
                vector[image] = (point, g)
                queue.append(image)
    return vector


def _sift(levels: list[_ChainLevel], p: Permutation) -> tuple[Permutation, int]:
    """Reduce p by transversal elements; (residue, level where reduction stopped)."""
    for i, lvl in enumerate(levels):
        target = p(lvl.base)
        if target == lvl.base:
            continue
        if target not in lvl.schreier:
            return p, i
        p = p * lvl.inverse_at(target)
    return p, len(levels)


def _place(levels: list[_ChainLevel], p: Permutation, degree: int) -> None:
    """Sift p into the chain.  A non-identity residue joins the level where
    the sift stopped, or a new level at its smallest moved point, and the
    orbits of levels 0..at are rebuilt over their generators in chain order."""
    residue, at = _sift(levels, p)
    if residue.is_identity():
        return
    if at == len(levels):
        base = min(k for k in range(degree) if residue(k) != k)
        levels.append(_ChainLevel(base))
    levels[at].introduced.append(residue)
    # Only the orbits of levels 0..at use generators introduced at `at`.
    for i in range(at + 1):
        levels[i].rebuild(_movers({}, _gens_from(levels, i)))


class PermutationGroup:
    """Permutation group on 0..degree-1, held as the complete stabilizer
    chain that its builder grew; the generators are the chain's strong
    generators."""

    def __init__(self, degree: int, chain: list[_ChainLevel]):
        self.degree = degree
        self.generators = tuple(_gens_from(chain, 0))
        self._chain = chain

    def order(self) -> int:
        result = 1
        for lvl in self._chain:
            result *= len(lvl.schreier)
        return result

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(f"permutation degree {p.degree}, group degree {self.degree}")
        residue, _ = _sift(self._chain, p)
        return residue.is_identity()

    def orbits(self) -> OrbitPartition:
        # One pass over every generator at each point; an index of movers costs more.
        movers = dict.fromkeys(range(self.degree), self.generators)
        vector, blocks = {}, []
        for start in range(self.degree):
            if start not in vector:
                vector[start] = None
                orbit = [start]
                _orbit(vector, movers, orbit)  # leaves the orbit's points in its queue
                blocks.append(tuple(sorted(orbit)))
        return OrbitPartition(tuple(blocks))

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, generators={len(self.generators)})"


def same_group(g: PermutationGroup, h: PermutationGroup) -> bool:
    """Equality as permutation groups: mutual containment of generators."""
    if g.degree != h.degree:
        raise DegreeMismatch(f"degrees {g.degree} and {h.degree}")
    return all(h.contains(x) for x in g.generators) and all(
        g.contains(x) for x in h.generators
    )


def _open_cells(size: list[int]) -> Iterator[int]:
    """The start of each cell of two or more points, in order."""
    s = 0
    while s < len(size):
        if size[s] > 1:
            yield s
        s += size[s]


def _refine(
    rows: Sequence[Sequence[int]],
    lab: list[int],
    size: list[int],
    splitters: list[int],
    ref: Optional[list] = None,
) -> Optional[list]:
    """Refine an ordered partition in place until it is equitable.

    ``lab`` lists the points cell by cell.  A cell is named by the position
    of its first point in ``lab``, and ``size[s]`` is the length of the cell
    at s.  A splitter cell W splits every cell by the sorted row entries
    from each of its points to W; the pieces take the cell's place in sorted
    key order.  A singleton splitter's keys are its row's entries, read for
    all of ``lab`` in one pass; a larger splitter's are read per open cell
    through one ``itemgetter`` of its members.  A split cell that was waiting
    to split others leaves every piece waiting, otherwise all but its first
    largest piece, whose effect follows from the others (Hopcroft).  Every
    split is recorded in the returned trace as (cell, ((key, piece length),
    ...)).  Given ``ref``, the trace of the node on the first path at the
    same level, the refinement stops and returns None at its first
    departure from ``ref``.
    """
    n = len(lab)
    queue = deque(splitters)
    queued = [False] * n
    for s in splitters:
        queued[s] = True
    open_cells = list(_open_cells(size))
    trace: list = []
    while queue and open_cells:
        w = queue.popleft()
        queued[w] = False
        if size[w] == 1:
            # Every key of the pass at once: a cell's segment of lab is
            # rewritten only after its keys are read.
            every = list(map(rows[lab[w]].__getitem__, lab))
        else:
            every = None
            get = itemgetter(*lab[w : w + size[w]])  # a tuple: the splitter has 2+ members
        still_open = []
        for s in open_cells:
            end = s + size[s]
            if every is None:
                keys = [tuple(sorted(get(rows[x]))) for x in lab[s:end]]
            else:
                keys = every[s:end]
            if keys.count(keys[0]) == len(keys):
                still_open.append(s)
                continue
            points = lab[s:end]
            pieces: dict = {}
            for x, k in zip(points, keys):
                pieces.setdefault(k, []).append(x)
            order = sorted(pieces)
            lens = [len(pieces[k]) for k in order]
            entry = (s, tuple(zip(order, lens)))
            if ref is not None and (len(trace) == len(ref) or ref[len(trace)] != entry):
                return None
            trace.append(entry)
            largest = -1 if queued[s] else lens.index(max(lens))
            pos = s
            for i, k in enumerate(order):
                m = lens[i]
                lab[pos : pos + m] = pieces[k]
                size[pos] = m
                if m > 1:
                    still_open.append(pos)
                if i != largest and not queued[pos]:
                    queued[pos] = True
                    queue.append(pos)
                pos += m
        open_cells = still_open
    if ref is not None and len(trace) != len(ref):
        return None
    return trace


def _root_partition(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The equitable refinement of the one-cell partition: (lab, size)."""
    n = len(rows)
    lab = list(range(n))
    size = [n] + [0] * (n - 1)
    _refine(rows, lab, size, [0])
    return lab, size


def _individualize(
    lab: list[int], size: list[int], s: int, v: int
) -> tuple[list[int], list[int]]:
    """A copy of the partition with point v split off to the front of cell s."""
    end = s + size[s]
    lab = lab.copy()
    size = size.copy()
    lab[s + 1 : end] = [x for x in lab[s:end] if x != v]
    lab[s] = v
    size[s] = 1
    size[s + 1] = end - s - 1
    return lab, size


def _twin_swap(rows: Sequence[Sequence[int]], a: int, b: int) -> Optional[Permutation]:
    """The transposition (a b), for a < b, when a and b are twins of the
    symmetric matrix: their rows agree at every position but a and b.  The
    search asks only for points of one cell of an equitable partition, whose
    rows hold the same multiset of entries, so their diagonal entries agree
    too and the swap preserves the matrix.  Three slice comparisons, O(n)."""
    ra, rb = rows[a], rows[b]
    if ra[:a] != rb[:a] or ra[a + 1 : b] != rb[a + 1 : b] or ra[b + 1 :] != rb[b + 1 :]:
        return None
    images = list(range(len(ra)))
    images[a], images[b] = b, a
    return Permutation._unchecked(tuple(images))


def isometries(matrix: DistanceMatrix) -> PermutationGroup:
    """The full group of index permutations preserving every matrix entry.

    The first path of the search tree individualizes the smallest point of
    the first non-singleton cell and refines, until the partition is
    discrete; the individualized points form the base.  Levels are searched
    from the deepest up.  At each level every candidate image of the base
    point in its cell is tried, unless the generators found so far already
    place it in the orbit of the base point or of a candidate refuted
    earlier.  A candidate's subtree is searched depth first, pruning every
    node whose refinement trace departs from the first path's, and a leaf
    yields the permutation carrying the first leaf onto it, emitted only if
    it preserves the whole matrix.  A candidate that is a twin of the base
    point (their rows agree off the two points) needs no search: swapping
    the two preserves the matrix and fixes the base points above, so the
    transposition is the generator.  Each chain level keeps the Schreier
    vector of its base point's orbit, so the search multiplies no
    permutations.  It visits at most ``SEARCH_NODE_CAP`` refinement nodes,
    else raises ``GroupTooLarge``; a twin's transposition visits none.
    """
    n, rows = matrix.n, matrix.rows
    if n <= 1:
        return PermutationGroup(n, [])
    visited = 0

    def refine(lab, size, s, ref=None):
        nonlocal visited
        visited += 1
        if visited > SEARCH_NODE_CAP:
            raise GroupTooLarge(
                f"isometry search visited {visited} nodes, over the cap of {SEARCH_NODE_CAP}"
            )
        return _refine(rows, lab, size, [s], ref)

    # path[i] is the first path's partition above level i, whose cell cells[i]
    # holds the base point bases[i]; traces[i] is the refinement that follows.
    lab, size = _root_partition(rows)
    path, cells, bases, traces = [], [], [], []
    s = next(_open_cells(size), None)
    while s is not None:
        v = min(lab[s : s + size[s]])
        path.append((lab, size))
        cells.append(s)
        bases.append(v)
        lab, size = _individualize(lab, size, s, v)
        traces.append(refine(lab, size, s))
        s = next(_open_cells(size), None)
    first_leaf = lab
    depth = len(bases)

    def leaf_isometry(leaf: list[int]) -> Optional[Permutation]:
        images = [0] * n
        for a, b in zip(first_leaf, leaf):
            images[a] = b
        # itemgetter returns a tuple (n >= 2); list rows compare as tuples too
        permuted = itemgetter(*images)
        for a in range(n):
            if permuted(rows[images[a]]) != tuple(rows[a]):
                return None
        return Permutation._unchecked(tuple(images))

    def find(level: int, c: int) -> Optional[Permutation]:
        """An isometry fixing bases[:level] that carries bases[level] to c."""
        lab, size = path[level]
        stack = [(level, lab, size, iter([c]))]
        while stack:
            lv, lab, size, candidates = stack[-1]
            x = next(candidates, None)
            if x is None:
                stack.pop()
                continue
            s = cells[lv]
            xlab, xsize = _individualize(lab, size, s, x)
            if refine(xlab, xsize, s, traces[lv]) is None:
                continue
            if lv + 1 == depth:
                g = leaf_isometry(xlab)
                if g is not None:
                    return g
                continue
            t = cells[lv + 1]
            stack.append((lv + 1, xlab, xsize, iter(xlab[t : t + xsize[t]])))
        return None

    # The generators found so far, filed by moved point; all fix the bases above the level.
    movers: dict[int, list[Permutation]] = {}
    levels: list[_ChainLevel] = []
    for level in reversed(range(depth)):
        lvl = _ChainLevel(bases[level])
        lab, size = path[level]
        s = cells[level]
        skip: dict = {lvl.base: None}  # orbits of the base and of refuted candidates
        for c in sorted(lab[s : s + size[s]]):
            if c in skip:
                continue
            g = _twin_swap(rows, lvl.base, c) or find(level, c)
            if g is None:
                skip[c] = None
                _orbit(skip, movers, [c])
            else:
                lvl.introduced.append(g)
                _orbit(skip, _movers(movers, [g]), [p for p in skip if g.images[p] != p])
        if lvl.introduced:
            lvl.rebuild(movers)
            levels.insert(0, lvl)
    return PermutationGroup(n, levels)


def isometries_brute(matrix: DistanceMatrix) -> PermutationGroup:
    """Oracle: test all n! permutations entry by entry and sift each
    preserving one into a stabilizer chain.  Every group element passes
    through the chain, so it is complete; the group carries it and its
    strong generators, at most n(n-1)/2 of them."""
    n, rows = matrix.n, matrix.rows
    if n > BRUTE_MAX_DEGREE:
        raise DegreeTooLarge(f"brute force supports at most {BRUTE_MAX_DEGREE} points, got {n}")
    levels: list[_ChainLevel] = []
    for images in _all_permutations(range(n)):
        ok = True
        for a in range(n):
            row = rows[a]
            irow = rows[images[a]]
            for b in range(a + 1, n):
                if row[b] != irow[images[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            _place(levels, Permutation._unchecked(images), n)
    return PermutationGroup(n, levels)


def graph_automorphisms(graph) -> PermutationGroup:
    """Automorphism group of a simple graph, via the two-coloured matrix
    (distance 1 on edges, 2 on non-edges), built a row at a time from the
    edge list."""
    n = graph.n
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for a, b in graph.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    rows = []
    for a, near in enumerate(neighbours):
        row = [2] * n
        for b in near:
            row[b] = 1
        row[a] = 0
        rows.append(tuple(row))
    labels = tuple(str(v) for v in range(n))
    return isometries(DistanceMatrix(labels, tuple(rows)))
