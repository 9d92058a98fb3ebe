"""Exact generalized Levenshtein distances over rational weights.

Every distance charges ``gamma`` per insertion or deletion and ``theta`` per
substitution, and every value is an exact :class:`fractions.Fraction`.  No
floating point enters any computation: the weights are scaled to integers
once, every kernel and the distance matrix work on those integers, and
values become Fractions only when they are read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Union

Rat = Fraction
RatLike = Union[Rat, int, str]

ORACLE_MAX_LEN = 7

# P or P/Q with Q nonzero
_RAT_RE = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?")

# Longest block 2g (indel cost over the weights' gcd) run on expanded bit
# vectors; past it the row DP is faster on all but the longest words
# (crossover table in CHANGES.md).
_MAX_BLOCK = 16


class InputTooLong(ValueError):
    """A word is longer than the exhaustive oracle can afford."""


class LengthMismatch(ValueError):
    """Hamming distance needs equal-length words."""


class DuplicateWords(ValueError):
    """A language (or matrix labelling) contains a repeated word."""


def as_rat(value: RatLike) -> Rat:
    """Coerce ints, Fractions and ``P`` or ``P/Q`` strings (Q nonzero) to an
    exact rational."""
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations")
    if isinstance(value, str) and not _RAT_RE.fullmatch(value):
        raise ValueError(f"malformed rational {value!r}, expected P or P/Q")
    return Fraction(value)


@dataclass(frozen=True)
class Weights:
    """Positive rational edit costs: ``gamma`` per indel, ``theta`` per substitution."""

    gamma: Rat
    theta: Rat
    # Integer costs (g, t) and the common denominator they were scaled by.
    _scaled: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gamma, theta = as_rat(self.gamma), as_rat(self.theta)
        if gamma <= 0 or theta <= 0:
            raise ValueError(f"weights must be positive, got {gamma}, {theta}")
        den = math.lcm(gamma.denominator, theta.denominator)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "_scaled", (int(gamma * den), int(theta * den), den))


DEFAULT_WEIGHTS = Weights(1, 1)


@dataclass(frozen=True)
class NormalizedWeights:
    """Weights rescaled to unit indel cost, substitution capped at 2.

    ``scale * lev(u, v, Weights(1, theta_prime)) == lev(u, v, original)`` for
    all word pairs: substitutions costing more than two indels are never used
    by an optimal script, so ``theta_prime`` can be capped.
    """

    theta_prime: Rat
    scale: Rat


def normalize(w: Weights) -> NormalizedWeights:
    return NormalizedWeights(theta_prime=min(w.theta / w.gamma, Rat(2)), scale=w.gamma)


def _lev_ints_python(u: str, v: str, g: int, t: int) -> int:
    """Row DP on integer weights: the kernel past ``_MAX_BLOCK`` and the
    reference the bit-parallel kernel is tested against."""
    n = len(v)
    prev = [g * j for j in range(n + 1)]
    for i, cu in enumerate(u, 1):
        cur = [g * i]
        append = cur.append
        diag = prev[0]
        run = cur[0]
        for j, cv in enumerate(v, 1):
            up = prev[j]
            best = diag if cu == cv else diag + t
            alt = up + g
            if alt < best:
                best = alt
            alt = run + g
            if alt < best:
                best = alt
            append(best)
            run = best
            diag = up
        prev = cur
    return prev[n]


def _match_masks(p: str, width: int) -> dict[str, int]:
    """For each symbol of ``p``, one bit at the start of each ``width``-bit
    block whose position in ``p`` holds that symbol."""
    masks: dict[str, int] = {}
    bit = 1
    for c in p:
        masks[c] = masks.get(c, 0) | bit
        bit <<= width
    return masks


def _lcs_blocks(p: str, s: str, x: int, c: int) -> int:
    """Length of a longest common subsequence of B(p) and B(s), where B
    replaces each symbol a by the block ``#^x a^c`` and ``#`` is a symbol in
    neither word.  Bit-parallel over the blocks of ``p`` (Allison & Dix 1986,
    in Hyyrö's 2004 form); x = 0, c = 1 is the plain LCS.

    Bit i of ``v`` is zero where the LCS of the prefix of B(s) read so far
    grows between positions i and i+1 of B(p), so the zero bits count the
    LCS.  Only the match masks are expanded: each block bit of a symbol mask
    is spread over the block's last c bits, the separators of every block
    form one mask, and ``s`` is walked as x separator steps, then c steps
    of its symbol, per symbol.

    Why it gives ``lev``: for integer weights g (indel) and t < 2g
    (substitution), x = 2g - t and c = t,

        lev(u, v) = g*(|u| + |v|) - LCS(B(u), B(v)).

    An alignment of u and v with k matches and m substitutions costs
    g*(|u| + |v|) - (2g*k + x*m), so it suffices that the LCS is the largest
    value of 2g*k + x*m over alignments.

    (>=) An alignment lifts block by block: a match keeps its whole block
    (2g symbols) in common, and a substitution keeps the x separators.

    (<=) Note that LCS(B(a), B(b)) is 2g if a = b and x otherwise.  Induct on
    the last blocks i of u and j of v in an optimal common subsequence.  If
    either block has no matches, drop it.  Otherwise the two blocks cannot
    both match into earlier blocks of the other word, as those matches would
    cross, so say every match of block j lies in block i.  Block i then has
    at most LCS(B(u_i), B(v_j)) matches: if it meets a separator inside
    block j, all of its earlier matches were separators, at most x of them,
    and its content can only meet block j's content; if it does not, its
    matches in block j are content, so u_i = v_j, and the block has 2g
    symbols.  Every other match lies in the prefixes without both blocks,
    and aligning u_i with v_j adds LCS(B(u_i), B(v_j)) to the value of the
    prefixes' alignment.
    """
    k = x + c
    n = len(p) * k
    mask = (1 << n) - 1
    masks = _match_masks(p, k)
    v = mask
    if k == 1:  # one step per symbol, without the per-symbol step tuples
        for a in s:
            m = v & masks.get(a, 0)
            v = ((v + m) | (v - m)) & mask
        return n - v.bit_count()
    content = ((1 << c) - 1) << x
    seps = (mask // ((1 << k) - 1) * ((1 << x) - 1),) * x
    steps = {a: seps + (bits * content,) * c for a, bits in masks.items()}
    for a in s:
        for eq in steps.get(a, seps):
            m = v & eq
            v = ((v + m) | (v - m)) & mask
    return n - v.bit_count()


def _blocks(g: int, t: int) -> tuple[int, int, int]:
    """The (x, c, unit) with lev(u, v) = g*(|u| + |v|) - unit*LCS(B(u), B(v))
    for the blocks B of `_lcs_blocks` at integer weights g (indel) and t
    (substitution): the plain LCS when t >= 2g, as no optimal script then
    substitutes, and otherwise that identity on the weights over their gcd."""
    if t >= 2 * g:
        return 0, 1, 2 * g
    e = math.gcd(g, t)
    return (2 * g - t) // e, t // e, e


def _lev_scaled(u: str, v: str, g: int, t: int) -> int:
    """``lev`` on integer weights: indel ``g``, substitution ``t``.

    A common prefix or suffix is matched by some optimal script for any
    positive weights, so it is stripped first.  Then the LCS of `_blocks`
    gives ``lev`` when a block has at most ``_MAX_BLOCK`` symbols, and the
    row DP on (g, t) when it has more.
    """
    lo, hi = 0, min(len(u), len(v))
    while lo < hi and u[lo] == v[lo]:
        lo += 1
    end_u, end_v = len(u), len(v)
    while end_u > lo and end_v > lo and u[end_u - 1] == v[end_v - 1]:
        end_u -= 1
        end_v -= 1
    u, v = u[lo:end_u], v[lo:end_v]
    if not u or not v:
        return g * (len(u) + len(v))
    # The kernel loops over the shorter word, in bits of the longer one.
    if len(u) > len(v):
        u, v = v, u
    x, c, unit = _blocks(g, t)
    if x + c > _MAX_BLOCK:
        return _lev_ints_python(u, v, g, t)
    return g * (len(u) + len(v)) - unit * _lcs_blocks(v, u, x, c)


def _shared_prefix(a: str, b: str, hi: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, at most ``hi``."""
    lo, hi = 0, min(hi, len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.startswith(b[lo:mid], lo):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _pack(
    words: list[str], alphabet: set[str], x: int, c: int
) -> tuple[int, int, dict[str, int], list[int]]:
    """Lay ``words`` (over ``alphabet``) out in one integer, each in a lane
    of blocks of k = x + c bits (a block per symbol, its x separator bits
    lowest) under one guard bit.  Returns the masks of every lane bit, of
    every separator bit and, per symbol, of the content bits of its blocks,
    and the bit offset of each lane followed by the total width.

    Each symbol's mask of block starts is read from a text with one
    character per bit, so the pack costs a few passes over its width.
    """
    k = x + c
    guard = min(set(map(chr, range(len(alphabet) + 1))) - alphabet)
    # Top bit first: each word's guard bit, then its blocks from its last
    # symbol down, with the symbol at the block's lowest bit.
    text = (guard.join(words) + guard)[::-1]
    for a in alphabet:
        text = text.replace(a, guard * (k - 1) + a)
    zeros = dict.fromkeys(map(ord, alphabet | {guard}), "0")
    starts = {a: int(text.translate(zeros | {ord(a): "1"}), 2) for a in alphabet}
    every = sum(starts.values())
    content = ((1 << c) - 1) << x
    symbols = {a: bits * content for a, bits in starts.items()}
    offsets = list(accumulate((len(w) * k + 1 for w in words), initial=0))
    return every * ((1 << k) - 1), every * ((1 << x) - 1), symbols, offsets


def _packed_lcs(words: list[str], x: int, c: int) -> Iterator[tuple[int, list[int]]]:
    """For words sorted by length, row i is LCS(B(w_i), B(w_j)) of
    ``_lcs_blocks`` for every j > i, from one walk of w_i.  It comes as a
    pair (s, r): the LCS with w_j is s + r[j - i - 1].

    Row i's affix is the longest prefix that w_i shares with all later
    words, then the longest suffix they share in what is left.  It only
    grows as i moves right, and one backward pass finds it for every i.
    Every word of a pack gets a lane of block bits, followed by a guard bit,
    in one integer, and w_i walks over the lanes of the words after it
    (Hyyrö, Fredriksson & Navarro 2005).  The kernel's step holds lane by
    lane: m = v & eq is a subset of v, so v - m never borrows, and a carry
    out of v + m stops in the lane's guard bit, which the mask clears.  A
    lane's zero bits count its LCS.

    A pack holds words[i:] stripped of row i's affix.  Stripping it from
    two of those words keeps their ``lev`` (the rule of `_lev_scaled`) and
    takes one whole block, k bits, per stripped symbol off their LCS.  Where
    a later row's affix has grown past the pack's, the walk skips it too:
    after a shared prefix of h symbols the walk's state is the lane mask
    less the h·k lowest bits of each lane (its row of the LCS table reads
    min(j, h·k)), and for a shared suffix of t symbols the t·k highest bits
    of each lane are set after the walk, so that they count no zeros, and
    t·k is added back.  So each walk takes as many steps as over a pack of
    its own affix, and the words are packed again only when that would
    leave them less than half the symbols they have in the current pack;
    each pack is then under half as wide as the one before, and all repacks
    together cost less than the first.
    """
    k, n = x + c, len(words)
    # One backward pass: the prefix and the suffix that words[i:] share,
    # and the sum of their lengths.
    last = words[-1] if words else ""
    tsal = last[::-1]
    pre = suf = len(last)
    size = 0
    affixes = []
    for w in reversed(words):
        pre = _shared_prefix(w, last, pre)
        suf = _shared_prefix(w[::-1], tsal, suf)
        size += len(w)
        affixes.append((pre, suf, size))
    affixes.reverse()
    for i in range(n - 1):
        head, suf, size = affixes[i]
        tail = min(suf, len(words[i]) - head)
        if i == 0 or 2 * (size - (n - i) * (head + tail)) < size - (n - i) * strip:
            start, end, strip, first = head, tail, head + tail, i
            pack = [w[head:len(w) - tail] for w in words[i:]]
            lanes, seps, symbols, offsets = _pack(pack, set().union(*pack), x, c)
            offset = offsets[-1]
            guards = ((1 << offset) - 1) ^ lanes
            # A lane starts at bit 0 and right above each guard bit.
            heads = (guards << 1 | 1) & lanes
            # Lane j read off the binary digits of v: they run from the top bit down.
            spans = [(offset - o - len(w) * k, offset - o) for o, w in zip(offsets, pack)]
        p = pack[i - first]
        h = min(head - start, len(p))
        t = min(suf - end, len(p) - h)
        shift = offsets[i + 1 - first]
        mask = lanes >> shift
        sep_steps = (seps >> shift,) * x
        rest = p[h:len(p) - t]
        steps = {a: sep_steps + (symbols[a] >> shift,) * c for a in set(rest)}
        v = mask ^ (heads >> shift) * ((1 << h * k) - 1)
        for a in rest:
            for eq in steps[a]:
                m = v & eq
                v = ((v + m) | (v - m)) & mask
        v |= (guards >> shift + t * k) * ((1 << t * k) - 1)
        binary = format(v, f"0{offset - shift}b")
        yield k * (strip + t), [binary.count("0", lo, hi) for lo, hi in spans[i + 1 - first:]]


def lev(u: str, v: str, w: Weights = DEFAULT_WEIGHTS) -> Rat:
    """Exact minimum cost of editing ``u`` into ``v``.

    Total function over arbitrary strings; the empty word is allowed.
    """
    g, t, den = w._scaled
    return Rat(_lev_scaled(u, v, g, t), den)


def _fewest_mismatches(u: str, v: str) -> tuple[int, ...]:
    """For each alignment size k, the fewest mismatched pairs over all
    monotone k-alignments, found by exhaustive enumeration."""
    m, n = len(u), len(v)
    out = [0]
    for k in range(1, min(m, n) + 1):
        best = k + 1
        for left in combinations(range(m), k):
            chars = [u[i] for i in left]
            for right in combinations(range(n), k):
                mis = sum(a != v[j] for a, j in zip(chars, right))
                if mis < best:
                    best = mis
        out.append(best)
    return tuple(out)


def lev_oracle(u: str, v: str, w: Weights = DEFAULT_WEIGHTS) -> Rat:
    """Brute-force reference distance, independent of the dynamic program.

    Minimises cost over every monotone alignment of kept/substituted symbols;
    exponential, hence the length cap.
    """
    if len(u) > ORACLE_MAX_LEN or len(v) > ORACLE_MAX_LEN:
        raise InputTooLong(f"oracle words are capped at length {ORACLE_MAX_LEN}")
    mism = _fewest_mismatches(u, v)
    total = len(u) + len(v)
    return min(w.gamma * (total - 2 * k) + w.theta * mis for k, mis in enumerate(mism))


def hamming(u: str, v: str) -> int:
    """Number of positions at which two equal-length words differ."""
    if len(u) != len(v):
        raise LengthMismatch(f"words have lengths {len(u)} and {len(v)}")
    return sum(a != b for a, b in zip(u, v))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of exact pairwise distances for an ordered word list.

    Entry (i, j) is ``rows[i][j] / den``: integer rows over one positive
    denominator, so that checks and comparisons are integer work.
    """

    words: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    den: int = 1

    @property
    def n(self) -> int:
        return len(self.words)

    @property
    def entries(self) -> tuple[tuple[Rat, ...], ...]:
        den = self.den
        return tuple(tuple(Rat(x, den) for x in row) for row in self.rows)

    def entry(self, i: int, j: int) -> Rat:
        return Rat(self.rows[i][j], self.den)

    def submatrix(self, indices: Iterable[int]) -> "DistanceMatrix":
        """The matrix of the words at ``indices``, in that order."""
        idx = tuple(indices)
        rows = self.rows
        return DistanceMatrix(
            tuple(self.words[i] for i in idx),
            tuple(tuple(rows[i][j] for j in idx) for i in idx),
            self.den,
        )

    def validate(self) -> None:
        """Check the metric axioms exactly; raise ValueError on any violation.

        The triangle inequality costs a few big-int operations per pair of
        rows, on the rows packed into lanes; the first failing pair (i, j)
        is named with the first k that breaks it.
        """
        n, rows = self.n, self.rows
        if len(set(self.words)) != n:
            raise DuplicateWords("matrix labels are not distinct")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("entries are not an n-by-n table")
        if type(self.den) is not int or self.den <= 0 or any(
            type(x) is not int for row in rows for x in row
        ):
            raise ValueError("entries are not integers over a positive denominator")
        for i in range(n):
            row_i = rows[i]
            if row_i[i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if row_i[j] != rows[j][i]:
                    raise ValueError(f"asymmetric entries at ({i}, {j})")
                if row_i[j] <= 0:
                    raise ValueError(f"non-positive off-diagonal at ({i}, {j})")
        # Triangle inequality, packed (Lamport 1975): row i is one integer P_i
        # with one lane of b bits per entry, b a multiple of 4 with
        # 2*max < 2**(b-1).  The lane of entry k in P_i + P_j + H - d_ij*R
        # (R = ones, H = high) holds d_ik + d_jk - d_ij + 2**(b-1), so no
        # lane carries or borrows, and its top bit is clear exactly where
        # the inequality fails.  Only a flagged pair is scanned for its k.
        digits = ((2 * max(map(max, rows), default=0)).bit_length() + 4) // 4
        pack = f"%0{digits}x" * n
        packed = [int(pack % tuple(row), 16) for row in rows]
        ones = ((1 << 4 * digits * n) - 1) // ((1 << 4 * digits) - 1)
        high = ones << 4 * digits - 1
        for i in range(n):
            row_i = rows[i]
            base = packed[i] + high
            for j in range(i + 1, n):
                dij = row_i[j]
                if (base + packed[j] - dij * ones) & high != high:
                    row_j = rows[j]
                    k = next(k for k in range(n) if dij > row_i[k] + row_j[k])
                    raise ValueError(f"triangle inequality fails at ({i}, {j}, {k})")


def distance_matrix(words: Iterable[str], w: Weights = DEFAULT_WEIGHTS) -> DistanceMatrix:
    """Pairwise `lev` distances for distinct words, in the given order.

    When the block width x + c of `_blocks` is at most ``_MAX_BLOCK`` the
    words, stripped of the affix they share with the longer words, are
    packed into integers and each row is one walk (``_packed_lcs``);
    otherwise every pair runs `_lev_scaled`, whose kernel is then the row DP.
    """
    labels = tuple(words)
    if len(set(labels)) != len(labels):
        raise DuplicateWords("distance matrix needs distinct words")
    g, t, den = w._scaled
    n = len(labels)
    rows = [[0] * n for _ in range(n)]
    x, c, unit = _blocks(g, t)
    if x + c <= _MAX_BLOCK:
        order = sorted(range(n), key=lambda i: len(labels[i]))
        for i, (shared, lcs_row) in enumerate(_packed_lcs([labels[i] for i in order], x, c)):
            a = order[i]
            row_a, base = rows[a], g * len(labels[a]) - unit * shared
            for b, lcs in zip(order[i + 1:], lcs_row):
                row_a[b] = rows[b][a] = base + g * len(labels[b]) - unit * lcs
    else:
        for i in range(n):
            u, row_i = labels[i], rows[i]
            for j in range(i + 1, n):
                row_i[j] = rows[j][i] = _lev_scaled(u, labels[j], g, t)
    matrix = DistanceMatrix(labels, tuple(map(tuple, rows)), den)
    matrix.validate()
    return matrix
