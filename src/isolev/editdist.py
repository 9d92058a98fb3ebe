"""Exact generalized Levenshtein distances over rational weights.

Every distance charges ``gamma`` per insertion or deletion and ``theta`` per
substitution, and every value is an exact :class:`fractions.Fraction`.  No
floating point enters any computation: the weights are scaled to integers
once, every kernel and the distance matrix work on those integers, and
values become Fractions only when they are read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Union

import numpy as np

Rat = Fraction
RatLike = Union[Rat, int, str]

ORACLE_MAX_LEN = 7

# Below this many table cells the numpy call overhead loses to the plain loop.
_NUMPY_MIN_CELLS = 2048
_INT64_SAFE = 2**62


class InputTooLong(ValueError):
    """A word is longer than the exhaustive oracle can afford."""


class LengthMismatch(ValueError):
    """Hamming distance needs equal-length words."""


class DuplicateWords(ValueError):
    """A language (or matrix labelling) contains a repeated word."""


def as_rat(value: RatLike) -> Rat:
    """Coerce ints, ``p/q`` strings and Fractions to an exact rational."""
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(value)


@dataclass(frozen=True)
class Weights:
    """Positive rational edit costs: ``gamma`` per indel, ``theta`` per substitution."""

    gamma: Rat
    theta: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", as_rat(self.gamma))
        object.__setattr__(self, "theta", as_rat(self.theta))
        if self.gamma <= 0 or self.theta <= 0:
            raise ValueError(f"weights must be positive, got {self.gamma}, {self.theta}")


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


def _scaled_weights(w: Weights) -> tuple[int, int, int]:
    """Return integer costs (g, t) and the common denominator they were scaled by."""
    den = math.lcm(w.gamma.denominator, w.theta.denominator)
    return int(w.gamma * den), int(w.theta * den), den


def _lev_ints_python(u: str, v: str, g: int, t: int) -> int:
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


def _lev_ints_numpy(u: str, v: str, g: int, t: int) -> int:
    # Row update on s[j] = D[j] - g*j: a step along the row then costs
    # nothing, so insertions collapse into a running minimum, and a diagonal
    # step costs (0 or t) - g, a vector looked up per symbol of u.
    n = len(v)
    varr = np.array([ord(c) for c in v], dtype=np.int64)
    diag = {c: np.where(varr == ord(c), -g, t - g) for c in set(u)}
    prev = np.zeros(n + 1, dtype=np.int64)
    cur = np.empty(n + 1, dtype=np.int64)
    up = np.empty(n, dtype=np.int64)
    for cu in u:
        np.add(prev[:-1], diag[cu], out=cur[1:])
        np.add(prev[1:], g, out=up)
        np.minimum(cur[1:], up, out=cur[1:])
        cur[0] = prev[0] + g
        np.minimum.accumulate(cur, out=cur)
        prev, cur = cur, prev
    return int(prev[n]) + g * n


def _match_masks(p: str) -> dict[str, int]:
    """For each symbol of ``p``, the bit set of the positions where it occurs."""
    masks: dict[str, int] = {}
    bit = 1
    for c in p:
        masks[c] = masks.get(c, 0) | bit
        bit <<= 1
    return masks


def _myers(p: str, s: str) -> int:
    """Unit-cost Levenshtein distance, bit-parallel over the positions of the
    nonempty word ``p`` (Myers 1999, in Hyyrö's formulation).

    Bit i of ``pv``/``mv`` says the DP column steps up/down by one between
    rows i and i+1; ``score`` follows the last row of the column.
    """
    peq = _match_masks(p)
    mask = (1 << len(p)) - 1
    last = 1 << (len(p) - 1)
    pv, mv, score = mask, 0, len(p)
    for c in s:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _lcs(p: str, s: str) -> int:
    """Length of a longest common subsequence, bit-parallel over the positions
    of ``p`` (Allison & Dix 1986, in Hyyrö's 2004 form).

    Bit i of ``v`` is zero where the LCS of the prefix of ``s`` read so far
    grows between rows i and i+1 of ``p``, so the zero bits count the LCS.
    """
    peq = _match_masks(p)
    mask = (1 << len(p)) - 1
    v = mask
    for c in s:
        m = v & peq.get(c, 0)
        v = ((v + m) | (v - m)) & mask
    return len(p) - v.bit_count()


def _lev_scaled(u: str, v: str, g: int, t: int) -> int:
    """``lev`` on integer weights: indel ``g``, substitution ``t``.

    A common prefix or suffix is matched by some optimal script for any
    positive weights, so it is stripped first.  The kernel then follows the
    weights: bit-parallel Levenshtein at t = g, bit-parallel LCS at t >= 2g
    (no optimal script substitutes there), and the row DP otherwise.
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
    # Every kernel loops over the shorter word, in bits or numpy rows of
    # the longer one.
    if len(u) > len(v):
        u, v = v, u
    if t == g:
        return g * _myers(v, u)
    if t >= 2 * g:
        return g * (len(u) + len(v) - 2 * _lcs(v, u))
    cells = (len(u) + 1) * (len(v) + 1)
    if cells >= _NUMPY_MIN_CELLS and (g + t) * (len(u) + len(v) + 2) < _INT64_SAFE:
        return _lev_ints_numpy(u, v, g, t)
    return _lev_ints_python(u, v, g, t)


def lev(u: str, v: str, w: Weights = DEFAULT_WEIGHTS) -> Rat:
    """Exact minimum cost of editing ``u`` into ``v``.

    Total function over arbitrary strings; the empty word is allowed.
    """
    g, t, den = _scaled_weights(w)
    return Rat(_lev_scaled(u, v, g, t), den)


@lru_cache(maxsize=65536)
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
        """Check the metric axioms exactly; raise ValueError on any violation."""
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
        add = operator.add
        for i in range(n):
            row_i = rows[i]
            for j in range(i + 1, n):
                row_j = rows[j]
                dij = row_i[j]
                if dij > min(map(add, row_i, row_j)):
                    k = next(k for k in range(n) if dij > row_i[k] + row_j[k])
                    raise ValueError(f"triangle inequality fails at ({i}, {j}, {k})")


def distance_matrix(words: Iterable[str], w: Weights = DEFAULT_WEIGHTS) -> DistanceMatrix:
    """Pairwise `lev` distances for distinct words, in the given order."""
    labels = tuple(words)
    if len(set(labels)) != len(labels):
        raise DuplicateWords("distance matrix needs distinct words")
    g, t, den = _scaled_weights(w)
    n = len(labels)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        u, row_i = labels[i], rows[i]
        for j in range(i + 1, n):
            row_i[j] = rows[j][i] = _lev_scaled(u, labels[j], g, t)
    matrix = DistanceMatrix(labels, tuple(map(tuple, rows)), den)
    matrix.validate()
    return matrix
