import math
import operator
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolev import editdist
from isolev.editdist import (
    DistanceMatrix,
    DuplicateWords,
    InputTooLong,
    LengthMismatch,
    NormalizedWeights,
    Weights,
    _MAX_BLOCK,
    _lcs_blocks,
    _lev_ints_python,
    _lev_scaled,
    distance_matrix,
    hamming,
    lev,
    lev_oracle,
    normalize,
)
from isolev.constructs import catalog_graph, theorem3_language, theorem5_language
from isolev.langlib import is_subsequence

WEIGHT_GRID = [Weights(1, 1), Weights(1, 2), Weights(2, 1), Weights(1, Fraction(3, 2))]


def binary_words(max_len):
    yield ""
    for n in range(1, max_len + 1):
        for bits in range(2**n):
            yield format(bits, f"0{n}b")


def test_base_cases():
    assert lev("", "011") == 3
    assert lev("011", "") == 3
    assert lev("", "") == 0
    assert lev("0101", "0101", Weights(Fraction(7, 3), Fraction(1, 5))) == 0


def test_known_values():
    assert lev("kitten", "sitting") == 3
    assert lev("kitten", "sitting") == lev_oracle("kitten", "sitting")
    assert lev("01", "10", Weights(1, 2)) == 2
    assert lev("01", "10", Weights(1, 2)) == lev_oracle("01", "10", Weights(1, 2))
    # substitution wins while it is cheaper than an indel pair
    assert lev("0", "1", Weights(1, Fraction(1, 2))) == Fraction(1, 2)
    assert lev("0", "1", Weights(1, 3)) == 2


def test_oracle_examples():
    assert lev_oracle("0", "1") == 1
    assert lev_oracle("", "") == 0
    assert lev_oracle("01", "10") == 2


def test_oracle_rejects_long_words():
    with pytest.raises(InputTooLong):
        lev_oracle("01234567", "0")


def test_oracle_equivalence_small_sweep():
    words = list(binary_words(3))
    for w in WEIGHT_GRID:
        for u in words:
            for v in words:
                assert lev(u, v, w) == lev_oracle(u, v, w), (u, v, w)


def test_block_kernel_matches_row_dp_on_all_binary_pairs():
    """lev = g*(|u|+|v|) - LCS of the block-expanded words, for every pair of
    binary words up to length 5, unstripped and in both orders."""
    words = list(binary_words(5))
    for g, t in [(1, 1), (2, 1), (2, 3), (3, 4), (3, 5), (4, 7)]:
        for u in words:
            for v in words:
                d = _lev_ints_python(u, v, g, t)
                assert g * (len(u) + len(v)) - _lcs_blocks(u, v, 2 * g - t, t) == d, (u, v, g, t)
                assert _lev_scaled(u, v, g, t) == d, (u, v, g, t)
        # The packed matrix build gives every pair of the 62 nonempty words.
        rows = distance_matrix(words[1:], Weights(g, t)).rows
        for i, u in enumerate(words[1:]):
            for j, v in enumerate(words[1:]):
                assert rows[i][j] == _lev_ints_python(u, v, g, t), (u, v, g, t)


# Alphabets of size 1, 2, 4 and many non-ASCII symbols.
KERNEL_ALPHABETS = ["a", "01", "acgt", "αβγδεζηθλμξπστφψω⊕⊗★☆中文字"]
# (g, t) in every regime: t < g, t = g, g < t < 2g, t = 2g, t > 2g, and
# blocks of 2g = 20 symbols, past _MAX_BLOCK, which run the row DP.
KERNEL_WEIGHTS = [(2, 1), (1, 1), (2, 3), (1, 2), (1, 3), (10, 19)]


def _kernel_pairs(seed, count=8, max_len=300):
    """Seeded pairs of length 0-300 over each alphabet, half of them sharing
    a prefix and a suffix, so bit vectors cross 64 bits and stripping runs."""
    rng = random.Random(seed)
    word = lambda a, n: "".join(rng.choice(a) for _ in range(n))
    for alphabet in KERNEL_ALPHABETS:
        for k in range(count):
            u, v = word(alphabet, rng.randint(0, max_len)), word(alphabet, rng.randint(0, max_len))
            if k % 2:
                pre, suf = word(alphabet, rng.randint(0, 40)), word(alphabet, rng.randint(0, 40))
                u, v = pre + u[: max_len // 2] + suf, pre + v[: max_len // 2] + suf
            yield u, v


def test_kernels_match_reference_dp():
    assert _MAX_BLOCK < 2 * 10  # so that (10, 19) runs the row DP
    big = 10**20  # weights with a large gcd must reduce to the same kernel
    for u, v in _kernel_pairs(606):
        ref = {(g, t): _lev_ints_python(u, v, g, t) for g, t in KERNEL_WEIGHTS}
        n = len(u) + len(v)
        for p, s in ((u, v), (v, u)):
            assert n - _lcs_blocks(p, s, 1, 1) == ref[1, 1], (u, v)
            assert n - 2 * _lcs_blocks(p, s, 0, 1) == ref[1, 2], (u, v)
            assert 2 * n - _lcs_blocks(p, s, 1, 3) == ref[2, 3], (u, v)
            assert 2 * n - _lcs_blocks(p, s, 3, 1) == ref[2, 1], (u, v)
        for (g, t), d in ref.items():
            assert _lev_scaled(u, v, g, t) == d, (u, v, g, t)
            assert _lev_scaled(v, u, 3 * g, 3 * t) == 3 * d, (u, v, g, t)
            assert _lev_scaled(u, v, big * g, big * t) == big * d, (u, v, g, t)


@pytest.mark.parametrize("ratio", [
    Fraction(1, 2), 1, Fraction(3, 2), 2, 3,
    Fraction(1, 3), Fraction(2, 3), Fraction(5, 4), Fraction(7, 4), Fraction(19, 10),
])
def test_lev_matches_oracle_at_extreme_rationals(ratio):
    rng = random.Random(f"extreme-{ratio}")
    for gamma in (Fraction(1, 10**30), Fraction(10**30 + 1, 7)):
        w = Weights(gamma, gamma * ratio)
        words = list(binary_words(2)) + ["".join(rng.choice("abc") for _ in range(
            rng.randint(0, 7))) for _ in range(12)]
        for u in words:
            for v in words:
                assert lev(u, v, w) == lev_oracle(u, v, w), (u, v, w)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="abcd", max_size=90),
    st.text(alphabet="abcd", max_size=90),
    st.sampled_from(KERNEL_WEIGHTS),
    st.integers(min_value=1, max_value=5),
)
def test_every_regime_matches_reference_property(u, v, weights, scale):
    g, t = weights[0] * scale, weights[1] * scale
    assert _lev_scaled(u, v, g, t) == _lev_ints_python(u, v, g, t)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_ALPHABETS), st.sampled_from(KERNEL_WEIGHTS),
       st.sampled_from([1, 3, 10**20]))
def test_packed_matrix_matches_per_pair_property(data, alphabet, weights, scale):
    """Whole matrices equal per-pair `_lev_scaled` on words behind shared
    pads: a group of one word (the pads alone) that strips to empty, a group
    of words equal up to one symbol, and an affix that grows at the longest
    group, all packed whenever the block width is at most _MAX_BLOCK."""
    g, t = weights[0] * scale, weights[1] * scale
    block = 1 if t >= 2 * g else 2 * g // math.gcd(g, t)
    text = lambda lo, hi: st.text(alphabet=alphabet, min_size=lo, max_size=hi)
    # The head pad is at least 7 symbols, so every padded word is longer than
    # every bare word, and head + tail is the only padded word of its length.
    # Up to 300 symbols, it takes lanes past 1024 bits.
    size = data.draw(st.integers(min_value=7, max_value=300))
    head, tail = data.draw(text(size, size)), data.draw(text(0, 40))
    head2, tail2 = data.draw(text(1, 30)), data.draw(text(0, 30))
    bare = data.draw(st.lists(text(0, 6), max_size=6))
    middles = data.draw(st.lists(text(1, 5), max_size=6))
    base = data.draw(text(6, 6))
    at = data.draw(st.integers(min_value=0, max_value=5))
    twins = [base[:at] + a + base[at + 1:] for a in alphabet[:4]]
    words = bare + [head + tail] + [head + w + tail for w in middles]
    words += [head + head2 + w + tail2 + tail for w in twins]
    words = list(dict.fromkeys(words))
    data.draw(st.randoms()).shuffle(words)
    with mock.patch.object(editdist, "_packed_lcs", wraps=editdist._packed_lcs) as packed:
        rows = distance_matrix(words, Weights(g, t)).rows
    assert packed.called == (block <= _MAX_BLOCK), block
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            assert rows[i][j] == (_lev_scaled(u, v, g, t) if i != j else 0), (u, v, g, t)


@pytest.mark.parametrize("theta", [1, Fraction(3, 2), 2])
@pytest.mark.parametrize("build", [
    lambda: theorem5_language(catalog_graph("k4"), catalog_graph("k33"), 1),
    lambda: theorem3_language([catalog_graph("k4"), catalog_graph("petersen")], 2),
    # One word per length behind an affix that grows at every length.
    lambda: ["a" * n for n in range(101)],
    lambda: ["yz"[n % 2] * 6 + "zab" * n for n in range(1, 60)],
    lambda: ["ab" * n + "c" for n in range(1, 60)],
], ids=["theorem5", "theorem3", "unary", "growing-suffix", "growing-prefix"])
def test_long_padded_layers_are_packed(build, theta):
    """Layers of up to 912 symbols behind shared pads make no per-pair call.
    Each pack is under half as wide as the one before it, so an affix that
    grows at every length is packed few times, and the walks skip the affix
    grown since their pack.  Every entry equals `lev`."""
    words, w = list(build()), Weights(1, theta)
    with mock.patch.object(editdist, "_lev_scaled", wraps=editdist._lev_scaled) as pair, \
            mock.patch.object(editdist, "_pack", wraps=editdist._pack) as pack:
        matrix = distance_matrix(words, w)
    assert pair.call_count == 0
    assert pack.call_count <= math.log2(sum(map(len, words))) + 2, pack.call_count
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            assert matrix.entry(i, j) == lev(u, v, w), (i, j)


def test_hamming():
    assert hamming("000", "011") == 2
    assert hamming("abc", "abc") == 0
    assert hamming("110010", "010110") == 2
    with pytest.raises(LengthMismatch):
        hamming("ab", "abc")


def test_normalize_examples():
    assert normalize(Weights(3, 4)) == NormalizedWeights(Fraction(4, 3), Fraction(3))
    assert normalize(Weights(1, 5)) == NormalizedWeights(Fraction(2), Fraction(1))
    assert normalize(Weights(1, 1)) == NormalizedWeights(Fraction(1), Fraction(1))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        Weights(0, 1)
    with pytest.raises(ValueError):
        Weights(1, -2)
    with pytest.raises(TypeError):
        Weights(1.5, 1)
    for gamma, theta in (("1/0", 1), (1, "0.5"), ("1e-1", 1), (" 3/2", 1), ("1\n", 1)):
        with pytest.raises(ValueError, match="malformed rational"):
            Weights(gamma, theta)
    assert Weights("3/2", "2/2") == Weights(Fraction(3, 2), 1)


def test_homothety_random_pairs():
    rng = random.Random(77)
    for _ in range(150):
        gamma = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        theta = Fraction(rng.randint(1, 24), rng.randint(1, 8))
        w = Weights(gamma, theta)
        nw = normalize(w)
        assert 0 < nw.theta_prime <= 2
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        assert lev(u, v, w) == nw.scale * lev(u, v, Weights(1, nw.theta_prime))


def test_metric_axioms_seeded():
    rng = random.Random(555)
    for _ in range(300):
        w = Weights(Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 10), 2))
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
        assert lev(u, u, w) == 0
        if u != v:
            assert lev(u, v, w) > 0
        assert lev(u, v, w) == lev(v, u, w)
        assert lev(u, x, w) <= lev(u, v, w) + lev(v, x, w)


def test_context_and_reversal_invariance():
    rng = random.Random(99)
    for _ in range(200):
        w = Weights(1, Fraction(rng.randint(1, 4), 2))
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 8)))
        p = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        q = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        assert lev(p + x + q, p + y + q, w) == lev(x, y, w)
        assert lev(x[::-1], y[::-1], w) == lev(x, y, w)


def test_bounds_and_subsequence_characterisation():
    rng = random.Random(31)
    for _ in range(400):
        gamma = Fraction(rng.randint(1, 4))
        theta = gamma * Fraction(rng.randint(1, 8), 4)
        w = Weights(gamma, theta)
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        d = lev(u, v, w)
        lo, hi = sorted((len(u), len(v)))
        assert d <= (theta - gamma) * lo + gamma * hi
        assert d >= gamma * (hi - lo)
        shorter, longer = (u, v) if len(u) <= len(v) else (v, u)
        assert (d == gamma * (hi - lo)) == is_subsequence(shorter, longer)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="01", max_size=8),
    st.text(alphabet="01", max_size=8),
    st.text(alphabet="01", max_size=8),
)
def test_triangle_inequality_property(u, v, x):
    w = Weights(1, Fraction(3, 2))
    assert lev(u, x, w) <= lev(u, v, w) + lev(v, x, w)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", max_size=7), st.text(alphabet="ab", max_size=7))
def test_dp_matches_oracle_property(u, v):
    w = Weights(2, 3)
    assert lev(u, v, w) == lev_oracle(u, v, w)


def test_distance_matrix_single_word():
    m = distance_matrix([""])
    assert m.n == 1
    assert m.entries == ((Fraction(0),),)


def test_distance_matrix_runs_at_theta_two():
    words = ["", "0", "00", "000", "1", "11"]
    m = distance_matrix(words, Weights(1, 2))
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if u[:1] != v[:1] and u and v:
                assert m.entry(i, j) == len(u) + len(v)
    assert m.entry(3, 5) == 5  # 000 vs 11


def test_distance_matrix_rejects_duplicates():
    with pytest.raises(DuplicateWords):
        distance_matrix(["a", "a"])


def reference_validate(matrix):
    """The metric check as it ran before the packed triangle check: every
    pair of rows scanned with ``min(map(add, ...))``."""
    n, rows = matrix.n, matrix.rows
    if len(set(matrix.words)) != n:
        raise DuplicateWords("matrix labels are not distinct")
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("entries are not an n-by-n table")
    if type(matrix.den) is not int or matrix.den <= 0 or any(
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


def _verdict(check, matrix):
    try:
        check(matrix)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=10),
       st.sampled_from([1, 7, 2**31, 10**20]))
def test_packed_validate_matches_reference_property(data, n, top):
    """Random integer tables, mostly metrics (entries in [top, 2*top]), with
    planted triangle violations, diagonal faults, asymmetries and zero or
    negative entries: `validate` gives the reference's verdict and message."""
    entry = st.integers(min_value=top, max_value=2 * top)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(entry)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for _ in range(data.draw(st.integers(0, 3))):
        (i, j), kind = data.draw(cell), data.draw(st.sampled_from(
            ["far", "far", "near", "tight", "diagonal", "asymmetric", "zero"]))
        if kind in ("far", "near", "tight") and i != j:
            # The shortest path through a third point, one past it, or
            # anywhere up to 5*top.
            bound = min((rows[i][k] + rows[j][k] for k in range(n) if k not in (i, j)),
                        default=top)
            far = data.draw(st.integers(top, 5 * top))
            d = far if kind == "far" else bound + (kind == "near")
            rows[i][j] = rows[j][i] = d
        elif kind == "diagonal":
            rows[i][i] = data.draw(st.integers(-top, top))
        elif kind == "asymmetric" and i != j:
            rows[i][j] += data.draw(st.sampled_from([-1, 1, top]))
        elif kind == "zero" and i != j:
            rows[i][j] = rows[j][i] = data.draw(st.integers(-top, 0))
    matrix = DistanceMatrix(tuple(map(str, range(n))), tuple(map(tuple, rows)))
    assert _verdict(DistanceMatrix.validate, matrix) == _verdict(reference_validate, matrix)


def test_matrix_validate_catches_bad_tables():
    good = distance_matrix(["", "0", "01"])
    good.validate()
    words = good.words
    # (labels, rows, denominator, error, message): one row per rejection
    table = [
        (("a", "b", "a"), good.rows, 1, DuplicateWords, "matrix labels are not distinct"),
        (words, good.rows[:2], 1, ValueError, "entries are not an n-by-n table"),
        (words, ((0, 1, 2), (1, 0), (2, 1, 0)), 1, ValueError, "entries are not an n-by-n table"),
        (words, ((0, 1, 2), (1, 0, Fraction(1, 2)), (2, 1, 0)), 1, ValueError,
         "entries are not integers over a positive denominator"),
        (words, good.rows, 0, ValueError, "entries are not integers over a positive denominator"),
        (words, ((0, 1, 1), (1, 2, 1), (1, 1, 0)), 1, ValueError, "nonzero diagonal at 1"),
        (words, ((0, 1, 2), (1, 0, 1), (2, 2, 0)), 1, ValueError, "asymmetric entries at (1, 2)"),
        (words, ((0, 0, 1), (0, 0, 1), (1, 1, 0)), 1, ValueError,
         "non-positive off-diagonal at (0, 1)"),
        (words, ((0, 9, 1), (9, 0, 1), (1, 1, 0)), 1, ValueError,
         "triangle inequality fails at (0, 1, 2)"),
    ]
    for labels, rows, den, error, message in table:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            DistanceMatrix(labels, rows, den).validate()
