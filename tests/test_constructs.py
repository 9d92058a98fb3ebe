import hashlib
import re
from fractions import Fraction

import pytest

from isolev import constructs
from isolev.constructs import (
    DepthExceedsGraphs,
    GraphFormatError,
    NonUniformLength,
    NotCubic,
    ParametersTooLarge,
    SimpleGraph,
    catalog,
    catalog_graph,
    encode_cubic_graph,
    lemma5_language,
    parse_graph,
    prop4_language,
    theorem2_language,
    theorem3_language,
    theorem4_language,
    theorem5_language,
    theorem6_language,
    unary_language,
)
from isolev.editdist import Weights, distance_matrix, hamming, lev
from isolev.langlib import Language, growth, is_subsequence, minimal_words


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=re.escape("edge (0, 2) out of range for 2 vertices")):
        SimpleGraph(2, ((0, 2),))
    with pytest.raises(ValueError, match="edges must be strictly sorted pairs; use from_edges"):
        SimpleGraph(3, ((1, 2), (0, 1)))
    g = SimpleGraph.from_edges(3, [(2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.degrees() == (1, 2, 1)
    assert not g.is_cubic()


def test_graph_format_parses_literal_edge_list():
    text = "c K4, edges out of order\np 4 6\ne 3 4\ne 2 1\ne 1 3\ne 4 1\ne 2 3\ne 2 4\n"
    assert parse_graph(text) == catalog_graph("k4")


def test_graph_parse_errors():
    # (file text, message); line numbers count comment and blank lines too
    table = [
        ("e 1 2\n", "line 1: edge before header"),
        ("p 2 0\nc again\np 2 0\n", "line 3: second header line"),
        ("c header\n\np 3\n", "line 3: expected 'p <n> <m>'"),
        ("p three 1\n", "line 1: non-integer header"),
        ("p -1 0\n", "line 1: negative counts"),
        ("p 3 1\ne 1 2 3\n", "line 2: expected 'e <u> <v>'"),
        ("p 3 1\ne 1 x\n", "line 2: non-integer endpoints"),
        ("p 3 1\ne 1 4\n", "line 2: vertex out of range"),
        ("p 3 1\ne 1 1\n", "line 2: loop at vertex 1"),
        ("p 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge"),
        ("q 3 1\n", "line 1: unknown line 'q 3 1'"),
        ("c no header\n", "missing 'p <n> <m>' header"),
        ("p 3 1\n", "header claims 1 edges, file has 0"),
    ]
    for text, message in table:
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            parse_graph(text)


def test_catalog_contents():
    entries = {e.name: e for e in catalog()}
    assert set(entries) == {"k4", "k33", "petersen", "frucht"}
    assert entries["k4"].graph.n == 4 and entries["k4"].graph.edge_count == 6
    assert entries["k33"].graph.edge_count == 9
    assert entries["petersen"].graph.n == 10
    assert entries["frucht"].graph.n == 12 and entries["frucht"].aut_order == 1
    for e in entries.values():
        assert e.graph.is_cubic()


def test_encode_cubic_graph_patterns():
    for name, words_len in [("k4", 6), ("k33", 9), ("petersen", 15)]:
        g = catalog_graph(name)
        enc = encode_cubic_graph(g)
        assert len(enc) == g.n
        for i in range(g.n):
            assert len(enc[i]) == words_len
            assert enc[i].count("1") == 3
            for j in range(i + 1, g.n):
                assert hamming(enc[i], enc[j]) == (4 if g.has_edge(i, j) else 6)


def test_encode_rejects_non_cubic():
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotCubic):
        encode_cubic_graph(path)
    with pytest.raises(NotCubic):
        theorem2_language(path)


def test_theorem2_lengths_and_distances():
    k4 = theorem2_language(catalog_graph("k4"))
    assert len(k4) == 4 and all(len(w) == 96 for w in k4)
    m = distance_matrix(k4)
    for i in range(4):
        for j in range(i + 1, 4):
            assert m.entry(i, j) == 4  # complete graph: every pair adjacent

    pet = theorem2_language(catalog_graph("petersen"))
    assert len(pet) == 10 and all(len(w) == 240 for w in pet)
    g = catalog_graph("petersen")
    m = distance_matrix(pet)
    for i in range(10):
        for j in range(i + 1, 10):
            assert m.entry(i, j) == (4 if g.has_edge(i, j) else 6)


def test_theorem3_shapes_and_cross_layer_distances():
    k4 = catalog_graph("k4")
    one = theorem3_language([k4], 1)
    assert len(one) == 5
    assert sorted(set(one.lengths())) == [0, 110]
    assert growth(one, 200) == 5
    two = theorem3_language([k4, catalog_graph("petersen")], 2)
    assert len(two) == 15
    assert sorted(set(two.lengths())) == [0, 110, 474]
    # cross-layer distances equal the length difference, at several thetas
    for theta in (1, Fraction(3, 2)):
        w = Weights(1, theta)
        assert lev(two[0], two[1], w) == 110
        assert lev(two[1], two[5], w) == 364
        assert lev(two[0], two[5], w) == 474
    # shorter layers embed into longer ones
    assert is_subsequence(two[1], two[5])
    with pytest.raises(DepthExceedsGraphs):
        theorem3_language([k4], 2)


def test_theorem4_layer_shapes():
    t = theorem4_language(2, 1)
    assert len(t) == 5 and "" in t
    layer = [w for w in t if w]
    assert all(len(w) == 20 for w in layer)
    m = distance_matrix(layer)
    # distances are the Hamming distances of the underlying 2-letter words
    base = ["00", "01", "10", "11"]
    for i in range(4):
        for j in range(i + 1, 4):
            assert m.entry(i, j) == hamming(base[i], base[j])

    t3 = theorem4_language(3, 1)
    assert len(t3) == 28
    assert sorted(set(t3.lengths())) == [0, 60]

    t22 = theorem4_language(2, 2)
    assert len(t22) == 1 + 4 + 16
    assert sorted(set(t22.lengths())) == [0, 20, 112]


def test_theorem4_alphabet_sizes_follow_the_layer_caps(monkeypatch):
    with pytest.raises(ParametersTooLarge, match=r"must be one of \[2, 3, 4\], got 5"):
        theorem4_language(5, 1)
    monkeypatch.delitem(constructs._LAYER_CAP, 4)
    with pytest.raises(ParametersTooLarge, match=r"must be one of \[2, 3\], got 4"):
        theorem4_language(4, 1)


def test_theorem4_parameter_caps():
    with pytest.raises(ParametersTooLarge):
        theorem4_language(5, 1)
    with pytest.raises(ParametersTooLarge):
        theorem4_language(2, 4)
    with pytest.raises(ParametersTooLarge):
        theorem4_language(3, 2)
    with pytest.raises(ParametersTooLarge):
        theorem4_language(3, 3)
    with pytest.raises(ParametersTooLarge):
        theorem4_language(4, 2)


def test_theorem5_shapes_and_distances():
    lang = theorem5_language(catalog_graph("k4"), catalog_graph("k33"), 1)
    assert len(lang) == 16
    assert sorted(set(lang.lengths())) == [96, 624, 912]
    w = lang.words
    # star layers: same block at different tail lengths
    assert lev(w[4], w[10]) == 288  # 2m|p-q| with m=144
    assert lev(w[5], w[11]) == 288
    # within a star layer the second block's distances survive the affixes
    g2 = catalog_graph("k33")
    m = distance_matrix(list(w[4:10]))
    for i in range(6):
        for j in range(i + 1, 6):
            assert m.entry(i, j) == (4 if g2.has_edge(i, j) else 6)


LAYERED_DIGESTS = {
    ("theorem3", "k4 petersen", 1):
        "de91c4442b6d438bfbad7735c45e0e6d99dd883eb5356805aad9d3a5d61acf62",
    ("theorem3", "k4 petersen", 2):
        "c826380645f43949cc6f1147803f47bff1c85aed932a7c0d61ba5dda0eb42203",
    ("theorem4", 2, 1): "7c683a9215dd4ceedc4d23c2c4939e918e7562711e502d447a236da60a4dd03b",
    ("theorem4", 2, 2): "ae3028ca53d219e3406fffc6995bac60ae85482cb1a50b05c466844b364d0366",
    ("theorem4", 2, 3): "471ce8fda745200f710d453f8941c87bb5723db10f072a2896c6781b2ed0db76",
    ("theorem4", 3, 1): "be0679fde3b91b8b4b9383d19a5a70d837abbebc20053e935ce6ec01c1ee40bd",
    ("theorem4", 4, 1): "5c43c8e54c440c68cfe397b7e4206499e97556cc1fdf96c07ad51f49ad024aaf",
    ("theorem5", "k4 k33", 1): "182c65a733d646219df6e9ab47fa6e1cb183c0eb46b74ce17526378d7c258626",
    ("theorem5", "k4 k33", 2): "3a17af0a97cd02668928eb70616adf28ebd4c9ce3506162d3751590e40d4accc",
    ("theorem5", "k4 k33", 3): "101e8fbd3f3c4f4842bf3d52e3628d0c6639b7e2df25b8711744899360806918",
    ("theorem5", "petersen frucht", 1):
        "82db1393e606f5f157959688eeb18ece7ea76ca9dd218bf994eea29b3a3b17e8",
    ("lemma5", "00 11", 3): "dc4f67d29d4ac5900a407db2a61ed64b214d5c446fe04c0c77be9325e527f91e",
}


def test_layered_word_lists_pinned():
    # sha256 of the words joined by newlines, in construction order
    for (family, arg, depth), digest in LAYERED_DIGESTS.items():
        if family == "theorem3":
            lang = theorem3_language([catalog_graph(n) for n in arg.split()], depth)
        elif family == "theorem4":
            lang = theorem4_language(arg, depth)
        elif family == "theorem5":
            lang = theorem5_language(*map(catalog_graph, arg.split()), depth)
        else:
            lang = lemma5_language(Language(arg.split()), depth)
        text = "\n".join(lang)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, arg, depth)


def test_lemma5_examples_and_errors():
    base = Language(["00", "11"])
    lang = lemma5_language(base, 2)
    assert list(lang) == ["00", "11", "000101", "110101", "0001010101", "1101010101"]
    assert lev("000101", "110101") == 2
    assert lev("00", "0001010101") == 8  # 2n|p-q| with n=2
    with pytest.raises(NonUniformLength):
        lemma5_language(Language(["0", "00"]), 1)
    with pytest.raises(NonUniformLength):
        lemma5_language(Language([""]), 1)
    with pytest.raises(ValueError):
        lemma5_language(Language(["ab"]), 1)


def test_theorem6_examples():
    t1 = theorem6_language(1)
    assert set(t1) == {"010110", "110010"}
    assert lev("010110", "110010") == 2
    t2 = theorem6_language(2)
    assert len(t2) == 6
    t3 = theorem6_language(3)
    assert len(t3) == 12
    assert growth(t3, 12) == 6
    assert set(minimal_words(t3)) == {"010110", "110010"}
    # every longer word contains a length-6 word as a subsequence
    for w in t3:
        if len(w) > 6:
            assert any(is_subsequence(s, w) for s in t1)


def test_theorem6_distances_by_weight():
    # the distance between the two length-6 words depends on the substitution
    # weight: theta per differing position while theta <= 2, capped by the
    # four-indel rewrite
    for theta, expect in [(1, 2), (Fraction(3, 2), 3), (2, 4)]:
        assert lev("010110", "110010", Weights(1, theta)) == expect
    # across layers the gap is always the length difference
    t3 = theorem6_language(3)
    for theta in (1, 2):
        w = Weights(1, theta)
        assert lev(t3[0], t3[2], w) == 6
        assert lev(t3[0], t3[6], w) == 12


def test_layer_separation_in_layered_constructions():
    fixtures = [
        theorem3_language([catalog_graph("k4")], 1),
        theorem6_language(2),
        lemma5_language(Language(["00", "11"]), 2),
    ]
    for lang in fixtures:
        m = distance_matrix(lang)
        lengths = lang.lengths()
        within = [
            m.entry(i, j)
            for i in range(len(lang))
            for j in range(i + 1, len(lang))
            if lengths[i] == lengths[j]
        ]
        cross = [
            m.entry(i, j)
            for i in range(len(lang))
            for j in range(i + 1, len(lang))
            if lengths[i] != lengths[j]
        ]
        if within and cross:
            assert max(within) < min(cross)


def test_unary_language():
    assert list(unary_language([0, 1, 2])) == ["", "a", "aa"]
    assert list(unary_language([5, 1, 3])) == ["a", "aaa", "aaaaa"]
    with pytest.raises(ValueError):
        unary_language([1, 1])
    with pytest.raises(ValueError):
        unary_language([-1])


def test_unary_language_bounds_each_length():
    for lengths in ([-1], [True, 2], [1.5]):
        with pytest.raises(ValueError, match="lengths must be at least 0"):
            unary_language(lengths)
    with pytest.raises(ValueError, match="lengths must be distinct"):
        unary_language([2, 2])


def test_prop4_language():
    lang = prop4_language(2)
    assert list(lang) == ["", "0", "00", "1", "11"]
    m = distance_matrix(lang, Weights(1, 2))
    assert m.entry(2, 4) == 4  # 00 vs 11
    assert lev("000", "11", Weights(1, 2)) == 5
    with pytest.raises(ValueError):
        prop4_language(0)


def test_depth_validation():
    with pytest.raises(ValueError):
        theorem6_language(0)
    with pytest.raises(ValueError):
        theorem3_language([catalog_graph("k4")], 0)
