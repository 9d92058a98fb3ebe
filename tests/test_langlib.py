import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolev.editdist import DistanceMatrix, DuplicateWords, Weights, distance_matrix
from isolev.isomgroup import PermutationGroup, isometries
from isolev.langlib import (
    AuditReport,
    FormatError,
    HypothesisViolated,
    Language,
    format_language,
    growth,
    is_subsequence,
    load_language,
    minimal_words,
    parse_language,
    save_language,
    stretch,
    theorem1_audit,
)


def test_is_subsequence_examples():
    assert is_subsequence("", "abc")
    assert is_subsequence("11", "101")  # delete the middle symbol
    assert is_subsequence("0", "01")
    assert is_subsequence("abc", "abc")
    assert not is_subsequence("a", "")
    assert not is_subsequence("110", "101")
    assert not is_subsequence("ba", "ab")


def test_is_subsequence_against_exhaustive_check():
    from itertools import combinations

    def brute(u, v):
        return any(
            "".join(v[i] for i in keep) == u
            for keep in combinations(range(len(v)), len(u))
        )

    import random

    rng = random.Random(8)
    for _ in range(400):
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 7)))
        assert is_subsequence(u, v) == brute(u, v), (u, v)


def test_subsequence_partial_order_seeded():
    rng = random.Random(123)

    def rand_word(n):
        return "".join(rng.choice("01") for _ in range(rng.randint(0, n)))

    def random_superseq(w):
        out = list(w)
        for _ in range(rng.randint(0, 4)):
            out.insert(rng.randint(0, len(out)), rng.choice("01"))
        return "".join(out)

    for _ in range(300):
        u = rand_word(8)
        v = random_superseq(u)
        x = random_superseq(v)
        assert is_subsequence(u, u)
        assert is_subsequence(u, v) and is_subsequence(v, x)
        assert is_subsequence(u, x)  # transitivity along a constructed chain
        if is_subsequence(v, u):
            assert u == v  # antisymmetry


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", max_size=8), st.text(alphabet="01", max_size=8))
def test_subsequence_antisymmetry_property(u, v):
    if is_subsequence(u, v) and is_subsequence(v, u):
        assert u == v


def test_minimal_words_examples():
    assert minimal_words(Language(["0", "01", "11"])) == Language(["0", "11"])
    assert minimal_words(Language(["a"])) == Language(["a"])


def test_growth_examples():
    lang = Language(["", "0", "00"])
    assert growth(lang, 1) == 2
    assert growth(lang, 0) == 1
    assert growth(Language(["0", "1"]), 0) == 0
    with pytest.raises(ValueError):
        growth(lang, -1)


def test_stretch_examples():
    assert stretch("", "xy") == ""
    assert stretch("ab", "xy") == "xyaxyb"
    assert len(stretch("01", "1110111")) == 16


def test_stretch_length_law_seeded():
    rng = random.Random(5)
    for _ in range(100):
        w1 = "".join(rng.choice("01") for _ in range(rng.randint(0, 9)))
        w2 = "".join(rng.choice("01") for _ in range(rng.randint(0, 9)))
        assert len(stretch(w1, w2)) == len(w1) * (len(w2) + 1)


def test_language_rejects_duplicates_and_bad_symbols():
    with pytest.raises(DuplicateWords):
        Language(["ab", "ab"])
    with pytest.raises(FormatError):
        Language(["a b"])
    with pytest.raises(FormatError):
        Language(["a#b"])
    with pytest.raises(FormatError):
        Language(["café"])
    with pytest.raises(DuplicateWords, match="duplicate word 'ab'"):
        Language(["ab", "ab", "a b"])
    with pytest.raises(FormatError, match="invalid symbol ' ' in word 'a b'"):
        Language(["a b", "ab", "ab"])


def test_language_symbol_message_and_alphabet():
    with pytest.raises(FormatError) as err:
        Language(["ab c#"])
    assert str(err.value) == "invalid symbol ' ' in word 'ab c#'"
    assert Language(["ba", "ab"]).alphabet == frozenset("ab")
    assert Language([]).alphabet == frozenset()


def test_language_file_format_round_trip(tmp_path):
    lang = Language(["", "01", "0110"])
    path = tmp_path / "sample.lang"
    save_language(lang, path)
    assert load_language(path) == lang
    text = format_language(lang)
    assert text.splitlines()[0] == "<eps>"


def test_parse_language_comments_and_errors():
    lang = parse_language("# header\n01  # trailing comment\n<eps>\n10\n")
    assert lang == Language(["01", "", "10"])
    with pytest.raises(FormatError):
        parse_language("01\n\n10\n")  # blank line is an error, not the empty word
    with pytest.raises(DuplicateWords):
        parse_language("01\n01\n")


def test_audit_single_word_language():
    lang = Language(["abc"])
    group = isometries(distance_matrix(lang))
    report = theorem1_audit(lang, group)
    assert report == AuditReport(bound=0, passed=True, witnesses=())


def test_audit_nonzero_bound_passes():
    # two words at different lengths in one orbit; the minimal word sits in it
    lang = Language(["", "0"])
    group = isometries(distance_matrix(lang))
    assert group.order() == 2
    report = theorem1_audit(lang, group)
    assert report.passed and report.bound == 1


def test_audit_reports_witnesses_for_artificial_group():
    # swap two words of different lengths while the minimal word stays fixed;
    # the audit takes the group as given and must flag the spread
    lang = Language(["0", "00", "000"])
    # a metric on three points whose only isometry swaps points 1 and 2
    twins = DistanceMatrix(("x", "y", "z"), ((0, 2, 2), (2, 0, 1), (2, 1, 0)))
    group = isometries(twins)
    assert [g.images for g in group.generators] == [(0, 2, 1)]
    report = theorem1_audit(lang, group)
    assert not report.passed
    assert report.bound == 0
    assert report.witnesses == (("00", "000", 1),)


def test_audit_rejects_capped_substitution_weight():
    lang = Language(["0", "1"])
    group = isometries(distance_matrix(lang, Weights(1, 2)))
    with pytest.raises(HypothesisViolated):
        theorem1_audit(lang, group, Weights(1, 2))
    with pytest.raises(HypothesisViolated):
        theorem1_audit(lang, group, Weights(1, 5))


def test_audit_degree_mismatch():
    lang = Language(["0", "1"])
    with pytest.raises(ValueError):
        theorem1_audit(lang, PermutationGroup(3, []))
