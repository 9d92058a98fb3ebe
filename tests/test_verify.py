import dataclasses
import json
import re
import time
import types
from fractions import Fraction

import pytest

from isolev import verify
from isolev.constructs import SimpleGraph, catalog_graph
from isolev.langlib import AuditReport, HypothesisViolated, Language
from isolev.verify import (
    check_bounds,
    check_homothety,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_metric,
    check_prop3,
    check_prop4,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem5,
    check_theorem6,
)


def test_metric_and_bounds_pass():
    assert check_metric(samples=200).passed
    assert check_metric(theta=Fraction(3, 2), samples=150).passed
    assert check_bounds(samples=200).passed
    assert check_bounds(gamma=2, theta=1, samples=150).passed


def test_metric_computes_each_distance_once(monkeypatch):
    calls = []

    def counting_lev(*args):
        calls.append(args)
        return real_lev(*args)

    real_lev = verify.lev
    monkeypatch.setattr(verify, "lev", counting_lev)
    assert check_metric(samples=40).passed
    # lev(u,u), lev(u,v), lev(v,u), lev(u,x), lev(v,x), context, reversal
    assert len(calls) == 7 * 40


def test_homothety_passes_and_covers_large_ratios():
    report = check_homothety(samples=200)
    assert report.passed
    assert report.details["cases_with_ratio_above_two"] > 0


def test_prop3_passes():
    report = check_prop3(count=10, max_size=8)
    assert report.passed
    assert set(report.details["random_orders"]) <= {1, 2}


def test_prop4_passes():
    report = check_prop4(n_max=4)
    assert report.passed
    assert report.details["group_order"] == "2"


def test_theorem1_checker():
    report = check_theorem1(Language(["0", "00", "000"]))
    assert report.passed
    with pytest.raises(HypothesisViolated):
        check_theorem1(Language(["0", "1"]), theta=2)


def test_theorem1_checker_refuses_before_building_the_matrix(monkeypatch):
    from isolev.editdist import Weights, distance_matrix
    from isolev.isomgroup import isometries
    from isolev.langlib import theorem1_audit

    lang = Language(["0", "1"])
    with pytest.raises(HypothesisViolated) as audit:
        theorem1_audit(lang, isometries(distance_matrix(lang)), Weights(1, 2))

    def unreachable(*args):
        raise AssertionError("distance_matrix called")

    monkeypatch.setattr(verify, "distance_matrix", unreachable)
    with pytest.raises(HypothesisViolated) as checker:
        check_theorem1(lang, theta=2)
    assert str(checker.value) == str(audit.value)


def test_lemma3_checker_is_weight_sensitive():
    assert check_lemma3(samples=60, theta=1).passed
    off = check_lemma3(samples=60, theta=Fraction(1, 2))
    assert not off.passed
    assert off.witnesses


def test_lemma4_checker_all_catalog():
    report = check_lemma4()
    assert report.passed
    assert set(report.params["graphs"]) == {"k4", "k33", "petersen", "frucht"}


def test_lemma4_checker_reads_the_adjacency_rule(monkeypatch):
    monkeypatch.setattr(verify, "_adjacency", lambda graph: lambda i, j: 5)
    report = check_lemma4("k4")
    assert not report.passed
    assert "h(w0, w1) = 4, wanted 5" in report.witnesses[0]


def test_theorem2_checker():
    report = check_theorem2("k33")
    assert report.passed
    assert report.details["group_order"] == "72"


def test_theorem3_checker():
    report = check_theorem3([catalog_graph("k4")], 1)
    assert report.passed
    assert report.details["group_order"] == "24"
    assert report.details["orbit_sizes"] == [1, 4]
    # Frucht's graph has a trivial automorphism group, so its layer is a row
    # of fixed points rather than one orbit of 12
    report = check_theorem3([catalog_graph("k4"), catalog_graph("frucht")])
    assert report.passed, report.witnesses
    assert report.details["group_order"] == "24"
    assert report.details["orbit_sizes"] == [1] * 13 + [4]
    assert check_theorem3([catalog_graph("frucht")], 1).passed


def test_theorem4_checker_records_reading():
    report = check_theorem4(k=2, depth=1)
    assert report.passed
    assert report.details["layer1_group_order"] == "8"
    assert not report.details["closed_form_matches"]
    assert report.details["measured_layer_lengths"] == [20]
    assert report.details["closed_form_layer_lengths"] == [24]


def test_theorem5_checker():
    report = check_theorem5(catalog_graph("k4"), catalog_graph("k33"), depth=1)
    assert report.passed
    assert report.details["group_order"] == str(24 * 72 * 72)
    report = check_theorem5(catalog_graph("k4"), catalog_graph("frucht"), depth=1)
    assert report.passed, report.witnesses
    assert report.details["group_order"] == "24"
    assert report.details["orbit_sizes"] == [1] * 24 + [4]


def _plant(monkeypatch, pair):
    """Make ``verify.distance_matrix`` add 1 to the entry at ``pair``."""
    real = verify.distance_matrix

    def planted(words, w):
        matrix = real(words, w)
        rows = [list(row) for row in matrix.rows]
        a, b = pair
        rows[a][b] = rows[b][a] = rows[a][b] + matrix.den
        return dataclasses.replace(matrix, rows=tuple(map(tuple, rows)))

    monkeypatch.setattr(verify, "distance_matrix", planted)


@pytest.mark.parametrize("check, pair", [
    # theorem5 k4 + k33, depth 1: words 0-3 are the first block, 4-9 and
    # 10-15 the two star layers
    (lambda: check_theorem5(catalog_graph("k4"), catalog_graph("k33")), (0, 1)),
    (lambda: check_theorem5(catalog_graph("k4"), catalog_graph("k33")), (2, 12)),
    # theorem4 k=2, depth 2: word 0 is empty, 1-4 layer 1, 5-20 layer 2
    (lambda: check_theorem4(k=2, depth=2), (6, 12)),
], ids=["theorem5-first-block", "theorem5-block-to-star", "theorem4-layer-2"])
def test_planted_entry_fault_gives_one_witness(monkeypatch, check, pair):
    _plant(monkeypatch, pair)
    report = check()
    assert not report.passed
    entries = [w for w in report.witnesses if w.startswith("lev(")]
    assert len(entries) == 1 and entries[0].startswith(f"lev(#{pair[0]}, #{pair[1]}) = ")


def test_layer_separation_checked_for_lemma5():
    # at theta = 2 the base pair 00/11 is at distance 4, as far apart as the
    # two nearest layers
    report = check_lemma5(depth=1, theta=2)
    assert "layer separation fails: max within 4 >= min cross 4" in report.witnesses


def test_lemma5_checker_reports_truncation_reflection():
    report = check_lemma5(depth=2)
    assert not report.passed
    assert any("ratio 2" in w for w in report.witnesses)
    assert report.details["base_group_order"] == "2"


def test_theorem6_checker_by_weight():
    good = check_theorem6(layers=2, theta=1)
    assert good.passed
    assert good.details["group_order"] == "48"
    bad = check_theorem6(layers=1, theta=2)
    assert not bad.passed
    assert bad.details["group_order"] == "2"  # group is still the full layer swap
    # entries over the denominator 10: the 22 within-layer pairs are at
    # min(2θ, 4γ) = 19/5, and every cross-layer pair at its length gap
    scaled = check_theorem6(layers=3, theta=Fraction(19, 10))
    assert scaled.witnesses[:2] == ["lev(#0, #1) = 19/5, wanted 2", "lev(#2, #3) = 19/5, wanted 2"]
    assert scaled.witnesses[-1] == "... and 10 more"


def test_layer_sizes_and_lengths_are_checked(monkeypatch):
    # theorem6 without the last word of layer 2, and theorem2 with every word
    # one symbol longer than 16|E|
    words6 = list(verify.theorem6_language(3))
    del words6[5]
    words2 = [w + "0" for w in verify.theorem2_language(catalog_graph("k4"))]
    monkeypatch.setattr(verify, "theorem6_language", lambda layers: Language(words6))
    monkeypatch.setattr(verify, "theorem2_language", lambda graph: Language(words2))
    assert "layer sizes [2, 3, 6], wanted [2, 4, 6]" in check_theorem6(layers=3).witnesses
    assert "layer lengths [97], wanted [96]" in check_theorem2("k4").witnesses


def test_negative_sample_counts_are_refused():
    for check in (lambda: check_metric(samples=-1), lambda: check_bounds(samples=-1),
                  lambda: check_homothety(samples=-1), lambda: check_lemma3(samples=-1)):
        with pytest.raises(ValueError, match="samples must be at least 0, got -1"):
            check()
    with pytest.raises(ValueError, match="count must be at least 0, got -3"):
        check_prop3(count=-3)
    # every other count out of range is refused with a message naming it
    for check, message in (
        (lambda: check_metric(max_len=-1), "max_len must be at least 0, got -1"),
        (lambda: check_bounds(max_len=-1), "max_len must be at least 0, got -1"),
        (lambda: check_homothety(max_len=-1), "max_len must be at least 0, got -1"),
        (lambda: check_lemma3(max_len=0), "max_len must be at least 1, got 0"),
        (lambda: check_prop3(max_size=0), "max_size must be between 1 and 40, got 0"),
        (lambda: check_prop3(count=2, max_size=41), "max_size must be between 1 and 40, got 41"),
        (lambda: check_prop3(count=40, max_size=41),
         "max_size must be between 1 and 40, got 41"),
        (lambda: check_theorem6(0), "layers must be at least 1, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()


def _flip_first_symbol(encode):
    """``encode``, with the first symbol of vertex 0's word flipped."""
    def flipped(graph):
        words = list(encode(graph))
        words[0] = "10"[int(words[0][0])] + words[0][1:]
        return words
    return flipped


_PAIR = r"\('[01]*','[01]*'\)"  # a pair of quoted random binary words


# (checker call, name in ``verify``, fault: the real object -> its stand-in,
# patterns of witnesses the fault must produce)
@pytest.mark.parametrize("check, name, fault, witnesses", [
    pytest.param(lambda: check_metric(samples=50), "lev",
                 lambda lev: lambda u, v, w: lev(u, v, w) + 1,
                 [r"lev\(('[01]*'),\1\) = 1 != 0"], id="metric-identity"),
    pytest.param(lambda: check_metric(samples=50), "lev",
                 lambda lev: lambda u, v, w: 0 * lev(u, v, w),
                 [rf"lev{_PAIR} = 0 not positive"], id="metric-positivity"),
    pytest.param(lambda: check_metric(samples=50), "lev",
                 lambda lev: lambda u, v, w: lev(u, v, w) + (u < v),
                 [rf"asymmetry on {_PAIR}"], id="metric-symmetry"),
    pytest.param(lambda: check_metric(samples=50), "lev",
                 lambda lev: lambda u, v, w: lev(u, v, w) ** 2,
                 [rf"triangle fails: lev{_PAIR}=\d+ > \d+ \+ \d+"], id="metric-triangle"),
    # still a metric, but one that counts the context's length
    pytest.param(lambda: check_metric(samples=50), "lev",
                 lambda lev: lambda u, v, w: lev(u, v, w) + (len(u) + len(v)) * (u != v),
                 [r"context invariance fails on \(('[01]*',){3}'[01]*'\)"], id="metric-context"),
    pytest.param(lambda: check_metric(samples=50), "lev",
                 lambda lev: lambda u, v, w: lev(u, v, w) + (u[:1] != v[:1]),
                 [rf"reversal invariance fails on {_PAIR}"], id="metric-reversal"),
    pytest.param(lambda: check_bounds(samples=50), "lev",
                 lambda lev: lambda u, v, w: 2 * lev(u, v, w),
                 [rf"upper bound fails: lev{_PAIR}=\d+ > \d+"], id="bounds-upper"),
    pytest.param(lambda: check_bounds(samples=50), "lev",
                 lambda lev: lambda u, v, w: lev(u, v, w) / 2,
                 [rf"lower bound fails: lev{_PAIR}=[\d/]+ < \d+",
                  rf"equality characterisation fails on {_PAIR}: "
                  r"lev=[\d/]+, bound=\d+, subsequence=True"], id="bounds-lower"),
    pytest.param(lambda: check_homothety(samples=10), "normalize",
                 lambda normalize: lambda w: dataclasses.replace(normalize(w), scale=1),
                 [r"lev\('[01]*','[01]*',[\d/]+,[\d/]+\) = [\d/]+ "
                  r"!= 1 \* lev_\(1,[\d/]+\) = [\d/]+"], id="homothety"),
    pytest.param(lambda: check_prop3(count=3), "isometries",
                 lambda isometries: lambda matrix: types.SimpleNamespace(order=lambda: 3),
                 [r"lengths \[[\d, ]+\] give group order 3",
                  r"arithmetic progression \[[\d, ]+\] gives order 3, wanted 2"], id="prop3"),
    pytest.param(lambda: check_prop4(3), "prop4_language",
                 lambda build: lambda n: Language(list(build(n)) + ["01"]),
                 [re.escape("lev_2('00','01') = 2, wanted 0"),
                  "truncation group order 4, wanted 2"], id="prop4"),
    pytest.param(lambda: check_theorem1(Language(["a", "aaa"])), "theorem1_audit",
                 lambda audit: lambda lang, group, w: AuditReport(0, False, (("a", "aaa", 2),)),
                 [re.escape("orbit spread 2 > bound 0: 'a' ~ 'aaa'")], id="theorem1"),
    pytest.param(lambda: check_lemma4("k4"), "encode_cubic_graph", _flip_first_symbol,
                 ["k4: bad incidence word for vertex 0",
                  re.escape("k4: h(w0, w1) = 5, wanted 4")], id="lemma4"),
    # K4's words, but the automorphisms of one edge on its four vertices
    pytest.param(lambda: check_theorem2("k4"), "graph_automorphisms",
                 lambda auts: lambda graph: auts(SimpleGraph.from_edges(graph.n, [(0, 1)])),
                 ["graph automorphism order 4 != catalog 24",
                  "isometry group differs from transported automorphism group"], id="theorem2"),
    pytest.param(lambda: check_theorem3([catalog_graph("k4")]), "growth",
                 lambda growth: lambda lang, n: 2 + n,
                 [re.escape("growth(0) = 2 exceeds 1 + 0/24")], id="theorem3-growth"),
    pytest.param(lambda: check_theorem4(2, 1), "factorial",
                 lambda factorial: lambda n: factorial(n) + 1,
                 [re.escape("layer-1 group order 8 matches neither reading "
                            "(statement 27, proof 27)")], id="theorem4-reading"),
    pytest.param(lambda: check_theorem4(2, 1), "prod",
                 lambda prod: lambda orders: prod(orders) + 1,
                 ["full group order 8, product of layer orders 9"], id="theorem4-product"),
    # every image moves one place left, which mixes the layers
    pytest.param(lambda: check_lemma5(depth=1), "Permutation",
                 lambda perm: lambda images: perm(images[1:] + images[:1]),
                 [re.escape("layer-0 copy of base generator Permutation[(0 1)] is not an "
                            "isometry")], id="lemma5-embedding"),
])
def test_planted_fault_gives_its_witness(monkeypatch, check, name, fault, witnesses):
    """Every checker's FAIL branches: a fault planted in one name that
    ``verify`` calls fails the claim with that fault's witnesses."""
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    report = check()
    assert not report.passed
    for pattern in witnesses:
        assert any(re.fullmatch(pattern, w) for w in report.witnesses), (pattern, report.witnesses)


def test_elapsed_covers_the_checkers_work(monkeypatch):
    real_lev, real_matrix = verify.lev, verify.distance_matrix

    def slow_lev(*args):
        time.sleep(0.01)
        return real_lev(*args)

    def slow_matrix(*args):
        time.sleep(0.2)
        return real_matrix(*args)

    monkeypatch.setattr(verify, "lev", slow_lev)
    monkeypatch.setattr(verify, "distance_matrix", slow_matrix)
    # seven lev calls per sample
    assert check_metric(samples=3).elapsed >= 21 * 0.01
    # the base matrix, then the language's
    assert check_lemma5(depth=1).elapsed >= 2 * 0.2


def test_report_json_shape():
    report = check_metric(samples=20)
    payload = report.to_json_dict()
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["claim"] == "metric"
    assert parsed["passed"] is True
    assert "elapsed_seconds" in parsed
    assert parsed["params"]["samples"] == 20
    # rationals in reports are strings or ints, never floats
    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(parsed["params"]) and no_floats(parsed["details"])


def test_report_header_counts_only_witness_lines():
    report = check_theorem6(layers=3, theta=2)
    assert len(report.witnesses) == 13 and report.witnesses[-1] == "... and 10 more"
    text = report.render()
    assert "witnesses (12 shown):" in text
    assert text.endswith("  - ... and 10 more")


def test_report_render_mentions_parameters():
    report = check_theorem6(layers=2, theta=1)
    text = report.render()
    assert "layers=2" in text and "theta=1" in text
    assert "PASS" in text
