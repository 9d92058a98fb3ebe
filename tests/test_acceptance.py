"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each test gathers every violation before asserting, so a red test carries the
full list of exact counterexamples in its failure message.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from isolev.cli import main as cli_main
from isolev.constructs import (
    catalog_graph,
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
from isolev.editdist import (
    ORACLE_MAX_LEN,
    DistanceMatrix,
    Weights,
    distance_matrix,
    hamming,
    lev,
    lev_oracle,
)
from isolev.langlib import HypothesisViolated, Language, growth, stretch, theorem1_audit
from isolev.isomgroup import (
    Permutation,
    graph_automorphisms,
    isometries,
    isometries_brute,
    same_group,
)
from isolev.verify import check_bounds, check_homothety, check_metric

WEIGHT_GRID = (Weights(1, 1), Weights(1, 2), Weights(2, 1), Weights(1, Fraction(3, 2)))


def _finish(cid, violations, extra=""):
    status = "FAIL" if violations else "PASS"
    note = f" ({extra})" if extra else ""
    print(f"[acceptance] {cid}: {status}{note}")
    assert not violations, f"{cid}: {len(violations)} violation(s), first 5: {violations[:5]}"


def _binary_words(max_len):
    words = [""]
    for n in range(1, max_len + 1):
        words.extend(format(b, f"0{n}b") for b in range(2**n))
    return words


@lru_cache(maxsize=None)
def _theorem2_fixture(name):
    graph = catalog_graph(name)
    lang = theorem2_language(graph)
    matrix = distance_matrix(lang)
    return graph, lang, matrix, isometries(matrix)


@lru_cache(maxsize=None)
def _theorem6_fixture(theta):
    lang = theorem6_language(3)
    matrix = distance_matrix(lang, Weights(1, theta))
    return lang, matrix, isometries(matrix)


@lru_cache(maxsize=None)
def _theorem5_fixture():
    lang = theorem5_language(catalog_graph("k4"), catalog_graph("k33"), 1)
    matrix = distance_matrix(lang)
    return lang, matrix, isometries(matrix)


@lru_cache(maxsize=None)
def _lemma5_fixture():
    lang = lemma5_language(Language(["00", "11"]), 3)
    matrix = distance_matrix(lang)
    return lang, matrix, isometries(matrix)


@lru_cache(maxsize=None)
def _theorem3_fixture():
    lang = theorem3_language([catalog_graph("k4"), catalog_graph("petersen")], 2)
    matrix = distance_matrix(lang)
    return lang, matrix, isometries(matrix)


@lru_cache(maxsize=None)
def _theorem4_fixture(k):
    full = theorem4_language(k, 1)
    layer = Language([w for w in full if w])
    matrix = distance_matrix(layer)
    return full, layer, matrix, isometries(matrix)


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    words = _binary_words(5)
    violations = []
    for w in WEIGHT_GRID:
        for u in words:
            for v in words:
                a = lev(u, v, w)
                b = lev_oracle(u, v, w)
                if a != b:
                    violations.append(f"lev({u!r},{v!r},{w.gamma},{w.theta})={a} oracle={b}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        violations.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _finish("criterion 01 oracle equivalence", violations, f"{len(words) ** 2 * 4} pairs, {elapsed:.1f}s")


def test_c02_metric_and_bound_suite():
    violations = []
    for report in (
        check_metric(samples=1000, max_len=12, seed=11),
        check_metric(gamma=2, theta=3, samples=1000, max_len=12, seed=12),
        check_bounds(samples=1000, max_len=12, seed=13),
        check_bounds(gamma=3, theta=2, samples=1000, max_len=12, seed=14),
    ):
        if not report.passed:
            violations.extend(report.witnesses)
    _finish("criterion 02 metric and bounds", violations)


def test_c03_homothety():
    report = check_homothety(samples=500, seed=15)
    violations = [] if report.passed else list(report.witnesses)
    if report.details["cases_with_ratio_above_two"] == 0:
        violations.append("no samples with theta/gamma > 2")
    _finish("criterion 03 homothety", violations)


def test_c04_stretch_distance_equals_hamming_across_weights():
    # Identity: stretched words keep their symbol-by-symbol alignment, which
    # costs theta per mismatch, and a mismatch never costs more than the two
    # indels (2*gamma) that could replace it.  So the distance between the two
    # stretched words is min(theta, 2)*hamming at gamma=1; it equals the plain
    # Hamming distance only at theta=1, as `verify lemma3` keeps reporting.
    rng = random.Random(16)
    thetas = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
    violations = []
    samples = 0
    while samples < 200:
        length = rng.randint(1, 5)
        w1 = "".join(rng.choice("01") for _ in range(length))
        w2 = "".join(rng.choice("01") for _ in range(length))
        a = rng.choice("01")
        b = "1" if a == "0" else "0"
        h = hamming(w1, w2)
        k = h + rng.randint(1, 3)
        pattern = a * k + b + a * k
        theta = thetas[samples % 4]
        samples += 1
        want = min(theta, 2) * h
        got = lev(stretch(w1, pattern), stretch(w2, pattern), Weights(1, theta))
        if got != want:
            violations.append(
                f"w1={w1!r} w2={w2!r} k={k} theta={theta}: stretched lev={got}, "
                f"min(theta, 2)*hamming={want}"
            )
    # the exhaustive oracle confirms the identity on every stretched pair short
    # enough for it: single-symbol words under k=2 patterns (length 6)
    oracle_pairs = 0
    for theta, a, w1, w2 in product(thetas, "01", "01", "01"):
        weights = Weights(1, theta)
        pattern = a * 2 + ("1" if a == "0" else "0") + a * 2
        s1, s2 = stretch(w1, pattern), stretch(w2, pattern)
        want = min(theta, 2) * hamming(w1, w2)
        got, oracle = lev(s1, s2, weights), lev_oracle(s1, s2, weights)
        oracle_pairs += 1
        if got != want or oracle != want:
            violations.append(
                f"{s1!r} vs {s2!r} theta={theta}: lev={got}, oracle={oracle}, wanted {want}"
            )
    _finish("criterion 04 stretch distance equals min(theta, 2)*hamming", violations,
            f"{samples} tuples, {oracle_pairs} oracle pairs")


def test_c05_incidence_pipeline():
    t0 = time.perf_counter()
    violations = []
    for name, expected in (("k4", 24), ("k33", 72), ("petersen", 120)):
        graph, lang, matrix, group = _theorem2_fixture(name)
        enc = encode_cubic_graph(graph)
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                want = 4 if graph.has_edge(i, j) else 6
                if hamming(enc[i], enc[j]) != want:
                    violations.append(f"{name}: hamming(w{i},w{j}) != {want}")
                if matrix.entry(i, j) != want:
                    violations.append(f"{name}: lev(w{i},w{j}) = {matrix.entry(i, j)} != {want}")
        if any(len(w) != 16 * graph.edge_count for w in lang):
            violations.append(f"{name}: word length != 16|E|")
        if group.order() != expected:
            violations.append(f"{name}: group order {group.order()} != {expected}")
        auts = graph_automorphisms(graph)
        if not same_group(group, auts):
            violations.append(f"{name}: isometry group != transported automorphisms")
    _, _, _, frucht_group = _theorem2_fixture("frucht")
    if frucht_group.order() != 1:
        violations.append(f"frucht: group order {frucht_group.order()} != 1")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        violations.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _finish("criterion 05 incidence pipeline", violations, f"{elapsed:.1f}s")


def test_c06_single_block_layers():
    # Across layers the distance is the length gap.  Two words of one layer
    # differ only in where their 110-block sits, at Hamming distance 2, so
    # they cost two substitutions or two indel pairs: min(2*theta, 4).  The
    # literal max(gap, 2) formula holds only at theta=1, as
    # `verify theorem6 --theta 2` keeps reporting.
    violations = []
    for theta in (Fraction(1), Fraction(2)):
        weights = Weights(1, theta)
        lang, matrix, group = _theorem6_fixture(theta)
        for i in range(len(lang)):
            for j in range(i + 1, len(lang)):
                u, v = lang[i], lang[j]
                if len(u) == len(v):
                    want = min(2 * theta, Fraction(4))
                    if hamming(u, v) != 2:
                        violations.append(f"hamming({u!r},{v!r}) = {hamming(u, v)} != 2")
                else:
                    want = Fraction(abs(len(u) - len(v)))
                got = matrix.entry(i, j)
                if got != want:
                    violations.append(
                        f"theta={theta}: lev({u!r},{v!r}) = {got}, wanted {want}"
                    )
                if len(v) <= ORACLE_MAX_LEN and lev_oracle(u, v, weights) != want:
                    violations.append(
                        f"theta={theta}: oracle({u!r},{v!r}) = "
                        f"{lev_oracle(u, v, weights)}, wanted {want}"
                    )
        if group.order() != 34560:
            violations.append(f"theta={theta}: group order {group.order()} != 34560")
        if sorted(group.orbits().sizes()) != [2, 4, 6]:
            violations.append(f"theta={theta}: orbit sizes {sorted(group.orbits().sizes())}")
    _finish("criterion 06 single-block layers: length gap across, min(2*theta, 4) within",
            violations)


def test_c07_starred_layer_truncations():
    # The depth-3 truncation of the starred layers over {00, 11} is a finite
    # segment of layers: within a layer the distances are the base language's,
    # across layers they are 2n|p-q|, which depends only on |p-q|.  So besides
    # a copy of the base swap in each of the 4 layers, the truncation has the
    # layer-order reversal (p, i) -> (3-p, i), and its group has order
    # 2 * 2^4 = 32 (likewise 8 and 16 at depths 1 and 2).  The one-ended
    # infinite construction has no reversal; `verify lemma5` keeps reporting
    # the literal 2^(depth+1).
    violations = []
    star_lang, star_matrix, star_group = _lemma5_fixture()
    depth, size = 3, 2
    if star_group.order() != 32:
        violations.append(
            f"lemma5 depth-3 group order {star_group.order()} != 2 * 2^4 = 32"
        )
    if not same_group(star_group, isometries_brute(star_matrix)):
        violations.append("lemma5 depth-3 group != brute-force isometry group")
    for p in range(depth + 1):
        images = list(range(len(star_lang)))
        images[p * size], images[p * size + 1] = p * size + 1, p * size
        if not star_group.contains(Permutation(images)):
            violations.append(f"layer-{p} copy of the base swap is not an isometry")
    reversal = Permutation(
        (depth - p) * size + i for p in range(depth + 1) for i in range(size)
    )
    if not star_group.contains(reversal):
        violations.append(f"layer-order reversal {reversal!r} is not in the group")
    for a in range(len(star_lang)):
        for b in range(a + 1, len(star_lang)):
            if star_matrix.entry(a, b) != star_matrix.entry(reversal(a), reversal(b)):
                violations.append(f"reversal moves distance ({a},{b})")
    lang, matrix, group = _theorem5_fixture()
    if group.order() != 124416:
        violations.append(f"theorem5 group order {group.order()} != 24*72^2 = 124416")
    m = 144
    size2 = 6
    star_start = 4
    for p in range(2):
        for q in range(2):
            for i in range(size2):
                for j in range(size2):
                    a = star_start + p * size2 + i
                    b = star_start + q * size2 + j
                    if a >= b or p == q:
                        continue
                    want = Fraction(2 * m * abs(p - q))
                    if matrix.entry(a, b) != want:
                        violations.append(
                            f"star cross-layer ({p},{i})-({q},{j}): "
                            f"{matrix.entry(a, b)} != {want}"
                        )
    _finish("criterion 07 starred layers: truncation order 2*2^4 with reversal", violations)


def test_c08_graph_sequence_layers():
    lang, matrix, group = _theorem3_fixture()
    violations = []
    if group.order() != 2880:
        violations.append(f"group order {group.order()} != 24*120 = 2880")
    if sorted(group.orbits().sizes()) != [1, 4, 10]:
        violations.append(f"orbit sizes {sorted(group.orbits().sizes())} != [1, 4, 10]")
    for n in range(max(lang.lengths()) + 1):
        if growth(lang, n) > 1 + Fraction(n, 24):
            violations.append(f"growth({n}) = {growth(lang, n)} > 1 + {n}/24")
            break
    _finish("criterion 08 graph-sequence layers", violations)


def test_c09_all_words_layers():
    violations = []
    _, _, _, group2 = _theorem4_fixture(2)
    if group2.order() != 8:
        violations.append(f"k=2 layer group order {group2.order()} != 8")
    _, _, _, group3 = _theorem4_fixture(3)
    statement = factorial(3) ** 3 * factorial(3)  # 1296
    proof = factorial(3) ** 3 * factorial(2)  # 432
    matched = [o for o in (statement, proof) if o == group3.order()]
    if len(matched) != 1:
        violations.append(
            f"k=3 layer group order {group3.order()} matches {len(matched)} of "
            f"({statement}, {proof}); exactly one expected"
        )
    extra = f"k=3 order {group3.order()} matches {'statement' if group3.order() == statement else 'proof'} reading"
    _finish("criterion 09 all-words layers", violations, extra)


def test_c10_orbit_length_audit():
    violations = []
    audited = 0
    fixtures = [
        ("theorem2 k4", *_theorem2_fixture("k4")[1:4:2]),
        ("theorem2 k33", *_theorem2_fixture("k33")[1:4:2]),
        ("theorem2 petersen", *_theorem2_fixture("petersen")[1:4:2]),
        ("theorem2 frucht", *_theorem2_fixture("frucht")[1:4:2]),
        ("theorem6 T3", _theorem6_fixture(Fraction(1))[0], _theorem6_fixture(Fraction(1))[2]),
        ("theorem5", _theorem5_fixture()[0], _theorem5_fixture()[2]),
        ("lemma5", _lemma5_fixture()[0], _lemma5_fixture()[2]),
        ("theorem3", _theorem3_fixture()[0], _theorem3_fixture()[2]),
        ("theorem4 k2 layer", _theorem4_fixture(2)[1], _theorem4_fixture(2)[3]),
        ("theorem4 k3 layer", _theorem4_fixture(3)[1], _theorem4_fixture(3)[3]),
    ]
    prop4_lang = prop4_language(6)
    prop4_group = isometries(distance_matrix(prop4_lang))
    fixtures.append(("prop4 theta=1", prop4_lang, prop4_group))
    for name, lang, group in fixtures:
        report = theorem1_audit(lang, group, Weights(1, 1))
        audited += 1
        if not report.passed:
            violations.append(f"{name}: audit failed with bound {report.bound}")

    # the excluded regime refuses, through the library and through the CLI
    try:
        theorem1_audit(prop4_lang, prop4_group, Weights(1, 2))
        violations.append("audit accepted theta=2")
    except HypothesisViolated:
        pass
    import tempfile, json, os

    with tempfile.TemporaryDirectory() as td:
        lang_path = os.path.join(td, "p4.lang")
        assert cli_main(["construct", "prop4", "--max", "12", "--out", lang_path]) == 0
        code = cli_main(["verify", "theorem1", "--lang", lang_path, "--theta", "2"])
        if code != 2:
            violations.append(f"verify theorem1 at theta=2 exited {code}, wanted 2")
        # matrix at theta=2 realises the line metric: lev_2(0^a, 1^b) = a + b
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["matrix", "--lang", lang_path, "--theta", "2",
                             "--format", "json"])
        if code != 0:
            violations.append(f"matrix command exited {code}")
        payload = json.loads(buf.getvalue())
        words = payload["words"]
        for a in range(1, 13):
            for b in range(1, 13):
                i, j = words.index("0" * a), words.index("1" * b)
                got = payload["entries"][i][j]
                if got != a + b:
                    violations.append(f"lev_2(0^{a},1^{b}) = {got} != {a + b}")
    _finish("criterion 10 orbit length audit", violations, f"{audited} fixtures audited")


def test_c11_one_symbol_languages():
    rng = random.Random(17)
    violations = []
    for _ in range(20):
        size = rng.randint(1, 12)
        lengths = rng.sample(range(0, 40), size)
        group = isometries(distance_matrix(unary_language(lengths)))
        if group.order() not in (1, 2):
            violations.append(f"lengths {sorted(lengths)}: order {group.order()}")
    for size in range(2, 8):
        start, step = rng.randint(0, 5), rng.randint(1, 5)
        lengths = [start + step * i for i in range(size)]
        group = isometries(distance_matrix(unary_language(lengths)))
        if group.order() != 2:
            violations.append(f"progression {lengths}: order {group.order()} != 2")
    _finish("criterion 11 one-symbol languages", violations)


def test_c12_solver_completeness():
    violations = []

    def compare(tag, matrix):
        fast = isometries(matrix)
        slow = isometries_brute(matrix)
        if fast.order() != slow.order() or not same_group(fast, slow):
            violations.append(
                f"{tag}: solver order {fast.order()}, brute order {slow.order()}"
            )

    compare("two points", distance_matrix(["a", "b"]))
    compare("line 1-2-4", distance_matrix(unary_language([1, 2, 4])))
    compare("progression", distance_matrix(unary_language([1, 3, 5])))
    compare("theorem2 k4", _theorem2_fixture("k4")[2])
    compare("theorem2 k33", _theorem2_fixture("k33")[2])
    compare("encode k4", distance_matrix(encode_cubic_graph(catalog_graph("k4"))))
    compare("theorem6 T2", distance_matrix(theorem6_language(2)))
    compare("lemma5 depth2", distance_matrix(lemma5_language(Language(["00", "11"]), 2)))
    compare("prop4 N3 theta2", distance_matrix(prop4_language(3), Weights(1, 2)))
    compare("theorem4 k2 layer", _theorem4_fixture(2)[2])

    rng = random.Random(18)
    values = [4, 5, 6, 7, 8]  # 1, 5/4, 3/2, 7/4, 2 over the denominator 4
    for trial in range(50):
        degree = rng.randint(2, 7)
        rows = [[0] * degree for _ in range(degree)]
        for i in range(degree):
            for j in range(i + 1, degree):
                d = rng.choice(values)
                rows[i][j] = rows[j][i] = d
        matrix = DistanceMatrix(
            tuple(f"w{i}" for i in range(degree)),
            tuple(tuple(r) for r in rows),
            4,
        )
        matrix.validate()
        compare(f"random #{trial} degree {degree}", matrix)
    _finish("criterion 12 solver completeness", violations)
