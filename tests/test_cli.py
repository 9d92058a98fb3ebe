import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import isolev
from isolev.cli import main
from isolev.langlib import Language, load_language
from isolev.verify import DEFAULT_SEED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_numpy():
    """isolev has no runtime dependencies: importing it and its CLI in a
    fresh interpreter loads no numpy."""
    src = str(Path(isolev.__file__).resolve().parent.parent)
    code = "import sys, isolev, isolev.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_dist_basic(capsys):
    code, out, _ = run(capsys, "dist", "kitten", "sitting")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "dist", "<eps>", "011", "--gamma", "1", "--theta", "1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "dist", "0", "1", "--gamma", "1", "--theta", "1/2")
    assert code == 0 and out.strip() == "1/2"


def test_dist_input_errors(capsys):
    code, _, err = run(capsys, "dist", "0", "1", "--theta", "0.5")
    assert code == 2 and "malformed rational" in err
    code, _, err = run(capsys, "dist", "a b", "c")
    assert code == 2
    code, _, err = run(capsys, "dist", "0", "1", "--gamma", "0")
    assert code == 2
    for flag, zero_denominator in (("--theta", "1/0"), ("--gamma", "0/0")):
        code, _, err = run(capsys, "dist", "a", "b", flag, zero_denominator)
        assert code == 2 and "malformed rational" in err


def test_usage_errors_exit_two(capsys):
    assert main(["nonsense"]) == 2
    assert main(["dist", "onlyone"]) == 2
    assert main([]) == 2


def test_parser_is_built_once(capsys, monkeypatch):
    """main reuses one parser: a second call constructs no ArgumentParser,
    prints the same, and a usage error leaves the parser fit for the next call."""
    first = run(capsys, "dist", "kitten", "sitting")
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "dist", "kitten", "sitting") == first == (0, "3\n", "")
    assert run(capsys, "dist", "onlyone")[0] == 2
    assert run(capsys, "dist", "kitten", "sitting") == first
    assert built == 0


def test_matrix_tsv_and_json(tmp_path, capsys):
    lang_file = tmp_path / "t6.lang"
    code, out, _ = run(capsys, "construct", "theorem6", "--layers", "1",
                       "--out", str(lang_file))
    assert code == 0 and "2 words" in out

    code, out, _ = run(capsys, "matrix", "--lang", str(lang_file))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["110010", "010110"]
    assert lines[1].split("\t") == ["0", "2"]

    code, out, _ = run(capsys, "matrix", "--lang", str(lang_file), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["words"] == ["110010", "010110"]
    assert payload["entries"][0][1] == 2


def test_matrix_prop4_entry(tmp_path, capsys):
    lang_file = tmp_path / "p4.lang"
    assert run(capsys, "construct", "prop4", "--max", "3", "--out", str(lang_file))[0] == 0
    code, out, _ = run(capsys, "matrix", "--lang", str(lang_file),
                       "--gamma", "1", "--theta", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    words = payload["words"]
    i, j = words.index("000"), words.index("11")
    assert payload["entries"][i][j] == 5


def test_matrix_rejects_duplicates(tmp_path, capsys):
    bad = tmp_path / "dup.lang"
    bad.write_text("01\n01\n")
    code, _, err = run(capsys, "matrix", "--lang", str(bad))
    assert code == 2 and "duplicate" in err


# Outputs of a language whose entries are not integers, fixed literally so
# that any change to the distance or matrix code that alters a byte fails.
# At gamma = 2/3, theta = 1 runs the row DP and theta = 3/2 the LCS kernel.
PINNED_WORDS = "<eps>\na\nb\nab\nba\naab\nbba\n"
PINNED_ISOM = ('{"degree": 7, "order": "4", "generators": [[0, 2, 1, 3, 4, 5, 6], '
               '[0, 1, 2, 4, 3, 6, 5]], "orbit_sizes": [1, 2, 2, 2]}\n')
PINNED = {
    "1": (
        "<eps>\ta\tb\tab\tba\taab\tbba\n"
        "0\t2/3\t2/3\t4/3\t4/3\t2\t2\n"
        "2/3\t0\t1\t2/3\t2/3\t4/3\t4/3\n"
        "2/3\t1\t0\t2/3\t2/3\t4/3\t4/3\n"
        "4/3\t2/3\t2/3\t0\t4/3\t2/3\t5/3\n"
        "4/3\t2/3\t2/3\t4/3\t0\t5/3\t2/3\n"
        "2\t4/3\t4/3\t2/3\t5/3\t0\t7/3\n"
        "2\t4/3\t4/3\t5/3\t2/3\t7/3\t0\n",
        '{"words": ["", "a", "b", "ab", "ba", "aab", "bba"], "entries": '
        '[[0, "2/3", "2/3", "4/3", "4/3", 2, 2], ["2/3", 0, 1, "2/3", "2/3", "4/3", "4/3"], '
        '["2/3", 1, 0, "2/3", "2/3", "4/3", "4/3"], ["4/3", "2/3", "2/3", 0, "4/3", "2/3", "5/3"], '
        '["4/3", "2/3", "2/3", "4/3", 0, "5/3", "2/3"], [2, "4/3", "4/3", "2/3", "5/3", 0, "7/3"], '
        '[2, "4/3", "4/3", "5/3", "2/3", "7/3", 0]]}\n',
    ),
    "3/2": (
        "<eps>\ta\tb\tab\tba\taab\tbba\n"
        "0\t2/3\t2/3\t4/3\t4/3\t2\t2\n"
        "2/3\t0\t4/3\t2/3\t2/3\t4/3\t4/3\n"
        "2/3\t4/3\t0\t2/3\t2/3\t4/3\t4/3\n"
        "4/3\t2/3\t2/3\t0\t4/3\t2/3\t2\n"
        "4/3\t2/3\t2/3\t4/3\t0\t2\t2/3\n"
        "2\t4/3\t4/3\t2/3\t2\t0\t8/3\n"
        "2\t4/3\t4/3\t2\t2/3\t8/3\t0\n",
        '{"words": ["", "a", "b", "ab", "ba", "aab", "bba"], "entries": '
        '[[0, "2/3", "2/3", "4/3", "4/3", 2, 2], ["2/3", 0, "4/3", "2/3", "2/3", "4/3", "4/3"], '
        '["2/3", "4/3", 0, "2/3", "2/3", "4/3", "4/3"], ["4/3", "2/3", "2/3", 0, "4/3", "2/3", 2], '
        '["4/3", "2/3", "2/3", "4/3", 0, 2, "2/3"], [2, "4/3", "4/3", "2/3", 2, 0, "8/3"], '
        '[2, "4/3", "4/3", 2, "2/3", "8/3", 0]]}\n',
    ),
}


def test_matrix_and_isom_output_pinned(tmp_path, capsys):
    lang_file = tmp_path / "pinned.lang"
    lang_file.write_text(PINNED_WORDS)
    for theta, (tsv, js) in PINNED.items():
        weights = ["--lang", str(lang_file), "--gamma", "2/3", "--theta", theta]
        assert run(capsys, "matrix", *weights) == (0, tsv, "")
        assert run(capsys, "matrix", *weights, "--format", "json") == (0, js, "")
        assert run(capsys, "isom", *weights) == (0, PINNED_ISOM, "")


# Nine generators on three layers, in the order the search finds them.
PINNED_THEOREM6_ISOM = (
    '{"degree": 12, "order": "34560", "generators": ['
    '[0, 1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11], [0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11], '
    '[0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11], [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11], '
    '[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 10], [0, 1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11], '
    '[0, 1, 2, 4, 3, 5, 6, 7, 8, 9, 10, 11], [0, 1, 2, 3, 5, 4, 6, 7, 8, 9, 10, 11], '
    '[1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]], "orbit_sizes": [2, 4, 6]}\n'
)


def test_theorem6_isom_generators_pinned(tmp_path, capsys):
    lang_file = tmp_path / "t6.lang"
    assert run(capsys, "construct", "theorem6", "--layers", "3", "--out", str(lang_file))[0] == 0
    assert run(capsys, "isom", "--lang", str(lang_file), "--theta", "3/2") == (
        0, PINNED_THEOREM6_ISOM, "")


# Reports of every layered construction claim at its defaults, fixed
# literally (elapsed time masked) so that the claim checkers keep every byte.
PINNED_REPORTS = {
    "theorem2": (0, (
        "claim: theorem2\n"
        "params: graph=k4 theta=1\n"
        "result: PASS (T)\n"
        "  words: 4\n"
        "  word_length: 96\n"
        "  group_order: 24\n"
    ), (
        '{"claim": "theorem2", "params": {"graph": "k4", "theta": 1}, "passed": true, '
        '"witnesses": [], "details": {"words": 4, "word_length": 96, "group_order": "24"}, '
        '"elapsed_seconds": T}\n'
    )),
    "theorem3": (0, (
        "claim: theorem3\n"
        "params: layers=2 theta=1\n"
        "result: PASS (T)\n"
        "  words: 15\n"
        "  layer_lengths: [110, 474]\n"
        "  group_order: 2880\n"
        "  orbit_sizes: [1, 4, 10]\n"
    ), (
        '{"claim": "theorem3", "params": {"layers": 2, "theta": 1}, "passed": true, '
        '"witnesses": [], "details": {"words": 15, "layer_lengths": [110, 474], '
        '"group_order": "2880", "orbit_sizes": [1, 4, 10]}, "elapsed_seconds": T}\n'
    )),
    "theorem4": (0, (
        "claim: theorem4\n"
        "params: k=2 depth=1 theta=1\n"
        "result: PASS (T)\n"
        "  words: 5\n"
        "  measured_layer_lengths: [20]\n"
        "  closed_form_layer_lengths: [24]\n"
        "  closed_form_matches: False\n"
        "  layer1_group_order: 8\n"
        "  matched_reading: [proof, statement]\n"
        "  group_order: 8\n"
    ), (
        '{"claim": "theorem4", "params": {"k": 2, "depth": 1, "theta": 1}, "passed": true, '
        '"witnesses": [], "details": {"words": 5, "measured_layer_lengths": [20], '
        '"closed_form_layer_lengths": [24], "closed_form_matches": false, '
        '"layer1_group_order": "8", "matched_reading": ["proof", "statement"], '
        '"group_order": "8"}, "elapsed_seconds": T}\n'
    )),
    "theorem5": (0, (
        "claim: theorem5\n"
        "params: depth=1 theta=1\n"
        "result: PASS (T)\n"
        "  words: 16\n"
        "  block_lengths: [96, 144]\n"
        "  group_order: 124416\n"
        "  orbit_sizes: [4, 6, 6]\n"
    ), (
        '{"claim": "theorem5", "params": {"depth": 1, "theta": 1}, "passed": true, '
        '"witnesses": [], "details": {"words": 16, "block_lengths": [96, 144], '
        '"group_order": "124416", "orbit_sizes": [4, 6, 6]}, "elapsed_seconds": T}\n'
    )),
    "lemma5": (1, (
        "claim: lemma5\n"
        "params: base_words=2 depth=2 theta=1\n"
        "result: FAIL (T)\n"
        "  words: 6\n"
        "  base_group_order: 2\n"
        "  group_order: 16\n"
        "witnesses (1 shown):\n"
        "  - group order 16, wanted 8 (ratio 2)\n"
    ), (
        '{"claim": "lemma5", "params": {"base_words": 2, "depth": 2, "theta": 1}, '
        '"passed": false, "witnesses": ["group order 16, wanted 8 (ratio 2)"], '
        '"details": {"words": 6, "base_group_order": "2", "group_order": "16"}, '
        '"elapsed_seconds": T}\n'
    )),
    "theorem6": (0, (
        "claim: theorem6\n"
        "params: layers=3 theta=1\n"
        "result: PASS (T)\n"
        "  words: 12\n"
        "  group_order: 34560\n"
        "  orbit_sizes: [2, 4, 6]\n"
    ), (
        '{"claim": "theorem6", "params": {"layers": 3, "theta": 1}, "passed": true, '
        '"witnesses": [], "details": {"words": 12, "group_order": "34560", '
        '"orbit_sizes": [2, 4, 6]}, "elapsed_seconds": T}\n'
    )),
}


def masked(capsys, *argv):
    """``run`` of ``verify argv`` with the elapsed time masked as T."""
    code, out, err = run(capsys, "verify", *argv)
    out = re.sub(r"\(\d+\.\d\ds\)", "(T)", out)
    return code, re.sub(r'"elapsed_seconds": [0-9.]+', '"elapsed_seconds": T', out), err


def test_construction_reports_pinned(capsys):
    for claim, (code, text, js) in PINNED_REPORTS.items():
        assert masked(capsys, claim) == (code, text, "")
        assert masked(capsys, claim, "--json") == (code, js, "")


# Reports of the other eight claims at small sizes, fixed literally in the
# same way: argv, exit code, text, JSON.  LANG stands for a four-word file.
PINNED_CLAIM_REPORTS = {
    "metric": (("metric", "--samples", "20"), 0, (
        "claim: metric\n"
        "params: gamma=1 theta=1 samples=20 max_len=12 seed=20240817\n"
        "result: PASS (T)\n"
        "  checked_samples: 20\n"
    ), (
        '{"claim": "metric", "params": {"gamma": 1, "theta": 1, "samples": 20, '
        '"max_len": 12, "seed": 20240817}, "passed": true, "witnesses": [], '
        '"details": {"checked_samples": 20}, "elapsed_seconds": T}\n'
    )),
    "bounds": (("bounds", "--samples", "20", "--gamma", "2", "--theta", "3"), 0, (
        "claim: bounds\n"
        "params: gamma=2 theta=3 samples=20 max_len=12 seed=20240817\n"
        "result: PASS (T)\n"
        "  checked_samples: 20\n"
    ), (
        '{"claim": "bounds", "params": {"gamma": 2, "theta": 3, "samples": 20, '
        '"max_len": 12, "seed": 20240817}, "passed": true, "witnesses": [], '
        '"details": {"checked_samples": 20}, "elapsed_seconds": T}\n'
    )),
    "homothety": (("homothety", "--samples", "20"), 0, (
        "claim: homothety\n"
        "params: samples=20 max_len=12 seed=20240817\n"
        "result: PASS (T)\n"
        "  cases_with_ratio_above_two: 7\n"
    ), (
        '{"claim": "homothety", "params": {"samples": 20, "max_len": 12, "seed": 20240817}, '
        '"passed": true, "witnesses": [], "details": {"cases_with_ratio_above_two": 7}, '
        '"elapsed_seconds": T}\n'
    )),
    "lemma3-pass": (("lemma3", "--samples", "20"), 0, (
        "claim: lemma3\n"
        "params: samples=20 theta=1 max_len=5 seed=20240817\n"
        "result: PASS (T)\n"
        "  checked_samples: 20\n"
    ), (
        '{"claim": "lemma3", "params": {"samples": 20, "theta": 1, "max_len": 5, '
        '"seed": 20240817}, "passed": true, "witnesses": [], '
        '"details": {"checked_samples": 20}, "elapsed_seconds": T}\n'
    )),
    "lemma3-fail": (("lemma3", "--samples", "20", "--theta", "3/2"), 1, (
        "claim: lemma3\n"
        "params: samples=20 theta=3/2 max_len=5 seed=20240817\n"
        "result: FAIL (T)\n"
        "  checked_samples: 20\n"
        "witnesses (12 shown):\n"
        "  - w1='101' w2='000' k=3 theta=3/2: stretched distance 3, hamming 2\n"
        "  - w1='000' w2='001' k=2 theta=3/2: stretched distance 3/2, hamming 1\n"
        "  - w1='1100' w2='0001' k=6 theta=3/2: stretched distance 9/2, hamming 3\n"
        "  - w1='001' w2='010' k=5 theta=3/2: stretched distance 3, hamming 2\n"
        "  - w1='11' w2='01' k=2 theta=3/2: stretched distance 3/2, hamming 1\n"
        "  - w1='01111' w2='01110' k=2 theta=3/2: stretched distance 3/2, hamming 1\n"
        "  - w1='0' w2='1' k=4 theta=3/2: stretched distance 3/2, hamming 1\n"
        "  - w1='1010' w2='0101' k=5 theta=3/2: stretched distance 6, hamming 4\n"
        "  - w1='01101' w2='11001' k=4 theta=3/2: stretched distance 3, hamming 2\n"
        "  - w1='11' w2='01' k=4 theta=3/2: stretched distance 3/2, hamming 1\n"
        "  - w1='11010' w2='00000' k=6 theta=3/2: stretched distance 9/2, hamming 3\n"
        "  - w1='01101' w2='11001' k=3 theta=3/2: stretched distance 3, hamming 2\n"
        "  - ... and 4 more\n"
    ), (
        '{"claim": "lemma3", "params": {"samples": 20, "theta": "3/2", "max_len": 5, '
        '"seed": 20240817}, "passed": false, '
        '"witnesses": ["w1=\'101\' w2=\'000\' k=3 theta=3/2: stretched distance 3, hamming 2", '
        '"w1=\'000\' w2=\'001\' k=2 theta=3/2: stretched distance 3/2, hamming 1", '
        '"w1=\'1100\' w2=\'0001\' k=6 theta=3/2: stretched distance 9/2, hamming 3", '
        '"w1=\'001\' w2=\'010\' k=5 theta=3/2: stretched distance 3, hamming 2", '
        '"w1=\'11\' w2=\'01\' k=2 theta=3/2: stretched distance 3/2, hamming 1", '
        '"w1=\'01111\' w2=\'01110\' k=2 theta=3/2: stretched distance 3/2, hamming 1", '
        '"w1=\'0\' w2=\'1\' k=4 theta=3/2: stretched distance 3/2, hamming 1", '
        '"w1=\'1010\' w2=\'0101\' k=5 theta=3/2: stretched distance 6, hamming 4", '
        '"w1=\'01101\' w2=\'11001\' k=4 theta=3/2: stretched distance 3, hamming 2", '
        '"w1=\'11\' w2=\'01\' k=4 theta=3/2: stretched distance 3/2, hamming 1", '
        '"w1=\'11010\' w2=\'00000\' k=6 theta=3/2: stretched distance 9/2, hamming 3", '
        '"w1=\'01101\' w2=\'11001\' k=3 theta=3/2: stretched distance 3, hamming 2", '
        '"... and 4 more"], "details": {"checked_samples": 20}, "elapsed_seconds": T}\n'
    )),
    "prop3": (("prop3", "--random", "4", "--max-size", "5"), 0, (
        "claim: prop3\n"
        "params: count=4 max_size=5 seed=20240817\n"
        "result: PASS (T)\n"
        "  random_orders: [1, 2, 1, 1]\n"
    ), (
        '{"claim": "prop3", "params": {"count": 4, "max_size": 5, "seed": 20240817}, '
        '"passed": true, "witnesses": [], "details": {"random_orders": [1, 2, 1, 1]}, '
        '"elapsed_seconds": T}\n'
    )),
    "prop4": (("prop4", "--max", "3"), 0, (
        "claim: prop4\n"
        "params: n_max=3\n"
        "result: PASS (T)\n"
        "  words: 7\n"
        "  group_order: 2\n"
    ), (
        '{"claim": "prop4", "params": {"n_max": 3}, "passed": true, "witnesses": [], '
        '"details": {"words": 7, "group_order": "2"}, "elapsed_seconds": T}\n'
    )),
    "lemma4": (("lemma4",), 0, (
        "claim: lemma4\n"
        "params: graphs=[k4, k33, petersen, frucht]\n"
        "result: PASS (T)\n"
    ), (
        '{"claim": "lemma4", "params": {"graphs": ["k4", "k33", "petersen", "frucht"]}, '
        '"passed": true, "witnesses": [], "details": {}, "elapsed_seconds": T}\n'
    )),
    "theorem1": (("theorem1", "--lang", "LANG"), 0, (
        "claim: theorem1\n"
        "params: gamma=1 theta=1 words=4\n"
        "result: PASS (T)\n"
        "  bound: 1\n"
        "  theta_prime: 1\n"
        "  group_order: 2\n"
        "  orbit_sizes: [2, 1, 1]\n"
    ), (
        '{"claim": "theorem1", "params": {"gamma": 1, "theta": 1, "words": 4}, '
        '"passed": true, "witnesses": [], "details": {"bound": 1, "theta_prime": 1, '
        '"group_order": "2", "orbit_sizes": [2, 1, 1]}, "elapsed_seconds": T}\n'
    )),
}


def test_claim_reports_pinned(tmp_path, capsys):
    lang_file = tmp_path / "small.lang"
    lang_file.write_text("0\n00\n000\n01\n")
    for argv, code, text, js in PINNED_CLAIM_REPORTS.values():
        argv = [str(lang_file) if a == "LANG" else a for a in argv]
        assert masked(capsys, *argv) == (code, text, "")
        assert masked(capsys, *argv, "--json") == (code, js, "")


def test_isom_command(tmp_path, capsys):
    lang_file = tmp_path / "u.lang"
    assert run(capsys, "construct", "unary", "--lengths", "1", "3", "5",
               "--out", str(lang_file))[0] == 0
    code, out, _ = run(capsys, "isom", "--lang", str(lang_file))
    assert code == 0
    group = json.loads(out)
    assert group["order"] == "2"
    assert group["degree"] == 3
    assert group["generators"] == [[2, 1, 0]]
    assert sorted(group["orbit_sizes"]) == [1, 2]

    code, out, _ = run(capsys, "isom", "--lang", str(lang_file), "--brute")
    assert code == 0 and json.loads(out)["order"] == "2"


def test_isom_brute_prints_a_generating_set(tmp_path, capsys):
    lang_file = tmp_path / "eq8.lang"
    lang_file.write_text("\n".join("abcdefgh") + "\n")
    code, out, _ = run(capsys, "isom", "--lang", str(lang_file), "--brute")
    group = json.loads(out)
    assert code == 0 and group["order"] == "40320" and group["orbit_sizes"] == [8]
    assert len(group["generators"]) <= 8 * 7 // 2
    assert len(out.encode()) < 1024


def test_isom_single_word(tmp_path, capsys):
    lang_file = tmp_path / "one.lang"
    lang_file.write_text("abc\n")
    code, out, _ = run(capsys, "isom", "--lang", str(lang_file))
    assert code == 0 and json.loads(out)["order"] == "1"


def test_isom_brute_cap_is_capability_error(tmp_path, capsys):
    lang_file = tmp_path / "big.lang"
    lang_file.write_text("\n".join(f"{i:04b}" for i in range(10)) + "\n")
    code, _, err = run(capsys, "isom", "--lang", str(lang_file), "--brute")
    assert code == 3 and "at most" in err


def test_isom_search_cap_is_capability_error(tmp_path, capsys, monkeypatch):
    from isolev import isomgroup

    lang_file = tmp_path / "t2.lang"
    assert run(capsys, "construct", "theorem2", "--graph", "petersen",
               "--out", str(lang_file))[0] == 0
    monkeypatch.setattr(isomgroup, "SEARCH_NODE_CAP", 5)
    code, out, err = run(capsys, "isom", "--lang", str(lang_file))
    assert code == 3 and out == ""
    assert "visited 6 nodes, over the cap of 5" in err


def test_construct_theorem2_and_round_trip(tmp_path, capsys):
    out_file = tmp_path / "t2.lang"
    code, out, _ = run(capsys, "construct", "theorem2", "--graph", "k4",
                       "--out", str(out_file))
    assert code == 0 and "4 words" in out and "[96]" in out
    lang = load_language(out_file)
    assert len(lang) == 4 and all(len(w) == 96 for w in lang)


def test_construct_from_graph_file(tmp_path, capsys):
    graph_file = tmp_path / "tri.dimacs"
    graph_file.write_text("p 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, _, err = run(capsys, "construct", "theorem2", "--graph", str(graph_file),
                       "--out", str(tmp_path / "x.lang"))
    assert code == 2 and "degree sequence" in err
    code, out, err = run(capsys, "construct", "theorem2", "--graph", str(tmp_path / "nosuch"))
    assert code == 2 and out == ""
    assert err == f"error: no such graph file or catalog name: {str(tmp_path / 'nosuch')!r}\n"


def test_catalog_names_win_over_local_files(tmp_path, capsys, monkeypatch):
    """A catalog name always means the bundled graph, even where the working
    directory holds a file or directory of that name; ``./name`` reads it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4").mkdir()
    (tmp_path / "petersen").write_text("x\n")
    for name in ("k4", "K4", "petersen"):
        code, out, err = run(capsys, "construct", "theorem2", "--graph", name)
        assert code == 0 and err == "", (name, err)
        assert out == "".join(w + "\n" for w in isolev.theorem2_language(
            isolev.catalog_graph(name)))
    code, out, err = run(capsys, "construct", "theorem2", "--graph", "./petersen")
    assert code == 2 and out == "" and err == "error: line 1: unknown line 'x'\n"


def test_construct_lemma5(tmp_path, capsys):
    base = tmp_path / "pair.lang"
    base.write_text("00\n11\n")
    out_file = tmp_path / "l5.lang"
    code, out, _ = run(capsys, "construct", "lemma5", "--lang", str(base),
                       "--depth", "2", "--out", str(out_file))
    assert code == 0 and "6 words" in out
    assert load_language(out_file) == Language(
        ["00", "11", "000101", "110101", "0001010101", "1101010101"]
    )


def test_construct_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "prop4", "--max", "1")
    assert code == 0
    assert out.splitlines() == ["<eps>", "0", "1"]


def test_construct_missing_flag(capsys):
    code, _, err = run(capsys, "construct", "lemma4")
    assert code == 2 and "--graph" in err


def test_growth_command(tmp_path, capsys):
    lang_file = tmp_path / "t6.lang"
    assert run(capsys, "construct", "theorem6", "--layers", "3",
               "--out", str(lang_file))[0] == 0
    code, out, _ = run(capsys, "growth", "--lang", str(lang_file), "--n", "12")
    assert code == 0 and out.strip() == "6"

    eps_file = tmp_path / "eps.lang"
    eps_file.write_text("<eps>\nab\n")
    code, out, _ = run(capsys, "growth", "--lang", str(eps_file), "--n", "0")
    assert code == 0 and out.strip() == "1"


def test_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "theorem6", "--layers", "2", "--theta", "1")
    assert code == 0 and "PASS" in out

    code, out, _ = run(capsys, "verify", "theorem6", "--layers", "1", "--theta", "2")
    assert code == 1 and "FAIL" in out and "wanted 2" in out

    lang_file = tmp_path / "u.lang"
    lang_file.write_text("a\naaa\n")
    code, _, err = run(capsys, "verify", "theorem1", "--lang", str(lang_file),
                       "--gamma", "1", "--theta", "2")
    assert code == 2 and "twice the indel weight" in err

    code, out, _ = run(capsys, "verify", "theorem1", "--lang", str(lang_file))
    assert code == 0

    code, _, err = run(capsys, "verify", "theorem2", "--theta", "1/0")
    assert code == 2 and "malformed rational" in err

    # count flags out of range are usage errors naming the flag
    for argv, message in (
        (("verify", "metric", "--samples", "-1"), "--samples must be at least 0, got -1"),
        (("verify", "metric", "--max-len", "-1"), "--max-len must be at least 0, got -1"),
        (("verify", "lemma3", "--max-len", "0"), "--max-len must be at least 1, got 0"),
        (("verify", "prop3", "--random", "-1"), "--random must be at least 0, got -1"),
        (("verify", "prop3", "--max-size", "0"), "--max-size must be between 1 and 40, got 0"),
        (("verify", "prop3", "--max-size", "50"), "--max-size must be between 1 and 40, got 50"),
        (("verify", "theorem6", "--layers", "0"), "--layers must be at least 1, got 0"),
        (("construct", "theorem6", "--layers", "0"), "--layers must be at least 1, got 0"),
        (("verify", "theorem3", "--depth", "0"), "--depth must be at least 1, got 0"),
        (("verify", "lemma5", "--depth", "0"), "--depth must be at least 1, got 0"),
        (("construct", "theorem4", "--depth", "0"), "--depth must be at least 1, got 0"),
        (("construct", "theorem5", "--graphs", "k4", "k33", "--depth", "0"),
         "--depth must be at least 1, got 0"),
        (("verify", "prop4", "--max", "0"), "--max must be at least 1, got 0"),
        (("construct", "prop4", "--max", "0"), "--max must be at least 1, got 0"),
        (("verify", "theorem4", "--k", "5"), "--k must be between 2 and 4, got 5"),
        (("construct", "theorem4", "--k", "1"), "--k must be between 2 and 4, got 1"),
        (("verify", "theorem4", "--k", "3", "--depth", "2"), "depth 2 too deep for k=3 (cap 1)"),
        # a claim takes a weight flag it does not read only at its default 1,
        # and a non-positive weight is the first error reported
        (("verify", "theorem2", "--gamma", "2", "--theta", "3"),
         "verify theorem2 does not read --gamma, got 2"),
        (("verify", "prop4", "--theta", "7"), "verify prop4 does not read --theta, got 7"),
        (("verify", "homothety", "--gamma", "3"),
         "verify homothety does not read --gamma, got 3"),
        (("verify", "lemma3", "--gamma", "1/2"), "verify lemma3 does not read --gamma, got 1/2"),
        (("verify", "lemma4", "--theta", "2"), "verify lemma4 does not read --theta, got 2"),
        (("verify", "theorem4", "--theta", "-1", "--k", "5"),
         "weights must be positive, got 1, -1"),
        (("verify", "theorem6", "--theta", "0", "--layers", "0"),
         "weights must be positive, got 1, 0"),
        (("verify", "prop3", "--gamma", "0"), "weights must be positive, got 0, 1"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "verify", "prop4", "--max", "2", "--gamma", "2/2",
                       "--theta", "1")
    assert code == 0 and "PASS" in out

    # lemma3 reads --max-len, with a default of its own
    code, out, _ = run(capsys, "verify", "lemma3", "--samples", "20", "--max-len", "3", "--json")
    assert code == 0 and json.loads(out)["params"]["max_len"] == 3


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "prop3", "--random", "5", "--max-size", "6",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["claim"] == "prop3" and payload["passed"] is True


def test_verify_metric_small(capsys):
    code, out, _ = run(capsys, "verify", "metric", "--samples", "50", "--json")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_lemma3_weight_sweep(capsys):
    code, _, _ = run(capsys, "verify", "lemma3", "--samples", "40", "--theta", "1")
    assert code == 0
    code, out, _ = run(capsys, "verify", "lemma3", "--samples", "40", "--theta", "3/2")
    assert code == 1 and "hamming" in out


def test_verify_theorem2_default_graph(capsys):
    code, out, _ = run(capsys, "verify", "theorem2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["group_order"] == "24"


def test_verify_remaining_claims_dispatch(capsys):
    code, out, _ = run(capsys, "verify", "bounds", "--samples", "60", "--json")
    assert code == 0 and json.loads(out)["passed"] is True

    code, out, _ = run(capsys, "verify", "homothety", "--samples", "60", "--json")
    assert code == 0

    code, out, _ = run(capsys, "verify", "prop4", "--max", "4", "--json")
    assert code == 0 and json.loads(out)["details"]["group_order"] == "2"

    code, out, _ = run(capsys, "verify", "lemma4", "--graph", "petersen", "--json")
    assert code == 0

    code, out, _ = run(capsys, "verify", "theorem3", "--graphs", "k4", "--depth", "1",
                       "--json")
    assert code == 0 and json.loads(out)["details"]["group_order"] == "24"

    code, out, _ = run(capsys, "verify", "theorem4", "--k", "2", "--depth", "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["layer1_group_order"] == "8"

    # the default graphs are k4 and k33 (16 symbols per edge)
    code, out, _ = run(capsys, "verify", "theorem5", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["details"]["group_order"] == str(24 * 72 * 72)
    assert payload["params"]["depth"] == 1 and payload["details"]["block_lengths"] == [96, 144]

    # the starred-layer order claim fails honestly: the finite segment of
    # layers admits a layer-order reversal
    code, out, _ = run(capsys, "verify", "lemma5", "--depth", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert any("ratio 2" in w for w in payload["witnesses"])


def test_construct_theorem3_theorem4_theorem5(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "theorem3", "--graphs", "k4", "petersen",
                       "--depth", "2", "--out", str(tmp_path / "t3.lang"))
    assert code == 0 and "15 words" in out

    code, out, _ = run(capsys, "construct", "theorem4", "--k", "2", "--depth", "1",
                       "--out", str(tmp_path / "t4.lang"))
    assert code == 0 and "5 words" in out

    code, out, _ = run(capsys, "construct", "theorem5", "--graphs", "k4", "k33",
                       "--depth", "1", "--out", str(tmp_path / "t5.lang"))
    assert code == 0 and "16 words" in out

    code, _, err = run(capsys, "construct", "theorem5", "--graphs", "k4",
                       "--out", str(tmp_path / "bad.lang"))
    assert code == 2 and "exactly two graphs" in err

    code, out, _ = run(capsys, "construct", "lemma4", "--graph", "k33",
                       "--out", str(tmp_path / "enc.lang"))
    assert code == 0 and "6 words" in out


def test_command_defaults(tmp_path, capsys):
    """Defaults that the CLI sets itself, per command and per claim.  The
    sampled claims' defaults equal the checkers' own keyword defaults, so a
    library call and the CLI draw the same samples for a seed."""
    def verify_json(*argv):
        code, out, _ = run(capsys, "verify", *argv, "--json")
        assert code in (0, 1)
        return json.loads(out)

    for claim, samples in (("metric", 1000), ("bounds", 1000), ("homothety", 500)):
        assert verify_json(claim, "--max-len", "0")["params"]["samples"] == samples
    assert verify_json("homothety", "--samples", "0")["params"] == {
        "samples": 0, "max_len": 12, "seed": DEFAULT_SEED}
    assert verify_json("metric", "--samples", "0")["params"]["samples"] == 0
    for claim in ("metric", "bounds", "homothety", "lemma3"):
        library = getattr(isolev.verify, f"check_{claim}")(samples=0).to_json_dict()
        assert verify_json(claim, "--samples", "0")["params"] == library["params"]
    assert verify_json("lemma3")["params"] == {
        "samples": 200, "theta": 1, "max_len": 5, "seed": DEFAULT_SEED}
    assert verify_json("lemma5")["params"]["depth"] == 2
    assert verify_json("theorem6")["params"]["layers"] == 3
    # k4 then petersen, one layer each: words of 110 and 474 symbols
    theorem3 = verify_json("theorem3")
    assert theorem3["params"]["layers"] == 2
    assert theorem3["details"]["layer_lengths"] == [110, 474]

    base = tmp_path / "pair.lang"
    base.write_text("00\n11\n")
    for argv, words in ((["lemma5", "--lang", str(base)], 4), (["theorem6"], 2),
                        (["theorem4"], 5)):
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0 and len(out.splitlines()) == words

    for family, flag in (("lemma4", "graph"), ("theorem2", "graph"), ("theorem3", "graphs"),
                         ("theorem5", "graphs"), ("lemma5", "lang"), ("unary", "lengths")):
        code, _, err = run(capsys, "construct", family)
        assert code == 2 and err == f"error: construct {family} requires --{flag}\n"
    code, _, err = run(capsys, "verify", "theorem1")
    assert code == 2 and err == "error: verify theorem1 requires --lang\n"
