"""Command-line surface: exact distances, distance matrices, isometry groups,
construction generators, and per-claim verification reports.

Exit codes: 0 success/claim passed, 1 claim failed (witnesses printed),
2 usage or input error, 3 capability error (degree or group size cap).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from functools import cache
from pathlib import Path

from . import verify as claims
from .constructs import (
    _LAYER_CAP,
    _bounded,
    catalog_graph,
    encode_cubic_graph,
    lemma5_language,
    load_graph,
    prop4_language,
    theorem2_language,
    theorem3_language,
    theorem4_language,
    theorem5_language,
    theorem6_language,
    unary_language,
)
from .editdist import Weights, distance_matrix, lev
from .isomgroup import (
    BRUTE_MAX_DEGREE,
    DegreeTooLarge,
    GroupTooLarge,
    isometries,
    isometries_brute,
)
from .langlib import (
    EMPTY_WORD_TOKEN,
    format_language,
    growth,
    load_language,
    save_language,
    _check_word,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3

def _parse_word(token: str) -> str:
    word = "" if token == EMPTY_WORD_TOKEN else token
    _check_word(word)
    return word


def _resolve_graph(token: str):
    """A catalog name, in any letter case, is the bundled graph even when a
    file of that name exists; ``./petersen`` reads the file."""
    try:
        return catalog_graph(token)
    except ValueError:
        pass
    path = Path(token)
    if not path.exists():
        raise ValueError(f"no such graph file or catalog name: {token!r}")
    return load_graph(path)


def _group_json(group) -> dict:
    return {
        "degree": group.degree,
        "order": str(group.order()),
        "generators": [list(g.images) for g in group.generators],
        "orbit_sizes": list(group.orbits().sizes()),
    }


def _cmd_dist(args) -> int:
    u = _parse_word(args.word1)
    v = _parse_word(args.word2)
    print(lev(u, v, Weights(args.gamma, args.theta)))
    return EXIT_OK


def _cmd_matrix(args) -> int:
    lang = load_language(args.lang)
    matrix = distance_matrix(lang, Weights(args.gamma, args.theta))
    if args.format == "json":
        payload = {
            "words": list(lang),
            "entries": claims.jsonable(matrix.entries),
        }
        print(json.dumps(payload))
    else:
        header = [w if w else EMPTY_WORD_TOKEN for w in lang]
        print("\t".join(header))
        for row in matrix.entries:
            print("\t".join(map(str, row)))
    return EXIT_OK


def _cmd_isom(args) -> int:
    lang = load_language(args.lang)
    matrix = distance_matrix(lang, Weights(args.gamma, args.theta))
    if args.brute:
        group = isometries_brute(matrix)
    else:
        group = isometries(matrix)
    print(json.dumps(_group_json(group)))
    return EXIT_OK


def _cmd_growth(args) -> int:
    lang = load_language(args.lang)
    print(growth(lang, _count(args, "n")))
    return EXIT_OK


def _need(args, flag: str):
    """The value of ``--flag``, which the chosen family or claim requires."""
    value = getattr(args, flag)
    if value is None:
        name = args.family if args.command == "construct" else args.claim
        raise ValueError(f"{args.command} {name} requires --{flag}")
    return value


def _count(args, dest: str, default=None, least=0, greatest=None) -> int:
    """The value of the count flag ``--dest`` (``default`` when not given),
    which must lie between ``least`` and ``greatest``."""
    value = getattr(args, dest)
    if value is None:
        value = default
    return _bounded("--" + dest.replace("_", "-"), value, least, greatest)


def _depth(args, default=1) -> int:
    return _count(args, "depth", default, least=1)


def _graphs_and_depth(args, names):
    graphs = [_resolve_graph(t) for t in names]
    return graphs, _depth(args, len(graphs))


def _k(args) -> int:
    """The alphabet size of theorem4, one that ``_LAYER_CAP`` caps."""
    return _count(args, "k", least=min(_LAYER_CAP), greatest=max(_LAYER_CAP))


def _graph_pair(args, names):
    if len(names) != 2:
        raise ValueError(f"{args.command} theorem5 needs exactly two graphs")
    return _resolve_graph(names[0]), _resolve_graph(names[1])


# family -> builder(args) returning a Language.  Each builder looks its
# construction up by name when called, so a wrapped module global is seen.
_FAMILIES = {
    "lemma4": lambda a: encode_cubic_graph(_resolve_graph(_need(a, "graph"))),
    "theorem2": lambda a: theorem2_language(_resolve_graph(_need(a, "graph"))),
    "theorem3": lambda a: theorem3_language(*_graphs_and_depth(a, _need(a, "graphs"))),
    "theorem4": lambda a: theorem4_language(_k(a), _depth(a)),
    "theorem5": lambda a: theorem5_language(*_graph_pair(a, _need(a, "graphs")), _depth(a)),
    "lemma5": lambda a: lemma5_language(load_language(_need(a, "lang")), _depth(a)),
    "theorem6": lambda a: theorem6_language(_count(a, "layers", least=1)),
    "unary": lambda a: unary_language([_bounded("--lengths", n) for n in _need(a, "lengths")]),
    "prop4": lambda a: prop4_language(_count(a, "max", least=1)),
}

# claim -> checker(args, *weights) returning a VerificationReport, with the
# command's own defaults.  Its parameters after ``args`` name the weights its
# checker reads, gamma first; `_cmd_verify` takes any other weight only at its
# default 1.  The checker is looked up in ``claims`` when called.
_CLAIMS = {
    "metric": lambda a, gamma, theta: claims.check_metric(
        gamma, theta, _count(a, "samples", 1000), _count(a, "max_len", 12), a.seed),
    "bounds": lambda a, gamma, theta: claims.check_bounds(
        gamma, theta, _count(a, "samples", 1000), _count(a, "max_len", 12), a.seed),
    "homothety": lambda a: claims.check_homothety(
        _count(a, "samples", 500), _count(a, "max_len", 12), a.seed),
    "prop3": lambda a: claims.check_prop3(
        _count(a, "random"), _count(a, "max_size", least=1, greatest=claims.PROP3_LENGTHS),
        a.seed),
    "prop4": lambda a: claims.check_prop4(_count(a, "max", least=1)),
    "theorem1": lambda a, gamma, theta: claims.check_theorem1(
        load_language(_need(a, "lang")), gamma, theta),
    "lemma3": lambda a, theta: claims.check_lemma3(
        _count(a, "samples", 200), theta, _count(a, "max_len", 5, least=1), a.seed),
    "lemma4": lambda a: claims.check_lemma4(a.graph),
    "theorem2": lambda a, theta: claims.check_theorem2(a.graph or "k4", theta),
    "theorem3": lambda a, theta: claims.check_theorem3(
        *_graphs_and_depth(a, a.graphs or ["k4", "petersen"]), theta),
    "theorem4": lambda a, theta: claims.check_theorem4(_k(a), _depth(a), theta),
    "theorem5": lambda a, theta: claims.check_theorem5(
        *_graph_pair(a, a.graphs or ["k4", "k33"]), _depth(a), theta),
    "lemma5": lambda a, theta: claims.check_lemma5(
        load_language(a.lang) if a.lang else None, _depth(a, 2), theta),
    "theorem6": lambda a, theta: claims.check_theorem6(_count(a, "layers", least=1), theta),
}


def _cmd_construct(args) -> int:
    lang = _FAMILIES[args.family](args)
    if args.out:
        save_language(lang, args.out)
        lengths = sorted(set(lang.lengths()))
        print(f"wrote {args.out}: {len(lang)} words, lengths {lengths}, "
              f"alphabet {sorted(lang.alphabet)}")
    else:
        sys.stdout.write(format_language(lang))
    return EXIT_OK


def _cmd_verify(args) -> int:
    w = Weights(args.gamma, args.theta)
    check = _CLAIMS[args.claim]
    reads = list(inspect.signature(check).parameters)[1:]
    for flag, value in (("gamma", w.gamma), ("theta", w.theta)):
        if value != 1 and flag not in reads:
            raise ValueError(f"verify {args.claim} does not read --{flag}, got {value}")
    report = check(args, *(getattr(w, flag) for flag in reads))
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.render())
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILED


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and reused by
    every later ``main``.  Each handler looks its helpers up as module
    globals when called, so a helper wrapped after the build is still seen."""
    parser = argparse.ArgumentParser(
        prog="isolev",
        description="Exact generalized Levenshtein distances and isometry groups "
        "of finite languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weights(p):
        p.add_argument("--gamma", default="1", help="indel weight as P or P/Q (default 1)")
        p.add_argument("--theta", default="1", help="substitution weight as P or P/Q (default 1)")

    p = sub.add_parser("dist", help="distance between two words (<eps> = empty word)")
    p.add_argument("word1")
    p.add_argument("word2")
    add_weights(p)
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("matrix", help="pairwise distance matrix of a language file")
    p.add_argument("--lang", required=True)
    add_weights(p)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("isom", help="isometry group of a language file, as JSON")
    p.add_argument("--lang", required=True)
    add_weights(p)
    p.add_argument("--brute", action="store_true",
                   help=f"use the exhaustive solver (at most {BRUTE_MAX_DEGREE} words)")
    p.set_defaults(handler=_cmd_isom)

    p = sub.add_parser("growth", help="count words of length at most N")
    p.add_argument("--lang", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("construct", help="generate a language family")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("--graph", help="graph file or catalog name (k4, k33, petersen, frucht)")
    p.add_argument("--graphs", nargs="+", help="graph files or catalog names")
    p.add_argument("--lang", help="base language file (lemma5)")
    p.add_argument("--depth", type=int, help="truncation depth")
    p.add_argument("--layers", type=int, default=1, help="layer count (theorem6)")
    p.add_argument("--k", type=int, default=2, help="alphabet size (theorem4)")
    p.add_argument("--max", type=int, default=3, help="largest run length (prop4)")
    p.add_argument("--lengths", nargs="+", type=int, help="word lengths (unary)")
    p.add_argument("--out", help="output language file (default: print to stdout)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check one claim and report pass/fail")
    p.add_argument("claim", choices=_CLAIMS)
    add_weights(p)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--seed", type=int, default=claims.DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=None, help="sample count for randomized checks")
    p.add_argument("--max-len", type=int, default=None, dest="max_len",
                   help="longest random word (default 12; lemma3: 5)")
    p.add_argument("--random", type=int, default=20, help="random language count (prop3)")
    p.add_argument("--max-size", type=int, default=12, dest="max_size")
    p.add_argument("--max", type=int, default=6, help="largest run length (prop4)")
    p.add_argument("--lang", help="language file (theorem1, lemma5)")
    p.add_argument("--graph", help="catalog name (k4, k33, petersen, frucht; theorem2, lemma4)")
    p.add_argument("--graphs", nargs="+", help="graph files or catalog names")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (DegreeTooLarge, GroupTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
