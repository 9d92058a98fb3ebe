"""Finite languages of words: the subsequence order, growth counting,
word stretching, and the orbit length audit."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .editdist import DEFAULT_WEIGHTS, DuplicateWords, Weights, normalize

if TYPE_CHECKING:
    from .isomgroup import PermutationGroup

EMPTY_WORD_TOKEN = "<eps>"


class FormatError(ValueError):
    """Malformed language file."""


class HypothesisViolated(ValueError):
    """The length audit needs substitutions strictly cheaper than two indels."""


# Printable ASCII, no whitespace, and '#' is reserved for comments.
_SYMBOLS = frozenset(map(chr, range(ord("!"), ord("~") + 1))) - {"#"}


def _check_word(word: str) -> None:
    if not _SYMBOLS.issuperset(word):
        ch = next(ch for ch in word if ch not in _SYMBOLS)
        raise FormatError(f"invalid symbol {ch!r} in word {word!r}")


class Language:
    """Ordered finite set of distinct words.

    The order is canonical: distance matrices and isometry groups index words
    by their position here, so two languages with the same words in different
    orders are different values.
    """

    __slots__ = ("words", "alphabet")

    def __init__(self, words: Iterable[str]):
        ws = tuple(words)
        seen = set()
        for w in ws:
            _check_word(w)
            if w in seen:
                raise DuplicateWords(f"duplicate word {w!r}")
            seen.add(w)
        self.words = ws
        self.alphabet = frozenset().union(*ws)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __getitem__(self, i: int) -> str:
        return self.words[i]

    def __contains__(self, word: object) -> bool:
        return word in self.words

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Language) and self.words == other.words

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        return f"Language({list(self.words)!r})"

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.words)


def parse_language(text: str) -> Language:
    """Parse the one-word-per-line text format.

    ``#`` starts a comment, ``<eps>`` denotes the empty word, and a blank
    non-comment line is an error rather than an empty word.
    """
    words = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        has_comment = "#" in raw
        body = raw.split("#", 1)[0].strip()
        if not body:
            if has_comment:
                continue
            raise FormatError(
                f"line {lineno}: empty line (use {EMPTY_WORD_TOKEN} for the empty word)"
            )
        words.append("" if body == EMPTY_WORD_TOKEN else body)
    return Language(words)


def format_language(lang: Language) -> str:
    lines = [w if w else EMPTY_WORD_TOKEN for w in lang]
    return "\n".join(lines) + ("\n" if lines else "")


def load_language(path) -> Language:
    return parse_language(Path(path).read_text(encoding="utf-8"))


def save_language(lang: Language, path) -> None:
    Path(path).write_text(format_language(lang), encoding="utf-8")


def is_subsequence(u: str, v: str) -> bool:
    """True iff ``u`` can be obtained from ``v`` by deleting symbols."""
    it = iter(v)
    return all(ch in it for ch in u)


def minimal_words(lang: Language) -> Language:
    """The words with no *other* word of the language below them in the
    subsequence order."""
    keep = [w for w in lang if not any(u != w and is_subsequence(u, w) for u in lang)]
    return Language(keep)


def growth(lang: Language, n: int) -> int:
    """Number of words of length at most ``n``."""
    if n < 0:
        raise ValueError("growth is defined for n >= 0")
    return sum(1 for w in lang if len(w) <= n)


def stretch(word: str, pattern: str) -> str:
    """Interleave: prepend ``pattern`` before every symbol of ``word``.

    The result has length ``len(word) * (len(pattern) + 1)``; stretching the
    empty word gives the empty word.
    """
    return "".join(pattern + ch for ch in word)


@dataclass(frozen=True)
class AuditReport:
    """Result of the orbit length audit.

    ``bound`` is the largest length spread over orbits of minimal words;
    ``witnesses`` lists (shortest word, longest word, spread) for every orbit
    whose spread exceeds it.
    """

    bound: int
    passed: bool
    witnesses: tuple[tuple[str, str, int], ...]


def theorem1_audit(
    lang: Language, group: "PermutationGroup", w: Weights = DEFAULT_WEIGHTS
) -> AuditReport:
    """Check that orbit mates differ in length by at most the spread seen on
    minimal-word orbits.

    ``group`` must act on the indices of ``lang`` (normally its isometry
    group).  Refuses weight settings where substitution costs two indels or
    more, the regime in which no such bound exists.
    """
    if normalize(w).theta_prime >= 2:
        raise HypothesisViolated(
            "substitution weight must stay strictly below twice the indel weight"
        )
    if group.degree != len(lang):
        raise ValueError(
            f"group degree {group.degree} does not match language size {len(lang)}"
        )
    blocks = group.orbits().blocks
    lengths = [len(word) for word in lang.words]
    spreads = [
        max(lengths[i] for i in blk) - min(lengths[i] for i in blk) for blk in blocks
    ]
    minimal = set(minimal_words(lang).words)
    bound = 0
    for blk, spread in zip(blocks, spreads):
        if any(lang.words[i] in minimal for i in blk):
            bound = max(bound, spread)
    witnesses = []
    for blk, spread in zip(blocks, spreads):
        if spread > bound:
            shortest = min(blk, key=lambda i: lengths[i])
            longest = max(blk, key=lambda i: lengths[i])
            witnesses.append((lang.words[shortest], lang.words[longest], spread))
    return AuditReport(bound=bound, passed=not witnesses, witnesses=tuple(witnesses))
