"""Complexity classification of resilience for a regular language.

The pipeline reduces the language, then walks the known criteria: local
languages are tractable; finite reduced languages are checked for repeated
letters, four-legged splits, the bipartite-chain shape, the two-word
submodular pattern, and a small catalog of individually proven hard
languages; infinite reduced languages are checked for aperiodicity, a
neutral letter, and four-legged splits up to a leg-length bound.  Anything
that matches no criterion is reported UNKNOWN, never guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from . import automata, lang
from .automata import EpsNFA
from .errors import InputError, ResourceCapError
from .lang import Word

PTIME = "PTIME"
NP_HARD = "NP_HARD"
UNKNOWN = "UNKNOWN"

DEFAULT_LEG_CAP = 6
DEFAULT_ENUM_CAP = 10_000


@dataclass(frozen=True)
class Verdict:
    status: str
    method: Optional[str]
    reason: str
    witness: Optional[dict]

    def __post_init__(self):
        if self.status not in (PTIME, NP_HARD, UNKNOWN):
            raise InputError(f"bad verdict status {self.status!r}")
        if self.status == PTIME and self.method is None:
            raise InputError("a PTIME verdict must name its solver method")
        if self.status == NP_HARD and self.witness is None:
            raise InputError("an NP_HARD verdict must carry a witness")


# ---------------------------------------------------------------------------
# finite-language criteria


class FourLeggedWitness(NamedTuple):
    """Words before1+x+after1 and before2+x+after2 are in the language,
    all four outer parts non-empty, but before1+x+after2 is not."""

    letter: str
    before1: Word
    after1: Word
    before2: Word
    after2: Word

    def rendered(self) -> dict:
        return {
            "letter": self.letter,
            "before1": lang.render_word(self.before1),
            "after1": lang.render_word(self.after1),
            "before2": lang.render_word(self.before2),
            "after2": lang.render_word(self.after2),
        }


def _four_legged_search(
    words, member, leg_cap: Optional[int] = None
) -> Optional[FourLeggedWitness]:
    # shortest words first, so the reported witness has minimal legs
    ordered = sorted(words, key=lambda w: (len(w), w))

    def short_enough(part):
        return leg_cap is None or len(part) <= leg_cap

    # for each letter x, the splits before2 x after2 of a second word, in
    # search order; the membership test reads only after2, so the first
    # split with a given after2 is the only one that can be reported
    closing: dict = {}
    for w2 in ordered:
        for j in range(1, len(w2) - 1):
            before2, after2 = w2[:j], w2[j + 1 :]
            if short_enough(before2) and short_enough(after2):
                closing.setdefault(w2[j], {}).setdefault(after2, before2)

    tried = set()  # (before1, x): the test does not read after1
    for w1 in ordered:
        for i in range(1, len(w1) - 1):
            x = w1[i]
            before1, after1 = w1[:i], w1[i + 1 :]
            if not (short_enough(before1) and short_enough(after1)):
                continue
            if (before1, x) in tried:
                continue
            tried.add((before1, x))
            for after2, before2 in closing.get(x, {}).items():
                if not member(before1 + (x,) + after2):
                    return FourLeggedWitness(x, before1, after1, before2, after2)
    return None


def is_four_legged_finite(language: Iterable[Word]) -> Optional[FourLeggedWitness]:
    """Search a reduced finite language for a four-legged split."""
    words = frozenset(language)
    if lang.reduce_finite(words) != words:
        raise InputError("four-legged detection requires a reduced language")
    return _four_legged_search(words, lambda w: w in words)


def chain_violation(language: Iterable[Word]) -> Optional[str]:
    """Why the language is not a chain language, or None if it is one."""
    words = sorted(frozenset(language))
    for w in words:
        if len(set(w)) != len(w):
            repeat = lang.has_repeated_letter(w)
            return (
                f"word {lang.render_word(w)} repeats the letter"
                f" {lang.render_letter(repeat.letter)}"
            )
    for w in words:
        for interior in w[1:-1]:
            for other in words:
                if other != w and interior in other:
                    return (
                        f"interior letter {lang.render_letter(interior)} of"
                        f" {lang.render_word(w)} also occurs in"
                        f" {lang.render_word(other)}"
                    )
    return None


def endpoint_graph(
    language: Iterable[Word],
) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """Vertices are all letters; edges join the two endpoints of each word
    of length at least 2 (self-loops are not represented)."""
    words = frozenset(language)
    vertices = lang.letters_of(words)
    edges = set()
    for w in words:
        if len(w) >= 2 and w[0] != w[-1]:
            edges.add((min(w[0], w[-1]), max(w[0], w[-1])))
    return vertices, frozenset(edges)


def _two_color(vertices, edges):
    """(side0, side1) of a bipartition, or an odd cycle as a letter tuple."""
    adjacency: dict = {v: [] for v in sorted(vertices)}
    for a, b in sorted(edges):
        adjacency[a].append(b)
        adjacency[b].append(a)
    color: dict = {}
    parent: dict = {}
    for root in sorted(vertices):
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        for v in queue:
            for w in adjacency[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return None, _close_cycle(v, w, parent)
    side0 = frozenset(v for v, c in color.items() if c == 0)
    side1 = frozenset(v for v, c in color.items() if c == 1)
    return (side0, side1), None


def _close_cycle(v, w, parent):
    def ancestors(node):
        chain = [node]
        while parent[node] is not None:
            node = parent[node]
            chain.append(node)
        return chain

    up_v = ancestors(v)
    up_w = ancestors(w)
    common = None
    in_v = set(up_v)
    for node in up_w:
        if node in in_v:
            common = node
            break
    v_part = up_v[: up_v.index(common) + 1]
    w_part = up_w[: up_w.index(common)]
    return tuple(v_part) + tuple(reversed(w_part))


class BclAnalysis(NamedTuple):
    is_bcl: bool
    chain_report: Optional[str]
    bipartition: Optional[tuple[frozenset, frozenset]]
    odd_cycle: Optional[tuple[str, ...]]


def bcl_analysis(language: Iterable[Word]) -> BclAnalysis:
    words = frozenset(language)
    report = chain_violation(words)
    if report is not None:
        return BclAnalysis(False, report, None, None)
    vertices, edges = endpoint_graph(words)
    sides, cycle = _two_color(vertices, edges)
    if cycle is not None:
        return BclAnalysis(False, None, None, cycle)
    return BclAnalysis(True, None, sides, None)


class SubmodPattern(NamedTuple):
    n: int
    letters: tuple[str, ...]  # a_1 ... a_{n+1} of the unmirrored form
    mirrored: bool


def _direct_submod_match(words) -> Optional[tuple[int, tuple[str, ...]]]:
    if len(words) != 2:
        return None
    for alpha, two in itertools.permutations(sorted(words)):
        if len(two) != 2 or len(alpha) < 2:
            continue
        if len(set(alpha)) != len(alpha):
            continue
        extra = two[1]
        if two[0] == alpha[-2] and extra not in alpha:
            return len(alpha), alpha + (extra,)
    return None


def matches_submod_pattern(language: Iterable[Word]) -> Optional[SubmodPattern]:
    """Recognize {a_1...a_n, a_{n-1} a_{n+1}} with pairwise distinct
    letters, up to mirroring the whole language."""
    words = frozenset(language)
    hit = _direct_submod_match(words)
    if hit is not None:
        return SubmodPattern(hit[0], hit[1], False)
    hit = _direct_submod_match(lang.mirror_finite(words))
    if hit is not None:
        return SubmodPattern(hit[0], hit[1], True)
    return None


# ---------------------------------------------------------------------------
# known-hard catalog

_CATALOG: tuple[tuple[str, frozenset], ...] = (
    ("ab|bc|ca", frozenset({("a", "b"), ("b", "c"), ("c", "a")})),
    (
        "abcd|be|ef",
        frozenset({("a", "b", "c", "d"), ("b", "e"), ("e", "f")}),
    ),
    ("abcd|bef", frozenset({("a", "b", "c", "d"), ("b", "e", "f")})),
    ("abc|be|ef", frozenset({("a", "b", "c"), ("b", "e"), ("e", "f")})),
)


def match_known_hard(language: Iterable[Word]) -> Optional[dict]:
    """Match against the hard catalog up to letter bijection and mirror."""
    base = frozenset(language)
    for name, entry in _CATALOG:
        entry_lengths = sorted(map(len, entry))
        entry_letters = sorted(lang.letters_of(entry))
        for mirrored, candidate in ((False, base), (True, lang.mirror_finite(base))):
            if sorted(map(len, candidate)) != entry_lengths:
                continue
            source = sorted(lang.letters_of(candidate))
            if len(source) != len(entry_letters):
                continue
            for image in itertools.permutations(entry_letters):
                renaming = dict(zip(source, image))
                renamed = frozenset(
                    tuple(renaming[a] for a in w) for w in candidate
                )
                if renamed == entry:
                    return {
                        "entry": name,
                        "mirrored": mirrored,
                        "renaming": renaming,
                    }
    return None


# ---------------------------------------------------------------------------
# the pipeline


def _finite_verdict(words: frozenset) -> Verdict:
    for w in sorted(words):
        repeat = lang.has_repeated_letter(w)
        if repeat is not None:
            witness = {
                "kind": "repeated-letter",
                "word": lang.render_word(w),
                "letter": repeat.letter,
                "before": lang.render_word(repeat.before),
                "gap": lang.render_word(repeat.gap),
                "after": lang.render_word(repeat.after),
            }
            return Verdict(NP_HARD, None, "repeated letter", witness)

    legs = is_four_legged_finite(words)
    if legs is not None:
        return Verdict(
            NP_HARD, None, "four-legged",
            {"kind": "four-legged", **legs.rendered()},
        )

    analysis = bcl_analysis(words)
    if analysis.is_bcl:
        side0, side1 = analysis.bipartition
        witness = {
            "kind": "bcl",
            "sides": [sorted(side0), sorted(side1)],
        }
        return Verdict(PTIME, "bcl", "bipartite chain language", witness)

    pattern = matches_submod_pattern(words)
    if pattern is not None:
        witness = {
            "kind": "submod",
            "n": pattern.n,
            "letters": list(pattern.letters),
            "mirrored": pattern.mirrored,
        }
        return Verdict(PTIME, "submod", "submodular two-word pattern", witness)

    catalog = match_known_hard(words)
    if catalog is not None:
        return Verdict(
            NP_HARD, None, "known-hard catalog",
            {"kind": "catalog", **catalog},
        )

    if analysis.chain_report is None and analysis.odd_cycle is not None:
        return Verdict(
            UNKNOWN, None,
            "chain language with non-bipartite endpoint graph"
            " (conjectured hard, proven only for the catalog)",
            {"kind": "chain-non-bipartite", "odd_cycle": list(analysis.odd_cycle)},
        )

    return Verdict(UNKNOWN, None, "unclassified", None)


def _infinite_verdict(
    A: EpsNFA,
    reduced: EpsNFA,
    state_cap: int,
    monoid_cap: int,
    leg_cap: int,
    enum_cap: int,
) -> Verdict:
    periodic = automata.non_aperiodic_witness(reduced, monoid_cap, state_cap)
    if periodic is not None:
        word, period = periodic
        witness = {
            "kind": "non-aperiodic",
            "word": lang.render_word(word),
            "period": period,
        }
        return Verdict(NP_HARD, None, "not aperiodic", witness)

    neutral = None
    for letter in sorted(A.alphabet):
        if automata.is_neutral_letter(A, letter, state_cap):
            neutral = letter
            break
    legs = _bounded_four_legged(reduced, leg_cap, enum_cap, state_cap)
    if neutral is not None:
        # the reduction is not local (that was settled earlier), so the
        # neutral-letter dichotomy lands on the hard side
        witness = {"kind": "neutral-letter", "letter": neutral}
        if legs is not None:
            witness["four_legged"] = legs.rendered()
        return Verdict(NP_HARD, None, "neutral letter dichotomy", witness)

    if legs is not None:
        return Verdict(
            NP_HARD, None, "four-legged (bounded search)",
            {"kind": "four-legged", **legs.rendered()},
        )
    return Verdict(UNKNOWN, None, "unclassified", None)


def _bounded_four_legged(
    reduced: EpsNFA, leg_cap: int, enum_cap: int, state_cap: int
) -> Optional[FourLeggedWitness]:
    try:
        words = automata.language_words(
            reduced, max_len=2 * leg_cap + 1, max_words=enum_cap,
            state_cap=state_cap,
        )
    except ResourceCapError:
        return None
    return _four_legged_search(
        words, lambda w: automata.accepts(reduced, w), leg_cap
    )


class Analysis(NamedTuple):
    """One pass over a language, shared by the verdict and the solvers.

    ``reduced`` is the DFA of the reduced language.  ``words`` is its word
    set, enumerated only for a finite language that is not local.  A
    resource cap leaves both None.
    """

    verdict: Verdict
    reduced: Optional[EpsNFA]
    words: Optional[frozenset]


def analyse(
    spec,
    *,
    state_cap: int = automata.DEFAULT_STATE_CAP,
    monoid_cap: int = automata.DEFAULT_MONOID_CAP,
    leg_cap: int = DEFAULT_LEG_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Analysis:
    """Reduce the language once and walk the criteria over the result."""
    A = automata.automaton_for(spec)
    try:
        reduced = automata.reduce_regular(A, state_cap)
        if automata.is_local_language(reduced, state_cap):
            verdict = Verdict(PTIME, "local", "local language", None)
            return Analysis(verdict, reduced, None)
        if automata.is_finite_language(reduced):
            words = frozenset(
                automata.language_words(reduced, max_words=enum_cap,
                                        state_cap=state_cap)
            )
            return Analysis(_finite_verdict(words), reduced, words)
        verdict = _infinite_verdict(
            A, reduced, state_cap, monoid_cap, leg_cap, enum_cap
        )
        return Analysis(verdict, reduced, None)
    except ResourceCapError as exc:
        verdict = Verdict(UNKNOWN, None, f"resource cap: {exc}", None)
        return Analysis(verdict, None, None)


def classify(
    spec,
    *,
    state_cap: int = automata.DEFAULT_STATE_CAP,
    monoid_cap: int = automata.DEFAULT_MONOID_CAP,
    leg_cap: int = DEFAULT_LEG_CAP,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> Verdict:
    """Full pipeline over a regex string, Regex, word set, or automaton."""
    return analyse(
        spec, state_cap=state_cap, monoid_cap=monoid_cap, leg_cap=leg_cap,
        enum_cap=enum_cap,
    ).verdict
