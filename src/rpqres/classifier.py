"""Complexity classification of resilience for a regular language.

The pipeline reduces the language, then walks the known criteria: local
languages are tractable; finite reduced languages are checked for repeated
letters, four-legged splits, the bipartite-chain shape, the two-word
submodular pattern, and a small catalog of individually proven hard
languages; infinite reduced languages are checked for aperiodicity, a
neutral letter, and four-legged splits, decided exactly on the reduced
DFA.  Anything that matches no criterion is reported UNKNOWN, never guessed.
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
        legs = dict(zip(self._fields[1:], map(lang.render_word, self[1:])))
        return {"letter": self.letter, **legs}


def _shortest_words(delta: dict, start) -> dict:
    """Map each state a non-empty word leads the start to onto the shortest,
    then least, such word, as nested (last letter, rest) pairs, in order."""
    found: dict = {}
    queue = [(start, None)]
    for state, word in queue:  # grows while states are found
        for letter, target in sorted(delta.get(state, {}).items()):
            if target not in found:
                found[target] = (letter, word)
                queue.append((target, found[target]))
    return found


def _spelled(word) -> Word:
    letters = []
    while word is not None:
        letter, word = word
        letters.append(letter)
    return tuple(reversed(letters))


def four_legged_witness(
    D: EpsNFA, state_cap: int = automata.DEFAULT_STATE_CAP
) -> Optional[FourLeggedWitness]:
    """A four-legged split of the language of a DFA, or None: for a letter
    x, states p = δ(q0, αx) != p' = δ(q0, γx) with α, γ non-empty, p able
    to move, and a non-empty word leading p' to a final state and p to a
    non-final or missing one.  Per letter, each seed (p', p) in order of α
    then γ gets a breadth-first search over the pairs it reaches; pairs a
    failed search saw are skipped.  The state cap counts pairs seen per letter."""
    D = automata.trim(D)
    if D.initial and not automata.is_deterministic(D):
        raise InputError("four-legged detection requires a deterministic automaton")
    delta = {s: {a: t for a, (t,) in m.items()} for s, m in D.tables.after.items()}
    by_letter: dict = {}  # x -> {p = δ(q0, αx): α}
    prefixes = _shortest_words(delta, *D.initial) if D.initial else {}
    for state, alpha in prefixes.items():
        for x, p in delta.get(state, {}).items():
            by_letter.setdefault(x, {}).setdefault(p, alpha)
    for x, heads in sorted(by_letter.items()):
        movers = [p for p in heads if p in delta]
        seen: dict = {}  # (p', p) -> the word that leads its seed to it
        seeds = ((p2, p) for p in movers for p2 in movers if p2 != p)
        for seed in (pair for pair in seeds if pair not in seen):  # read lazily
            seen[seed] = None
            queue = [seed]
            for pair in queue:  # grows while pairs are found
                if len(seen) > state_cap:
                    raise ResourceCapError(f"four-legged search over {state_cap} pairs")
                p2, p = pair
                for letter, t2 in sorted(delta[p2].items()):
                    t = delta.get(p, {}).get(letter)
                    if t2 in D.final and t not in D.final:
                        p2, p = seed
                        ends = _shortest_words(delta, p)
                        after1 = next(w for s, w in ends.items() if s in D.final)
                        legs = (heads[p], after1, heads[p2], (letter, seen[pair]))
                        return FourLeggedWitness(x, *map(_spelled, legs))
                    if t2 != t and t2 in delta and (t2, t) not in seen:
                        seen[(t2, t)] = (letter, seen[pair])
                        queue.append((t2, t))
    return None


def is_four_legged_finite(language: Iterable[Word]) -> Optional[FourLeggedWitness]:
    """Search a reduced finite language for a four-legged split."""
    words = frozenset(language)
    if lang.reduce_finite(words) != words:
        raise InputError("four-legged detection requires a reduced language")
    return four_legged_witness(automata.determinize(automata.words_to_nfa(words)))


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


def repeated_letter_word(D: EpsNFA) -> Optional[Word]:
    """The least word, in sorted order, of the finite language of a trim
    DFA that reads some letter twice, or None.

    Per letter x, a depth-first search in sorted letter order over pairs
    (state, how often x was read, capped at 2) meets the least word that
    reads x twice first: the DFA is acyclic, so a pair met again was left
    before without a find.  It reads no word list, so it answers past the
    enumeration cap.
    """
    delta = {
        s: sorted((a, t) for a, (t,) in moves.items())
        for s, moves in D.tables.after.items()
    }
    least = None
    for x in sorted(D.alphabet):
        seen = set()
        word = []  # the letters read down to the top of the stack
        stack = [(s, 0, iter(delta.get(s, ()))) for s in D.initial]
        while stack:
            s, count, moves = stack[-1]
            step = next(moves, None)
            if step is None:
                stack.pop()
                if word:
                    word.pop()
                continue
            a, t = step
            pair = (t, min(count + (a == x), 2))
            if pair in seen:
                continue
            seen.add(pair)
            word.append(a)
            if pair[1] == 2 and t in D.final:
                found = tuple(word)
                if least is None or found < least:
                    least = found
                break
            stack.append((*pair, iter(delta.get(t, ()))))
    return least


def _repeated_letter_verdict(w: Word) -> Verdict:
    repeat = lang.has_repeated_letter(w)
    witness = {
        "kind": "repeated-letter",
        "word": lang.render_word(w),
        "letter": repeat.letter,
        "before": lang.render_word(repeat.before),
        "gap": lang.render_word(repeat.gap),
        "after": lang.render_word(repeat.after),
    }
    return Verdict(NP_HARD, None, "repeated letter", witness)


def _finite_verdict(words: frozenset, reduced: EpsNFA, state_cap: int) -> Verdict:
    for w in sorted(words):
        if lang.has_repeated_letter(w) is not None:
            return _repeated_letter_verdict(w)

    legs = four_legged_witness(reduced, state_cap)
    if legs is not None:
        witness = {"kind": "four-legged", **legs.rendered()}
        return Verdict(NP_HARD, None, "four-legged", witness)

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


def _infinite_verdict(A: EpsNFA, reduced: EpsNFA, state_cap: int) -> Verdict:
    periodic = automata.non_aperiodic_witness(reduced, state_cap=state_cap)
    if periodic is not None:
        word, period = periodic
        witness = {
            "kind": "non-aperiodic",
            "word": lang.render_word(word),
            "period": period,
        }
        return Verdict(NP_HARD, None, "not aperiodic", witness)

    neutral = min(automata.neutral_letters(A, state_cap), default=None)
    try:
        legs = four_legged_witness(reduced, state_cap)
    except ResourceCapError:
        if neutral is None:
            raise
        legs = None  # optional beside the neutral letter
    if neutral is not None:
        # the reduction is not local (that was settled earlier), so the
        # neutral-letter dichotomy lands on the hard side
        witness = {"kind": "neutral-letter", "letter": neutral}
        if legs is not None:
            witness["four_legged"] = legs.rendered()
        return Verdict(NP_HARD, None, "neutral letter dichotomy", witness)

    if legs is not None:
        witness = {"kind": "four-legged", **legs.rendered()}
        return Verdict(NP_HARD, None, "four-legged", witness)
    return Verdict(UNKNOWN, None, "unclassified", None)


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
    spec, *, state_cap: int = automata.DEFAULT_STATE_CAP
) -> Analysis:
    """Reduce the language once and walk the criteria over the result."""
    A = automata.automaton_for(spec)
    try:
        reduced = automata.reduce_regular(A, state_cap)
        if automata.is_local_language(reduced, state_cap):
            verdict = Verdict(PTIME, "local", "local language", None)
            return Analysis(verdict, reduced, None)
        if automata.is_finite_language(reduced):
            try:
                words = frozenset(
                    automata.language_words(reduced, state_cap=state_cap)
                )
            except ResourceCapError:
                repeat = repeated_letter_word(reduced)
                if repeat is None:
                    raise
                return Analysis(_repeated_letter_verdict(repeat), reduced, None)
            verdict = _finite_verdict(words, reduced, state_cap)
            return Analysis(verdict, reduced, words)
        verdict = _infinite_verdict(A, reduced, state_cap)
        return Analysis(verdict, reduced, None)
    except ResourceCapError as exc:
        verdict = Verdict(UNKNOWN, None, f"resource cap: {exc}", None)
        return Analysis(verdict, None, None)


def classify(
    spec, *, state_cap: int = automata.DEFAULT_STATE_CAP
) -> Verdict:
    """Full pipeline over a regex string, Regex, word set, or automaton."""
    return analyse(spec, state_cap=state_cap).verdict
