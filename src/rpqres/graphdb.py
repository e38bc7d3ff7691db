"""Labeled graph databases with multiplicities, query satisfaction, and
match enumeration for finite languages.

A fact is a labeled directed edge.  A database maps facts to positive
multiplicities (bag semantics); set semantics is the special case where
every multiplicity is 1.  Queries never see multiplicities, only the fact
set.

Multiplicities are validated to fit an unsigned 64-bit integer at parse
time.  Sums computed later use Python integers, which do not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from . import automata
from .automata import EpsNFA
from .errors import InputError
from .lang import Word

MAX_MULT = 2**64 - 1


class Fact(NamedTuple):
    tail: str
    label: str
    head: str

    def render(self) -> str:
        return f"{self.tail} {self.label} {self.head}"


@dataclass(frozen=True)
class GraphDB:
    entries: tuple  # sorted ((fact, mult), ...)

    @classmethod
    def from_pairs(cls, pairs) -> "GraphDB":
        if hasattr(pairs, "items"):
            pairs = pairs.items()
        collected: dict[Fact, int] = {}
        for fact, mult in pairs:
            fact = Fact(*fact)
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity of {fact.render()} must be a positive integer")
            if mult > MAX_MULT:
                raise InputError(f"multiplicity of {fact.render()} exceeds 2^64-1")
            if fact in collected:
                raise InputError(f"duplicate fact {fact.render()}")
            collected[fact] = mult
        return cls(tuple(sorted(collected.items())))

    @classmethod
    def from_facts(cls, facts: Iterable) -> "GraphDB":
        """Set-semantics constructor: every fact gets multiplicity 1."""
        return cls.from_pairs((Fact(*f), 1) for f in facts)

    def facts(self) -> tuple[Fact, ...]:
        return tuple(f for f, _ in self.entries)

    def mult(self, fact: Fact) -> int:
        return self._mults[fact]

    def mult_map(self) -> dict[Fact, int]:
        return dict(self.entries)

    def adom(self) -> frozenset[str]:
        return self._adom

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.entries)

    def without(self, facts: Iterable[Fact]) -> "GraphDB":
        dropped = frozenset(facts)
        return GraphDB(tuple(e for e in self.entries if e[0] not in dropped))

    def with_unit_multiplicities(self) -> "GraphDB":
        return GraphDB(tuple((f, 1) for f, _ in self.entries))

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._mults

    def __len__(self) -> int:
        return len(self.entries)

    # Lazy per-instance caches: built on first use, so constructing a
    # database (parsing, ``without``) never pays for them, and dropped
    # together with the database.

    @cached_property
    def _mults(self) -> dict[Fact, int]:
        return dict(self.entries)

    @cached_property
    def _adom(self) -> frozenset[str]:
        nodes = set()
        for (tail, _, head), _ in self.entries:
            nodes.add(tail)
            nodes.add(head)
        return frozenset(nodes)


def mirror_db(db: GraphDB) -> GraphDB:
    """Reverse every fact, keeping labels and multiplicities."""
    return GraphDB.from_pairs(
        (Fact(f.head, f.label, f.tail), m) for f, m in db.entries
    )


# ---------------------------------------------------------------------------
# text format


def parse_db(text: str) -> GraphDB:
    """One fact per line: ``tail label head [mult]``; ``#`` comments."""
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise InputError(
                f"line {lineno}: expected 'tail label head [mult]', got {line!r}"
            )
        fact = Fact(fields[0], fields[1], fields[2])
        if fact in seen:
            raise InputError(
                f"line {lineno}: duplicate fact {fact.render()}"
                " (state the multiplicity once)"
            )
        seen.add(fact)
        mult = 1
        if len(fields) == 4:
            try:
                mult = int(fields[3])
            except ValueError:
                raise InputError(f"line {lineno}: bad multiplicity {fields[3]!r}") from None
            if mult < 1:
                raise InputError(f"line {lineno}: multiplicity must be at least 1")
            if mult > MAX_MULT:
                raise InputError(f"line {lineno}: multiplicity exceeds 2^64-1")
        pairs.append((fact, mult))
    return GraphDB.from_pairs(pairs)


def serialize_db(db: GraphDB) -> str:
    lines = []
    for fact, mult in db.entries:
        if mult == 1:
            lines.append(fact.render())
        else:
            lines.append(f"{fact.render()} {mult}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# satisfaction


def witness_walk(db: GraphDB, A: EpsNFA) -> Optional[tuple[Fact, ...]]:
    """A shortest walk whose label word is accepted, or None.

    Returns the empty tuple when the automaton accepts the empty word,
    since the empty walk then witnesses satisfaction on any database.
    """
    start_states = automata.eps_closure(A, A.initial)
    if start_states & A.final:
        return ()
    by_tail: dict[str, list[Fact]] = {}
    for fact in db.facts():
        by_tail.setdefault(fact.tail, []).append(fact)
    maps = automata._maps(A)

    def automaton_steps(state, letter):
        return sorted(maps.by_letter.get(state, {}).get(letter, ()), key=str)

    def eps_targets(state):
        return sorted(maps.eps.get(state, ()), key=str)

    # BFS over (node, state) pairs; parents reconstruct the fact walk
    parents: dict[tuple, tuple] = {}
    queue = []
    for node in sorted(db.adom()):
        for state in sorted(start_states, key=str):
            key = (node, state)
            if key not in parents:
                parents[key] = (None, None)
                queue.append(key)
    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        node, state = key
        if state in A.final:
            walk = []
            cursor = key
            while True:
                previous, fact = parents[cursor]
                if previous is None:
                    break
                if fact is not None:
                    walk.append(fact)
                cursor = previous
            return tuple(reversed(walk))
        for target in eps_targets(state):
            nxt = (node, target)
            if nxt not in parents:
                parents[nxt] = (key, None)
                queue.append(nxt)
        for fact in by_tail.get(node, ()):
            for target in automaton_steps(state, fact.label):
                nxt = (fact.head, target)
                if nxt not in parents:
                    parents[nxt] = (key, fact)
                    queue.append(nxt)
    return None


def satisfies(db: GraphDB, A: EpsNFA) -> bool:
    """Whether the database contains a walk labeled by an accepted word."""
    return witness_walk(db, A) is not None


# ---------------------------------------------------------------------------
# matches


@dataclass(frozen=True)
class Match:
    """The fact set of a query-witnessing walk.

    Several walks can use the same fact set; one representative walk is
    kept for reporting.
    """

    facts: frozenset
    walk: tuple

    def __post_init__(self):
        if not self.facts:
            raise InputError("a match must use at least one fact")


def enumerate_matches(db: GraphDB, language: Iterable[Word]) -> list[Match]:
    """All matches of a finite language, sorted by fact set.

    Words are tried in sorted order and walks explored with sorted fact
    choices, so the representative walk kept for each fact set is
    deterministic.  The empty word never produces a match (the empty walk
    uses no facts); satisfaction checks handle it separately.
    """
    by_first: dict[tuple[str, str], list[Fact]] = {}
    starts: dict[str, list[Fact]] = {}
    for fact in db.facts():
        by_first.setdefault((fact.tail, fact.label), []).append(fact)
        starts.setdefault(fact.label, []).append(fact)

    found: dict[frozenset, tuple] = {}

    def extend(word: Word, position: int, path: list[Fact]):
        if position == len(word):
            key = frozenset(path)
            if key not in found:
                found[key] = tuple(path)
            return
        if position == 0:
            candidates = starts.get(word[0], ())
        else:
            candidates = by_first.get((path[-1].head, word[position]), ())
        for fact in candidates:
            path.append(fact)
            extend(word, position + 1, path)
            path.pop()

    for word in sorted(frozenset(language)):
        if word:
            extend(word, 0, [])
    ordered = sorted(found.items(), key=lambda item: tuple(sorted(item[0])))
    return [Match(facts, walk) for facts, walk in ordered]
