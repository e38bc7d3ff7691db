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

from .automata import EpsNFA, reach
from .errors import InputError
from .lang import Word

MAX_MULT = 2**64 - 1
TOKEN = "a non-empty string without whitespace or #"


def is_token(value) -> bool:
    """Whether a value can stand as one field of the database text format."""
    return isinstance(value, str) and "#" not in value and value.split() == [value]


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
            if (
                not isinstance(fact, (tuple, list))
                or len(fact) != 3
                or not all(map(is_token, fact))
            ):
                raise InputError(f"fact {fact!r} needs three fields, each {TOKEN}")
            if not isinstance(fact, Fact):
                fact = Fact._make(fact)
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
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
        return cls.from_pairs((f, 1) for f in facts)

    def facts(self) -> tuple[Fact, ...]:
        return tuple(f for f, _ in self.entries)

    def mult(self, fact: Fact) -> int:
        return self._mults[fact]

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
    return GraphDB(tuple(sorted(
        (Fact(head, label, tail), m) for (tail, label, head), m in db.entries
    )))


# ---------------------------------------------------------------------------
# text format


def parse_db(text: str) -> GraphDB:
    """One fact per line: ``tail label head [mult]``; ``#`` comments.

    Lines break where ``str.splitlines`` breaks them and fields are split
    on any whitespace.  Each line is checked once, in this order: its
    field count, whether its fact repeats an earlier one, its
    multiplicity.  The first bad line raises ``InputError``.
    """
    mults: dict[Fact, int] = {}
    make = Fact._make
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        fields = raw.split()
        if len(fields) == 3:
            fact = make(fields)
        elif len(fields) == 4:
            fact = make(fields[:3])
        elif not fields:
            continue
        else:
            raise InputError(
                f"line {lineno}: expected 'tail label head [mult]', got {raw.strip()!r}"
            )
        size = len(mults)
        mults[fact] = 1
        if len(mults) == size:
            raise InputError(
                f"line {lineno}: duplicate fact {fact.render()}"
                " (state the multiplicity once)"
            )
        if len(fields) == 4:
            try:
                mult = int(fields[3])
            except ValueError:
                raise InputError(f"line {lineno}: bad multiplicity {fields[3]!r}") from None
            if mult < 1:
                raise InputError(f"line {lineno}: multiplicity must be at least 1")
            if mult > MAX_MULT:
                raise InputError(f"line {lineno}: multiplicity exceeds 2^64-1")
            mults[fact] = mult
    return GraphDB(tuple(sorted(mults.items())))


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


class Product(NamedTuple):
    """The product of a database with an automaton, for repeated walk
    searches over sub-databases.

    Pairs (node, state) are numbered from 0.  ``arcs[p]`` lists the moves
    out of pair ``p`` as ``(bit, fact, q)``: ``fact`` indexes ``facts`` (the
    fact order of ``db.entries``) and ``bit`` is ``1 << fact``.  Every move
    reads a fact: a state steps through the automaton's ``after`` table,
    epsilon closures included, so no automaton gives an epsilon move.
    Only pairs that can reach a final pair are kept, and final pairs keep
    no moves.  ``starts`` are the initial pairs in search order.
    ``accepts_empty`` marks an automaton accepting the empty word, which
    every database satisfies.
    """

    facts: tuple
    starts: tuple
    arcs: tuple
    final: tuple
    accepts_empty: bool


def product(db: GraphDB, A: EpsNFA) -> Product:
    """Build the product that ``witness_walk`` searches.

    Moves are listed in the order of a breadth-first search over
    ``(node, state)`` pairs: the facts out of the node in entry order, each
    with the states its label leads to, epsilon closure included; states
    are ordered by their text.
    """
    facts = db.facts()
    maps = A.tables
    start_states = maps.start
    if not start_states.isdisjoint(A.final):
        return Product(facts, (), (), (), True)
    by_tail: dict[str, list[int]] = {}
    for i, fact in enumerate(facts):
        by_tail.setdefault(fact.tail, []).append(i)

    ids: dict[tuple, int] = {}
    pairs: list[tuple] = []

    def intern(key) -> int:
        p = ids.get(key)
        if p is None:
            p = ids[key] = len(pairs)
            pairs.append(key)
        return p

    starts = [
        intern((node, state))
        for node in sorted(db.adom())
        for state in sorted(start_states, key=str)
    ]
    moves: list[list[tuple[int, int]]] = []
    for node, state in pairs:  # grows while interning
        out = []
        if state not in A.final:
            steps = maps.after.get(state, {})
            for i in by_tail.get(node, ()):
                fact = facts[i]
                for target in sorted(steps.get(fact.label, ()), key=str):
                    out.append((i, intern((fact.head, target))))
        moves.append(out)

    pred: dict[int, list[int]] = {}
    for p, out in enumerate(moves):
        for _, q in out:
            pred.setdefault(q, []).append(p)
    useful = reach(pred, (p for p, (_, state) in enumerate(pairs) if state in A.final))
    # renumber the useful pairs, keeping their order
    renumber = {p: k for k, p in enumerate(p for p in range(len(pairs)) if p in useful)}
    arcs = tuple(
        tuple((1 << i, i, renumber[q]) for i, q in moves[p] if q in renumber)
        for p in renumber
    )
    final = tuple(pairs[p][1] in A.final for p in renumber)
    return Product(
        facts, tuple(renumber[p] for p in starts if p in renumber), arcs, final, False
    )


def witness_walk(prod: Product, removed: int = 0) -> Optional[tuple[Fact, ...]]:
    """A shortest walk whose label word is accepted, or None, in the
    database of the product without the facts whose bits are set in
    ``removed``.

    The search is breadth-first over (node, state) pairs, so the walk is
    the one such a search finds on the sub-database itself.  Returns the
    empty tuple when the automaton accepts the empty word, since the empty
    walk then witnesses satisfaction on any database.
    """
    if prod.accepts_empty:
        return ()
    arcs, final = prod.arcs, prod.final
    parents: dict[int, tuple] = dict.fromkeys(prod.starts)
    queue = list(parents)
    # a FIFO queue dequeues final pairs in the order it finds them, so the
    # first one found is the first one a dequeue-time test would accept
    for p in queue:  # grows while iterating
        for bit, fact, q in arcs[p]:
            if bit & removed or q in parents:
                continue
            parents[q] = (p, fact)
            if final[q]:
                walk = []
                while parents[q] is not None:
                    q, fact = parents[q]
                    walk.append(prod.facts[fact])
                return tuple(reversed(walk))
            queue.append(q)
    return None


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
    uses no facts); satisfaction checks handle it separately.  Walks only
    step into nodes from which the rest of the word can still be spelt
    (``_word_nodes``), so no branch of the search dies.
    """
    words = sorted(frozenset(language))
    letters = {letter for word in words for letter in word}
    facts = [fact for fact in db.facts() if fact.label in letters]
    graph = _LabelGraph(facts)
    found: dict[frozenset, tuple] = {}
    for word in words:
        if not word:
            continue
        nodes = _word_nodes(graph, word)
        n = len(word)
        # depth-first over walks spelling the word: one iterator of fact
        # choices per position reached, so long words never recurse
        path: list[Fact] = []
        choices = [iter([
            f for v in sorted(nodes[0]) for f in graph.out[word[0]][v]
            if f.head in nodes[1]
        ])]
        while choices:
            fact = next(choices[-1], None)
            if fact is None:
                choices.pop()
                if path:
                    path.pop()
                continue
            path.append(fact)
            k = len(path)
            if k == n:
                key = frozenset(path)
                if key not in found:
                    found[key] = tuple(path)
                path.pop()
            else:
                choices.append(iter([
                    f for f in graph.out[word[k]][fact.head] if f.head in nodes[k + 1]
                ]))
    ordered = sorted(found.items(), key=lambda item: tuple(sorted(item[0])))
    return [Match(facts, walk) for facts, walk in ordered]


class _LabelGraph:
    """Facts by label and by tail (``out``) or head (``into``), in fact
    order, with the longest walk out of and into each node."""

    def __init__(self, facts):
        self.out: dict[str, dict[str, list[Fact]]] = {}
        self.into: dict[str, dict[str, list[Fact]]] = {}
        for fact in facts:
            self.out.setdefault(fact.label, {}).setdefault(fact.tail, []).append(fact)
            self.into.setdefault(fact.label, {}).setdefault(fact.head, []).append(fact)
        self.height = _longest_walks((head, tail) for tail, _, head in facts)
        self.depth = _longest_walks((tail, head) for tail, _, head in facts)


def _word_nodes(graph: _LabelGraph, word: Word) -> list[set]:
    """For each position k of the word, the nodes where a walk spelling
    ``word[:k]`` ends and a walk spelling ``word[k:]`` starts.

    The prefix side is computed forward from position 0 and the suffix
    side backward from the end, one position at a time on whichever side
    has done less work, until the two meet; each side is then pruned to
    the other, outward from the meeting position.  Either side alone can
    cost the square of the word's length where the other costs next to
    nothing.  Nodes whose longest walks out (``height``) or in
    (``depth``) are too short for the rest of the word never enter.
    """
    n = len(word)
    height, depth = graph.height, graph.depth
    fwd = [{v for v in graph.out.get(word[0], {}) if height.get(v, n) >= n}]
    bwd = [{v for v in graph.into.get(word[-1], {}) if depth.get(v, n) >= n}]
    fwd_work = bwd_work = 0
    while len(fwd) + len(bwd) < n + 2:
        if fwd_work <= bwd_work:
            k = len(fwd)
            step = graph.out.get(word[k - 1], {})
            level = {
                f.head for v in fwd[-1] for f in step.get(v, ())
                if height.get(f.head, n) >= n - k
            }
            fwd.append(level)
            fwd_work += len(level)
        else:
            k = n - len(bwd)
            step = graph.into.get(word[k], {})
            level = {
                f.tail for v in bwd[-1] for f in step.get(v, ())
                if depth.get(f.tail, k) >= k
            }
            bwd.append(level)
            bwd_work += len(level)
    # fwd[k] is position k and bwd[j] position n - j; both reach position m
    m = len(fwd) - 1
    nodes = [set() for _ in range(n + 1)]
    nodes[m] = fwd[m] & bwd[n - m]
    for k in range(m - 1, -1, -1):
        step = graph.into.get(word[k], {})
        nodes[k] = {
            f.tail for v in nodes[k + 1] for f in step.get(v, ()) if f.tail in fwd[k]
        }
    for k in range(m + 1, n + 1):
        step = graph.out.get(word[k - 1], {})
        nodes[k] = {
            f.head for v in nodes[k - 1] for f in step.get(v, ()) if f.head in bwd[n - k]
        }
    return nodes


def _longest_walks(edges) -> dict[str, int]:
    """The length of the longest walk along the (tail, head) edges that
    ends at each node.  Nodes that a cycle reaches have unbounded walks
    and are left out.

    Nodes are settled in topological order, each once every edge into it
    has been counted; those behind a cycle never are.
    """
    pending: dict[str, int] = {}
    succ: dict[str, list[str]] = {}
    for tail, head in edges:
        pending[head] = pending.get(head, 0) + 1
        pending.setdefault(tail, 0)
        succ.setdefault(tail, []).append(head)
    longest = dict.fromkeys((v for v, count in pending.items() if not count), 0)
    settled = list(longest)
    for v in settled:  # grows while iterating
        for w in succ.get(v, ()):
            longest[w] = max(longest.get(w, 0), longest[v] + 1)
            pending[w] -= 1
            if not pending[w]:
                settled.append(w)
    return {v: longest[v] for v in settled}
