"""Resilience solvers for regular path queries over labeled graphs.

Resilience of a query under bag semantics is the least total multiplicity
of a fact set whose removal makes the query false; under set semantics all
multiplicities are first collapsed to one.  It is infinite exactly when
the language contains the empty word.

Four solvers are provided: an exact branch-and-bound search usable on any
language but capped in database size, a min-cut reduction for local
languages, a min-cut reduction for bipartite chain languages, and a
restricted-subset enumeration for the two-word submodular pattern.  The
``resilience`` entry point picks a solver from the classifier verdict.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import automata, classifier, flow, graphdb, lang
from .automata import EpsNFA
from .errors import InputError, ResourceCapError, SolverRefusal
from .flow import INF
from .graphdb import Fact, GraphDB
from .lang import Word

DEFAULT_EXACT_CAP = 22
DEFAULT_Z_CAP = 20

LanguageSpec = Union[str, lang.Regex, EpsNFA, Iterable[Word]]


@dataclass(frozen=True)
class ResilienceAnswer:
    """value is an int, or math.inf with no contingency set."""

    value: Union[int, float]
    contingency: Optional[frozenset]
    method: str

    def __post_init__(self):
        infinite = isinstance(self.value, float) and math.isinf(self.value)
        if infinite != (self.contingency is None):
            raise InputError(
                "a resilience answer is infinite exactly when it has"
                " no contingency set"
            )


def _accepts_epsilon(A: EpsNFA) -> bool:
    return bool(automata.eps_closure(A, A.initial) & A.final)


# ---------------------------------------------------------------------------
# exact solver


def resilience_exact(
    db: GraphDB, language: LanguageSpec, fact_cap: int = DEFAULT_EXACT_CAP
) -> ResilienceAnswer:
    """Optimal contingency set by best-first search over fact subsets.

    Subsets are popped in order of total multiplicity; the first one whose
    removal falsifies the query is optimal.  A satisfying subset is only
    extended by facts of one concrete witness walk, which keeps the search
    sound: any falsifying superset must remove at least one fact of every
    walk, in particular of the witness.
    """
    A = automata.automaton_for(language)
    if _accepts_epsilon(A):
        return ResilienceAnswer(INF, None, "exact")
    if len(db) > fact_cap:
        raise ResourceCapError(
            f"database has {len(db)} facts, over the exact-solver cap"
            f" of {fact_cap}"
        )
    mult = db.mult_map()
    counter = itertools.count()
    heap = [(0, next(counter), frozenset())]
    seen = {frozenset()}
    while heap:
        cost, _, removed = heapq.heappop(heap)
        witness = graphdb.witness_walk(db.without(removed), A)
        if witness is None:
            return ResilienceAnswer(cost, removed, "exact")
        for fact in sorted(set(witness)):
            child = removed | {fact}
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (cost + mult[fact], next(counter), child))
    raise AssertionError("search space exhausted without a falsifying subset")


# ---------------------------------------------------------------------------
# product networks


def _reach(adjacency: dict, seeds) -> set:
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _product_network(fact_arcs, unbounded_arcs, sources, targets):
    """The flow network of a product of the database with a language.

    ``fact_arcs`` are ``(tail, head, fact, mult)`` tuples, one
    capacity-mult edge per fact; ``unbounded_arcs`` are ``(tail, head)``
    pairs; ``sources`` and ``targets`` are the vertices attached, by
    unbounded edges, from the network's source and to its target.  Returns
    the network and a map from edge index to fact.

    Only vertices forward-reachable from a source attachment and
    backward-reachable to a target attachment are added, so every edge
    lies on a source-target path.  Pruning keeps the answer: the flow runs
    along such paths only, and the source side of the inclusion-minimal
    minimum cut loses only vertices that no cut edge touches.
    """
    succ: dict = {}
    pred: dict = {}
    for tail, head, _, _ in fact_arcs:
        succ.setdefault(tail, []).append(head)
        pred.setdefault(head, []).append(tail)
    for tail, head in unbounded_arcs:
        succ.setdefault(tail, []).append(head)
        pred.setdefault(head, []).append(tail)
    useful = _reach(succ, sources) & _reach(pred, targets)

    net = flow.FlowNetwork("source", "target")
    tag = {}
    for v in sources:
        if v in useful:
            net.add_edge("source", v, INF)
    for tail, head, fact, m in fact_arcs:
        if tail in useful and head in useful:
            tag[net.add_edge(tail, head, m)] = fact
    for tail, head in unbounded_arcs:
        if tail in useful and head in useful:
            net.add_edge(tail, head, INF)
    for v in targets:
        if v in useful:
            net.add_edge(v, "target", INF)
    return net, tag


# ---------------------------------------------------------------------------
# local languages: min cut in the product network


@dataclass(frozen=True)
class ReadOnceMap:
    """The language side of the local solver: the read-once form of a
    local language without the empty word.

    Each letter has one transition, ``letter_arc[letter] = (src, dst)``;
    ``follow`` lists the epsilon successors of a state.  In the read-once
    form every epsilon transition leads from a letter's out-state to a
    letter's in-state, so epsilon moves never chain.
    """

    letter_arc: dict
    follow: dict
    initial: frozenset
    final: frozenset


def read_once_map(A: EpsNFA) -> ReadOnceMap:
    """The read-once map of an automaton for a local language that does
    not contain the empty word."""
    ro = automata.trim(automata.eps_nfa_to_ro(A))
    letter_arc = {}
    follow: dict = {}
    for src, label, dst in sorted(ro.transitions, key=str):
        if label is None:
            follow.setdefault(src, []).append(dst)
        else:
            letter_arc[label] = (src, dst)
    return ReadOnceMap(letter_arc, follow, ro.initial, ro.final)


def resilience_local(
    db: GraphDB,
    language: Union[LanguageSpec, ReadOnceMap],
    *,
    promise_local: bool = False,
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Min-cut solver for local languages.

    The network pairs database nodes with states of the read-once form of
    the automaton.  Each fact yields one capacity-mult edge along the
    unique transition carrying its label; epsilon transitions, source
    attachments to initial states and target attachments from final
    states are unbounded.  Cutting an edge set disconnecting source from
    target is exactly removing a fact set that breaks every accepted walk.
    Only pairs touched by a fact edge can lie on a source-target path, so
    no others are built.  A precomputed ``ReadOnceMap`` is taken as
    promised local.
    """
    if isinstance(language, ReadOnceMap):
        ro = language
    else:
        A = automata.automaton_for(language)
        if _accepts_epsilon(A):
            return ResilienceAnswer(INF, None, "local")
        if not promise_local and not automata.is_local_language(A, state_cap):
            raise SolverRefusal(
                "the language is not local, so the read-once reduction"
                " would overapproximate it"
            )
        ro = read_once_map(A)

    fact_arcs = []
    for fact, m in db.entries:
        hit = ro.letter_arc.get(fact.label)
        if hit is not None:
            fact_arcs.append(((fact.tail, hit[0]), (fact.head, hit[1]), fact, m))
    ends = dict.fromkeys(v for tail, head, _, _ in fact_arcs for v in (tail, head))
    unbounded_arcs = [
        ((node, state), (node, nxt))
        for node, state in ends
        for nxt in ro.follow.get(state, ())
        if (node, nxt) in ends
    ]
    net, tag = _product_network(
        fact_arcs,
        unbounded_arcs,
        [v for v in ends if v[1] in ro.initial],
        [v for v in ends if v[1] in ro.final],
    )
    cut = flow.min_cut(net)
    # every source-target path crosses a fact edge, so the cut is finite
    assert not math.isinf(cut.value)
    contingency = frozenset(tag[i] for i in cut.edge_indices)
    return ResilienceAnswer(int(cut.value), contingency, "local")


# ---------------------------------------------------------------------------
# word-list extraction for chain languages


def _backward_eps_closure(transitions, seeds) -> frozenset:
    rev: dict = {}
    for src, label, dst in transitions:
        if label is None:
            rev.setdefault(dst, set()).add(src)
    seen = set(seeds)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for t in rev.get(s, ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def _refuse_chain(letter: str):
    raise SolverRefusal(
        f"not a chain language: the letter {lang.render_letter(letter)}"
        " breaks the unique-word trie structure"
    )


def _unique_middles(sub: EpsNFA) -> set[Word]:
    """Words of an automaton whose distinct words have pairwise disjoint
    letter sets and no internal repeats, via a pointer trie.

    Each reachable (state, trie node) pair is visited once.  States off
    the backward closure of the final set may carry only one node, letters
    never repeat along a branch, no branch extends past a complete word,
    and two complete words never share their first letter.  Any violation
    refuses the instance; the trie of a conforming automaton has at most
    one node per alphabet letter.
    """
    if not sub.states:
        return set()
    s_left = automata.eps_closure(sub, sub.initial)
    s_right = _backward_eps_closure(sub.transitions, sub.final)
    out: set[Word] = set()
    if s_left & s_right:
        out.add(())

    adjacency: dict = {}
    for src, label, dst in sub.transitions:
        key = ((0, "") if label is None else (1, label), str(dst))
        adjacency.setdefault(src, []).append((key, label, dst))
    for entries in adjacency.values():
        entries.sort(key=lambda e: e[0])

    node_cap = len(sub.alphabet) + 1
    parent = [0]
    letters = [None]
    path_sets = [frozenset()]
    children: dict = {}
    assigned: dict = {}
    marked: set[int] = set()

    def spell(node: int) -> Word:
        acc = []
        while node != 0:
            acc.append(letters[node])
            node = parent[node]
        return tuple(reversed(acc))

    queue = []
    visited = set()
    for s in sorted(s_left, key=str):
        queue.append((s, 0))
        visited.add((s, 0))
        if s not in s_right:
            assigned[s] = 0

    head = 0
    while head < len(queue):
        state, node = queue[head]
        head += 1
        if state in s_right and node != 0:
            marked.add(node)
        for _, label, target in adjacency.get(state, ()):
            if label is None:
                next_node = node
            else:
                if state in s_right and node != 0:
                    _refuse_chain(label)
                if label in path_sets[node]:
                    _refuse_chain(label)
                next_node = children.get((node, label))
                if next_node is None:
                    # a conforming trie has at most one node per letter
                    if len(parent) >= node_cap:
                        _refuse_chain(label)
                    next_node = len(parent)
                    parent.append(node)
                    letters.append(label)
                    path_sets.append(path_sets[node] | {label})
                    children[(node, label)] = next_node
            if target not in s_right:
                prior = assigned.get(target)
                if prior is None:
                    assigned[target] = next_node
                elif prior != next_node:
                    witness = label if label is not None else letters[next_node]
                    _refuse_chain(witness or letters[prior])
            if (target, next_node) not in visited:
                visited.add((target, next_node))
                queue.append((target, next_node))

    first_letters: dict = {}
    for node in sorted(marked):
        word = spell(node)
        if word[0] in first_letters:
            _refuse_chain(word[0])
        first_letters[word[0]] = node
        out.add(word)
    return out


def extract_word_list(A: EpsNFA) -> frozenset[Word]:
    """The explicit word set of an automaton presumed to denote a chain
    language.  Refuses, naming an offending letter, when the trie
    structure shows the language cannot be one."""
    T = automata.trim(A)
    s_left = automata.eps_closure(T, T.initial)
    s_right = _backward_eps_closure(T.transitions, T.final)
    words: set[Word] = set()
    if s_left & s_right:
        words.add(())
    for src, label, dst in sorted(T.transitions, key=str):
        if label is not None and src in s_left and dst in s_right:
            words.add((label,))
    letters = sorted(T.alphabet)
    heads_by_letter: dict = {}
    tails_by_letter: dict = {}
    for src, label, dst in T.transitions:
        if label is None:
            continue
        if src in s_left:
            heads_by_letter.setdefault(label, set()).add(dst)
        if dst in s_right:
            tails_by_letter.setdefault(label, set()).add(src)
    for a in letters:
        start_states = heads_by_letter.get(a)
        if not start_states:
            continue
        for b in letters:
            end_states = tails_by_letter.get(b)
            if not end_states:
                continue
            sub = automata.trim(
                EpsNFA(
                    T.states,
                    frozenset(start_states),
                    frozenset(end_states),
                    T.transitions,
                    T.alphabet,
                )
            )
            for middle in _unique_middles(sub):
                words.add((a,) + middle + (b,))
    return frozenset(words)


# ---------------------------------------------------------------------------
# bipartite chain languages


def resilience_bcl(
    db: GraphDB,
    language: LanguageSpec,
    *,
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Min-cut solver for bipartite chain languages.

    Single-letter words force the removal of every fact with that label.
    Remaining words thread fact gadgets (a capacity-mult edge from a start
    to an end vertex per fact) with unbounded edges between consecutive
    walk steps, oriented left to right when the first letter sits in the
    source side of the endpoint bipartition and right to left otherwise,
    so facts whose label serves as endpoint of several words are traversed
    in one consistent direction.
    """
    if isinstance(language, (str, lang.Regex, EpsNFA)):
        words = extract_word_list(automata.automaton_for(language))
    else:
        words = frozenset(language)
    if () in words:
        return ResilienceAnswer(INF, None, "bcl")
    analysis = classifier.bcl_analysis(words)
    if not analysis.is_bcl:
        if analysis.chain_report is not None:
            raise SolverRefusal(f"not a chain language: {analysis.chain_report}")
        cycle = "".join(analysis.odd_cycle)
        raise SolverRefusal(
            f"endpoint graph has the odd cycle {cycle}, so the chain"
            " language is not bipartite"
        )

    singles = {w[0] for w in words if len(w) == 1}
    forced = frozenset(f for f in db.facts() if f.label in singles)
    forced_cost = sum(db.mult(f) for f in forced)
    long_words = sorted(w for w in words if len(w) >= 2)
    if not long_words:
        return ResilienceAnswer(forced_cost, forced, "bcl")

    source_side, _ = analysis.bipartition
    long_labels = {letter for w in long_words for letter in w}
    fact_arcs = []
    by_label: dict = {}
    by_label_tail: dict = {}
    for fact, m in db.entries:
        if fact.label in long_labels and fact.label not in singles:
            fact_arcs.append((("start", fact), ("end", fact), fact, m))
            by_label.setdefault(fact.label, []).append(fact)
            by_label_tail.setdefault((fact.label, fact.tail), []).append(fact)

    unbounded_arcs = []
    for w in long_words:
        forward = w[0] in source_side
        for x, y in zip(w, w[1:]):
            for f in by_label.get(x, ()):
                for g in by_label_tail.get((y, f.head), ()):
                    if forward:
                        unbounded_arcs.append((("end", f), ("start", g)))
                    else:
                        unbounded_arcs.append((("end", g), ("start", f)))

    endpoint_letters = sorted({w[0] for w in long_words} | {w[-1] for w in long_words})
    net, tag = _product_network(
        fact_arcs,
        unbounded_arcs,
        [("start", f) for a in endpoint_letters if a in source_side
         for f in by_label.get(a, ())],
        [("end", f) for a in endpoint_letters if a not in source_side
         for f in by_label.get(a, ())],
    )
    cut = flow.min_cut(net)
    assert not math.isinf(cut.value)
    contingency = forced | frozenset(tag[i] for i in cut.edge_indices)
    return ResilienceAnswer(forced_cost + int(cut.value), contingency, "bcl")


# ---------------------------------------------------------------------------
# the submodular two-word pattern


def resilience_submod(
    db: GraphDB,
    word: Word,
    extra: str,
    *,
    z_cap: int = DEFAULT_Z_CAP,
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Solver for {a_1...a_n, a_{n-1} a_{n+1}} with distinct letters.

    For a node set Z, removing every next-to-last-letter fact into Z and
    every extra-letter fact out of the complement breaks the short word,
    and leaves the long word to a single-word subproblem from which the
    last-letter facts out of Z can be dropped.  Minimizing over Z needs
    only nodes carrying both an incoming next-to-last fact and an
    outgoing extra fact: others are forced one way for free.
    """
    word = tuple(word)
    if len(word) < 2:
        raise SolverRefusal("the long word must have at least two letters")
    if len(set(word)) != len(word) or extra in word:
        raise SolverRefusal(
            "the submodular pattern needs pairwise distinct letters"
        )
    a_last, a_prev = word[-1], word[-2]

    incoming: dict = {}
    outgoing: dict = {}
    for fact, m in db.entries:
        if fact.label == a_prev:
            incoming[fact.head] = incoming.get(fact.head, 0) + m
        if fact.label == extra:
            outgoing[fact.tail] = outgoing.get(fact.tail, 0) + m

    z_star = sorted(
        v for v in db.adom() if incoming.get(v, 0) > 0 and outgoing.get(v, 0) > 0
    )
    if len(z_star) > z_cap:
        raise ResourceCapError(
            f"{len(z_star)} junction nodes exceed the enumeration cap"
            f" of {z_cap}"
        )
    forced_in = frozenset(v for v in db.adom() if incoming.get(v, 0) == 0)
    last_facts = [f for f in db.facts() if f.label == a_last]
    alpha = read_once_map(automata.words_to_nfa({word}))

    best = None
    for size in range(len(z_star) + 1):
        for chosen in itertools.combinations(z_star, size):
            zone = forced_in | set(chosen)
            dropped = frozenset(f for f in last_facts if f.tail in zone)
            sub = resilience_local(db.without(dropped), alpha)
            total = (
                sum(incoming[v] for v in chosen)
                + sum(outgoing[v] for v in z_star if v not in chosen)
                + sub.value
            )
            if best is None or total < best[0]:
                best = (total, set(chosen), sub.contingency)

    value, chosen, sub_contingency = best
    in_facts = frozenset(
        f for f in db.facts() if f.label == a_prev and f.head in chosen
    )
    out_facts = frozenset(
        f
        for f in db.facts()
        if f.label == extra and f.tail in set(z_star) - chosen
    )
    contingency = in_facts | out_facts | sub_contingency
    # the three parts are disjoint at an optimum, so multiplicities add up
    assert value == sum(db.mult(f) for f in contingency)
    return ResilienceAnswer(value, contingency, "submod")


# ---------------------------------------------------------------------------
# dispatcher


def _finite_words(A: EpsNFA, state_cap: int) -> frozenset[Word]:
    if not automata.is_finite_language(A):
        raise SolverRefusal("this solver needs a finite language")
    return frozenset(
        automata.language_words(
            A, max_words=classifier.DEFAULT_ENUM_CAP, state_cap=state_cap
        )
    )


def _submod_dispatch(
    db: GraphDB,
    words: frozenset,
    z_cap: int,
    state_cap: int,
) -> ResilienceAnswer:
    pattern = classifier.matches_submod_pattern(words)
    if pattern is None:
        raise SolverRefusal(
            "the language does not match the submodular two-word pattern,"
            " even mirrored"
        )
    word, extra = pattern.letters[:-1], pattern.letters[-1]
    if not pattern.mirrored:
        return resilience_submod(db, word, extra, z_cap=z_cap, state_cap=state_cap)
    answer = resilience_submod(
        graphdb.mirror_db(db), word, extra, z_cap=z_cap, state_cap=state_cap
    )
    restored = frozenset(
        Fact(f.head, f.label, f.tail) for f in answer.contingency
    )
    return ResilienceAnswer(answer.value, restored, "submod")


def resilience(
    db: GraphDB,
    language: LanguageSpec,
    *,
    semantics: str = "bag",
    solver: str = "auto",
    fact_cap: int = DEFAULT_EXACT_CAP,
    z_cap: int = DEFAULT_Z_CAP,
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Compute resilience, picking a solver from the classification.

    Set semantics collapses multiplicities to one first.  An explicit
    solver choice is honored directly and refused when the language does
    not fit it; auto falls back to the exact solver, subject to its fact
    cap, when the classification is NP_HARD or UNKNOWN.
    """
    if semantics not in ("set", "bag"):
        raise InputError(f"unknown semantics {semantics!r}")
    if semantics == "set":
        db = db.with_unit_multiplicities()
    A = automata.automaton_for(language)

    if solver == "exact":
        return resilience_exact(db, A, fact_cap)
    if solver == "local":
        return resilience_local(db, A, state_cap=state_cap)
    if solver == "bcl":
        return resilience_bcl(db, A, state_cap=state_cap)
    if solver == "submod":
        return _submod_dispatch(db, _finite_words(A, state_cap), z_cap, state_cap)
    if solver != "auto":
        raise InputError(f"unknown solver {solver!r}")

    verdict = classifier.classify(A, state_cap=state_cap)
    if verdict.status == classifier.PTIME:
        reduced = automata.reduce_regular(A, state_cap)
        if verdict.method == "local":
            return resilience_local(
                db, reduced, promise_local=True, state_cap=state_cap
            )
        words = _finite_words(reduced, state_cap)
        if verdict.method == "bcl":
            return resilience_bcl(db, words, state_cap=state_cap)
        return _submod_dispatch(db, words, z_cap, state_cap)

    if len(db) > fact_cap:
        raise ResourceCapError(
            f"the language is not classified tractable ({verdict.status})"
            f" and the database has {len(db)} facts, over the exact-solver"
            f" cap of {fact_cap}"
        )
    return resilience_exact(db, A, fact_cap)
