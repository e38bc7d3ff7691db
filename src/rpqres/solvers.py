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


# ---------------------------------------------------------------------------
# exact solver


def resilience_exact(
    db: GraphDB, language: LanguageSpec, fact_cap: int = DEFAULT_EXACT_CAP
) -> ResilienceAnswer:
    """Optimal contingency set by A* search over fact subsets.

    A satisfying subset is only extended by facts of one concrete witness
    walk, which keeps the search sound: any falsifying superset must
    remove at least one fact of every walk, in particular of the witness.
    Subsets are popped in order of their key, their total multiplicity
    plus a lower bound on what is still to pay, so the first one whose
    removal falsifies the query is optimal.

    The bound is ``_packing_bound``, computed when a subset is popped.  A
    child is pushed with the key its parent's bound implies: removing
    fact ``i`` and then the child's optimum falsifies the parent's
    sub-database, so the child still has to pay at least the parent's
    bound less ``mults[i]``.  A popped subset whose own bound lifts its
    key goes back on the heap with the higher key, unless it would be
    popped next anyway.  Ties go to the costlier subset, then to the
    earlier push.

    The product of the database with the automaton is built once per call;
    each pop searches it for a witness with the subset's facts skipped.
    Subsets are int bitmasks over the fact order of ``db.entries``.
    """
    A = automata.automaton_for(language)
    if automata.accepts(A, ()):
        return ResilienceAnswer(INF, None, "exact")
    if len(db) > fact_cap:
        raise ResourceCapError(
            f"database has {len(db)} facts, over the exact-solver cap"
            f" of {fact_cap}"
        )
    prod = graphdb.product(db, A)
    mults = [m for _, m in db.entries]
    index = {fact: i for i, fact in enumerate(prod.facts)}
    counter = itertools.count()
    heap = [(0, 0, next(counter), 0)]
    seen = {0}
    lifted = set()  # subsets pushed back with their own bound as key
    while heap:
        key, neg_cost, _, removed = heapq.heappop(heap)
        cost = -neg_cost
        witness = graphdb.witness_walk(prod, removed)
        if witness is None:
            # keys never exceed the cost of the best falsifying superset
            assert key == cost
            contingency = frozenset(
                fact for i, fact in enumerate(prod.facts) if removed >> i & 1
            )
            return ResilienceAnswer(cost, contingency, "exact")
        bound = key - cost
        if removed not in lifted:
            bound = max(bound, _packing_bound(prod, mults, index, removed, witness))
            # pushed back, the entry would lose every tie to the heap's top
            if cost + bound > key and heap and (cost + bound, neg_cost) >= heap[0][:2]:
                lifted.add(removed)
                heapq.heappush(heap, (cost + bound, neg_cost, next(counter), removed))
                continue
        for i in sorted({index[fact] for fact in witness}):
            child = removed | 1 << i
            if child not in seen:
                seen.add(child)
                child_cost = cost + mults[i]
                child_key = child_cost + max(0, bound - mults[i])
                heapq.heappush(heap, (child_key, -child_cost, next(counter), child))
    raise AssertionError("search space exhausted without a falsifying subset")


def _packing_bound(prod, mults, index, removed, walk) -> int:
    """A lower bound on the resilience of the product's database without
    the facts set in ``removed``, whose witness ``walk`` is given.

    Witness walks are packed greedily: each adds the smallest residual
    multiplicity ``d`` among its facts to the bound and takes ``d`` from
    each of them, and a fact left with none is skipped by the next walk
    search.  The packed amounts are a feasible solution of the dual of
    the hitting-set LP over walk fact sets, so their sum never exceeds
    the cost of a fact set that meets every walk.
    """
    residual = {}
    bound = 0
    while walk is not None:
        used = {index[fact] for fact in walk}
        d = min(residual.get(i, mults[i]) for i in used)
        bound += d
        for i in used:
            left = residual[i] = residual.get(i, mults[i]) - d
            if not left:
                removed |= 1 << i
        walk = graphdb.witness_walk(prod, removed)
    return bound


# ---------------------------------------------------------------------------
# product networks


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
    useful = graphdb.reach(succ, sources) & graphdb.reach(pred, targets)

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
        if automata.accepts(A, ()):
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
# bipartite chain languages


def resilience_bcl(
    db: GraphDB,
    language: LanguageSpec,
    *,
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Min-cut solver for bipartite chain languages.

    The language is a word list or any spec of a finite language, whose
    words are enumerated; an infinite one is refused.

    Single-letter words force the removal of every fact with that label.
    Remaining words thread fact gadgets (a capacity-mult edge from a start
    to an end vertex per fact) with unbounded edges between consecutive
    walk steps, oriented left to right when the first letter sits in the
    source side of the endpoint bipartition and right to left otherwise,
    so facts whose label serves as endpoint of several words are traversed
    in one consistent direction.
    """
    if isinstance(language, (str, lang.Regex, EpsNFA)):
        words = _finite_words(automata.automaton_for(language), state_cap)
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


def _submod_dispatch(db: GraphDB, words: frozenset, z_cap: int) -> ResilienceAnswer:
    pattern = classifier.matches_submod_pattern(words)
    if pattern is None:
        raise SolverRefusal(
            "the language does not match the submodular two-word pattern,"
            " even mirrored"
        )
    word, extra = pattern.letters[:-1], pattern.letters[-1]
    if not pattern.mirrored:
        return resilience_submod(db, word, extra, z_cap=z_cap)
    answer = resilience_submod(graphdb.mirror_db(db), word, extra, z_cap=z_cap)
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
        return _submod_dispatch(db, _finite_words(A, state_cap), z_cap)
    if solver != "auto":
        raise InputError(f"unknown solver {solver!r}")

    analysis = classifier.analyse(A, state_cap=state_cap)
    verdict = analysis.verdict
    if verdict.status == classifier.PTIME:
        if verdict.method == "local":
            return resilience_local(db, analysis.reduced, promise_local=True)
        if verdict.method == "bcl":
            return resilience_bcl(db, analysis.words)
        return _submod_dispatch(db, analysis.words, z_cap)

    if len(db) > fact_cap:
        raise ResourceCapError(
            f"the language is not classified tractable ({verdict.status})"
            f" and the database has {len(db)} facts, over the exact-solver"
            f" cap of {fact_cap}"
        )
    return resilience_exact(db, A, fact_cap)
