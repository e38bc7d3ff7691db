"""Resilience solvers for regular path queries over labeled graphs.

Resilience of a query under bag semantics is the least total multiplicity
of a fact set whose removal makes the query false; under set semantics all
multiplicities are first collapsed to one.  It is infinite exactly when
the language contains the empty word.

Four solvers are provided: an exact implicit-hitting-set search over
witness walks, usable on any language but capped in database size, and
min-cut reductions for local languages, for bipartite chain languages and
for the two-word submodular pattern; the three reductions build their
networks through one shared builder.  The ``resilience`` entry point picks
a solver from the classifier verdict.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, NamedTuple, Optional, Union

from . import automata, classifier, flow, graphdb, lang
from .automata import EpsNFA
from .errors import InputError, ResourceCapError, SolverRefusal
from .flow import INF
from .graphdb import Fact, GraphDB
from .lang import Word

DEFAULT_EXACT_CAP = 22

LanguageSpec = Union[str, lang.Regex, EpsNFA, Iterable[Word]]


class _AnswerFields(NamedTuple):
    value: Union[int, float]
    contingency: Optional[frozenset]
    method: str


class ResilienceAnswer(_AnswerFields):
    """value is an int, or math.inf with no contingency set."""

    __slots__ = ()

    def __new__(cls, value, contingency, method):
        infinite = isinstance(value, float) and math.isinf(value)
        if infinite != (contingency is None):
            raise InputError(
                "a resilience answer is infinite exactly when it has"
                " no contingency set"
            )
        return tuple.__new__(cls, (value, contingency, method))


# ---------------------------------------------------------------------------
# exact solver


def resilience_exact(
    db: GraphDB, language: LanguageSpec, fact_cap: int = DEFAULT_EXACT_CAP
) -> ResilienceAnswer:
    """Optimal contingency set as an implicit hitting set of witness walks.

    Resilience is the least total multiplicity of a fact set that meets
    every witness walk.  The search keeps a list of cores, the fact sets
    of walks found so far, and a minimum hitting set ``removed`` of them.
    Each round searches for a walk that avoids ``removed``; with none left
    ``removed`` falsifies the query, and since every contingency set hits
    the cores, it is optimal.  Otherwise the walk's facts become a core,
    then walks avoiding ``removed`` and the round's earlier cores too, until
    none is left, and ``removed`` becomes a minimum hitting set of all the
    cores.  Each round adds a core that the old ``removed`` misses, so the
    loop ends.

    The product of the database with the automaton is built once per call;
    each walk search skips the facts set in an int bitmask over the fact
    order of ``db.entries``.
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
    cores: list[tuple] = []
    cost, removed = 0, 0
    while True:
        walk = graphdb.witness_walk(prod, removed)
        if walk is None:
            contingency = frozenset(
                fact for i, fact in enumerate(prod.facts) if removed >> i & 1
            )
            return ResilienceAnswer(cost, contingency, "exact")
        blocked = removed
        while walk is not None:
            core = 0
            for fact in walk:
                core |= 1 << index[fact]
            _add_core(cores, core, mults)
            blocked |= core
            walk = graphdb.witness_walk(prod, blocked)
        # more cores never lower the minimum, so the last one is a floor
        cost, removed = _min_hitting_set(cores, mults, cost, removed)


def _add_core(cores: list, core: int, mults) -> None:
    """Insert the bitmask ``core`` into ``cores``, a list of ``(size, mask,
    order)`` tuples in increasing ``(size, mask)`` order, where ``order``
    lists a core's facts by ``(mults[i], i)``.  Each core is sorted once,
    here, however many hitting-set searches then read it.
    """
    order = tuple(sorted(_bits(core), key=lambda i: (mults[i], i)))
    bisect.insort(cores, (len(order), core, order))


def _min_hitting_set(cores, mults, floor: int = 0, start: int = 0) -> tuple[int, int]:
    """A minimum-weight hitting set of ``cores``, as its weight and
    bitmask; ``cores`` is a list that ``_add_core`` keeps, and fact ``i``
    weighs ``mults[i]``.  ``floor`` is a known lower bound on the weight,
    and the search stops at a hitting set that reaches it.  ``start`` is a
    fact set to begin from: it is completed by the cheapest fact of each
    core it misses, and the search looks for a lighter set than that.

    Depth-first branch and bound on an explicit stack.  A node chooses
    some facts and excludes others.  It branches on the unhit core with the
    fewest facts still open: child ``j`` chooses that core's ``j``-th
    cheapest open fact and excludes the ones before it, so the children
    split the hitting sets below the node.  A node is pruned when a core
    has no open fact left, or when its weight plus a lower bound on the
    rest reaches the best set found.  The bound packs unhit cores with
    pairwise disjoint open facts, smallest first, and adds each one's
    cheapest open fact: no fact can hit two of them.
    """
    best = start
    for _, core, order in cores:
        if not core & best:
            best |= 1 << order[0]
    best_cost = sum(mults[i] for i in _bits(best))
    stack = [(0, 0, 0)] if best_cost > floor else []  # (weight, chosen, excluded)
    while stack:
        cost, chosen, excluded = stack.pop()
        if cost >= best_cost:
            continue
        bound, packed, branch, width = 0, 0, None, 0
        for _, core, order in cores:
            if core & chosen:
                continue
            live = core & ~excluded
            if not live:
                break
            if branch is None or live.bit_count() < width:
                branch, width = order, live.bit_count()
            if not live & packed:
                packed |= live
                for i in order:
                    if live >> i & 1:
                        bound += mults[i]
                        break
        else:
            if branch is None:
                best_cost, best = cost, chosen
                if cost <= floor:
                    break
            elif cost + bound < best_cost:
                children = []
                for i in branch:
                    if not excluded >> i & 1:
                        if cost + mults[i] < best_cost:
                            children.append((cost + mults[i], chosen | 1 << i, excluded))
                        excluded |= 1 << i
                stack.extend(reversed(children))
    return best_cost, best


def _bits(mask: int):
    """The indices of the bits set in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# product networks


def _reach_network(roles, starts, moves):
    """The flow network of the useful part of a product of the database
    with a language, and a map from its edge indices to facts.

    A product vertex is a pair of a layer, a small int, and a node.
    ``roles[layer]`` is 0 if the layer's vertices are attached from the
    source by unbounded edges, 1 if they are attached to the target and -1
    otherwise.  An arc is a ``(layer, node, facts, mult)`` tuple naming
    its head: a capacity-``mult`` edge tagged with the tuple of facts that
    cutting it removes, or an unbounded edge if ``facts`` is None.
    ``starts`` lists the arcs out of the source attachments and
    ``moves[layer](node)`` those out of an unattached vertex, if any.

    Each attachment merges into its terminal, and arcs that would then
    enter the source or leave the target are dropped: no finite cut
    crosses an unbounded edge, so the value and the inclusion-minimal
    minimum cut stay the same.  Only vertices on a source-target path are
    kept: the flow runs along such paths only, and the source side of that
    cut loses only vertices no cut edge touches.  A reach forward from
    ``starts``, never stepping onto an unattached vertex without arcs out,
    files each arc it can use under its head.  A reach backward from the
    target then writes every arc filed under each vertex it takes, and
    numbers each tail the first time it meets one: the source 0, the
    target 1 and the rest 2, 3, ... in that order.  The edge order thus
    follows the reach, not the database; the value and the cut facts do
    not depend on it.

    Two rules contract the unbounded arcs that give the cut no choice, as
    ``automata.regex_to_epsnfa`` contracts epsilon moves.  Rule 1, in the
    forward reach: a pair met for the first time whose only arc out is
    unbounded gets the vertex of that arc's head (``_unbounded_chain``),
    and an arc whose head gets its own tail's vertex is not filed.
    Rule 2, in the backward reach: a vertex other than the target whose
    only filed arc in is unbounded gives its number to that arc's tail,
    if the tail has none yet, and the tail's arcs in are written next.  An
    arc whose ends share a number is not written: no cut crosses a
    self-loop.  Both rules are exact: no finite cut separates the ends of
    such an arc from the side the arc forces, and moving the free end
    across never raises a cut or changes its edges.
    """
    seen = [{} for _ in roles]  # per layer: node -> reached vertex, 0 if dead
    into: list[list] = [[], []]  # per reached vertex: (tail, arc) per arc into it
    stack = [(0, starts)]
    while stack:
        v, out = stack.pop()
        for arc in out:
            w = roles[arc[0]]  # the source 0 is never entered, the target 1 ends
            if w < 0:
                ids = seen[arc[0]]
                w = ids.get(arc[1])
                if w is None:
                    onward = moves[arc[0]](arc[1])
                    if not onward:
                        w = ids[arc[1]] = 0
                    elif onward[0][2] is None and len(onward) == 1:
                        w = _unbounded_chain(ids, arc[1], onward[0], roles, seen, moves, into, stack)
                    else:
                        w = ids[arc[1]] = len(into)
                        into.append([])
                        stack.append((w, onward))
            if w and w != v:
                into[w].append((v, arc))

    number = [0, 1] + [-1] * (len(into) - 2)
    vertices, ends = [], []  # the reached vertex numbered 2 + i; head, tail per edge
    caps, tag = [], {}
    heads = [1]
    while heads:
        head = heads.pop()
        h = number[head]
        arcs = into[head]
        # rule 2: a lone unbounded arc in merges a tail not yet met into it
        while (len(arcs) == 1 and arcs[0][1][2] is None and h != 1
               and number[arcs[0][0]] < 0):
            number[arcs[0][0]] = h
            arcs = into[arcs[0][0]]
        for tail, (_, _, facts, m) in arcs:
            t = number[tail]
            if t < 0:
                t = number[tail] = len(vertices) + 2
                vertices.append(tail)
                heads.append(tail)
            elif t == h:
                continue  # no cut crosses a self-loop
            ends += (h, t)
            if facts is None:
                caps.append(INF)
            else:
                tag[len(caps)] = facts
                caps.append(m)
    net = flow.FlowNetwork("source", "target")
    net._add_numbered(vertices, ends, caps)
    return net, tag


def _unbounded_chain(ids, node, arc, roles, seen, moves, into, stack) -> int:
    """Rule 1 of ``_reach_network``: the vertex of ``node``, a pair met
    for the first time in the layer whose map is ``ids``, whose only arc
    out is the unbounded ``arc``.  It is the vertex of the arc's head,
    found by following such pairs to the first one that is not: a
    terminal, a pair met before, or a new pair numbered and pushed as
    ``_reach_network`` does.  A cycle of such pairs has no way out and is
    dead (0).  Every pair on the chain is recorded under the vertex found.
    """
    chain = [(ids, node)]
    ids[node] = -1  # on the chain being followed
    while True:
        w = roles[arc[0]]
        if w < 0:
            ids = seen[arc[0]]
            w = ids.get(arc[1])
            if w is None:
                onward = moves[arc[0]](arc[1])
                if onward and onward[0][2] is None and len(onward) == 1:
                    chain.append((ids, arc[1]))
                    ids[arc[1]] = -1
                    arc = onward[0]
                    continue
                w = len(into) if onward else 0
                if w:
                    into.append([])
                    stack.append((w, onward))
                ids[arc[1]] = w
            elif w < 0:
                w = 0  # round a cycle
        for ids, node in chain:
            ids[node] = w
        return w


def _cut_facts(net, tag) -> tuple[int, frozenset]:
    """The value of a minimum cut and the facts its edges remove."""
    cut = flow.min_cut(net)
    # every source-target path crosses a fact edge, so the cut is finite
    assert not math.isinf(cut.value)
    removed = frozenset(f for i in cut.edge_indices for f in tag[i])
    return int(cut.value), removed


# ---------------------------------------------------------------------------
# local languages: min cut in the product network


def resilience_local(
    db: GraphDB,
    language: LanguageSpec,
    *,
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Min-cut solver for local languages.

    The network pairs database nodes with states of the minimal read-once
    envelope of the automaton.  The locality answer is kept on the
    automaton, so a call on the reduced DFA that the classifier tested
    does not test again; the envelope is built here, once per automaton,
    and kept on it too.  Each fact yields one capacity-mult edge along the
    unique transition carrying its label; epsilon transitions, source
    attachments to initial states and target attachments from final
    states are unbounded.
    Letters with the same followers share their states, so for ``ax*b``
    each node gets one vertex and there is no epsilon transition; in
    general no state is both entered and left by one, so epsilon moves
    never chain.  Cutting an edge set disconnecting source from target is
    exactly removing a fact set that breaks every accepted walk.  The
    facts are indexed by tail node in one dict per state, and the network
    is reached from those out of initial states.  An epsilon move enters a
    state neither final nor left by one, so it is followed only to a node
    with a fact out of that state.
    """
    A = automata.automaton_for(language)
    if automata.accepts(A, ()):
        return ResilienceAnswer(INF, None, "local")
    if not automata.is_local_language(A, state_cap):
        raise SolverRefusal(
            "the language is not local, so the read-once reduction"
            " would overapproximate it"
        )
    ro = automata.trim(automata.eps_nfa_to_ro(A))
    layer: dict = {}  # state -> its layer, numbered in order of first use
    roles, out = [], []  # per layer: its role, and tail node -> the arcs out
    follow: dict = {}  # layer -> the layers its epsilon moves reach
    letter_arc = {}
    for src, label, dst in sorted(ro.transitions, key=str):
        for q in (src, dst):
            if q not in layer:
                layer[q] = len(roles)
                roles.append(0 if q in ro.initial else 1 if q in ro.final else -1)
                out.append({})
        if label is None:
            follow.setdefault(layer[src], []).append(layer[dst])
        else:
            letter_arc[label] = (out[layer[src]], layer[dst])
    for fact, m in db.entries:
        hit = letter_arc.get(fact.label)
        if hit is not None:
            hit[0].setdefault(fact.tail, []).append((hit[1], fact.head, (fact,), m))

    def with_epsilon(table, nxt):
        return lambda node: [*table.get(node, ()), *(
            (y, node, None, None) for y in nxt if node in out[y]
        )]

    moves = [with_epsilon(t, follow[q]) if q in follow else t.get for q, t in enumerate(out)]
    starts = [arc for q, role in enumerate(roles) if role == 0
              for node in out[q] for arc in moves[q](node)]
    value, contingency = _cut_facts(*_reach_network(roles, starts, moves))
    return ResilienceAnswer(value, contingency, "local")


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
    return _bcl_cut(db, words, analysis.bipartition[0])


def _bcl_cut(db: GraphDB, words: frozenset, source_side) -> ResilienceAnswer:
    """The bipartite-chain min-cut for the words of a chain language
    whose endpoint graph puts the letters of ``source_side`` on the
    source side."""
    singles = {w[0] for w in words if len(w) == 1}
    forced, forced_cost = frozenset(), 0
    if singles:
        hits = [(f, m) for f, m in db.entries if f.label in singles]
        forced = frozenset(f for f, _ in hits)
        forced_cost = sum(m for _, m in hits)
    long_words = sorted(w for w in words if len(w) >= 2)
    if not long_words:
        return ResilienceAnswer(forced_cost, forced, "bcl")

    # the fact at position j of the database runs from vertex (0, j) or
    # (1, j), its start, to (2, j) or (3, j), its end: the source attaches
    # the starts of layer 0, the target the ends of layer 2
    letters = sorted({letter for w in long_words for letter in w} - singles)
    layers = {x: [1, 3] for x in letters}  # letter -> its start and end layer
    for x in {w[k] for w in long_words for k in (0, -1)} & layers.keys():
        layers[x][x not in source_side] = 0 if x in source_side else 2
    # a forward word steps from an x fact's end to the start of a y fact at
    # its head, a backward one from a y fact's end to the start of an x fact
    # at its tail
    entries = db.entries
    steps: dict = {x: [] for x in letters}  # letter -> (layer, facts by node, forward)
    by_tail: dict = {}  # letter a forward step enters -> its facts by tail
    by_head: dict = {}  # letter a backward step enters -> its facts by head
    for w in long_words:
        forward = w[0] in source_side
        for x, y in zip(w, w[1:]):
            if x in layers and y in layers:
                if forward:
                    steps[x].append((layers[y][0], by_tail.setdefault(y, {}), True))
                else:
                    steps[y].append((layers[x][0], by_head.setdefault(x, {}), False))
    at_source = {x for x in letters if layers[x][0] == 0}
    start_facts = []  # the facts whose start is attached to the source
    for j, (fact, _) in enumerate(entries):
        label = fact.label
        if label in by_tail:
            by_tail[label].setdefault(fact.tail, []).append(j)
        if label in by_head:
            by_head[label].setdefault(fact.head, []).append(j)
        if label in at_source:
            start_facts.append(j)

    def fact_edge(j):
        fact, m = entries[j]
        end = layers[fact.label][1]
        if end == 3:  # a fact whose end has no step on is no use
            for _, index, forward in steps[fact.label]:
                if (fact.head if forward else fact.tail) in index:
                    break
            else:
                return ()
        return ((end, j, (fact,), m),)

    def steps_on(j):
        fact, arcs = entries[j][0], []
        for nxt, index, forward in steps[fact.label]:
            found = index.get(fact.head if forward else fact.tail, ())
            arcs += [(nxt, k, None, None) for k in found]
        return arcs

    roles, moves = [0, -1, 1, -1], [fact_edge, fact_edge, steps_on, steps_on]
    starts = [arc for j in start_facts for arc in fact_edge(j)]
    value, contingency = _cut_facts(*_reach_network(roles, starts, moves))
    return ResilienceAnswer(forced_cost + value, forced | contingency, "bcl")


# ---------------------------------------------------------------------------
# the submodular two-word pattern


def resilience_submod(db: GraphDB, word: Word, extra: str) -> ResilienceAnswer:
    """Min-cut solver for {a_1...a_n, a_{n-1} e} with distinct letters.

    A falsifying removal picks a node set Z whose nodes lose every a_{n-1}
    fact into them; every other node loses its e facts out, and the long
    word is then broken on the rest of the database, where the a_n facts
    out of Z no longer matter.  So each node v has three options: join Z
    and pay the a_{n-1} facts into v; stay out and pay the e and a_n facts
    out of v; or stay out, pay the e facts out of v and cut every
    a_1...a_{n-1} walk into v.

    One network expresses them.  It is the product of the database with
    the prefix a_1...a_{n-1}, vertex (v, k) being node v after k letters,
    with the source attached to every (v, 0).  The exit edge
    (v, n-1) -> exit_v, attached to the target, costs the cheaper of the
    first two options; the entry edge entry_v -> (v, n-1), attached to the
    source, costs the e facts out of v.  A cut crosses the exit edge only
    when (v, n-1) is on the source side and the entry edge only when it
    is on the target side, so the fact sets of the cut edges are disjoint.
    """
    word = tuple(word)
    if len(word) < 2:
        raise SolverRefusal("the long word must have at least two letters")
    if len(set(word)) != len(word) or extra in word:
        raise SolverRefusal(
            "the submodular pattern needs pairwise distinct letters"
        )
    last = len(word) - 1
    roles = [0] + [-1] * last + [1, 0]  # levels 0 .. n-1, then exits, entries
    tables = [{} for _ in roles]  # per layer: node -> the arcs out
    level = {letter: k for k, letter in enumerate(word[:-1])}
    # per node: the a_{n-1} facts into it, the e and the a_n facts out of it
    into, out, out_last = {}, {}, {}
    for fact, m in db.entries:
        k = level.get(fact.label)
        if k is not None:
            tables[k].setdefault(fact.tail, []).append((k + 1, fact.head, (fact,), m))
            if k + 1 == last:
                into.setdefault(fact.head, []).append(fact)
        elif fact.label == extra:
            out.setdefault(fact.tail, []).append(fact)
        elif fact.label == word[-1]:
            out_last.setdefault(fact.tail, []).append(fact)

    def cost(facts):
        return sum(db.mult(f) for f in facts)

    for v, entering in into.items():
        leaving = out.get(v, []) + out_last.get(v, [])
        if leaving:
            cheaper = min(entering, leaving, key=cost)
            tables[last][v] = [(last + 1, v, tuple(cheaper), cost(cheaper))]
            if v in out:
                tables[last + 2][v] = [(last, v, tuple(out[v]), cost(out[v]))]
    starts = [arc for k in (0, last + 2) for arcs in tables[k].values() for arc in arcs]
    moves = [table.get for table in tables]
    value, contingency = _cut_facts(*_reach_network(roles, starts, moves))
    assert value == cost(contingency)
    return ResilienceAnswer(value, contingency, "submod")


# ---------------------------------------------------------------------------
# dispatcher


def _finite_words(A: EpsNFA, state_cap: int) -> frozenset[Word]:
    if not automata.is_finite_language(A):
        raise SolverRefusal("this solver needs a finite language")
    return frozenset(automata.language_words(A, state_cap=state_cap))


def _submod_dispatch(db: GraphDB, words: frozenset) -> ResilienceAnswer:
    pattern = classifier.matches_submod_pattern(words)
    if pattern is None:
        raise SolverRefusal(
            "the language does not match the submodular two-word pattern,"
            " even mirrored"
        )
    word, extra = pattern.letters[:-1], pattern.letters[-1]
    if not pattern.mirrored:
        return resilience_submod(db, word, extra)
    answer = resilience_submod(graphdb.mirror_db(db), word, extra)
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
    state_cap: int = automata.DEFAULT_STATE_CAP,
) -> ResilienceAnswer:
    """Compute resilience, picking a solver from the classification.

    Set semantics collapses multiplicities to one first.  An explicit
    solver choice is honored directly and refused when the language does
    not fit it; auto falls back to the exact solver, subject to its fact
    cap, when the classification is NP_HARD or UNKNOWN, and has it search
    the reduced DFA, true on the same sub-databases as the language.
    """
    if semantics not in ("set", "bag"):
        raise InputError(f"unknown semantics {semantics!r}")
    if semantics == "set":
        db = db.with_unit_multiplicities()
    A = automata.automaton_for(language)

    if solver == "exact":
        return resilience_exact(db, A)
    if solver == "local":
        return resilience_local(db, A, state_cap=state_cap)
    if solver == "bcl":
        return resilience_bcl(db, A, state_cap=state_cap)
    if solver == "submod":
        return _submod_dispatch(db, _finite_words(A, state_cap))
    if solver != "auto":
        raise InputError(f"unknown solver {solver!r}")

    analysis = classifier.analyse(A, state_cap=state_cap)
    verdict = analysis.verdict
    if verdict.status == classifier.PTIME:
        if verdict.method == "local":
            return resilience_local(db, analysis.reduced)
        if verdict.method == "bcl":
            return _bcl_cut(db, analysis.words, frozenset(verdict.witness["sides"][0]))
        return _submod_dispatch(db, analysis.words)

    if len(db) > DEFAULT_EXACT_CAP:
        raise ResourceCapError(
            f"the language is not classified tractable ({verdict.status})"
            f" and the database has {len(db)} facts, over the exact-solver"
            f" cap of {DEFAULT_EXACT_CAP}"
        )
    reduced = A if analysis.reduced is None else analysis.reduced
    return resilience_exact(db, reduced)
