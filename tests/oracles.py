"""Independent brute-force references the tests compare against.

Everything here favors obviousness over speed and only runs on tiny
instances.  None of it calls back into the algorithms under test: query
satisfaction is a hand-rolled product reachability, cuts and covers are
plain subset enumeration.
"""

import heapq
import itertools
import math
from typing import NamedTuple


def _eps_targets(transitions):
    eps = {}
    for src, label, dst in transitions:
        if label is None:
            eps.setdefault(src, set()).add(dst)
    return eps


def _closure(eps, states):
    seen = set(states)
    stack = list(seen)
    while stack:
        for t in eps.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def eps_closure(transitions, states):
    """Forward closure under transitions labeled None."""
    return _closure(_eps_targets(transitions), states)


def subset_construction(A):
    """The subset construction, as the tuple of fields (states, initial,
    final, transitions, alphabet) of a complete DFA over A's alphabet.

    Subsets are numbered in discovery order, breadth first, letters in
    sorted order; each step collects the letter targets and runs its own
    closure search.
    """
    eps = _eps_targets(A.transitions)
    letters = sorted(A.alphabet)
    start = _closure(eps, A.initial)
    ids = {start: 0}
    order = [start]
    transitions = set()
    index = 0
    while index < len(order):
        subset = order[index]
        index += 1
        for letter in letters:
            moved = {
                dst for src, label, dst in A.transitions
                if label == letter and src in subset
            }
            target = _closure(eps, moved)
            if target not in ids:
                ids[target] = len(ids)
                order.append(target)
            transitions.add((ids[subset], letter, ids[target]))
    final = frozenset(i for subset, i in ids.items() if subset & A.final)
    return (
        frozenset(range(len(ids))), frozenset({0}), final,
        frozenset(transitions), A.alphabet,
    )


class Fields(NamedTuple):
    """An automaton as raw fields, in the order of ``automata.EpsNFA``."""

    states: frozenset
    initial: frozenset
    final: frozenset
    transitions: frozenset
    alphabet: frozenset


def accepts(A, word) -> bool:
    """Whether A accepts the word, stepping closed state sets."""
    eps = _eps_targets(A.transitions)
    current = _closure(eps, A.initial)
    for letter in word:
        moved = {
            dst for src, label, dst in A.transitions
            if label == letter and src in current
        }
        current = _closure(eps, moved)
    return bool(current & A.final)


def brute_is_finite(A) -> bool:
    """Whether L(A) is finite, by the pumping bound: with n states, the
    language is infinite iff A accepts some word of length n to 2n - 1."""
    n = len(A.states)
    letters = sorted(A.alphabet)
    return not any(
        accepts(A, word)
        for length in range(n, 2 * n)
        for word in itertools.product(letters, repeat=length)
    )


def trim(A) -> Fields:
    """Keep the states reachable from an initial state and reaching a
    final one."""
    forward, backward = {}, {}
    for src, _, dst in A.transitions:
        forward.setdefault(src, set()).add(dst)
        backward.setdefault(dst, set()).add(src)
    useful = _closure(forward, A.initial) & _closure(backward, A.final)
    return Fields(
        useful, A.initial & useful, A.final & useful,
        frozenset(t for t in A.transitions if t[0] in useful and t[2] in useful),
        A.alphabet,
    )


def complement(A, alphabet=()) -> Fields:
    """A complete DFA for the words over A's alphabet and the given letters
    that A rejects: the subset construction with its final states flipped."""
    wider = Fields(
        A.states, A.initial, A.final, A.transitions,
        frozenset(A.alphabet) | frozenset(alphabet),
    )
    states, initial, final, transitions, letters = subset_construction(wider)
    return Fields(states, initial, states - final, transitions, letters)


def _strict_extensions(A) -> Fields:
    """An automaton for S+LS* | S*LS+ over the alphabet S of A: the words
    having a word of L as a strict infix.  Branch 0 reads at least one
    letter before the copy of A, branch 1 at least one after it."""
    states, initial, final, transitions = set(), set(), set(), set()
    for branch in (0, 1):
        pre = [(branch, "pre", k) for k in (0, 1)]
        post = [(branch, "post", k) for k in (0, 1)]
        inner = {s: (branch, "L", s) for s in A.states}
        states.update(pre + post + list(inner.values()))
        initial.add(pre[1 - branch])
        final.add(post[1])
        for a in A.alphabet:
            transitions.update({
                (pre[0], a, pre[1]), (pre[1], a, pre[1]),
                (post[0], a, post[1]), (post[1], a, post[1]),
            })
        transitions.update((pre[1], None, inner[s]) for s in A.initial)
        transitions.update((inner[s], None, post[branch]) for s in A.final)
        transitions.update(
            (inner[s], label, inner[t]) for s, label, t in A.transitions
        )
    return Fields(
        frozenset(states), frozenset(initial), frozenset(final),
        frozenset(transitions), A.alphabet,
    )


def _intersect(A, D) -> Fields:
    """The reachable product of an automaton with a complete DFA over the
    same letters; A's epsilon moves leave the DFA state where it is."""
    delta = {(src, label): dst for src, label, dst in D.transitions}
    moves = {}
    for src, label, dst in A.transitions:
        moves.setdefault(src, []).append((label, dst))
    initial = {(p, q) for p in A.initial for q in D.initial}
    seen = set(initial)
    stack = list(initial)
    transitions = set()
    while stack:
        p, q = stack.pop()
        for label, dst in moves.get(p, ()):
            pair = (dst, q if label is None else delta[q, label])
            transitions.add(((p, q), label, pair))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return Fields(
        frozenset(seen), frozenset(initial),
        frozenset((p, q) for p, q in seen if p in A.final and q in D.final),
        frozenset(transitions), A.alphabet,
    )


def reference_reduce(A) -> Fields:
    """The words of L(A) having no strict infix in L(A), built the long
    way: determinize the strict extensions of L, complement them,
    intersect with L, determinize again and trim."""
    outside = complement(_strict_extensions(A))
    return trim(Fields(*subset_construction(_intersect(A, outside))))


def reference_envelope(A) -> Fields:
    """The read-once envelope built the long way, one in-state and one
    out-state per letter.  Each letter joins its own two states; an epsilon
    move runs from a's out-state to b's in-state whenever, in the trimmed
    automaton, some a-transition can be followed after epsilon moves by a
    b-transition.  Letters readable first start at their in-states, letters
    readable last end at their out-states, and an isolated initial-final
    state accepts the empty word when A does."""
    T = trim(A)
    eps = _eps_targets(T.transitions)
    start = _closure(eps, T.initial)
    states = {(a, "in") for a in A.alphabet} | {(a, "out") for a in A.alphabet}
    transitions = {((a, "in"), a, (a, "out")) for a in A.alphabet}
    initial, final = set(), set()
    for src, label, dst in T.transitions:
        if label is None:
            continue
        reached = _closure(eps, {dst})
        if src in start:
            initial.add((label, "in"))
        if reached & T.final:
            final.add((label, "out"))
        for r, follow, _ in T.transitions:
            if r in reached and follow is not None:
                transitions.add(((label, "out"), None, (follow, "in")))
    if start & T.final:
        states.add("empty-word")
        initial.add("empty-word")
        final.add("empty-word")
    return Fields(
        frozenset(states), frozenset(initial), frozenset(final),
        frozenset(transitions), A.alphabet,
    )


def included(A, B) -> bool:
    """Whether L(A) is a subset of L(B).

    Determinize B, complete it with a sink over both alphabets, complement
    it, and search the product with A for a pair final in both.
    """
    states, initial, final, transitions, _ = subset_construction(B)
    delta = {(src, label): dst for src, label, dst in transitions}
    sink = len(states)
    rejecting = (states - final) | {sink}

    def step(q, letter):
        return delta.get((q, letter), sink)

    eps = _eps_targets(A.transitions)
    (b0,) = initial
    frontier = [(p, b0) for p in _closure(eps, A.initial)]
    seen = set(frontier)
    while frontier:
        p, q = frontier.pop()
        if p in A.final and q in rejecting:
            return False
        for src, label, dst in A.transitions:
            if src != p:
                continue
            pair = (dst, q if label is None else step(q, label))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


def reference_is_local(A) -> bool:
    """Whether L(A) is local: the read-once envelope always accepts a
    superset of L(A), so locality is the reverse inclusion."""
    return included(reference_envelope(A), A)


def _phased(A, bridges, alphabet) -> Fields:
    """Two copies of A (phase 0 and 1) plus the given bridge transitions,
    which go from phase 0 states to phase 1 states; a word is accepted
    when it starts in phase 0 and ends in phase 1."""
    transitions = set(bridges)
    for src, label, dst in A.transitions:
        transitions.add(((src, 0), label, (dst, 0)))
        transitions.add(((src, 1), label, (dst, 1)))
    return Fields(
        frozenset((s, phase) for s in A.states for phase in (0, 1)),
        frozenset((s, 0) for s in A.initial),
        frozenset((s, 1) for s in A.final),
        frozenset(transitions), frozenset(A.alphabet) | frozenset(alphabet),
    )


def reference_neutral_letter(A, letter) -> bool:
    """Whether inserting or deleting one occurrence of the letter anywhere
    never changes membership in L(A), by two inclusions: the words of L(A)
    with one occurrence inserted, bridged by a letter move from each state
    to its copy, and those with one deleted, bridged by an epsilon move
    along each letter move, must both lie in L(A)."""
    insert_one = _phased(A, (((s, 0), letter, (s, 1)) for s in A.states), {letter})
    delete_one = _phased(
        A,
        (((src, 0), None, (dst, 1)) for src, label, dst in A.transitions
         if label == letter),
        {letter},
    )
    return included(insert_one, A) and included(delete_one, A)


def _reversed(A) -> Fields:
    return Fields(
        A.states, A.final, A.initial,
        frozenset((dst, label, src) for src, label, dst in A.transitions),
        A.alphabet,
    )


def brzozowski_minimal(A) -> Fields:
    """The minimal complete DFA of L(A) by Brzozowski's construction:
    reverse, determinize, reverse, determinize."""
    once = Fields(*subset_construction(_reversed(A)))
    return Fields(*subset_construction(_reversed(once)))


def two_pass_parse_db(text):
    """The database text format read in two passes, as sorted
    ``((tail, label, head), mult)`` pairs.

    The first pass checks each line (field count, then a repeated fact,
    then the multiplicity) and collects its pair; the second checks every
    pair again while collecting them into a dict.  A bad input raises
    ``ValueError`` with the message the library's ``InputError`` carries.
    """
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ValueError(
                f"line {lineno}: expected 'tail label head [mult]', got {line!r}"
            )
        fact = tuple(fields[:3])
        if fact in seen:
            raise ValueError(
                f"line {lineno}: duplicate fact {' '.join(fact)}"
                " (state the multiplicity once)"
            )
        seen.add(fact)
        mult = 1
        if len(fields) == 4:
            try:
                mult = int(fields[3])
            except ValueError:
                raise ValueError(f"line {lineno}: bad multiplicity {fields[3]!r}") from None
            if mult < 1:
                raise ValueError(f"line {lineno}: multiplicity must be at least 1")
            if mult > 2**64 - 1:
                raise ValueError(f"line {lineno}: multiplicity exceeds 2^64-1")
        pairs.append((fact, mult))
    collected = {}
    for fact, mult in pairs:
        if not isinstance(mult, int) or mult < 1:
            raise ValueError(f"multiplicity of {' '.join(fact)} must be a positive integer")
        if mult > 2**64 - 1:
            raise ValueError(f"multiplicity of {' '.join(fact)} exceeds 2^64-1")
        if fact in collected:
            raise ValueError(f"duplicate fact {' '.join(fact)}")
        collected[fact] = mult
    return tuple(sorted(collected.items()))


def brute_satisfies(db, A) -> bool:
    """Whether some walk of db spells a word of L(A).

    Product reachability over (database node, automaton state) pairs.
    The empty walk counts, so an automaton accepting the empty word is
    satisfied by every database.
    """
    start_states = eps_closure(A.transitions, A.initial)
    if start_states & A.final:
        return True
    frontier = [(v, q) for v in sorted(db.adom()) for q in start_states]
    seen = set(frontier)
    while frontier:
        node, state = frontier.pop()
        for fact in db.facts():
            if fact.tail != node:
                continue
            for src, label, dst in A.transitions:
                if src != state or label != fact.label:
                    continue
                for q in eps_closure(A.transitions, {dst}):
                    if q in A.final:
                        return True
                    if (fact.head, q) not in seen:
                        seen.add((fact.head, q))
                        frontier.append((fact.head, q))
    return False


def brute_resilience(db, A):
    """Minimum total multiplicity of a fact set whose removal falsifies A.

    math.inf when the empty word is accepted (no removal can help), or
    when the query is not satisfied by any sub-database large enough to
    matter (then the minimum is 0 via the empty set).
    """
    if eps_closure(A.transitions, A.initial) & A.final:
        return math.inf
    facts = db.facts()
    best = None
    for r in range(len(facts) + 1):
        for combo in itertools.combinations(facts, r):
            cost = sum(db.mult(f) for f in combo)
            if best is not None and cost >= best:
                continue
            if not brute_satisfies(db.without(combo), A):
                best = cost
    assert best is not None, "removing every fact must falsify the query"
    return best


def brute_min_cut_value(edges, source, target):
    """Minimum total capacity over finite-edge subsets disconnecting
    source from target; math.inf when no such subset exists.

    edges: list of (tail, head, capacity) with capacity an int or inf.
    """

    def reaches(removed):
        adjacency = {}
        for index, (tail, head, _) in enumerate(edges):
            if index not in removed:
                adjacency.setdefault(tail, []).append(head)
        seen = {source}
        stack = [source]
        while stack:
            v = stack.pop()
            if v == target:
                return True
            for w in adjacency.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    finite = [i for i, e in enumerate(edges) if not math.isinf(e[2])]
    best = math.inf
    for r in range(len(finite) + 1):
        for combo in itertools.combinations(finite, r):
            cost = sum(edges[i][2] for i in combo)
            if cost < best and not reaches(frozenset(combo)):
                best = cost
    return best


def brute_hitting_set(edges) -> int:
    """Minimum size of a vertex set meeting every hyperedge."""
    edges = [frozenset(e) for e in edges]
    assert all(edges), "hyperedges must be non-empty"
    vertices = sorted(set().union(*edges)) if edges else []
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            chosen = frozenset(combo)
            if all(e & chosen for e in edges):
                return k
    raise AssertionError("the full vertex set hits everything")


def brute_vertex_cover(edges) -> int:
    """Minimum vertex cover of an undirected graph given as vertex pairs."""
    return brute_hitting_set([frozenset(e) for e in edges])


def restarting_edge_domination(vertices, edges, steps) -> frozenset:
    """Drop strict-superset hyperedges: rescan in sorted order after every
    removal, and drop the first edge that has a strict subset, against
    the first one.  Each removal is appended to ``steps`` as the tuple
    ``("edge-domination", removed, subset, vertices, edges before,
    vertices, edges after)``."""
    current = set(edges)
    while True:
        ordered = sorted(current, key=sorted)
        found = next(((e, o) for e in ordered for o in ordered if o < e), None)
        if found is None:
            return frozenset(current)
        e, witness = found
        before = frozenset(current)
        current.remove(e)
        steps.append(
            ("edge-domination", e, witness, vertices, before, vertices, frozenset(current))
        )


def _walk_odd_path(vertices, edges, f_in, f_out):
    """The vertex sequence of the hypergraph when it is one simple path of
    odd length from f_in to f_out with all edges of size 2, else None."""
    if f_in is None or f_out is None or f_in == f_out or not {f_in, f_out} <= vertices:
        return None
    if any(len(e) != 2 for e in edges) or len(edges) != len(vertices) - 1:
        return None
    if len(edges) % 2 == 0:
        return None
    sequence, rest = [f_in], set(edges)
    while sequence[-1] != f_out:
        leaving = [e for e in rest if sequence[-1] in e]
        if len(leaving) != 1:
            return None
        rest.remove(leaving[0])
        (following,) = leaving[0] - {sequence[-1]}
        sequence.append(following)
    if rest or len(sequence) != len(vertices):
        return None
    return tuple(sequence)


def _dominated(vertices, edges, protected):
    """(v, w) for each unprotected v whose incident edges all contain the
    first w that differs from it; both in sorted order."""
    out = []
    for v in sorted(vertices):
        if v in protected:
            continue
        mine = {e for e in edges if v in e}
        for w in sorted(vertices):
            if w != v and all(w in e for e in mine):
                out.append((v, w))
                break
    return out


def two_path_condense(vertices, edges, f_in, f_out, protected, budget):
    """Condensation of a hypergraph towards an odd f_in..f_out path, by two
    searches: a recursive backtracking search with a memo of the vertex
    sets met, when there are at most ``budget`` vertices, and a greedy
    loop that strips the first dominated vertex, above that.

    Returns ``(status, steps, vertices, edges, path)`` with status
    "path", "exhausted" or "budget"; each node-domination step is the
    tuple ``("node-domination", removed, dominator, vertices before,
    edges before, vertices after, edges after)``.
    """
    steps = []
    edges = restarting_edge_domination(vertices, edges, steps)

    def found(v, e, trace):
        path = _walk_odd_path(v, e, f_in, f_out)
        return None if path is None else ("path", tuple(trace), v, e, path)

    def strip(v, e, victim, dominator, trace):
        new_v, new_e = v - {victim}, frozenset(x - {victim} for x in e)
        trace.append(("node-domination", victim, dominator, v, e, new_v, new_e))
        return new_v, restarting_edge_domination(new_v, new_e, trace)

    hit = found(vertices, edges, steps)
    if hit is not None:
        return hit
    if len(vertices) <= budget:
        memo = set()

        def search(v, e, trace):
            for victim, dominator in _dominated(v, e, protected):
                if v - {victim} in memo:
                    continue
                memo.add(v - {victim})
                branch = list(trace)
                new_v, new_e = strip(v, e, victim, dominator, branch)
                hit = found(new_v, new_e, branch) or search(new_v, new_e, branch)
                if hit is not None:
                    return hit
            return None

        hit = search(vertices, edges, steps)
        if hit is not None:
            return hit
        return ("exhausted", tuple(steps), vertices, edges, None)
    while True:
        candidates = _dominated(vertices, edges, protected)
        if not candidates:
            return ("budget", tuple(steps), vertices, edges, None)
        vertices, edges = strip(vertices, edges, *candidates[0], steps)
        hit = found(vertices, edges, steps)
        if hit is not None:
            return hit


def brute_letter_cartesian(words) -> bool:
    """Direct check of the exchange property: for every letter x and
    factorizations u = a x b, v = c x d in the language, a x d is too."""
    words = frozenset(words)
    for u in words:
        for v in words:
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    if x == y and u[: i + 1] + v[j + 1 :] not in words:
                        return False
    return True


class CartesianCounterexample(NamedTuple):
    """Words before+x+after1 and before2+x+after: the cross recombination
    before+x+after is missing from the language."""

    letter: str
    before: tuple
    after1: tuple
    before2: tuple
    after: tuple


def letter_cartesian_counterexample(language):
    """The first exchange-property violation in sorted word order, as a
    ``CartesianCounterexample``, or None when the language has none."""
    words = frozenset(language)
    ordered = sorted(words)
    for w1 in ordered:
        for i, x in enumerate(w1):
            for w2 in ordered:
                for j, y in enumerate(w2):
                    if x != y:
                        continue
                    crossed = w1[: i + 1] + w2[j + 1 :]
                    if crossed not in words:
                        return CartesianCounterexample(
                            x, w1[:i], w1[i + 1 :], w2[:j], w2[j + 1 :]
                        )
    return None


def brute_reduce(words) -> frozenset:
    """Words having no strict infix in the language."""
    words = frozenset(words)

    def has_strict_infix(w):
        for other in words:
            if other == w:
                continue
            n = len(other)
            for start in range(len(w) - n + 1):
                if w[start : start + n] == other:
                    return True
        return False

    return frozenset(w for w in words if not has_strict_infix(w))


def best_first_search(mults, witness):
    """Plain best-first search over fact subsets, without a lower bound:
    the exact solver's first search, and the reference that its implicit
    hitting-set search is counted against, one walk search per pop.

    ``mults`` lists the multiplicities in fact order.  ``witness(removed)``
    returns the fact indices of a witness walk of the database without the
    facts set in the int bitmask ``removed``, or None when none is left.
    Subsets are popped by total multiplicity, then push order, and
    extended by each fact of their witness.  Returns the optimal cost, its
    bitmask and the number of heap pops.
    """
    counter = itertools.count()
    heap = [(0, next(counter), 0)]
    seen = {0}
    pops = 0
    while heap:
        cost, _, removed = heapq.heappop(heap)
        pops += 1
        walk = witness(removed)
        if walk is None:
            return cost, removed, pops
        for i in sorted(set(walk)):
            child = removed | 1 << i
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (cost + mults[i], next(counter), child))
    raise AssertionError("removing every fact must falsify the query")


def submod_enumeration(db, word, extra, local):
    """Resilience of {a_1...a_n, a_{n-1} e} by enumerating zones: the
    submodular solver before it became one min-cut.

    ``word`` is a_1...a_n and ``extra`` is e.  ``local(sub)`` returns the
    resilience of the single word over the database ``sub`` as a pair
    (value, contingency set).  A zone Z loses every a_{n-1} fact into it
    and every other node its e facts out; the long word is then broken on
    the database without the a_n facts out of Z.  Only the junction
    nodes, with both an a_{n-1} fact in and an e fact out, are tried both
    ways; a node without an a_{n-1} fact in joins Z for free and any other
    stays out for free.  Returns the least total and its contingency set.
    """
    a_prev, a_last = word[-2], word[-1]
    incoming = {}
    outgoing = {}
    for fact, m in db.entries:
        if fact.label == a_prev:
            incoming[fact.head] = incoming.get(fact.head, 0) + m
        if fact.label == extra:
            outgoing[fact.tail] = outgoing.get(fact.tail, 0) + m
    junctions = sorted(v for v in incoming if v in outgoing)
    forced_in = {v for v in db.adom() if v not in incoming}
    best = None
    for size in range(len(junctions) + 1):
        for chosen in itertools.combinations(junctions, size):
            zone = forced_in | set(chosen)
            dropped = [f for f in db.facts() if f.label == a_last and f.tail in zone]
            value, contingency = local(db.without(dropped))
            total = (
                sum(incoming[v] for v in chosen)
                + sum(outgoing[v] for v in junctions if v not in chosen)
                + value
            )
            if best is None or total < best[0]:
                best = (total, set(chosen), contingency)
    total, chosen, contingency = best
    removed = {
        f for f in db.facts()
        if (f.label == a_prev and f.head in chosen)
        or (f.label == extra and f.tail in junctions and f.tail not in chosen)
    }
    return total, frozenset(removed) | contingency


def four_legged_search(words, member, leg_cap=None):
    """The four-legged split search that tries every pair of positions:
    for each word w1 split as before1 x after1 and each word w2 split as
    before2 x after2, shortest words first and all legs non-empty and at
    most ``leg_cap`` long, the first pair for which ``member`` rejects
    before1 x after2.  Returns (x, before1, after1, before2, after2) or
    None.
    """
    ordered = sorted(words, key=lambda w: (len(w), w))

    def short_enough(part):
        return leg_cap is None or len(part) <= leg_cap

    for w1 in ordered:
        for i in range(1, len(w1) - 1):
            x = w1[i]
            before1, after1 = w1[:i], w1[i + 1 :]
            if not (short_enough(before1) and short_enough(after1)):
                continue
            for w2 in ordered:
                for j in range(1, len(w2) - 1):
                    if w2[j] != x:
                        continue
                    before2, after2 = w2[:j], w2[j + 1 :]
                    if not (short_enough(before2) and short_enough(after2)):
                        continue
                    if not member(before1 + (x,) + after2):
                        return (x, before1, after1, before2, after2)
    return None
