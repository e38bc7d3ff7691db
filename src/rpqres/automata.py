"""Finite automata with epsilon transitions, and language-level decision
procedures built on them: trimming, determinization, minimization,
inclusion, the read-once construction, locality, reduction of regular
languages, neutral letters, and aperiodicity.

An EpsNFA is immutable; states are opaque hashable ids.  Its lookup
tables are built on first use and kept on the instance, so each automaton
builds them once and drops them with itself.  They hold only epsilon
closures (`Tables.start` and `Tables.after`), so the analyses never follow
an epsilon move themselves.  DFAs are the deterministic special case of
the same type (one initial state, no epsilon transitions, at most one
outgoing transition per state and letter); there ``after`` is the
transition function.  `minimize` always determinizes first, and the
neutral letters are read off the minimal DFA (`neutral_letters`).

Epsilon is represented by the label ``None`` in memory and by the reserved
token ``EPS`` in the text format.  A regex becomes Thompson's automaton with
its epsilon moves contracted (`regex_to_epsnfa`), which has about a third
of the states and is most often epsilon-free, so every analysis of the
language starts from the smaller automaton.  Locality is decided by one
lazy search over the subsets each letter enters (`is_local_language`),
with no envelope.  The read-once envelope (`eps_nfa_to_ro`), which the
local solver's network is built on, is minimised with the same two
contraction rules after letters with the same followers share their
states; it is kept on the automaton, like the trim.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from . import lang
from .errors import InputError, ResourceCapError
from .frozen import Frozen
from .lang import Word

EPS = None

DEFAULT_STATE_CAP = 100_000
DEFAULT_ENUM_CAP = 10_000
MONOID_CAP = 100_000

class Tables(NamedTuple):
    """Lookup tables of one automaton, read through its epsilon moves.  In
    a DFA ``after`` holds each state's one target per letter, as a
    singleton."""

    start: frozenset  # epsilon closure of the initial states
    after: dict  # state -> {letter -> epsilon closure of its letter targets}


_NO_MOVES: dict = {}


class EpsNFA(Frozen):
    """The alphabet holds at least the letters the transitions read."""

    _fields = ("states", "initial", "final", "transitions", "alphabet")

    def __init__(
        self, states: frozenset, initial: frozenset, final: frozenset,
        transitions: frozenset, alphabet: frozenset = frozenset(),
    ):
        if not initial <= states or not final <= states:
            raise InputError("initial/final states must belong to the state set")
        used = set()
        for src, label, dst in transitions:
            if src not in states or dst not in states:
                raise InputError(f"transition {(src, label, dst)!r} leaves the state set")
            if label is not None:
                used.add(label)
        if not used <= alphabet:
            alphabet = alphabet | used
        vars(self).update(zip(self._fields, (states, initial, final, transitions, alphabet)))

    @property
    def tables(self) -> Tables:
        """Built on first use and kept on the instance, outside the
        fields, so equality, hashing and repr ignore it."""
        if "_tables" not in vars(self):
            vars(self)["_tables"] = _build_tables(self)
        return vars(self)["_tables"]


def make_nfa(states, initial, final, transitions, alphabet=()) -> EpsNFA:
    return EpsNFA(
        frozenset(states),
        frozenset(initial),
        frozenset(final),
        frozenset(tuple(t) for t in transitions),
        frozenset(alphabet),
    )


def reach(adjacency: dict, seeds: Iterable) -> set:
    """Everything reachable from the seeds along the adjacency lists."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for t in adjacency.get(stack.pop(), ()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _build_tables(A: EpsNFA) -> Tables:
    by_letter: dict = {}
    eps: dict = {}
    for src, label, dst in A.transitions:
        if label is None:
            eps.setdefault(src, set()).add(dst)
        else:
            by_letter.setdefault(src, {}).setdefault(label, set()).add(dst)
    for moves in by_letter.values():
        for label, targets in moves.items():
            moves[label] = frozenset(targets)
    if not eps:
        return Tables(A.initial, by_letter)
    eps = {s: frozenset(targets) for s, targets in eps.items()}
    closures: dict = {}

    def closure(s):
        found = closures.get(s)
        if found is None:
            found = closures[s] = frozenset(reach(eps, (s,)))
        return found

    after = {
        src: {
            label: _union([closure(t) for t in targets])
            for label, targets in moves.items()
        }
        for src, moves in by_letter.items()
    }
    return Tables(frozenset(reach(eps, A.initial)), after)


def _union(parts) -> frozenset:
    if len(parts) == 1:
        return parts[0]
    return frozenset().union(*parts)


def _successor(after: dict, subset: frozenset, letter: str) -> frozenset:
    """The closed subset a closed subset moves to on one letter."""
    parts = []
    for s in subset:
        targets = after.get(s, _NO_MOVES).get(letter)
        if targets is not None:
            parts.append(targets)
    return _union(parts)


def _moves(after: dict, subset: frozenset) -> dict:
    """Where a closed subset moves on each letter it can read.  A singleton
    gets its state's own row of the tables, which callers must not
    change."""
    if len(subset) == 1:
        (s,) = subset
        return after.get(s, _NO_MOVES)
    parts: dict = {}
    for s in subset:
        for letter, targets in after.get(s, _NO_MOVES).items():
            parts.setdefault(letter, []).append(targets)
    return {letter: _union(targets) for letter, targets in parts.items()}


def accepts(A: EpsNFA, word: Word) -> bool:
    tables = A.tables
    current = tables.start
    for letter in word:
        if not current:
            return False
        current = _successor(tables.after, current, letter)
    return not current.isdisjoint(A.final)


def is_deterministic(A: EpsNFA) -> bool:
    if len(A.initial) != 1:
        return False
    seen = set()
    for src, label, _ in A.transitions:
        if label is None or (src, label) in seen:
            return False
        seen.add((src, label))
    return True


# ---------------------------------------------------------------------------
# structural operations


def trim(A: EpsNFA) -> EpsNFA:
    """Drop states that are unreachable or cannot reach a final state.

    The result is kept on A, outside the fields as its tables are, and a
    trimmed automaton is its own trim (marked True, so that no automaton
    refers to itself).
    """
    found = vars(A).get("_trimmed")
    if found is not None:
        return A if found is True else found
    fwd: dict = {}
    rev: dict = {}
    for src, _, dst in A.transitions:
        fwd.setdefault(src, set()).add(dst)
        rev.setdefault(dst, set()).add(src)
    useful = reach(fwd, A.initial) & reach(rev, A.final)
    if useful == A.states:  # nothing to drop: keep A and its built tables
        vars(A)["_trimmed"] = True
        return A
    T = EpsNFA(
        frozenset(useful),
        A.initial & useful,
        A.final & useful,
        frozenset(t for t in A.transitions if t[0] in useful and t[2] in useful),
        A.alphabet,
    )
    vars(A)["_trimmed"] = T
    vars(T)["_trimmed"] = True
    return T


def determinize(A: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> EpsNFA:
    """Subset construction; the result is a complete DFA over A's alphabet.

    Subset states are relabeled to integers in discovery order, so the
    output is deterministic in both senses.
    """
    letters = sorted(A.alphabet)
    tables = A.tables
    ids = {tables.start: 0}
    order = [tables.start]
    transitions = []
    for subset in order:  # grows while subsets are found
        moves = _moves(tables.after, subset)
        for letter in letters:
            target = moves.get(letter, frozenset())
            if target not in ids:
                if len(ids) >= state_cap:
                    raise ResourceCapError(
                        f"determinization exceeded the {state_cap}-state cap"
                    )
                ids[target] = len(ids)
                order.append(target)
            transitions.append((ids[subset], letter, ids[target]))
    final = frozenset(
        i for subset, i in ids.items() if not subset.isdisjoint(A.final)
    )
    return EpsNFA(
        frozenset(range(len(ids))),
        frozenset((0,)),
        final,
        frozenset(transitions),
        A.alphabet,
    )


def is_subset(A: EpsNFA, B: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Whether L(A) is included in L(B).

    The search runs over pairs of one A-state and one subset of B-states,
    both closed under epsilon moves, and stops at the first pair that A
    accepts and B rejects.  The state cap counts the B-subsets it finds.
    """
    a_after = A.tables.after
    b_after = B.tables.after
    subsets = [B.tables.start]
    ids = {subsets[0]: 0}
    moves: list[dict] = [{}]  # subset id -> {letter -> successor id}
    seen = {(a, 0) for a in A.tables.start}
    stack = list(seen)
    while stack:
        a, k = stack.pop()
        if a in A.final and subsets[k].isdisjoint(B.final):
            return False
        row = moves[k]
        for letter, targets in a_after.get(a, _NO_MOVES).items():
            j = row.get(letter)
            if j is None:
                subset = _successor(b_after, subsets[k], letter)
                j = ids.get(subset)
                if j is None:
                    if len(ids) >= state_cap:
                        raise ResourceCapError(
                            f"inclusion check exceeded the {state_cap}-state cap"
                        )
                    j = ids[subset] = len(subsets)
                    subsets.append(subset)
                    moves.append({})
                row[letter] = j
            for t in targets:
                if (t, j) not in seen:
                    seen.add((t, j))
                    stack.append((t, j))
    return True


def is_equivalent(A: EpsNFA, B: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    return is_subset(A, B, state_cap) and is_subset(B, A, state_cap)


def minimize(A: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> EpsNFA:
    """Minimal complete DFA over A's alphabet, by partition refinement on
    the states of `determinize(A)`, which are complete, all reachable and
    numbered breadth first.  Each round numbers the blocks in the order of
    their smallest state, so the initial state is 0.  The state cap counts
    the subsets of the determinization, even when A is already a DFA."""
    D = determinize(A, state_cap)
    letters = sorted(D.alphabet)
    after = D.tables.after
    delta = [[t for a in letters for t in after[s][a]] for s in sorted(D.states)]
    block = [1 if s in D.final else 0 for s in range(len(delta))]
    while True:
        signatures: dict = {}  # (block, the targets' blocks) -> new block
        new_block = [
            signatures.setdefault((block[s], tuple(map(block.__getitem__, row))),
                                  len(signatures))
            for s, row in enumerate(delta)
        ]
        if new_block == block:
            break
        block = new_block
    return EpsNFA(
        frozenset(range(len(signatures))),
        frozenset((0,)),
        frozenset(block[s] for s in D.final),
        frozenset((block[s], a, block[t]) for s, row in enumerate(delta)
                  for a, t in zip(letters, row)),
        A.alphabet,
    )


# ---------------------------------------------------------------------------
# construction from regexes and word lists


def regex_to_epsnfa(r: lang.Regex) -> EpsNFA:
    """Thompson's automaton of the regex with its epsilon moves contracted.

    Thompson's construction gives the node of preorder number i a start
    state 2i and an end state 2i + 1, joined to its parts by epsilon moves.
    Two rules then merge states along epsilon moves until neither fires,
    and an epsilon self-loop left over is dropped:

    1. a non-final state whose only move out is one epsilon move merges
       into that move's target, which becomes initial if the state was;
    2. a non-initial state whose only move in is one epsilon move merges
       into that move's source, which becomes final if the state was.

    Neither changes the language: the first state adds no move and no
    acceptance to its target, and the second is entered only from its
    source.  No transition is added, so the automaton stays linear in the
    regex.  The moves that always contract are never made: each node is
    built between two given states, so concatenation and union add no
    move, and only a star (into and out of its loop state) and the empty
    word add epsilon moves, which a worklist then contracts as far as the
    rules allow.  The surviving states are numbered 0..k-1 in
    the order of the smallest Thompson number each stands for, so the
    initial state is 0.  The tree is walked with an explicit stack, so its
    depth is not bounded by the interpreter's recursion limit.
    """
    low = [0, 1]  # per state, the smallest Thompson number it stands for
    transitions = []
    letters = set()
    stack = [(r, 0, 1, False)]  # (node, from, to, whether it names `to`)
    number = 0  # the preorder number of the popped node
    while stack:
        node, p, q, names_q = stack.pop()
        if names_q:  # q merges this node's end with the next part's start
            low[q] = 2 * number + 1
        if isinstance(node, lang.RLetter):
            letters.add(node.letter)
            transitions.append((p, node.letter, q))
        elif isinstance(node, lang.RConcat) and node.parts:
            ends = [p, *range(len(low), len(low) + len(node.parts) - 1), q]
            low.extend(ends[1:-1])  # each is set when its part is popped
            last = len(node.parts) - 1
            stack.extend(
                (part, ends[k], ends[k + 1], k < last)
                for k, part in reversed(list(enumerate(node.parts)))
            )
        elif isinstance(node, lang.RUnion):
            stack.extend((part, p, q, False) for part in reversed(node.parts))
        elif isinstance(node, lang.RStar):
            loop = len(low)
            low.append(2 * number)
            transitions += [(p, None, loop), (loop, None, q)]
            stack.append((node.inner, loop, loop, False))
        elif isinstance(node, (lang.REpsilon, lang.RConcat)):  # reads nothing
            if p != q:
                transitions.append((p, None, q))
        elif not isinstance(node, lang.REmpty):
            raise TypeError(f"not a regex node: {node!r}")
        number += 1
    return _contracted(low, transitions, frozenset(letters))


def _contracted(low: list, transitions: list, alphabet: frozenset) -> EpsNFA:
    """The built states, merged by the rules of `regex_to_epsnfa` when
    an epsilon move is left, numbered in the order of `low`.  State 0 is
    initial and state 1 final."""
    states, final = range(len(low)), (1,)
    if any(label is None for _, label, _ in transitions):
        states, transitions, final = _merge_along_epsilons(low, transitions)
    number = {s: k for k, s in enumerate(sorted(states, key=low.__getitem__))}
    return EpsNFA(
        frozenset(range(len(number))),
        frozenset((0,)),
        frozenset(number[s] for s in final),
        frozenset((number[s], label, number[t]) for s, label, t in transitions),
        alphabet,
    )


def _merge_along_epsilons(low: list, transitions: list) -> tuple:
    """Merge states by the two rules until neither fires; return the states
    left, their moves and their final states, with `low` lowered to the
    smallest key each stands for.  A state's moves are kept as dict keys,
    in insertion order, so that the result does not depend on string
    hashing.  A merge moves the moves of the state with fewer into the
    other, and queues every state at their other ends, the kept state
    included, to be checked again."""
    out = [{} for _ in low]  # state -> {(label, target): None}
    into = [{} for _ in low]  # state -> {(label, source): None}
    for src, label, dst in transitions:
        out[src][label, dst] = into[dst][label, src] = None
    todo = list(range(len(low)))  # states a rule may fire at
    initial = [False] * len(low)
    final = [False] * len(low)
    initial[0] = final[1] = True
    alive = [True] * len(low)
    while todo:
        x = todo.pop()
        if not alive[x]:
            continue
        y = None
        if not final[x] and len(out[x]) == 1:
            ((label, y),) = out[x]
            y = y if label is None else None
        if y is None and not initial[x] and len(into[x]) == 1:
            ((label, y),) = into[x]
            y = y if label is None else None
        if y is None:
            continue
        keep, gone = x, y
        if len(out[x]) + len(into[x]) < len(out[y]) + len(into[y]):
            keep, gone = y, x
        alive[gone] = False
        initial[keep] = initial[keep] or initial[gone]
        final[keep] = final[keep] or final[gone]
        low[keep] = min(low[keep], low[gone])
        for label, z in out[gone]:
            if z == gone:  # a letter loop
                z = keep
            else:
                del into[z][label, gone]
                todo.append(z)
            if label is not None or z != keep:  # epsilon loops go
                out[keep][label, z] = into[z][label, keep] = None
        for label, w in into[gone]:
            if w != gone:
                del out[w][label, gone]
                if label is not None or w != keep:
                    out[w][label, keep] = into[keep][label, w] = None
                todo.append(w)
    states = [s for s in range(len(low)) if alive[s]]
    moves = [(s, label, t) for s in states for label, t in out[s]]
    return states, moves, [s for s in states if final[s]]


def words_to_nfa(words: Iterable[Word]) -> EpsNFA:
    """An automaton accepting exactly the given finite set of words."""
    states = set()
    initial = set()
    final = set()
    transitions = set()
    for w in frozenset(words):
        for k in range(len(w) + 1):
            states.add((w, k))
        initial.add((w, 0))
        final.add((w, len(w)))
        transitions.update(((w, k), w[k], (w, k + 1)) for k in range(len(w)))
    return EpsNFA(
        frozenset(states), frozenset(initial), frozenset(final),
        frozenset(transitions),
    )


def automaton_for(spec) -> EpsNFA:
    """Coerce a language description into an automaton.

    Accepts an EpsNFA (returned as is), a regex string, a parsed Regex,
    or an iterable of words (letter tuples).
    """
    if isinstance(spec, EpsNFA):
        return spec
    if isinstance(spec, str):
        return regex_to_epsnfa(lang.parse_regex(spec))
    if isinstance(spec, lang.Regex):
        return regex_to_epsnfa(spec)
    try:
        words = frozenset(spec)
    except TypeError:
        raise InputError(
            f"cannot interpret {type(spec).__name__} as a language"
        ) from None
    for w in words:
        if not isinstance(w, tuple) or not all(isinstance(a, str) for a in w):
            raise InputError("a word list must contain tuples of letters")
    return words_to_nfa(words)


# ---------------------------------------------------------------------------
# finiteness and word enumeration


def is_finite_language(A: EpsNFA) -> bool:
    """Whether no cycle through useful states reads a letter.

    Such a cycle is exactly a cycle of ``after`` steps among the states of
    ``trim(A)`` (epsilon-only cycles pump nothing), so the states are
    peeled in topological order of those steps, each once every step into
    it has been counted; the language is finite iff every state is.
    """
    after = trim(A).tables.after
    pending: dict = {}
    for moves in after.values():
        for targets in moves.values():
            for t in targets:
                pending[t] = pending.get(t, 0) + 1
    peeled = [s for s in after if s not in pending]
    for s in peeled:  # grows while iterating
        for targets in after.get(s, _NO_MOVES).values():
            for t in targets:
                pending[t] -= 1
                if not pending[t]:
                    peeled.append(t)
    return not any(pending.values())


def language_words(
    A: EpsNFA,
    max_len: Optional[int] = None,
    max_words: int = DEFAULT_ENUM_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> list[Word]:
    """Enumerate accepted words in sorted order.

    With max_len None the language must be finite.  More than max_words
    words raise a resource error, checked after each length.  For a
    finite language so do more than max_words prefixes of one length,
    before they are extended: in the trim DFA each prefix extends to a
    word of the language that no other prefix of its length reaches.
    """
    D = trim(A if is_deterministic(A) else determinize(A, state_cap))
    finite = max_len is None
    if finite:
        if not is_finite_language(D):
            raise InputError("cannot enumerate an infinite language without a length cap")
        max_len = len(D.states)
    after = D.tables.after
    words = []
    frontier = [((), s) for s in D.initial]
    length = 0
    while frontier and length <= max_len:
        next_frontier = []
        for word, state in frontier:
            if state in D.final:
                words.append(word)
            if length < max_len:
                for letter, targets in after.get(state, _NO_MOVES).items():
                    for t in targets:
                        next_frontier.append((word + (letter,), t))
        frontier = next_frontier
        length += 1
        if len(words) > max_words or (finite and len(frontier) > max_words):
            raise ResourceCapError(
                f"word enumeration exceeded the {max_words}-word cap"
            )
    return sorted(words)


# ---------------------------------------------------------------------------
# the read-once construction and locality


def eps_nfa_to_ro(A: EpsNFA) -> EpsNFA:
    """The minimal read-once envelope of A.

    Read the trimmed input for its first letters, its last letters and
    the pairs (a, b) where some a-transition can be followed, after
    epsilon moves, by a b-transition.  The envelope accepts a non-empty
    word iff it starts with a first letter, ends with a last letter and
    every two adjacent letters form a pair; it gets an isolated
    initial-final state ``"empty-word"`` exactly when the input accepts
    the empty word.  So it accepts every word the input accepts, and
    exactly the same language iff that language is local.

    Letters with the same followers and the same lastness share one
    out-state; letters with the same out-states before them and the same
    firstness share one in-state.  Each letter labels exactly one
    transition, from its in-state to its out-state, and an epsilon move
    joins an out-state to the in-state of each of its followers.  Then,
    in one simultaneous pass, a non-initial in-state entered by exactly
    one epsilon move merges into that move's source, and a non-final
    out-state whose only move is one epsilon move merges into that move's
    target unless that target already merged into it.  Both are the exact
    rules of `regex_to_epsnfa`.  Every epsilon move runs from an out-state
    to an in-state, so no state is both entered and left by one, and
    after the pass neither rule applies again.  Each state is named after
    the smallest letter of its class, ``(a, "in")`` or ``(a, "out")``; a
    merged state keeps the name of the state it merged into.  Letters
    that no accepted word uses share one dead in-state and out-state.

    The envelope is kept on A, outside the fields, so the local solver
    builds it once per automaton.
    """
    found = vars(A).get("_envelope")
    if found is not None:
        return found
    T = trim(A)
    start, after = T.tables
    first = set()
    last = set()
    follow: dict = {}  # letter -> the letters that can come next
    for src, moves in after.items():
        for label, reached in moves.items():
            if src in start:
                first.add(label)
            if not reached.isdisjoint(T.final):
                last.add(label)
            nxt = follow.get(label)
            if nxt is None:
                nxt = follow[label] = set()
            for r in reached:
                nxt.update(after.get(r, _NO_MOVES))

    letters = sorted(A.alphabet)  # the first letter of a class names it
    out_state: dict = {}  # (followers, last) -> out-state
    out_of = {}
    for a in letters:
        key = (frozenset(follow.get(a, ())), a in last)
        x = out_state.get(key)
        if x is None:
            x = out_state[key] = (a, "out")
        out_of[a] = x
    before: dict = {}  # letter -> the out-states before it, in order
    for (followers, _), x in out_state.items():
        for b in followers:
            before.setdefault(b, []).append(x)
    in_state: dict = {}  # (out-states before, first) -> in-state
    in_of = {}
    for a in letters:
        key = (tuple(before.get(a, ())), a in first)
        y = in_state.get(key)
        if y is None:
            y = in_state[key] = (a, "in")
        in_of[a] = y

    into = {}  # merged state -> the state it merged into
    after_out: dict = {}  # out-state -> the in-states after it
    initial = set()
    for (sources, is_first), y in in_state.items():
        if is_first:
            initial.add(y)
        elif len(sources) == 1:
            into[y] = sources[0]
        for x in sources:
            after_out.setdefault(x, []).append(y)
    final = set()
    for (_, is_last), x in out_state.items():
        if is_last:
            final.add(x)
        else:
            targets = after_out.get(x)
            if targets is not None and len(targets) == 1 and into.get(targets[0]) != x:
                into[x] = targets[0]
    transitions = set()
    for x, targets in after_out.items():
        x = into.get(x, x)
        for y in targets:
            y = into.get(y, y)
            if x != y:
                transitions.add((x, None, y))
    for a in letters:
        y, x = in_of[a], out_of[a]
        transitions.add((into.get(y, y), a, into.get(x, x)))
    states = set(in_state.values()).union(out_state.values()).difference(into)
    if not start.isdisjoint(T.final):
        states.add("empty-word")
        initial.add("empty-word")
        final.add("empty-word")
    found = vars(A)["_envelope"] = EpsNFA(
        frozenset(states),
        frozenset(initial),
        frozenset(final),
        frozenset(transitions),
        A.alphabet,
    )
    return found


def is_local_language(A: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Whether L(A) is a local language.

    L is local iff, for each letter a, every word ua that some word of L
    extends leaves the same quotient (ua)^-1 L: in the trim DFA all states
    that one letter enters are equivalent (Berstel and Pin, 1996).  So
    `_entered_states_agree` decides it with no read-once envelope.  The
    answer is kept on A, outside the fields, so the classifier and the
    local solver test it once; a resource cap keeps nothing.
    """
    found = vars(A).get("_local")
    if found is None:
        found = vars(A)["_local"] = _entered_states_agree(trim(A), state_cap)
    return found


def _entered_states_agree(T: EpsNFA, state_cap: int) -> bool:
    """Whether, for each letter, all subsets of the trim automaton T that
    the letter enters from its start closure accept the same language.

    In T every state is live, so a subset is live iff it is not empty, and
    a letter missing from a subset's moves leads to the empty one.  The
    walk over the subsets is lazy: each letter keeps the first subset it
    enters, and every other subset it enters is checked against that one
    by a search over pairs of subsets, shared by all checks, which stops
    at the first pair where exactly one side is final or where one side
    can read a letter that the other cannot.  On a DFA the subsets are
    singletons.  The walk keeps its own set of reached subsets: a pair
    search reads the moves of subsets that the walk must still visit, to
    check the letters they read against each letter's first subset.  The
    state cap counts the subsets whose moves were read.
    """
    start, after = T.tables
    rows: dict = {}  # subset -> {letter -> successor subset}, on first use

    def row(X: frozenset) -> dict:
        moves = rows.get(X)
        if moves is None:
            if len(rows) >= state_cap:
                raise ResourceCapError(
                    f"locality test exceeded the {state_cap}-state cap"
                )
            moves = rows[X] = _moves(after, X)
        return moves

    paired: set = set()  # pairs of subsets whose search was started

    def agree(X: frozenset, Y: frozenset) -> bool:
        stack = [(X, Y)]
        while stack:
            X, Y = stack.pop()
            if X.isdisjoint(T.final) != Y.isdisjoint(T.final):
                return False
            moves_x, moves_y = row(X), row(Y)
            if moves_x.keys() != moves_y.keys():
                return False
            for letter, X2 in moves_x.items():
                Y2 = moves_y[letter]
                if X2 != Y2 and (X2, Y2) not in paired:
                    paired.add((X2, Y2))
                    stack.append((X2, Y2))
        return True

    first: dict = {}  # letter -> the first subset it enters
    seen = {start}  # subsets the walk has reached; rows may hold more
    stack = [start] if start else []
    while stack:
        for letter, Y in row(stack.pop()).items():
            X = first.setdefault(letter, Y)
            if X != Y and (X, Y) not in paired:
                paired.add((X, Y))
                if not agree(X, Y):
                    return False
            if Y not in seen:
                seen.add(Y)
                stack.append(Y)
    return True


# ---------------------------------------------------------------------------
# reduction of regular languages


def reduce_regular(A: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> EpsNFA:
    """Trim DFA for the words of L(A) having no strict infix in L(A).

    One forward subset construction over pairs (P, S) of closed sets of
    A-states.  P is where a run over the whole input read so far can be;
    S is where runs that started at a later position can be, so each
    letter moves S and adds the initial closure to it.  A pair whose S
    meets a final state has read a strict infix in L and is never made; a
    pair whose P meets one accepts and gets no moves, since every
    extension would contain that prefix.  Pairs are numbered breadth
    first, letters in sorted order, and the state cap counts them.
    """
    tables = A.tables
    after = tables.after
    start = tables.start
    root = (start, frozenset())
    ids = {root: 0}
    order = [root]
    transitions = []
    final = []
    for i, (P, S) in enumerate(order):  # grows while pairs are found
        if not P.isdisjoint(A.final):
            final.append(i)
            continue
        p_moves = _moves(after, P)
        s_moves = _moves(after, S)
        for letter in sorted(p_moves):
            later = s_moves.get(letter)
            later = start if later is None else later | start
            if not later.isdisjoint(A.final):
                continue
            pair = (p_moves[letter], later)
            j = ids.get(pair)
            if j is None:
                if len(ids) >= state_cap:
                    raise ResourceCapError(
                        f"reduction exceeded the {state_cap}-state cap"
                    )
                j = ids[pair] = len(order)
                order.append(pair)
            transitions.append((i, letter, j))
    return trim(EpsNFA(
        frozenset(range(len(order))),
        frozenset((0,)),
        frozenset(final),
        frozenset(transitions),
        A.alphabet,
    ))


# ---------------------------------------------------------------------------
# neutral letters


def neutral_letters(A: EpsNFA, state_cap: int = DEFAULT_STATE_CAP) -> frozenset:
    """The neutral letters of L(A) among A's alphabet.

    A letter e is neutral when inserting or deleting one occurrence of it
    anywhere never changes membership, that is when u and ue are
    Nerode-equivalent for every word u.  Every state of the minimal DFA is
    reachable, so e is neutral iff every state of it loops on e.
    """
    D = minimize(A, state_cap)
    after = D.tables.after
    return frozenset(
        a for a in D.alphabet if all(after[s][a] == {s} for s in D.states)
    )


def is_neutral_letter(
    A: EpsNFA, letter: str, state_cap: int = DEFAULT_STATE_CAP
) -> bool:
    """Whether inserting or deleting one occurrence of the letter anywhere
    never changes membership in L(A).  A letter outside A's alphabet is
    neutral iff the language is empty."""
    if letter not in A.alphabet:
        A = EpsNFA(A.states, A.initial, A.final, A.transitions, A.alphabet | {letter})
    return letter in neutral_letters(A, state_cap)


# ---------------------------------------------------------------------------
# aperiodicity


def non_aperiodic_witness(
    A: EpsNFA, state_cap: int = DEFAULT_STATE_CAP
) -> Optional[tuple[Word, int]]:
    """A word whose transition map has power period > 1 in the transition
    monoid of the minimal DFA, or None when every element is aperiodic."""
    D = minimize(trim(A), state_cap)
    order = sorted(D.states)
    index = {s: i for i, s in enumerate(order)}
    after = D.tables.after
    letters = sorted(D.alphabet)

    def letter_map(a):
        out = []
        for s in order:
            (t,) = after[s][a]
            out.append(index[t])
        return tuple(out)

    generators = [(a, letter_map(a)) for a in letters]

    def compose(f, g):
        # first f, then g
        return tuple(g[f[i]] for i in range(len(f)))

    elements: dict[tuple, Word] = {}
    queue = []
    for a, m in generators:
        if m not in elements:
            elements[m] = (a,)
            queue.append(m)
    head = 0
    while head < len(queue):
        m = queue[head]
        head += 1
        for a, g in generators:
            composed = compose(m, g)
            if composed not in elements:
                if len(elements) >= MONOID_CAP:
                    raise ResourceCapError(
                        f"transition monoid exceeded the {MONOID_CAP}-element cap"
                    )
                elements[composed] = elements[m] + (a,)
                queue.append(composed)

    for m in queue:
        seen = {}
        power = m
        k = 1
        while power not in seen:
            seen[power] = k
            power = compose(power, m)
            k += 1
        period = k - seen[power]
        if period != 1:
            return elements[m], period
    return None


# ---------------------------------------------------------------------------
# serialization

_EPS_TOKEN = "EPS"


def serialize_automaton(A: EpsNFA) -> str:
    states = sorted(str(s) for s in A.states)
    if len(set(states)) != len(A.states):
        # distinct ids rendering to the same token cannot round-trip
        raise InputError("state ids must render to distinct tokens")
    for s in A.states:
        token = str(s)
        if not token or any(c.isspace() for c in token):
            raise InputError(f"state id {s!r} does not render to a clean token")
    for _, label, _ in A.transitions:
        if label == _EPS_TOKEN:
            raise InputError("the letter name EPS is reserved in the text format")
    lines = [
        "states " + " ".join(states),
        "initial " + " ".join(sorted(str(s) for s in A.initial)),
        "final " + " ".join(sorted(str(s) for s in A.final)),
    ]
    rendered = sorted(
        (str(src), _EPS_TOKEN if label is None else label, str(dst))
        for src, label, dst in A.transitions
    )
    lines.extend("\t".join(t) for t in rendered)
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> EpsNFA:
    states: Optional[set] = None
    initial: Optional[set] = None
    final: Optional[set] = None
    transitions = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword in ("states", "initial", "final"):
            current = {"states": states, "initial": initial, "final": final}[keyword]
            if current is not None:
                raise InputError(f"line {lineno}: duplicate {keyword} header")
            value = set(fields[1:])
            if keyword == "states":
                states = value
            elif keyword == "initial":
                initial = value
            else:
                final = value
            continue
        if len(fields) != 3:
            raise InputError(
                f"line {lineno}: expected 'src label dst', got {line!r}"
            )
        src, label, dst = fields
        transitions.add((src, None if label == _EPS_TOKEN else label, dst))
    if states is None:
        raise InputError("missing 'states' header")
    if initial is None:
        raise InputError("missing 'initial' header")
    if final is None:
        raise InputError("missing 'final' header")
    for group, name in ((initial, "initial"), (final, "final")):
        unknown = group - states
        if unknown:
            raise InputError(f"{name} state {sorted(unknown)[0]!r} not declared")
    for src, label, dst in transitions:
        if src not in states or dst not in states:
            raise InputError(f"transition endpoint not declared: {src} -> {dst}")
    return EpsNFA(
        frozenset(states), frozenset(initial), frozenset(final),
        frozenset(transitions),
    )
