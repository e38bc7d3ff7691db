"""Answer checkers for the benchmark.

None of this imports rpqres.  Languages are compiled by an iterative
regex compiler of our own (or written out by hand as automata), query
satisfaction is a product reachability of our own, values come from
networkx flows, vertex covers, an exhaustive hitting-set search, or the
brute-force references in ``tests/oracles.py``, and classifier verdicts
are re-checked with Python's ``re``.

Every ``check_*`` function returns a list of problems; an empty list means
the answer holds.  Answers arrive as plain data (tuples, dicts), so the
checkers never depend on the program's own classes.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import namedtuple
from typing import NamedTuple

F = namedtuple("F", "tail label head")


class NFA(NamedTuple):
    """An automaton with epsilon moves (label None)."""

    initial: frozenset
    final: frozenset
    transitions: tuple  # (src, label or None, dst)

    @property
    def alphabet(self) -> frozenset:
        return frozenset(l for _, l, _ in self.transitions if l is not None)


def automaton(initial, final, transitions) -> NFA:
    return NFA(frozenset(initial), frozenset(final), tuple(transitions))


def words_automaton(words) -> NFA:
    """One path of states per word, all sharing the initial state."""
    transitions = []
    final = set()
    for w in sorted(set(words)):
        state = 0
        for k, letter in enumerate(w):
            nxt = (w, k + 1)
            transitions.append((state, letter, nxt))
            state = nxt
        final.add(state)
    return automaton({0}, final, transitions)


# ---------------------------------------------------------------------------
# regex compilation, iterative so that deep nesting and long star runs work

_OPERATORS = {"|": 1, ".": 2}


def _tokens(text: str):
    out = []
    previous_atom = False
    for c in text:
        if c.isspace():
            continue
        if c == "*":
            if out and out[-1] == "*":
                continue  # x** denotes the same language as x*
            out.append("*")
            previous_atom = True
            continue
        if c in "|)":
            out.append(c)
            previous_atom = c == ")"
            continue
        if c in "[]0∅":
            raise ValueError(f"unsupported regex character {c!r}")
        # an atom start: a letter, ~ or (
        if previous_atom:
            out.append(".")
        out.append(c)
        previous_atom = c != "("
    return out


def _postfix(text: str) -> list:
    out, stack = [], []
    for tok in _tokens(text):
        if tok == "(":
            stack.append(tok)
        elif tok == ")":
            while stack and stack[-1] != "(":
                out.append(stack.pop())
            if not stack:
                raise ValueError("unbalanced ')'")
            stack.pop()
        elif tok in _OPERATORS:
            while stack and stack[-1] != "(" and _OPERATORS[stack[-1]] >= _OPERATORS[tok]:
                out.append(stack.pop())
            stack.append(tok)
        else:
            out.append(tok)  # letters, ~ and the postfix *
    while stack:
        tok = stack.pop()
        if tok == "(":
            raise ValueError("unbalanced '('")
        out.append(tok)
    return out


class Language:
    """A regex compiled twice: to a Python ``re`` pattern for membership
    and to a Thompson automaton for walk search."""

    def __init__(self, text: str):
        patterns, fragments = [], []
        transitions = []
        counter = itertools.count()
        for tok in _postfix(text):
            if tok == "*":
                p = patterns.pop()
                patterns.append(f"(?:{p})*")
                s, f = fragments.pop()
                n0, n1 = next(counter), next(counter)
                transitions += [(n0, None, s), (f, None, n1), (n0, None, n1), (f, None, s)]
                fragments.append((n0, n1))
            elif tok in _OPERATORS:
                p2, p1 = patterns.pop(), patterns.pop()
                (s2, f2), (s1, f1) = fragments.pop(), fragments.pop()
                if tok == ".":
                    patterns.append(p1 + p2)
                    transitions.append((f1, None, s2))
                    fragments.append((s1, f2))
                else:
                    patterns.append(f"(?:{p1}|{p2})")
                    n0, n1 = next(counter), next(counter)
                    transitions += [(n0, None, s1), (n0, None, s2), (f1, None, n1), (f2, None, n1)]
                    fragments.append((n0, n1))
            else:
                n0, n1 = next(counter), next(counter)
                if tok == "~":
                    patterns.append("(?:)")
                    transitions.append((n0, None, n1))
                else:
                    patterns.append(re.escape(tok))
                    transitions.append((n0, tok, n1))
                fragments.append((n0, n1))
        if len(patterns) != 1:
            raise ValueError(f"malformed regex {text!r}")
        self.pattern = re.compile(patterns[0])
        start, end = fragments[0]
        self.nfa = automaton({start}, {end}, transitions)
        self.alphabet = tuple(sorted(self.nfa.alphabet))
        self._reduced_cache = {}

    def member(self, word: str) -> bool:
        return self.pattern.fullmatch(word) is not None

    def reduced_member(self, word: str) -> bool:
        """Membership in the reduced language: in L, with no strict infix in L."""
        hit = self._reduced_cache.get(word)
        if hit is None:
            hit = self.member(word) and not any(
                self.member(word[i:j])
                for i in range(len(word) + 1)
                for j in range(i, len(word) + 1)
                if (i, j) != (0, len(word))
            )
            self._reduced_cache[word] = hit
        return hit

    def words(self, max_len: int) -> list:
        """Words of the reduced language up to the given length."""
        return [
            "".join(p)
            for n in range(max_len + 1)
            for p in itertools.product(self.alphabet, repeat=n)
            if self.reduced_member("".join(p))
        ]


def _word(rendered: str) -> str:
    return "" if rendered == "~" else rendered


# ---------------------------------------------------------------------------
# query satisfaction by product reachability


def _closure(moves, states):
    seen = set(states)
    stack = list(states)
    while stack:
        q = stack.pop()
        for r in moves.get((q, None), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def query_holds(facts, nfa: NFA) -> bool:
    """Whether some walk over the facts spells a word of the automaton."""
    moves: dict = {}
    for src, label, dst in nfa.transitions:
        moves.setdefault((src, label), []).append(dst)
    start = _closure(moves, nfa.initial)
    if start & nfa.final:
        return True
    by_tail: dict = {}
    nodes = set()
    for f in facts:
        by_tail.setdefault(f[0], []).append(f)
        nodes.update((f[0], f[2]))
    frontier = [(v, q) for v in nodes for q in start]
    seen = set(frontier)
    while frontier:
        v, q = frontier.pop()
        for _, label, head in by_tail.get(v, ()):
            for r in moves.get((q, label), ()):
                for s in _closure(moves, (r,)):
                    if s in nfa.final:
                        return True
                    if (head, s) not in seen:
                        seen.add((head, s))
                        frontier.append((head, s))
    return False


def check_contingency(entries: dict, nfa: NFA, value, contingency) -> list:
    """The set must consist of database facts, cost exactly the value, and
    leave no accepting walk."""
    if contingency is None:
        return [] if value == math.inf else ["finite value without a contingency set"]
    problems = []
    unknown = [f for f in contingency if f not in entries]
    if unknown:
        return [f"contingency names facts not in the database: {unknown[:3]}"]
    cost = sum(entries[f] for f in contingency)
    if cost != value:
        problems.append(f"contingency costs {cost}, reported value is {value}")
    removed = set(contingency)
    if query_holds([f for f in entries if f not in removed], nfa):
        problems.append("the query still holds after removing the contingency set")
    return problems


# ---------------------------------------------------------------------------
# reference values


def local_value(entries: dict, nfa: NFA):
    """Resilience of a local language given by a read-once automaton: a
    networkx max-flow over the product of the database with it."""
    import networkx as nx

    edge_of = {}
    for src, label, dst in nfa.transitions:
        if label is None or label in edge_of:
            raise ValueError("the automaton must be read-once, without epsilon moves")
        edge_of[label] = (src, dst)
    if nfa.initial & nfa.final:
        return math.inf
    G = nx.DiGraph()
    nodes = set()
    for (tail, label, head), m in entries.items():
        nodes.update((tail, head))
        hit = edge_of.get(label)
        if hit is None or (tail, hit[0]) == (head, hit[1]):
            continue
        u, v = (tail, hit[0]), (head, hit[1])
        cap = G[u][v]["capacity"] + m if G.has_edge(u, v) else m
        G.add_edge(u, v, capacity=cap)
    for v in nodes:
        for q in nfa.initial:
            G.add_edge("source", (v, q))
        for q in nfa.final:
            G.add_edge((v, q), "target")
    if "source" not in G or "target" not in G:
        return 0
    return nx.maximum_flow_value(G, "source", "target")


def two_letter_bcl_value(entries: dict, words, left_letters):
    """Set-semantics resilience of a bipartite chain language of two-letter
    words: a minimum vertex cover, by networkx, of the bipartite graph
    joining facts that form a match."""
    import networkx as nx
    from networkx.algorithms import bipartite

    if any(m != 1 for m in entries.values()):
        raise ValueError("the vertex-cover check needs unit multiplicities")
    if any(len(w) != 2 or w[0] == w[1] for w in words):
        raise ValueError("the vertex-cover check needs two-letter words")
    by_tail: dict = {}
    for f in entries:
        by_tail.setdefault((f.tail, f.label), []).append(f)
    G = nx.Graph()
    for f in entries:
        for w in words:
            if f.label == w[0]:
                for g in by_tail.get((f.head, w[1]), ()):
                    G.add_edge(f, g)
    left = {f for f in G if f.label in left_letters}
    if any((a in left) == (b in left) for a, b in G.edges):
        raise ValueError("the match graph is not bipartite along the given sides")
    matching = bipartite.hopcroft_karp_matching(G, top_nodes=left)
    cover = bipartite.to_vertex_cover(G, matching, top_nodes=left)
    if any(a not in cover and b not in cover for a, b in G.edges):
        raise AssertionError("networkx returned a set that is not a vertex cover")
    return len(cover)


def submod_value(entries: dict, long_word: str, extra: str):
    """Resilience of {a1...an, a(n-1) e}: every junction (a node entered by
    an a(n-1) fact and left by an e fact) loses either all its entering
    a(n-1) facts or all its leaving e facts; the long word is then a
    local-language flow.  Enumerates the junction choices."""
    prev = long_word[-2]
    incoming: dict = {}
    outgoing: dict = {}
    for f, m in entries.items():
        if f.label == prev:
            incoming[f.head] = incoming.get(f.head, 0) + m
        if f.label == extra:
            outgoing[f.tail] = outgoing.get(f.tail, 0) + m
    junctions = sorted(set(incoming) & set(outgoing))
    read_once = automaton({0}, {len(long_word)}, [(k, a, k + 1) for k, a in enumerate(long_word)])
    best = math.inf
    for size in range(len(junctions) + 1):
        for cut_in in itertools.combinations(junctions, size):
            chosen = set(cut_in)
            rest = {
                f: m for f, m in entries.items()
                if not (f.label == prev and f.head in chosen) and f.label != extra
            }
            total = (
                sum(incoming[v] for v in chosen)
                + sum(outgoing[v] for v in junctions if v not in chosen)
                + local_value(rest, read_once)
            )
            best = min(best, total)
    return best


def matches(facts, words) -> set:
    """Fact sets of the walks spelling some word, for a finite language."""
    by_start: dict = {}
    for f in facts:
        by_start.setdefault((f.tail, f.label), []).append(f)
        by_start.setdefault((None, f.label), []).append(f)
    found = set()
    for w in words:
        if not w:
            continue
        stack = [(f, (f,)) for f in by_start.get((None, w[0]), ())]
        while stack:
            last, path = stack.pop()
            if len(path) == len(w):
                found.add(frozenset(path))
                continue
            for g in by_start.get((last.head, w[len(path)]), ()):
                stack.append((g, path + (g,)))
    return found


def min_hitting_set(edges, weight) -> int:
    """Least total weight of a vertex set meeting every hyperedge, by
    branching on the smallest unhit edge."""
    edges = sorted({frozenset(e) for e in edges}, key=len)
    best = [sum(weight(v) for e in edges for v in e) + 1]

    def search(chosen, cost):
        if cost >= best[0]:
            return
        unhit = next((e for e in edges if not (e & chosen)), None)
        if unhit is None:
            best[0] = cost
            return
        for v in sorted(unhit, key=weight):
            search(chosen | {v}, cost + weight(v))

    search(frozenset(), 0)
    return best[0]


def finite_value(entries: dict, words):
    """Resilience of a finite language as a weighted minimum hitting set
    of its matches."""
    if "" in words:
        return math.inf
    found = matches(list(entries), words)
    return min_hitting_set(found, entries.__getitem__) if found else 0


class OracleDB:
    """The database interface ``tests/oracles.py`` expects, over plain facts."""

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def facts(self):
        return tuple(sorted(self.entries))

    def mult(self, fact):
        return self.entries[fact]

    def without(self, facts):
        dropped = set(facts)
        return OracleDB({f: m for f, m in self.entries.items() if f not in dropped})

    def adom(self):
        return frozenset(x for f in self.entries for x in (f.tail, f.head))


def oracle_value(entries: dict, nfa: NFA):
    import oracles

    return oracles.brute_resilience(OracleDB(entries), nfa)


def check_value(expected, value, method=None, expected_method=None) -> list:
    """None for ``expected`` (or ``expected_method``) skips that comparison."""
    problems = []
    if expected is not None and value != expected:
        problems.append(f"value {value}, expected {expected}")
    if expected_method is not None and method != expected_method:
        problems.append(f"method {method}, expected {expected_method}")
    return problems


# ---------------------------------------------------------------------------
# classifier verdicts, re-checked with Python's re

CATALOG = {
    "ab|bc|ca": {"ab", "bc", "ca"},
    "abcd|be|ef": {"abcd", "be", "ef"},
    "abcd|bef": {"abcd", "bef"},
    "abc|be|ef": {"abc", "be", "ef"},
}


def _letter_cartesian(lang: Language, words) -> list:
    for u in words:
        for v in words:
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    if x == y and not lang.reduced_member(u[: i + 1] + v[j + 1 :]):
                        return [f"{u} and {v} recombine at {x} outside the reduced language"]
    return []


def _four_legged(lang: Language, legs: dict) -> list:
    x = legs["letter"]
    b1, a1, b2, a2 = (_word(legs[k]) for k in ("before1", "after1", "before2", "after2"))
    if not (b1 and a1 and b2 and a2):
        return ["a four-legged witness has an empty leg"]
    problems = []
    for w in (b1 + x + a1, b2 + x + a2):
        if not lang.reduced_member(w):
            problems.append(f"leg word {w} is not in the reduced language")
    if lang.reduced_member(b1 + x + a2):
        problems.append(f"cross word {b1 + x + a2} is in the reduced language")
    return problems


def _finite_words(lang: Language, longest: int) -> tuple:
    """Reduced words up to the given length, plus any found up to two
    letters longer (which a finite language of that length must not have)."""
    words = lang.words(longest + 2)
    return [w for w in words if len(w) <= longest], [w for w in words if len(w) > longest]


def check_verdict(text: str, verdict: dict, expected=None) -> list:
    """Check a verdict given as {status, method, reason, witness}."""
    status, method, witness = verdict["status"], verdict["method"], verdict["witness"]
    problems = []
    if expected is not None and (status, method) != tuple(expected):
        problems.append(f"verdict {status}/{method}, expected {expected[0]}/{expected[1]}")
    lang = Language(text)
    kind = None if witness is None else witness.get("kind")
    if status == "PTIME" and method == "local":
        problems += _letter_cartesian(lang, lang.words(4 if len(lang.alphabet) <= 4 else 3))
    elif status == "PTIME" and method == "bcl":
        side0, side1 = (set(s) for s in witness["sides"])
        words, longer = _finite_words(lang, 5)
        if longer:
            problems.append(f"a bcl language has the long word {longer[0]}")
        for w in words:
            if len(w) >= 2 and (w[0] in side0) == (w[-1] in side0):
                problems.append(f"word {w} has both endpoints on one side")
            if len(set(w)) != len(w):
                problems.append(f"chain word {w} repeats a letter")
            for other in words:
                if other != w and any(x in other for x in w[1:-1]):
                    problems.append(f"interior letter of {w} occurs in {other}")
        if side0 & side1:
            problems.append("the two sides overlap")
    elif status == "PTIME" and method == "submod":
        letters = "".join(witness["letters"])
        n = witness["n"]
        pattern = {letters[:n], letters[n - 2] + letters[n]}
        if witness["mirrored"]:
            pattern = {w[::-1] for w in pattern}
        words, longer = _finite_words(lang, n)
        if set(words) != pattern or longer:
            problems.append(f"reduced words {words + longer} differ from the pattern {sorted(pattern)}")
    elif status == "PTIME":
        problems.append(f"unknown PTIME method {method}")
    elif status == "NP_HARD" and kind == "repeated-letter":
        w = _word(witness["word"])
        parts = [_word(witness[k]) for k in ("before", "gap", "after")]
        x = witness["letter"]
        if w != parts[0] + x + parts[1] + x + parts[2]:
            problems.append(f"word {w} does not split around the repeated letter")
        if not lang.reduced_member(w):
            problems.append(f"word {w} is not in the reduced language")
    elif status == "NP_HARD" and kind == "four-legged":
        problems += _four_legged(lang, witness)
    elif status == "NP_HARD" and kind == "catalog":
        entry = CATALOG.get(witness["entry"])
        if entry is None:
            return problems + [f"unknown catalog entry {witness['entry']}"]
        renaming = witness["renaming"]
        words, longer = _finite_words(lang, max(map(len, entry)))
        image = {"".join(renaming.get(a, "?") for a in w) for w in words}
        if witness["mirrored"]:
            image = {w[::-1] for w in image}
        if image != entry or longer:
            problems.append(f"renamed words {sorted(image)} differ from {witness['entry']}")
    elif status == "NP_HARD" and kind == "non-aperiodic":
        problems += _periodic(lang, _word(witness["word"]), witness["period"])
    elif status == "NP_HARD" and kind == "neutral-letter":
        e = witness["letter"]
        for n in range(4):
            for p in itertools.product(lang.alphabet, repeat=n):
                w = "".join(p)
                for i in range(n + 1):
                    if lang.member(w) != lang.member(w[:i] + e + w[i:]):
                        problems.append(f"inserting {e} into {w} changes membership")
                        break
        if "four_legged" in witness:
            problems += _four_legged(lang, witness["four_legged"])
    elif status == "NP_HARD":
        problems.append(f"unknown hardness witness {kind}")
    elif status == "UNKNOWN" and kind == "chain-non-bipartite":
        cycle = witness["odd_cycle"]
        words, _ = _finite_words(lang, 4)
        ends = {frozenset((w[0], w[-1])) for w in words if len(w) >= 2}
        if len(cycle) % 2 == 0 or any(
            frozenset((cycle[i], cycle[(i + 1) % len(cycle)])) not in ends
            for i in range(len(cycle))
        ):
            problems.append(f"{cycle} is not an odd cycle of word endpoints")
    elif status != "UNKNOWN":
        problems.append(f"unknown status {status}")
    return problems


def _periodic(lang: Language, word: str, period: int) -> list:
    """Some context u _ v makes membership of u word^k v in the reduced
    language periodic in k with the given period, and not constant."""
    if period < 2 or not word:
        return [f"period {period} of {word!r} does not show non-aperiodicity"]
    contexts = [
        "".join(p) for n in range(3) for p in itertools.product(lang.alphabet, repeat=n)
    ]
    start = 8
    for u in contexts:
        for v in contexts:
            seq = [lang.reduced_member(u + word * k + v) for k in range(start, start + 3 * period)]
            if len(set(seq)) > 1 and all(seq[k] == seq[k + period] for k in range(2 * period)):
                return []
    return [f"no context shows {word} with period {period}"]


# ---------------------------------------------------------------------------
# gadget reports


def _components(vertices, edges):
    return frozenset(vertices), frozenset(frozenset(e) for e in edges)


def check_gadget_report(report: dict, words, expected=None) -> list:
    """Check a validation report given as plain data: {status,
    odd_path_length, initial: (vertices, edges), steps: [(rule,
    vertices_before, edges_before, vertices_after, edges_after)], final,
    path, f_in, f_out}."""
    import oracles

    problems = []
    if expected is not None and (report["status"], report["odd_path_length"]) != tuple(expected):
        problems.append(
            f"report {report['status']}/{report['odd_path_length']}, expected {expected}"
        )
    vertices, edges = _components(*report["initial"])
    if edges != frozenset(matches(vertices, words)):
        problems.append("the initial hypergraph is not the set of matches of the completion")
    current = (vertices, edges)
    for rule, vb, eb, va, ea in report["steps"]:
        before, after = _components(vb, eb), _components(va, ea)
        if before != current:
            problems.append(f"a {rule} step does not start where the previous one ended")
        if not (after[0] <= before[0]):
            problems.append(f"a {rule} step adds vertices")
        if oracles.brute_hitting_set(before[1]) != oracles.brute_hitting_set(after[1]):
            problems.append(f"a {rule} step changes the minimum hitting set")
        current = after
    if report["final"] is not None and _components(*report["final"]) != current:
        problems.append("the final hypergraph is not where the steps end")
    if report["status"] == "valid":
        path, length = report["path"], report["odd_path_length"]
        fv, fe = current
        if length % 2 == 0 or len(path) != length + 1 or set(path) != fv:
            problems.append(f"path of {len(path)} vertices is no odd path of length {length}")
        elif (path[0], path[-1]) != (report["f_in"], report["f_out"]):
            problems.append("the path does not join the two attached facts")
        elif fe != {frozenset(p) for p in zip(path, path[1:])}:
            problems.append("the final hyperedges are not the path's edges")
    return problems


def gadget_encoding_value(edges, odd_length: int) -> int:
    """Vertex-cover number plus m(l-1)/2 for a graph encoded through a gadget
    whose odd path length is l."""
    import oracles

    return oracles.brute_vertex_cover(edges) + len(edges) * (odd_length - 1) // 2
