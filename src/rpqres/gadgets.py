"""Hardness gadgets: completion, match hypergraphs, condensation, encodings.

A pre-gadget is a small database with two designated elements that never
occur as heads.  Completing it attaches one fresh fact to each; the gadget
is valid for a language when the hypergraph of query matches of the
completion condenses, by hitting-set-preserving rules, to an odd path
between the two attached facts.  Valid gadgets turn vertex cover into
set-semantics resilience: encode a graph by one fact per vertex and one
renamed gadget copy per edge, and the resilience equals the vertex cover
number of the graph with every edge subdivided into a path of the odd
length.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, NamedTuple, Optional

from . import automata, graphdb, lang, solvers
from .errors import InputError, ResourceCapError
from .graphdb import Fact, GraphDB
from .lang import Word

NODE_BUDGET = 16
VC_CAP = 20


class _PreGadgetFields(NamedTuple):
    db: GraphDB
    t_in: str
    t_out: str
    label: str


class PreGadget(_PreGadgetFields):
    __slots__ = ()

    def __new__(cls, db, t_in, t_out, label):
        if t_in == t_out:
            raise InputError("t_in and t_out must be distinct")
        nodes = db.adom()
        if t_in not in nodes or t_out not in nodes:
            raise InputError("t_in and t_out must occur in the database")
        for fact, mult in db.entries:
            if mult != 1:
                raise InputError("a pre-gadget database uses set semantics")
            if fact.head in (t_in, t_out):
                raise InputError(
                    f"{fact.head} occurs as the head of {fact.render()}"
                )
        return tuple.__new__(cls, (db, t_in, t_out, label))


def _fresh_node(base: str, used) -> str:
    if base not in used:
        return base
    k = 2
    while f"{base}_{k}" in used:
        k += 1
    return f"{base}_{k}"


def completion(g: PreGadget) -> tuple[GraphDB, Fact, Fact]:
    used = set(g.db.adom())
    s_in = _fresh_node("s_in", used)
    used.add(s_in)
    s_out = _fresh_node("s_out", used)
    f_in = Fact(s_in, g.label, g.t_in)
    f_out = Fact(s_out, g.label, g.t_out)
    completed = GraphDB.from_facts(g.db.facts() + (f_in, f_out))
    return completed, f_in, f_out


# ---------------------------------------------------------------------------
# the hypergraph of matches


class _HypergraphFields(NamedTuple):
    vertices: frozenset  # facts
    edges: frozenset  # frozensets of facts
    f_in: Optional[Fact]
    f_out: Optional[Fact]


class MatchHypergraph(_HypergraphFields):
    __slots__ = ()

    def __new__(cls, vertices, edges, f_in=None, f_out=None):
        for e in edges:
            if not e:
                raise InputError("hyperedges must be non-empty")
            if not e <= vertices:
                raise InputError("hyperedges must stay within the vertex set")
        return tuple.__new__(cls, (vertices, edges, f_in, f_out))

    def incident(self, v) -> frozenset:
        return frozenset(e for e in self.edges if v in e)


def build_match_hypergraph(
    db: GraphDB, words: Iterable[Word],
    f_in: Optional[Fact] = None, f_out: Optional[Fact] = None,
) -> MatchHypergraph:
    matches = graphdb.enumerate_matches(db, words)
    return MatchHypergraph(
        frozenset(db.facts()),
        frozenset(m.facts for m in matches),
        f_in,
        f_out,
    )


# ---------------------------------------------------------------------------
# condensation


class CondensationStep(NamedTuple):
    """One rule application; before/after states let audits replay it."""

    rule: str  # "edge-domination" or "node-domination"
    removed: object  # a hyperedge or a vertex
    dominator: object  # the witnessing subset edge or dominating vertex
    vertices_before: frozenset
    edges_before: frozenset
    vertices_after: frozenset
    edges_after: frozenset


class CondensationResult(NamedTuple):
    status: str  # "path", "exhausted", or "budget"
    steps: tuple
    vertices: frozenset
    edges: frozenset
    path: Optional[tuple]


def _edge_domination(vertices, edges, steps) -> frozenset:
    """Drop strict-superset hyperedges one at a time, recording steps.

    A minimal edge is never dropped, so every other edge keeps a strict
    subset to the end: one pass in sorted order drops exactly the
    non-minimal edges, each against the first strict subset still held.
    """
    ordered = sorted(edges, key=sorted)
    current = set(ordered)
    for e in ordered:
        witness = next((o for o in ordered if o < e and o in current), None)
        if witness is not None:
            before = frozenset(current)
            current.remove(e)
            steps.append(
                CondensationStep(
                    "edge-domination", e, witness,
                    vertices, before, vertices, frozenset(current),
                )
            )
    return frozenset(current)


def _odd_path(vertices, edges, f_in, f_out) -> Optional[tuple]:
    """The vertex sequence when the whole hypergraph is an odd-length
    simple path from f_in to f_out with all edges of size 2."""
    if f_in is None or f_out is None or f_in == f_out:
        return None
    if f_in not in vertices or f_out not in vertices:
        return None
    if not edges or any(len(e) != 2 for e in edges):
        return None
    if len(edges) != len(vertices) - 1 or len(edges) % 2 == 0:
        return None
    adjacency = {v: [] for v in vertices}
    for e in edges:
        a, b = sorted(e)
        adjacency[a].append(b)
        adjacency[b].append(a)
    if len(adjacency[f_in]) != 1 or len(adjacency[f_out]) != 1:
        return None
    if any(
        len(adjacency[v]) != 2
        for v in vertices
        if v not in (f_in, f_out)
    ):
        return None
    sequence = [f_in]
    previous, current = None, f_in
    while current != f_out:
        following = [w for w in adjacency[current] if w != previous]
        if len(following) != 1:
            return None
        previous, current = current, following[0]
        sequence.append(current)
        if len(sequence) > len(vertices):
            return None
    if len(sequence) != len(vertices):
        return None
    return tuple(sequence)


def _dominated_vertices(vertices, edges, protected):
    incident = {v: set() for v in vertices}
    for e in edges:
        for v in e:
            incident[v].add(e)
    order = sorted(vertices)
    out = []
    for v in order:
        if v in protected:
            continue
        dominator = next(
            (w for w in order if w != v and incident[v] <= incident[w]), None
        )
        if dominator is not None:
            out.append((v, dominator))
    return out


def _strip_vertex(vertices, edges, v):
    new_edges = frozenset(e - {v} for e in edges)
    # domination guarantees no edge was {v} alone
    assert all(new_edges)
    return vertices - {v}, new_edges


def condense(
    H: MatchHypergraph, protected: frozenset = frozenset()
) -> CondensationResult:
    """Search for a condensation of H into an odd f_in..f_out path.

    Superset hyperedges are dropped eagerly: that normal form neither
    disables nor fabricates node-dominations, so a depth-first search over
    which dominated vertex to strip next, skipping vertex sets met before,
    is exhaustive, and a failed search within the node budget disproves
    existence.  Above the budget each state tries only its first dominated
    vertex, a greedy pass whose failure is only inconclusive.

    Each stack frame holds a state (vertices, edges, the steps that led to
    it) and its dominated vertices not yet tried.
    """
    trace: list = []
    vertices = H.vertices
    edges = _edge_domination(vertices, H.edges, trace)
    width = None if len(vertices) <= NODE_BUDGET else 1
    stack, seen = [], set()
    while True:
        path = _odd_path(vertices, edges, H.f_in, H.f_out)
        if path is not None:
            return CondensationResult("path", tuple(trace), vertices, edges, path)
        untried = _dominated_vertices(vertices, edges, protected)[:width]
        stack.append((vertices, edges, trace, iter(untried)))
        move = None
        while move is None:
            vertices, edges, trace, untried = stack[-1]
            move = next(
                (m for m in untried if vertices - {m[0]} not in seen), None
            )
            if move is None:
                stack.pop()
                if width or not stack:
                    status = "budget" if width else "exhausted"
                    return CondensationResult(
                        status, tuple(trace), vertices, edges, None
                    )
        victim, dominator = move
        new_vertices, stripped = _strip_vertex(vertices, edges, victim)
        seen.add(new_vertices)
        trace = trace + [
            CondensationStep(
                "node-domination", victim, dominator,
                vertices, edges, new_vertices, stripped,
            )
        ]
        vertices = new_vertices
        edges = _edge_domination(vertices, stripped, trace)


# ---------------------------------------------------------------------------
# validation


class GadgetReport(NamedTuple):
    status: str  # "valid", "invalid", or "inconclusive"
    odd_path_length: Optional[int]
    steps: tuple
    reason: Optional[str]
    initial: MatchHypergraph
    final: Optional[MatchHypergraph]
    path: Optional[tuple]

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    def render(self) -> str:
        if self.status == "valid":
            return f"VALID, odd path length {self.odd_path_length}"
        return f"{self.status.upper()}: {self.reason}"


def _finite_reduced_words(language) -> frozenset:
    if isinstance(language, (str, lang.Regex, automata.EpsNFA)):
        A = automata.automaton_for(language)
        if not automata.is_finite_language(A):
            raise InputError("gadget validation needs a finite language")
        words = frozenset(automata.language_words(A))
    else:
        words = frozenset(language)
    if lang.reduce_finite(words) != words:
        raise InputError("gadget validation needs a reduced language")
    return words


# condensation status -> report status and reason
_REPORTS = {
    "path": ("valid", None),
    "exhausted": ("invalid", "no condensation to an odd path exists"),
    "budget": (
        "inconclusive",
        "node budget exceeded and the greedy pass found no odd path",
    ),
}


def validate_gadget(g: PreGadget, language) -> GadgetReport:
    words = _finite_reduced_words(language)
    completed, f_in, f_out = completion(g)
    H = build_match_hypergraph(completed, words, f_in, f_out)
    result = condense(H, frozenset({f_in, f_out}))
    status, reason = _REPORTS[result.status]
    length = None if result.path is None else len(result.edges)
    final = MatchHypergraph(result.vertices, result.edges, f_in, f_out)
    return GadgetReport(status, length, result.steps, reason, H, final, result.path)


# ---------------------------------------------------------------------------
# graph encodings and the vertex cover round trip


def encode_graph(
    edges: Iterable[tuple[str, str]],
    g: PreGadget,
    vertices: Iterable[str] = (),
) -> GraphDB:
    """Encode a directed graph: one fact per vertex, one renamed copy of
    the pre-gadget per edge, with internal elements fresh per copy."""
    ordered_edges = sorted(set((u, v) for u, v in edges))
    nodes = set(vertices)
    for u, v in ordered_edges:
        nodes.add(u)
        nodes.add(v)
    internals = sorted(g.db.adom() - {g.t_in, g.t_out})
    facts = [(f"s_{u}", g.label, f"t_{u}") for u in sorted(nodes)]
    for i, (u, v) in enumerate(ordered_edges):
        renaming = {g.t_in: f"t_{u}", g.t_out: f"t_{v}"}
        renaming.update({w: f"e{i}_{w}" for w in internals})
        facts.extend(
            (renaming[f.tail], f.label, renaming[f.head])
            for f in g.db.facts()
        )
    return GraphDB.from_facts(facts)


def subdivide(
    edges: Iterable[tuple[str, str]], ell: int
) -> tuple[tuple[str, str], ...]:
    """Replace each undirected edge by a path of odd length ell."""
    if ell < 1 or ell % 2 == 0:
        raise InputError("subdivision length must be odd and positive")
    ordered = sorted(set((min(u, v), max(u, v)) for u, v in edges))
    if ell == 1:
        return tuple(ordered)
    out = []
    for i, (u, v) in enumerate(ordered):
        stops = [u] + [f"sub{i}_{k}" for k in range(1, ell)] + [v]
        out.extend(zip(stops, stops[1:]))
    return tuple(out)


def vertex_cover_bruteforce(edges: Iterable[tuple[str, str]]) -> int:
    normalized = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    forced = {u for u, v in edges if u == v}
    remaining = [e for e in normalized if not (set(e) & forced)]
    nodes = sorted({x for e in remaining for x in e})
    if len(nodes) + len(forced) > VC_CAP:
        raise ResourceCapError(
            f"vertex cover brute force capped at {VC_CAP} vertices"
        )
    for k in range(len(nodes) + 1):
        for chosen in itertools.combinations(nodes, k):
            picked = set(chosen)
            if all(u in picked or v in picked for u, v in remaining):
                return k + len(forced)
    raise AssertionError("the full vertex set always covers")


def hardness_roundtrip(
    language, g: PreGadget, edges: Iterable[tuple[str, str]]
) -> bool:
    """Check the vertex-cover reduction end to end on an undirected graph.

    The graph is oriented deterministically (smaller endpoint first),
    encoded, and solved exactly; the result must equal the graph's vertex
    cover number plus m(ell-1)/2 for the gadget's odd path length ell.
    """
    words = _finite_reduced_words(language)
    report = validate_gadget(g, words)
    if not report.valid:
        raise InputError("the pre-gadget does not validate for this language")
    oriented = sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})
    encoding = encode_graph(oriented, g)
    expected = vertex_cover_bruteforce(oriented) + len(oriented) * (
        report.odd_path_length - 1
    ) // 2
    answer = solvers.resilience_exact(
        encoding, words,
        fact_cap=max(solvers.DEFAULT_EXACT_CAP, len(encoding)),
    )
    return answer.value == expected


# ---------------------------------------------------------------------------
# built-ins and files


def builtin_gadgets() -> dict[str, PreGadget]:
    """Pre-gadgets shipped with the package, keyed by language regex.

    Only the single-letter chain gadget is textually pinned; it serves
    both aa and aaa.  Other published gadgets exist solely as figures and
    must be loaded from user files.
    """
    chain = PreGadget(
        GraphDB.from_facts(
            [
                ("t_in", "a", "n1"),
                ("n1", "a", "n2"),
                ("n2", "a", "n3"),
                ("t_out", "a", "n2"),
            ]
        ),
        "t_in",
        "t_out",
        "a",
    )
    return {"aa": chain, "aaa": chain}


def load_gadget(text: str) -> tuple[PreGadget, Optional[int]]:
    """Parse the JSON gadget document; returns the pre-gadget and the
    optional expected odd path length."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad gadget file: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("a gadget file holds a JSON object")
    missing = {"facts", "t_in", "t_out", "label"} - set(doc)
    if missing:
        raise InputError(f"gadget file lacks {', '.join(sorted(missing))}")
    facts = doc["facts"]
    if not isinstance(facts, list) or not all(
        isinstance(f, list) and len(f) == 3 and all(map(graphdb.is_token, f))
        for f in facts
    ):
        raise InputError(f"facts must be [tail, label, head] triples, each {graphdb.TOKEN}")
    for key in ("t_in", "t_out", "label"):
        if not graphdb.is_token(doc[key]):
            raise InputError(f"{key} must be {graphdb.TOKEN}")
    expected = doc.get("expected_odd_length")
    if expected is not None and (
        isinstance(expected, bool)
        or not isinstance(expected, int)
        or expected < 1
        or expected % 2 == 0
    ):
        raise InputError("expected_odd_length must be a positive odd integer")
    gadget = PreGadget(
        GraphDB.from_facts(tuple(map(tuple, facts))),
        doc["t_in"],
        doc["t_out"],
        doc["label"],
    )
    return gadget, expected


def save_gadget(g: PreGadget, expected_odd_length: Optional[int] = None) -> str:
    doc: dict = {
        "facts": [list(f) for f in g.db.facts()],
        "t_in": g.t_in,
        "t_out": g.t_out,
        "label": g.label,
    }
    if expected_odd_length is not None:
        doc["expected_odd_length"] = expected_odd_length
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_graph(text: str) -> tuple[tuple[str, str], ...]:
    """Edge-per-line graph files.

    ``u v`` is an undirected edge, oriented smaller-endpoint first;
    ``u -> v`` is directed.  Blank lines and # comments are skipped.
    """
    edges = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 3 and tokens[1] == "->":
            edges.append((tokens[0], tokens[2]))
        elif len(tokens) == 2 and tokens[0] != "->" and tokens[1] != "->":
            u, v = tokens
            edges.append((min(u, v), max(u, v)))
        else:
            raise InputError(
                f"line {number}: expected 'u v' or 'u -> v', got {raw!r}"
            )
    return tuple(edges)
