"""The traced run: spans around rpqres functions, recorded from outside.

``Tracer.install(api)`` replaces module attributes such as
``rpqres.flow.min_cut`` with wrappers.  rpqres looks these names up at call
time (``flow.min_cut(...)`` in other modules, plain global lookups inside a
module), so the wrappers see every call.  Each call records a span: name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  Counts are taken from arguments and results outside the span;
the time spent taking them is recorded as a ``trace`` span, which parents
subtract like any other child and which no metric counts.
"""

from __future__ import annotations

import functools
import time

WRAPPED = {
    "graphdb": ("parse_db", "witness_walk"),
    "lang": ("parse_regex",),
    "automata": (
        "automaton_for", "reduce_regular", "is_local_language",
        "language_words", "non_aperiodic_witness",
    ),
    "classifier": (
        "classify", "is_four_legged_finite", "bcl_analysis",
        "matches_submod_pattern", "match_known_hard",
    ),
    "solvers": (
        "resilience", "resilience_exact", "resilience_local",
        "resilience_bcl", "resilience_submod",
    ),
    "flow": ("min_cut",),
    "gadgets": (
        "validate_gadget", "build_match_hypergraph", "condense",
        "load_gadget", "parse_graph", "encode_graph",
    ),
}
CLI_SPAN = "cli.invoke"
COUNT_SPAN = "trace"

# span fields
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _network_counts(network):
    """Vertices, edges, and vertices on some source-to-target path."""
    forward, backward = {}, {}
    vertices = {network.source, network.target}
    for e in network.edges:
        forward.setdefault(e.tail, []).append(e.head)
        backward.setdefault(e.head, []).append(e.tail)
        vertices.update((e.tail, e.head))

    def reach(adjacency, start):
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    useful = reach(forward, network.source) & reach(backward, network.target)
    return {"vertices": len(vertices), "edges": len(network.edges), "useful": len(useful)}


BEFORE = {"flow.min_cut": lambda args, kwargs: _network_counts(args[0])}
AFTER = {
    "gadgets.build_match_hypergraph": lambda result: {"hyperedges": len(result.edges)},
    "gadgets.condense": lambda result: {"steps": len(result.steps)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.factors = {}  # operation id -> reference-speed factor

    def open(self, name):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op, None]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        self.stack.pop()

    def counted(self, compute):
        """Run a count computation as a trace span, so parents exclude it."""
        span = self.open(COUNT_SPAN)
        try:
            return compute()
        finally:
            self.close(span)

    def wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self.counted(lambda: before(args, kwargs)) if before else None
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                counts = self.counted(lambda: after(result))
            span[COUNTS] = counts
            return result

        return wrapper

    def install(self, api):
        for module_name, names in WRAPPED.items():
            module = getattr(api, module_name)
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{module_name}.{name}", original)
                setattr(module, name, wrapper)
                if getattr(api, name, None) is original:
                    setattr(api, name, wrapper)

    # -- analysis -----------------------------------------------------------

    def metrics(self, rounds: int, setup_reps: int) -> dict:
        spans = self.spans
        duration = [0.0] * len(spans)
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            duration[i] = (s[END] - s[START]) * self.factors.get(s[OP], 1.0)
            if s[PARENT] is not None:
                child[s[PARENT]] += duration[i]

        def ancestors(i):
            p = spans[i][PARENT]
            while p is not None:
                yield p
                p = spans[p][PARENT]

        def under(i, name):
            return any(spans[p][NAME] == name for p in ancestors(i))

        in_ops = [i for i, s in enumerate(spans) if isinstance(s[OP], int)]
        calls, inclusive, self_time, counts = {}, {}, {}, {}
        for i in in_ops:
            name = spans[i][NAME]
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration[i] - child[i]
            if not under(i, name):
                inclusive[name] = inclusive.get(name, 0.0) + duration[i]
            for key, value in (spans[i][COUNTS] or {}).items():
                counts[(name, key)] = counts.get((name, key), 0) + value

        def per_round(x):
            return x / rounds

        def nested(name, parent):
            return sum(1 for i in in_ops if spans[i][NAME] == name and under(i, parent))

        def outermost(name):
            return sum(1 for i in in_ops if spans[i][NAME] == name and not under(i, name))

        def ratio(a, b):
            return a / b if b else 0.0

        setup_parse = sum(
            duration[i] for i, s in enumerate(spans)
            if s[NAME] == "graphdb.parse_db" and not isinstance(s[OP], int)
        )
        inc = lambda name: per_round(inclusive.get(name, 0.0))
        n = lambda name: per_round(calls.get(name, 0))
        c = lambda name, key: per_round(counts.get((name, key), 0))
        exact_pops = per_round(nested("graphdb.witness_walk", "solvers.resilience_exact"))
        return {
            "graphdb.parse_db_s": setup_parse / setup_reps,
            "lang.parse_regex_s": inc("lang.parse_regex"),
            "lang.parse_regex_calls": n("lang.parse_regex"),
            "automata.automaton_for_s": inc("automata.automaton_for"),
            "automata.reduce_regular_s": inc("automata.reduce_regular"),
            "automata.reduce_regular_calls": n("automata.reduce_regular"),
            "automata.is_local_language_s": inc("automata.is_local_language"),
            "automata.language_words_s": inc("automata.language_words"),
            "automata.non_aperiodic_witness_s": inc("automata.non_aperiodic_witness"),
            "classifier.classify_s": inc("classifier.classify"),
            "classifier.classify_calls": n("classifier.classify"),
            "classifier.is_four_legged_finite_s": inc("classifier.is_four_legged_finite"),
            "classifier.bcl_analysis_s": inc("classifier.bcl_analysis"),
            "classifier.matches_submod_pattern_s": inc("classifier.matches_submod_pattern"),
            "classifier.match_known_hard_s": inc("classifier.match_known_hard"),
            "solvers.reduce_per_resilience": ratio(
                nested("automata.reduce_regular", "solvers.resilience"),
                outermost("solvers.resilience"),
            ),
            "solvers.network_build_s": per_round(
                self_time.get("solvers.resilience_local", 0.0)
                + self_time.get("solvers.resilience_bcl", 0.0)
            ),
            "flow.network_vertices": c("flow.min_cut", "vertices"),
            "flow.network_edges": c("flow.min_cut", "edges"),
            "flow.useful_vertex_share": ratio(
                counts.get(("flow.min_cut", "useful"), 0),
                counts.get(("flow.min_cut", "vertices"), 0),
            ),
            "flow.min_cut_s": inc("flow.min_cut"),
            "flow.min_cut_calls": n("flow.min_cut"),
            "flow.edges_per_s": ratio(c("flow.min_cut", "edges"), inc("flow.min_cut")),
            "solvers.submod_cuts": ratio(
                nested("flow.min_cut", "solvers.resilience_submod"),
                outermost("solvers.resilience_submod"),
            ),
            "solvers.resilience_exact_s": inc("solvers.resilience_exact"),
            "solvers.exact_pops": exact_pops,
            "graphdb.witness_walk_s": inc("graphdb.witness_walk"),
            "solvers.exact_pops_per_s": ratio(exact_pops, inc("solvers.resilience_exact")),
            "gadgets.build_match_hypergraph_s": inc("gadgets.build_match_hypergraph"),
            "gadgets.hyperedges": c("gadgets.build_match_hypergraph", "hyperedges"),
            "gadgets.condense_s": inc("gadgets.condense"),
            "gadgets.condense_steps": c("gadgets.condense", "steps"),
            "cli.overhead_s": per_round(self_time.get(CLI_SPAN, 0.0)),
        }

    def layer_shares(self, op_seconds: float) -> dict:
        """Each module's self time as a share of all operation time; what no
        wrapped function covers is reported as ``other``."""
        child = {}
        totals = {}
        for i, s in enumerate(self.spans):
            if not isinstance(s[OP], int):
                continue
            d = (s[END] - s[START]) * self.factors.get(s[OP], 1.0)
            if s[PARENT] is not None:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + d
            totals[i] = d
        shares = {}
        covered = 0.0
        for i, d in totals.items():
            s = self.spans[i]
            module = s[NAME].split(".")[0]
            if s[NAME] == COUNT_SPAN:
                module = "trace"
            shares[module] = shares.get(module, 0.0) + d - child.get(i, 0.0)
            if s[PARENT] is None:
                covered += d
        shares["other"] = op_seconds - covered
        return {k: round(v / op_seconds, 4) for k, v in sorted(shares.items())}

    def dump(self) -> list:
        return [list(s) for s in self.spans]
