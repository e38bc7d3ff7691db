"""Resilience solvers: exact search, local min-cut, BCL, submodular.

Each specialised solver is compared against the exhaustive one on random
instances small enough for brute force; its answers must also stand on
their own (the contingency really falsifies the query at the stated
cost).
"""

import gc
import math
import random
import weakref

import pytest

import oracles

try:  # optional: an independent MILP solver to check against
    import numpy as np
    from scipy import optimize
except ImportError:
    optimize = None
from rpqres import automata, classifier, flow, gadgets, graphdb, solvers
from rpqres.automata import automaton_for, minimize, words_to_nfa
from rpqres.errors import InputError, ResourceCapError, SolverRefusal
from rpqres.graphdb import Fact, GraphDB
from rpqres.lang import parse_word, parse_words


def check_answer(db, spec, answer):
    """Contingency invariants every finite answer must satisfy."""
    A = automaton_for(spec)
    assert answer.contingency is not None
    assert answer.value == sum(db.mult(f) for f in answer.contingency)
    assert not oracles.brute_satisfies(db.without(answer.contingency), A)


def random_db(rng, letters, max_facts=7, max_nodes=5, max_mult=3):
    nodes = [f"n{i}" for i in range(max_nodes)]
    pool = {}
    for _ in range(rng.randint(1, max_facts)):
        fact = Fact(rng.choice(nodes), rng.choice(letters), rng.choice(nodes))
        pool.setdefault(fact, rng.randint(1, max_mult))
    return GraphDB.from_pairs(pool)


# ---------------------------------------------------------------------------
# exhaustive solver


def test_exact_epsilon_is_infinite():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    answer = solvers.resilience_exact(db, "a*")
    assert math.isinf(answer.value)
    assert answer.contingency is None


def test_exact_unsatisfied_is_zero():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    answer = solvers.resilience_exact(db, "bb")
    assert answer.value == 0
    assert answer.contingency == frozenset()


def test_exact_simple_chain():
    db = graphdb.parse_db("u a v\nv b w 5\n")
    answer = solvers.resilience_exact(db, "ab")
    assert answer.value == 1
    assert answer.contingency == frozenset({Fact("u", "a", "v")})


def test_exact_respects_multiplicity():
    db = graphdb.parse_db("u a v 9\nv b w 5\n")
    answer = solvers.resilience_exact(db, "ab")
    assert answer.value == 5


def test_exact_must_cut_both_words():
    db = graphdb.parse_db("u a v\nx b y\n")
    answer = solvers.resilience_exact(db, "a|b")
    assert answer.value == 2
    check_answer(db, "a|b", answer)


def test_exact_cap():
    db = GraphDB.from_facts(
        [Fact(f"u{i}", "a", f"v{i}") for i in range(5)]
    )
    with pytest.raises(ResourceCapError):
        solvers.resilience_exact(db, "a", fact_cap=4)


def test_exact_matches_bruteforce():
    rng = random.Random(31)
    for _ in range(40):
        db = random_db(rng, "ab")
        for spec in ("ab", "a|b", "aa"):
            answer = solvers.resilience_exact(db, spec)
            expected = oracles.brute_resilience(db, automaton_for(spec))
            assert answer.value == expected
            if not math.isinf(answer.value):
                check_answer(db, spec, answer)


@pytest.mark.parametrize("spec", ["ax*b", "a(b|c)*a", "aa", "ab|bc|ca"])
def test_exact_matches_bruteforce_on_bags(spec):
    rng = random.Random(spec)
    A = automaton_for(spec)
    for _ in range(30):
        db = random_db(rng, "abcx", max_facts=8, max_nodes=4, max_mult=4)
        answer = solvers.resilience_exact(db, spec)
        assert answer.value == oracles.brute_resilience(db, A), (spec, db.entries)
        check_answer(db, spec, answer)


# an epsilon cycle after a, an epsilon self-loop after b, and an epsilon
# chain into the final state: a x* b c?
EPSILON_MOVES_AUTOMATON = """
states s0 s1 s2 s3 s4 f
initial s0
final f
s0 a s1
s1 EPS s2
s2 EPS s1
s2 x s1
s1 b s3
s3 EPS s3
s3 c s4
s3 EPS s4
s4 EPS f
"""


def _spec_automaton(spec):
    if spec == EPSILON_MOVES_AUTOMATON:
        return automata.parse_automaton(spec)
    return automaton_for(spec)


def test_epsilon_free_product_inputs_keep_epsilon_moves():
    for spec in ("e*be*ce*|e*de*fe*", EPSILON_MOVES_AUTOMATON):
        A = _spec_automaton(spec)
        assert any(label is None for _, label, _ in A.transitions)


@pytest.mark.parametrize("spec", [
    "ab|bc|ca", "ax*b|cxd", "b(aa)*d", "a(b|c)*d", "e*be*ce*|e*de*fe*",
    pytest.param(EPSILON_MOVES_AUTOMATON, id="epsilon-moves-automaton"),
])
def test_exact_solver_searches_an_epsilon_free_product(spec):
    rng = random.Random(f"epsilon-free {spec}")
    A = _spec_automaton(spec)
    reduced = automata.reduce_regular(A)
    letters = sorted(A.alphabet)
    for _ in range(30):
        db = random_db(rng, letters, max_facts=8, max_nodes=4, max_mult=3)
        prod = graphdb.product(db, A)
        assert all(bit == 1 << fact for arcs in prod.arcs for bit, fact, _ in arcs)
        exact = solvers.resilience(db, A, solver="exact")
        auto = solvers.resilience(db, A)
        over_reduced = solvers.resilience_exact(db, reduced)
        assert (
            exact.value == auto.value == over_reduced.value
            == oracles.brute_resilience(db, A)
        ), (spec, db.entries)
        check_answer(db, A, exact)


def test_exact_masks_reach_past_64_facts():
    db = GraphDB.from_facts(
        [Fact(f"u{i:02}", "b", f"v{i:02}") for i in range(70)]
        + [Fact("z0", "a", "z1"), Fact("z1", "a", "z2")]
    )
    answer = solvers.resilience_exact(db, "aa", fact_cap=len(db))
    assert answer.value == 1
    assert answer.contingency == {Fact("z0", "a", "z1")}


def best_first(db, spec):
    """The value and heap pops of the plain best-first search, on the
    same product and witness walks."""
    prod = graphdb.product(db, automaton_for(spec))
    index = {fact: i for i, fact in enumerate(prod.facts)}

    def witness(removed):
        walk = graphdb.witness_walk(prod, removed)
        return None if walk is None else [index[fact] for fact in walk]

    value, _, pops = oracles.best_first_search([m for _, m in db.entries], witness)
    return value, pops


def four_cycle():
    """A 4-cycle of aa facts: two facts break every aa walk."""
    return graphdb.parse_db("p a q\nq a r\nr a s\ns a p\n")


def four_cycle_encoding():
    """The aa gadget encoding of a 4-cycle, the benchmark's hard case:
    vertex cover number 2, plus 2 for each of the 4 gadget copies."""
    cycle = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")]
    return gadgets.encode_graph(cycle, gadgets.builtin_gadgets()["aa"])


@pytest.mark.parametrize(
    "make_db, value", [(four_cycle, 2), (four_cycle_encoding, 10)],
    ids=["4-cycle", "4-cycle-encoding"],
)
def test_exact_builds_one_product_and_pops_at_most_best_first(make_db, value, monkeypatch):
    """The exact search asks for no more witness walks than the plain
    best-first search pops subsets, each pop costing one walk search."""
    db = make_db()
    best_first_value, best_first_pops = best_first(db, "aa")
    assert best_first_value == value
    calls = {"product": 0, "witness_walk": 0}
    for name in calls:

        def counting(*args, _real=getattr(graphdb, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(graphdb, name, counting)
    answer = solvers.resilience_exact(db, "aa", fact_cap=len(db))
    assert answer.value == value
    assert calls["product"] == 1
    assert 0 < calls["witness_walk"] <= best_first_pops


def exhaustive_hitting_set(cores, mults):
    """The least weight of a fact set meeting every core, by trying all."""
    return min(
        sum(m for i, m in enumerate(mults) if chosen >> i & 1)
        for chosen in range(1 << len(mults))
        if all(core & chosen for core in cores)
    )


def random_cores(rng, n):
    """Core lists of several shapes over facts 0..n-1."""
    shape = rng.choice(["random", "duplicates", "nested", "single", "singletons"])
    if shape == "single":
        return [rng.randrange(1, 1 << n)]
    if shape == "singletons":
        return [1 << i for i in rng.sample(range(n), rng.randint(1, n))]
    cores = [rng.randrange(1, 1 << n) & rng.randrange(1, 1 << n) or 1
             for _ in range(rng.randint(1, 2 * n))]
    if shape == "duplicates":
        cores += rng.choices(cores, k=len(cores))
    elif shape == "nested":
        cores += [core & rng.randrange(1 << n) or core for core in cores]
    rng.shuffle(cores)
    return cores


def core_list(masks, mults):
    """The sorted core list the exact search keeps, built from bitmasks."""
    cores = []
    for mask in masks:
        solvers._add_core(cores, mask, mults)
    return cores


def test_min_hitting_set_matches_an_exhaustive_minimum():
    rng = random.Random("hitting set")
    cases = [
        # a worse hitting set found after a better one must not replace it
        ([9, 4, 17, 3, 19, 4, 9, 48, 17, 48, 3, 19], [3, 2, 3, 4, 3, 4]),
        ([28, 17, 34], [2, 1, 4, 4, 4, 2]),
    ]
    for _ in range(400):
        n = rng.randint(1, 12)
        cases.append((random_cores(rng, n), [rng.randint(1, 4) for _ in range(n)]))
    for cores, mults in cases:
        expected = exhaustive_hitting_set(cores, mults)
        # any floor up to the minimum, starting from any fact set
        for floor, start in ((0, 0), (rng.randint(0, expected), rng.getrandbits(len(mults)))):
            cost, chosen = solvers._min_hitting_set(
                core_list(cores, mults), mults, floor, start
            )
            assert cost == expected, (cores, mults, floor, start)
            assert cost == sum(m for i, m in enumerate(mults) if chosen >> i & 1)
            assert all(core & chosen for core in cores), (cores, mults, floor, start)


def test_min_hitting_set_searches_deep_without_recursion():
    """1,100 forced singletons and a star whose hub the greedy start
    misses: the search must choose every singleton on one path before it
    finds the hub."""
    singles = [1 << i for i in range(1_100)]
    hub = 1 << 1_100
    star = [hub | 1 << (1_101 + k) for k in range(3)]
    mults = [1] * 1_100 + [2, 1, 1, 1]
    cost, chosen = solvers._min_hitting_set(core_list(singles + star, mults), mults)
    assert cost == 1_102
    assert chosen == sum(singles) | hub


def test_exact_search_at_a_raised_fact_cap():
    db = GraphDB.from_facts(Fact(f"u{i}", "a", f"v{i}") for i in range(1_100))
    answer = solvers.resilience_exact(db, "a", fact_cap=len(db))
    assert answer.value == 1_100
    assert answer.contingency == frozenset(db.facts())


def milp_resilience(db, words):
    """Resilience of a finite language as a minimum-weight hitting set of
    its match fact sets, solved by scipy's mixed-integer LP solver."""
    facts = db.facts()
    column = {fact: i for i, fact in enumerate(facts)}
    matches = graphdb.enumerate_matches(db, words)
    if not matches:
        return 0
    rows = np.zeros((len(matches), len(facts)))
    for r, match in enumerate(matches):
        for fact in match.facts:
            rows[r, column[fact]] = 1
    result = optimize.milp(
        c=[db.mult(fact) for fact in facts],
        constraints=optimize.LinearConstraint(rows, lb=1),
        integrality=np.ones(len(facts)),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success
    return round(result.fun)


@pytest.mark.skipif(optimize is None, reason="needs scipy")
@pytest.mark.parametrize(
    "spec", ["aa", "ab|bc|ca", "axb|cxd", "abc|be|ef", "aa|aab", "ab|bc|ca|abc"]
)
def test_exact_matches_a_milp_hitting_set_at_full_size(spec):
    rng = random.Random(f"milp {spec}")
    words = automata.language_words(automaton_for(spec))
    letters = sorted({letter for word in words for letter in word})
    for _ in range(6):
        db = random_db(rng, letters, max_facts=40, max_nodes=5, max_mult=3)
        while len(db) < 15 or len(db) > solvers.DEFAULT_EXACT_CAP:
            db = random_db(rng, letters, max_facts=40, max_nodes=5, max_mult=3)
        expected = milp_resilience(db, words)
        answer = solvers.resilience_exact(db, spec)
        assert answer.value == expected, (spec, db.entries)
        check_answer(db, spec, answer)
        answer = solvers.resilience(db, spec)
        assert answer.value == expected, (spec, db.entries)
        check_answer(db, spec, answer)


# ---------------------------------------------------------------------------
# local solver


def test_local_refuses_non_local():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    with pytest.raises(SolverRefusal):
        solvers.resilience_local(db, "ab|bc")


def test_local_epsilon_is_infinite():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    assert math.isinf(solvers.resilience_local(db, "a*").value)


def test_local_chain_example():
    db = graphdb.parse_db("u a v\nv x w 3\nw x z 2\nz b q 4\n")
    answer = solvers.resilience_local(db, "ax*b")
    assert answer.value == 1
    check_answer(db, "ax*b", answer)


def test_local_matches_exact():
    rng = random.Random(97)
    for spec in ("ax*b", "ab|ad|cd", "a|b"):
        letters = sorted(set(spec) - set("*|"))
        for _ in range(25):
            db = random_db(rng, letters)
            got = solvers.resilience_local(db, spec)
            want = solvers.resilience_exact(db, spec)
            assert got.value == want.value, (spec, db.entries)
            check_answer(db, spec, got)


def test_local_matches_brute_force_under_both_semantics():
    # envelopes whose letter states merge (a(b|c)*d, ab*, a|ab, abc|abd,
    # (ab)*c) or keep an epsilon move (ab|ad|cd)
    rng = random.Random(19)
    for spec in ("a(b|c)*d", "ab*", "a|ab", "abc|abd", "(ab)*c", "ab|ad|cd"):
        A = automaton_for(spec)
        for _ in range(12):
            db = random_db(rng, sorted(A.alphabet), max_facts=7, max_nodes=4)
            for semantics in ("bag", "set"):
                target = db if semantics == "bag" else db.with_unit_multiplicities()
                got = solvers.resilience_local(target, spec)
                assert got.value == oracles.brute_resilience(target, A), (spec, db.entries)
                check_answer(target, spec, got)
                auto = solvers.resilience(db, spec, semantics=semantics)
                assert (auto.value, auto.method) == (got.value, "local")


def test_resilience_builds_the_envelope_once(monkeypatch):
    built = []
    real = automata.eps_nfa_to_ro

    def counting(A):
        if "_envelope" not in vars(A):
            built.append(A)
        return real(A)

    monkeypatch.setattr(automata, "eps_nfa_to_ro", counting)
    db = graphdb.parse_db("u a v\nv x w\nw b z\n")
    assert solvers.resilience(db, "ax*b").value == 1
    assert len(built) == 1  # the solver's: the locality test builds none


def chain_text(length, low_at):
    """An a x...x b chain whose multiplicities are all above 3 except for
    the fact at position low_at, which has 3."""
    labels = ["a"] + ["x"] * (length - 2) + ["b"]
    return "".join(
        f"c{i} {label} c{i + 1} {3 if i == low_at else 4 + i % 89}\n"
        for i, label in enumerate(labels)
    )


def test_local_long_chain():
    db = graphdb.parse_db(chain_text(100_000, 61_803))
    answer = solvers.resilience(db, "ax*b")
    assert answer.value == 3
    assert answer.contingency == {Fact("c61803", "x", "c61804")}


# ---------------------------------------------------------------------------
# pruned product networks

PRUNED_CASES = {  # language: (letters, solver the dispatcher picks)
    "ax*b": ("abx", "local"),
    "a(b|c)*d": ("abcd", "local"),
    "ab|bc": ("abc", "bcl"),
    "abc|cd": ("abcd", "bcl"),
    "abc|be": ("abce", "submod"),
}


def with_unused_labels(rng, db, count=15):
    """The database plus facts on labels no tested language uses, on its
    own nodes and on fresh ones."""
    nodes = sorted(db.adom()) + ["f0", "f1", "f2"]
    pool = dict(db.entries)
    for _ in range(count):
        fact = Fact(rng.choice(nodes), rng.choice("yz"), rng.choice(nodes))
        pool.setdefault(fact, rng.randint(1, 3))
    return GraphDB.from_pairs(pool)


@pytest.mark.parametrize("language", sorted(PRUNED_CASES))
def test_unused_labels_change_no_answer(language):
    letters, method = PRUNED_CASES[language]
    rng = random.Random(language)
    for _ in range(15):
        db = random_db(rng, letters, max_facts=24, max_nodes=8)
        plain = solvers.resilience(db, language)
        noisy = solvers.resilience(with_unused_labels(rng, db), language)
        assert plain.method == method
        assert (noisy.value, noisy.contingency) == (plain.value, plain.contingency)


def on_some_path(net) -> set:
    forward: dict = {}
    backward: dict = {}
    for e in net.edges:
        forward.setdefault(e.tail, []).append(e.head)
        backward.setdefault(e.head, []).append(e.tail)

    def reach(adjacency, start):
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    return reach(forward, net.source) & reach(backward, net.target)


def capture_networks(monkeypatch) -> list:
    """The list that every network passed to ``flow.min_cut`` joins."""
    networks = []
    real_min_cut = flow.min_cut

    def capture(net):
        networks.append(net)
        return real_min_cut(net)

    monkeypatch.setattr(flow, "min_cut", capture)
    return networks


@pytest.mark.parametrize("language", sorted(PRUNED_CASES))
def test_networks_hold_only_useful_vertices(language, monkeypatch):
    networks = capture_networks(monkeypatch)
    letters, _ = PRUNED_CASES[language]
    rng = random.Random(language)
    for _ in range(10):
        db = random_db(rng, letters, max_facts=24, max_nodes=8)
        solvers.resilience(with_unused_labels(rng, db), language)
    assert networks
    for net in networks:
        vertices = {v for e in net.edges for v in (e.tail, e.head)}
        assert vertices <= on_some_path(net)


def test_product_network_merges_attachments_exactly():
    """The builder's merged network has the min-cut value of the unmerged
    one, with the attachments kept as unbounded edges from and to the
    terminals, and its cut's tags remove facts worth exactly that value."""
    rng = random.Random(16)
    finite = 0
    for _ in range(300):
        size = rng.randint(2, 8)
        order = rng.sample(range(size), size)
        split = rng.randint(1, size - 1)
        sources = order[: rng.randint(1, split)]
        targets = order[split : split + rng.randint(1, size - split)]
        arcs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 6))]
        arcs.append((rng.choice(sources), rng.choice(targets)))  # straight across
        arcs.append((rng.randrange(size), rng.choice(sources)))  # into a source attachment
        arcs.append((rng.choice(sources), rng.randrange(size)))
        arcs.append((rng.randrange(size), rng.choice(targets)))
        arcs.append((rng.choice(targets), rng.randrange(size)))  # out of a target attachment
        arcs.append(rng.choice(arcs))  # parallel
        rng.shuffle(arcs)
        unbounded = set(rng.sample(range(len(arcs)), rng.randint(0, len(arcs) // 3)))
        fact_arcs = [
            (tail, head, (f"f{k}",), rng.randint(1, 3))
            for k, (tail, head) in enumerate(arcs)
            if k not in unbounded
        ]
        unbounded_arcs = [arcs[k] for k in sorted(unbounded)]
        attached = [("s", v, math.inf) for v in sources] + [
            (v, "t", math.inf) for v in targets
        ]
        unmerged = attached + [(t, h, math.inf) for t, h in unbounded_arcs]
        want = oracles.brute_min_cut_value(
            unmerged + [(t, h, m) for t, h, _, m in fact_arcs], "s", "t"
        )
        # layer 0 holds the source attachments, 1 the target's, 2 the rest
        layer = {v: 0 for v in sources} | {v: 1 for v in targets}
        tables: list = [{}, {}, {}]
        for tail, head, facts, m in fact_arcs + [(t, h, None, None) for t, h in unbounded_arcs]:
            out = tables[layer.get(tail, 2)].setdefault(tail, [])
            out.append((layer.get(head, 2), head, facts, m))
        starts = [arc for out in tables[0].values() for arc in out]
        net, tag = solvers._reach_network([0, 1, -1], starts, [t.get for t in tables])
        cut = flow.min_cut(net)
        assert cut.value == want, (size, fact_arcs, unbounded_arcs, sources, targets)
        if math.isinf(want):
            continue
        finite += 1
        removed = {f for i in cut.edge_indices for f in tag[i]}
        worth = {facts[0]: m for _, _, facts, m in fact_arcs}
        assert sum(worth[f] for f in removed) == want
        kept = [(t, h, m) for t, h, facts, m in fact_arcs if facts[0] not in removed]
        assert oracles.brute_min_cut_value(unmerged + kept, "s", "t") == 0
    assert finite >= 150


def test_networks_meet_the_terminals_by_fact_edges_only(monkeypatch):
    """Attachments merge into the terminals: no edge enters the source or
    leaves the target, none of the unbounded attachment edges is left, and
    every vertex still lies on a source-target path."""
    networks = capture_networks(monkeypatch)
    rng = random.Random(17)
    for language in sorted(PRUNED_CASES):
        letters, _ = PRUNED_CASES[language]
        for _ in range(10):
            db = random_db(rng, letters, max_facts=24, max_nodes=8)
            solvers.resilience(with_unused_labels(rng, db), language)
    # unreduced languages: arcs into initial and out of final states
    for language in ("x*ab", "ab*", "xa*b", "x*ab|xx*c", "ab*|cbb*"):
        for _ in range(10):
            db = random_db(rng, "abcx", max_facts=24, max_nodes=6)
            solvers.resilience_local(db, language)
    assert len(networks) == 100
    for net in networks:
        assert {v for e in net.edges for v in e[:2]} <= on_some_path(net)
        for e in net.edges:
            assert e.head != net.source and e.tail != net.target
            if e.tail == net.source or e.head == net.target:
                assert e.capacity != flow.INF


def test_axb_network_size_is_pinned(monkeypatch):
    networks = capture_networks(monkeypatch)
    db = graphdb.parse_db(
        "u a v\nv x w\nw x v\nw b z\nv b y\nq a r\nr x r\nz a u\nv c w\n"
    )
    answer = solvers.resilience(db, "ax*b")
    assert (answer.value, answer.method) == (1, "local")
    [net] = networks
    vertices = {net.source, net.target} | {v for e in net.edges for v in e[:2]}
    # the envelope of ax*b has one state after a and x, so five facts lie
    # on an accepted walk with no epsilon move between them; the a fact's
    # tail is the source and the b facts' heads are the target, leaving
    # the x facts' two ends (unmerged: 7 vertices and 8 edges)
    assert (len(vertices), len(net.edges)) == (4, 5)


def test_bcl_network_size_is_pinned(monkeypatch):
    networks = capture_networks(monkeypatch)
    db = graphdb.parse_db(
        "u a v\nv b w\nw c x\np a q\nr b s\ns c t\nv b y\nq c z\n"
    )
    answer = solvers.resilience(db, "ab|bc")
    assert (answer.value, answer.method) == (3, "bcl")
    [net] = networks
    # a and c facts start at the source, b facts end at the target; ab runs
    # forward from an a fact to a b fact at its head, bc backward from a c
    # fact to a b fact at its tail.  p a q and q c z meet no b fact, so six
    # facts remain: three ends of a and c facts and three starts of b
    # facts, six fact edges and four unbounded ones
    assert (len(net._index), len(net._caps)) == (8, 10)


def test_submod_network_size_is_pinned(monkeypatch):
    networks = capture_networks(monkeypatch)
    db = graphdb.parse_db(
        "u a v\nv b w\nw c x\nw e y\np a q\nq b r\nr e s 2\nk b m\nm c n\nz a z2\n"
    )
    answer = solvers.resilience(db, "abc|be")
    assert (answer.value, answer.method) == (2, "submod")
    [net] = networks
    # (v, 1), (q, 1), (w, 2) and (r, 2) stay: four fact edges, the exit
    # edges of w and r and their entry edges.  z a z2 leads to no b fact,
    # and no a fact leads to k b m, so m's exit edge is never reached
    assert (len(net._index), len(net._caps)) == (6, 8)


def one_sided_axb(paths, hanging, dangling, cycles, length):
    """An ax*b database: complete a x^k b paths, k from 1 to 7, whose
    cheapest fact is unique, x-chains of the given length after an a fact
    with no b after them, x-chains into a b fact with no a before them,
    and isolated x-cycles.  Returns its text, the cheapest facts and the
    number of x facts on the complete paths."""
    lines, cheapest, xs = [], set(), 0
    for p in range(paths):
        labels = ["a"] + ["x"] * (1 + p % 7) + ["b"]
        low = p * 3 % len(labels)
        for i, label in enumerate(labels):
            mult = 1 + p % 3 if i == low else 4 + (p + i) % 5
            lines.append(f"p{p}_{i} {label} p{p}_{i + 1} {mult}")
            if i == low:
                cheapest.add((Fact(f"p{p}_{i}", label, f"p{p}_{i + 1}"), mult))
        xs += len(labels) - 2
    for kind, count, first, last in (("h", hanging, "a", "x"), ("d", dangling, "x", "b")):
        for c in range(count):
            labels = [first] + ["x"] * (length - 2) + [last]
            lines += [f"{kind}{c}_{i} {label} {kind}{c}_{i + 1}" for i, label in enumerate(labels)]
    for c in range(cycles):
        lines += [f"c{c}_{i} x c{c}_{(i + 1) % length}" for i in range(length)]
    return "\n".join(lines) + "\n", cheapest, xs


def test_one_sided_axb_keeps_the_complete_paths_only(monkeypatch):
    networks = capture_networks(monkeypatch)
    text, cheapest, xs = one_sided_axb(50, hanging=660, dangling=660, cycles=660, length=10)
    db = graphdb.parse_db(text)
    assert len(db) >= 20_000
    answer = solvers.resilience(db, "ax*b")
    assert answer.value == sum(m for _, m in cheapest)
    assert answer.contingency == {f for f, _ in cheapest}
    [net] = networks
    # a path a x^k b keeps its k + 1 inner nodes and its k + 2 facts
    assert (len(net._index), len(net._caps)) == (2 + xs + 50, xs + 100)


def test_one_sided_axb_matches_brute_force():
    text, cheapest, _ = one_sided_axb(3, hanging=2, dangling=1, cycles=1, length=2)
    db = graphdb.parse_db(text)
    assert len(db) == 20
    answer = solvers.resilience(db, "ax*b")
    assert answer.value == sum(m for _, m in cheapest)
    assert answer.value == oracles.brute_resilience(db, automaton_for("ax*b"))
    check_answer(db, "ax*b", answer)


def reference_product_network(size, fact_arcs, unbounded_arcs, sources, targets):
    """Number every product vertex, list every arc, then keep the vertices
    that two reaches over whole-product adjacency lists find on a
    source-target path, attachments merged into the terminals."""
    succ: list = [[] for _ in range(size)]
    pred: list = [[] for _ in range(size)]
    for arc in fact_arcs + unbounded_arcs:
        succ[arc[0]].append(arc[1])
        pred[arc[1]].append(arc[0])
    number = [-1] * size
    for v in sources:
        number[v] = 0
    for v in targets:
        number[v] = 1
    mark = bytearray(size)
    for level, adjacency, seeds, stop in ((1, succ, sources, 1), (2, pred, targets, 0)):
        stack = list(seeds)
        while stack:
            v = stack.pop()
            if mark[v] == level - 1:
                mark[v] = level
                if number[v] != stop:
                    stack.extend(adjacency[v])
    vertices, ends, caps, tag = [], [], [], {}
    for arc in fact_arcs + unbounded_arcs:
        tail, head = arc[0], arc[1]
        if mark[tail] != 2 or mark[head] != 2 or number[head] == 0 or number[tail] == 1:
            continue
        for v in (head, tail):
            if number[v] < 0:
                number[v] = len(vertices) + 2
                vertices.append(v)
        ends += (number[head], number[tail])
        if len(arc) == 4:
            tag[len(caps)] = arc[2]
        caps.append(arc[3] if len(arc) == 4 else math.inf)
    net = flow.FlowNetwork("source", "target")
    net._add_numbered(vertices, ends, caps)
    return net, tag


def reference_local_network(db, spec):
    ro = automata.trim(automata.eps_nfa_to_ro(automaton_for(spec)))
    letter_arc, follow = {}, {}
    for src, label, dst in sorted(ro.transitions, key=str):
        if label is None:
            follow.setdefault(src, []).append(dst)
        else:
            letter_arc[label] = (src, dst)
    ids: dict = {}  # (node, state) -> vertex, numbered in order of first use
    fact_arcs = []
    for fact, m in db.entries:
        hit = letter_arc.get(fact.label)
        if hit is not None:
            tail = ids.setdefault((fact.tail, hit[0]), len(ids))
            head = ids.setdefault((fact.head, hit[1]), len(ids))
            fact_arcs.append((tail, head, (fact,), m))
    unbounded_arcs = [
        (v, w)
        for v, (node, state) in enumerate(ids)
        for nxt in follow.get(state, ())
        if (w := ids.get((node, nxt))) is not None
    ]
    return reference_product_network(
        len(ids), fact_arcs, unbounded_arcs,
        [v for v, (_, state) in enumerate(ids) if state in ro.initial],
        [v for v, (_, state) in enumerate(ids) if state in ro.final],
    )


def reference_bcl_network(db, spec):
    words = frozenset(automata.language_words(automaton_for(spec)))
    source_side, _ = classifier.bcl_analysis(words).bipartition
    singles = {w[0] for w in words if len(w) == 1}
    long_words = sorted(w for w in words if len(w) >= 2)
    long_labels = {letter for w in long_words for letter in w}
    fact_arcs, heads, by_label, by_label_tail = [], [], {}, {}
    for fact, m in db.entries:
        if fact.label in long_labels and fact.label not in singles:
            j = len(fact_arcs)
            fact_arcs.append((2 * j, 2 * j + 1, (fact,), m))
            heads.append(fact.head)
            by_label.setdefault(fact.label, []).append(j)
            by_label_tail.setdefault((fact.label, fact.tail), []).append(j)
    unbounded_arcs = []
    for w in long_words:
        forward = w[0] in source_side
        for x, y in zip(w, w[1:]):
            for j in by_label.get(x, ()):
                for k in by_label_tail.get((y, heads[j]), ()):
                    unbounded_arcs.append((2 * j + 1, 2 * k) if forward else (2 * k + 1, 2 * j))
    endpoints = sorted({w[0] for w in long_words} | {w[-1] for w in long_words})
    return reference_product_network(
        2 * len(fact_arcs), fact_arcs, unbounded_arcs,
        [2 * j for a in endpoints if a in source_side for j in by_label.get(a, ())],
        [2 * j + 1 for a in endpoints if a not in source_side for j in by_label.get(a, ())],
    )


def reference_submod_network(db, word, extra):
    level = {letter: k for k, letter in enumerate(word[:-1])}
    last = len(word) - 1
    ids: dict = {}  # (node, k), (node, "exit"), (node, "entry") -> vertex
    fact_arcs, into, out, out_last = [], {}, {}, {}
    for fact, m in db.entries:
        k = level.get(fact.label)
        if k is not None:
            tail = ids.setdefault((fact.tail, k), len(ids))
            head = ids.setdefault((fact.head, k + 1), len(ids))
            fact_arcs.append((tail, head, (fact,), m))
            if k + 1 == last:
                into.setdefault(fact.head, []).append(fact)
        elif fact.label == extra:
            out.setdefault(fact.tail, []).append(fact)
        elif fact.label == word[-1]:
            out_last.setdefault(fact.tail, []).append(fact)

    def cost(facts):
        return sum(db.mult(f) for f in facts)

    entries, exits = [], []
    for v in sorted(into):
        leaving = out.get(v, []) + out_last.get(v, [])
        if not leaving:
            continue
        cheaper = min(into[v], leaving, key=cost)
        exits.append(ids.setdefault((v, "exit"), len(ids)))
        fact_arcs.append((ids[v, last], exits[-1], tuple(cheaper), cost(cheaper)))
        if v in out:
            entries.append(ids.setdefault((v, "entry"), len(ids)))
            fact_arcs.append((entries[-1], ids[v, last], tuple(out[v]), cost(out[v])))
    return reference_product_network(
        len(ids), fact_arcs, [], [i for (_, k), i in ids.items() if k == 0] + entries, exits
    )


REFERENCE_CASES = [  # (language, letters, how it is solved, reference network)
    # local envelopes that keep an epsilon move
    ("ab|ad|cd", "abcd", "local", reference_local_network),
    ("ab|cb|cd", "abcd", "local", reference_local_network),
    # unreduced: arcs into initial and out of final states
    ("x*ab", "abx", "local", reference_local_network),
    ("ab*", "ab", "local", reference_local_network),
    ("x*ab|xx*c", "abcx", "local", reference_local_network),
    ("ab*|cbb*", "abc", "local", reference_local_network),
    # reduced local languages, as the dispatcher solves them
    ("ax*b", "abx", "local", reference_local_network),
    ("a(b|c)*d", "abcd", "local", reference_local_network),
    # backward-oriented words and single-letter words
    ("ab|bc", "abc", "bcl", reference_bcl_network),
    ("ab|bc|cd", "abcd", "bcl", reference_bcl_network),
    ("abc|cd|e", "abcde", "bcl", reference_bcl_network),
    ("abc|cd", "abcd", "bcl", reference_bcl_network),
    # plain and mirrored
    ("abc|be", "abce", "submod", lambda db, _: reference_submod_network(db, "abc", "e")),
    ("cba|eb", "abce", "submod",
     lambda db, _: reference_submod_network(graphdb.mirror_db(db), "abc", "e")),
]


def as_multigraph(net, tag):
    """A networkx multigraph of ``net``: each vertex marked source, target
    or inner, each edge labelled by its capacity and its facts."""
    nx = pytest.importorskip("networkx")
    G = nx.MultiDiGraph()
    G.add_nodes_from((v, {"role": min(v, 2)}) for v in range(len(net._index)))
    ends = net._ends
    G.add_edges_from(
        (ends[2 * k + 1], ends[2 * k], {"label": (cap, tag.get(k))})
        for k, cap in enumerate(net._caps)
    )
    return G


def same_network(net, tag, ref_net, ref_tag) -> bool:
    """Whether the networks are equal up to a renumbering of vertices that
    fixes the source and the target: edges map one to one onto edges of
    the same capacity and facts."""
    iso = pytest.importorskip("networkx.algorithms.isomorphism")
    return iso.is_isomorphic(
        as_multigraph(net, tag), as_multigraph(ref_net, ref_tag),
        node_match=iso.categorical_node_match("role", None),
        edge_match=iso.categorical_multiedge_match("label", None),
    )


@pytest.mark.parametrize("language, letters, method, reference", REFERENCE_CASES)
def test_reach_builder_matches_the_whole_product(language, letters, method, reference, monkeypatch):
    """Every reduction's network is the reference's up to a renumbering
    of vertices that fixes the source and the target, and has the
    reference's min-cut value and cut facts."""
    min_cut = flow.min_cut
    real_reach_network = solvers._reach_network
    tags = []

    def keep_tag(*args):
        net, tag = real_reach_network(*args)
        tags.append(tag)
        return net, tag

    monkeypatch.setattr(solvers, "_reach_network", keep_tag)
    networks = capture_networks(monkeypatch)
    rng = random.Random(language)
    solve = {
        "local": lambda db: solvers.resilience_local(db, language),
        "bcl": lambda db: solvers.resilience_bcl(db, language),
        "submod": lambda db: solvers.resilience(db, language, solver="submod"),
    }[method]
    mirrored = language == "cba|eb"
    unbounded = 0  # networks with an unbounded edge kept
    for _ in range(30):
        db = with_unused_labels(rng, random_db(rng, letters, max_facts=30, max_nodes=7))
        del networks[:], tags[:]
        got = solve(db)
        ref_net, ref_tag = reference(db, language)
        want = min_cut(ref_net)
        want_facts = {f for i in want.edge_indices for f in ref_tag[i]}
        if mirrored:
            want_facts = {Fact(f.head, f.label, f.tail) for f in want_facts}
        singles = {w for w in language.split("|") if len(w) == 1}
        forced = {f for f in db.facts() if f.label in singles}
        assert got.value == want.value + sum(db.mult(f) for f in forced)
        assert got.contingency == want_facts | forced
        [net], [tag] = networks, tags
        assert (len(net._index), len(net._caps)) == (len(ref_net._index), len(ref_net._caps))
        assert same_network(net, tag, ref_net, ref_tag), db.entries
        unbounded += math.inf in ref_net._caps
    # the epsilon moves of x*ab|xx*c enter an initial state and those of
    # ab*|cbb* leave a final one, so the merge drops them
    assert unbounded or not (language in ("ab|ad|cd", "ab|cb|cd") or method == "bcl")


def test_databases_are_not_kept_alive():
    db = graphdb.parse_db(
        "u a v\nv b w\nw c x\nw e y\np a q\nq b r\nr e s\nr c t\n"
    )
    ref = weakref.ref(db)
    assert solvers.resilience(db, "abc|be").method == "submod"
    del db
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# one language-side pass per resilience call


@pytest.mark.parametrize(
    "language, method", [("ax*b", "local"), ("ab|bc", "bcl"), ("abc|be", "submod")]
)
def test_resilience_analyses_the_language_once(language, method, monkeypatch):
    """One reduction, at most one enumeration and one locality search: the
    local solver reads the classifier's answer off the reduced DFA, and
    only the local solver builds a read-once envelope."""
    calls = {
        "reduce_regular": 0, "language_words": 0,
        "_entered_states_agree": 0, "eps_nfa_to_ro": 0,
    }
    for name in calls:

        def counting(*args, _real=getattr(automata, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(automata, name, counting)
    db = graphdb.parse_db("u a v\nv b w\nw c x\nw e y\nv x v\nx a u\n")
    assert solvers.resilience(db, language).method == method
    assert calls["reduce_regular"] == 1
    assert calls["language_words"] <= 1
    assert calls["_entered_states_agree"] == 1
    assert calls["eps_nfa_to_ro"] == (1 if method == "local" else 0)


def test_resilience_runs_the_bcl_analysis_once(monkeypatch):
    calls = []

    def counting(words, _real=classifier.bcl_analysis):
        calls.append(words)
        return _real(words)

    monkeypatch.setattr(classifier, "bcl_analysis", counting)
    db = graphdb.parse_db("u a v\nv b w\np b q\nq c r\n")
    answer = solvers.resilience(db, "ab|bc")
    assert (answer.value, answer.method) == (2, "bcl")
    assert len(calls) == 1
    assert answer == solvers.resilience_bcl(db, "ab|bc")


# ---------------------------------------------------------------------------
# BCL solver


def test_bcl_refuses_odd_cycle():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    with pytest.raises(SolverRefusal, match="odd cycle"):
        solvers.resilience_bcl(db, "ab|bc|ca")


def bcl_outcome(db, language):
    try:
        return solvers.resilience_bcl(db, language)
    except SolverRefusal as exc:
        return f"refused: {exc}"


def test_bcl_refuses_non_chain_specs():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    for bad in ("ax*b", "a(xz|xw)b", "axxb", minimize(automaton_for("axzb|ayzb"))):
        with pytest.raises(SolverRefusal):
            solvers.resilience_bcl(db, bad)


def test_bcl_on_an_automaton_enumerates_its_words():
    # the minimal DFA merges the two b-states; the words stay apart
    db = graphdb.parse_db("u a v\nv x w\nw b z\nu a p 2\np y q\nq b r\n")
    answer = solvers.resilience_bcl(db, minimize(automaton_for("axb|ayb")))
    assert answer == solvers.resilience_bcl(db, parse_words("axb\nayb"))
    assert answer.value == 2


def test_bcl_on_minimal_dfas_matches_word_lists():
    rng = random.Random(5)
    refused = solved = 0
    for _ in range(50):
        words = set()
        for _ in range(rng.randint(1, 3)):
            words.add(tuple(rng.sample("abcdefgh", rng.randint(1, 4))))
        db = random_db(rng, sorted({a for w in words for a in w}), max_facts=10)
        got = bcl_outcome(db, minimize(words_to_nfa(words)))
        assert got == bcl_outcome(db, words), words
        if isinstance(got, str):
            refused += 1
        else:
            solved += 1
    assert refused and solved


def test_bcl_refuses_repeated_letter():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    with pytest.raises(SolverRefusal):
        solvers.resilience_bcl(db, "aba")


def test_bcl_single_letter_words_are_forced():
    db = graphdb.parse_db("u a v 2\nx b y 3\n")
    answer = solvers.resilience_bcl(db, "a|b")
    assert answer.value == 5
    check_answer(db, "a|b", answer)


def test_bcl_two_words():
    db = graphdb.parse_db("u a v\nv b w\np b q\nq c r\n")
    answer = solvers.resilience_bcl(db, "ab|bc")
    assert answer.value == 2
    check_answer(db, "ab|bc", answer)


def test_bcl_matches_exact():
    rng = random.Random(12)
    for spec, letters in (
        ("ab|bc", "abc"),
        ("axyb|bztc|cd|dea", "abcdextz"),
        ("ab|cd", "abcd"),
    ):
        for _ in range(25):
            db = random_db(rng, letters, max_facts=6)
            got = solvers.resilience_bcl(db, spec)
            want = solvers.resilience_exact(db, spec)
            assert got.value == want.value, (spec, db.entries)
            check_answer(db, spec, got)


# ---------------------------------------------------------------------------
# submodular solver


def test_submod_rejects_malformed_patterns():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    with pytest.raises(SolverRefusal):
        solvers.resilience_submod(db, parse_word("a"), "e")  # word too short
    with pytest.raises(SolverRefusal):
        solvers.resilience_submod(db, parse_word("aba"), "e")
    with pytest.raises(SolverRefusal):
        solvers.resilience_submod(db, parse_word("abc"), "b")  # extra reused


def test_submod_simple():
    # abc|be: cutting the b-fact kills both words
    db = graphdb.parse_db("u a v\nv b w\nw c z\nv e q\n")
    answer = solvers.resilience_submod(db, parse_word("abc"), "e")
    want = solvers.resilience_exact(db, "abc|be")
    assert answer.value == want.value
    check_answer(db, "abc|be", answer)


def test_submod_matches_exact():
    rng = random.Random(88)
    for _ in range(30):
        db = random_db(rng, "abce", max_facts=6)
        got = solvers.resilience_submod(db, parse_word("abc"), "e")
        want = solvers.resilience_exact(db, "abc|be")
        assert got.value == want.value, db.entries
        if not math.isinf(got.value):
            check_answer(db, "abc|be", got)


SUBMOD_PATTERNS = (("ab", "e"), ("abc", "e"), ("abcd", "f"), ("abcde", "g"))


def junction_db(rng, word, extra, junctions, noise):
    """A random bag database for {word, word[-2] extra} whose junction
    nodes, those with a word[-2] fact in and an extra fact out, are
    exactly j0 ... j(junctions - 1).

    Each junction gets one word[-2] fact in and one extra fact out; the
    ``noise`` further distinct facts carry any letter.  Of the other
    nodes, only k0 and k1 have word[-2] facts in, and they have no extra
    facts out.
    """
    hubs = [f"j{i}" for i in range(junctions)]
    sinks = ["k0", "k1"]
    nodes = hubs + sinks + [f"n{i}" for i in range(5)]
    pool = {}
    for hub in hubs:
        pool[Fact(rng.choice(nodes), word[-2], hub)] = rng.randint(1, 3)
        pool[Fact(hub, extra, rng.choice(nodes))] = rng.randint(1, 3)
    while len(pool) < 2 * junctions + noise:
        label = rng.choice(word + extra)
        tails = [v for v in nodes if v not in sinks] if label == extra else nodes
        heads = hubs + sinks if label == word[-2] else nodes
        fact = Fact(rng.choice(tails), label, rng.choice(heads))
        pool.setdefault(fact, rng.randint(1, 3))
    return GraphDB.from_pairs(pool)


def local_pair(word):
    def solve(db):
        answer = solvers.resilience_local(db, [parse_word(word)])
        return answer.value, answer.contingency

    return solve


@pytest.mark.parametrize("word, extra", SUBMOD_PATTERNS)
def test_submod_matches_the_junction_enumeration(word, extra, monkeypatch):
    rng = random.Random(word)
    spec = f"{word}|{word[-2]}{extra}"
    mirrored = f"{word[::-1]}|{extra}{word[-2]}"
    cuts = capture_networks(monkeypatch)
    for junctions in (0, 1, 2, 3, 4, 5, 6, 8, 10, 10):
        db = junction_db(rng, word, extra, junctions, noise=24)
        assert len(db) > solvers.DEFAULT_EXACT_CAP
        want, _ = oracles.submod_enumeration(db, word, extra, local_pair(word))
        del cuts[:]
        got = solvers.resilience_submod(db, parse_word(word), extra)
        assert len(cuts) == 1
        assert got.value == want, (junctions, db.entries)
        check_answer(db, spec, got)
        flipped = graphdb.mirror_db(db)
        back = solvers.resilience(flipped, mirrored, solver="submod")
        assert back.value == want
        check_answer(flipped, mirrored, back)


def test_submod_enumeration_matches_exact():
    rng = random.Random(9)
    for word, extra in SUBMOD_PATTERNS:
        spec = f"{word}|{word[-2]}{extra}"
        for _ in range(10):
            db = junction_db(rng, word, extra, rng.randint(0, 3), noise=8)
            value, contingency = oracles.submod_enumeration(
                db, word, extra, local_pair(word)
            )
            assert value == solvers.resilience_exact(db, spec).value
            check_answer(db, spec, solvers.ResilienceAnswer(value, contingency, "enum"))


def test_submod_thousand_junctions_in_one_cut(monkeypatch):
    # a disjoint union of small components, each with at least one junction
    rng = random.Random(1000)
    pool = {}
    want = 0
    for i in range(1000):
        component = junction_db(rng, "abc", "e", 1, noise=5)
        renamed = GraphDB.from_pairs(
            (Fact(f"{f.tail}_{i}", f.label, f"{f.head}_{i}"), m)
            for f, m in component.entries
        )
        want += solvers.resilience_exact(renamed, "abc|be").value
        pool.update(renamed.entries)
    db = GraphDB.from_pairs(pool)
    junctions = {f.head for f in db.facts() if f.label == "b"} & {
        f.tail for f in db.facts() if f.label == "e"
    }
    assert len(junctions) >= 1000
    cuts = capture_networks(monkeypatch)
    answer = solvers.resilience_submod(db, parse_word("abc"), "e")
    assert len(cuts) == 1
    assert answer.value == want
    assert answer.value == sum(db.mult(f) for f in answer.contingency)


# ---------------------------------------------------------------------------
# dispatcher


def test_dispatch_routes_local():
    db = graphdb.parse_db("u a v\nv b w\n")
    assert solvers.resilience(db, "ax*b").method == "local"


def test_dispatch_routes_bcl():
    db = graphdb.parse_db("u a v\nv b w\n")
    assert solvers.resilience(db, "ab|bc").method == "bcl"


def test_dispatch_routes_submod():
    db = graphdb.parse_db("u a v\nv b w\nw c z\n")
    assert solvers.resilience(db, "abc|be").method == "submod"


def test_dispatch_routes_submod_mirrored():
    db = graphdb.parse_db("u a v\nv b w\nw c z\n")
    answer = solvers.resilience(db, "cba|eb")
    assert answer.method == "submod"
    want = solvers.resilience_exact(db, "cba|eb")
    assert answer.value == want.value
    check_answer(db, "cba|eb", answer)


def test_dispatch_hard_language_falls_back_to_exact():
    db = graphdb.parse_db("u a v\nv a w\n")
    answer = solvers.resilience(db, "aa")
    assert answer.method == "exact"
    assert answer.value == 1


def test_dispatch_hard_language_respects_fact_cap():
    db = GraphDB.from_facts(
        [Fact(f"u{i}", "a", f"v{i}") for i in range(30)]
    )
    with pytest.raises(ResourceCapError, match="NP_HARD"):
        solvers.resilience(db, "aa")


@pytest.mark.parametrize(
    "spec", ["aa|aab", "ab|bc|ca|abc", "axb|cxd|axbd", "b(aa)*d|bd", "abc|bcd|abcd"]
)
def test_dispatch_searches_the_reduced_dfa_of_a_hard_language(spec, monkeypatch):
    """Auto resilience of a hard language searches its reduced DFA, which
    has the same resilience and contingency sets; a direct exact call
    searches the automaton of the spec as given."""
    searched = []

    def recording(db, A, _real=graphdb.product):
        searched.append(A)
        return _real(db, A)

    monkeypatch.setattr(graphdb, "product", recording)
    rng = random.Random(f"reduced {spec}")
    letters = sorted(set(spec) - set("()|*"))
    for _ in range(60):
        db = random_db(rng, letters, max_facts=12, max_nodes=4, max_mult=3)
        searched.clear()
        answer = solvers.resilience(db, spec)
        direct = solvers.resilience_exact(db, spec)
        assert answer.method == "exact"
        assert answer.value == direct.value, (spec, db.entries)
        check_answer(db, spec, answer)
        auto_automaton, direct_automaton = searched
        assert automata.is_deterministic(auto_automaton)
        assert not automata.is_deterministic(direct_automaton)


def test_dispatch_searches_the_given_automaton_after_a_resource_cap():
    spec = "(a|b)*a(a|b)(a|b)(a|b)"
    analysis = classifier.analyse(spec, state_cap=8)
    assert analysis.verdict.status == classifier.UNKNOWN
    assert analysis.verdict.reason.startswith("resource cap")
    assert analysis.reduced is None
    rng = random.Random("capped")
    db = random_db(rng, "ab", max_facts=40, max_nodes=6, max_mult=3)
    while len(db) < 15 or len(db) > solvers.DEFAULT_EXACT_CAP:
        db = random_db(rng, "ab", max_facts=40, max_nodes=6, max_mult=3)
    answer = solvers.resilience(db, spec, state_cap=8)
    assert answer.method == "exact"
    assert answer.value == solvers.resilience_exact(db, spec).value > 0
    check_answer(db, spec, answer)


def test_dispatch_set_semantics():
    db = graphdb.parse_db("u a v 9\nv b w 5\n")
    assert solvers.resilience(db, "ab", semantics="set").value == 1
    assert solvers.resilience(db, "ab", semantics="bag").value == 5


def test_dispatch_validates_arguments():
    db = graphdb.parse_db("u a v\n")
    with pytest.raises(InputError):
        solvers.resilience(db, "a", semantics="fuzzy")
    with pytest.raises(InputError):
        solvers.resilience(db, "a", solver="quantum")


def test_dispatch_explicit_solver_bypasses_classification():
    db = graphdb.parse_db("u a v\n")
    answer = solvers.resilience(db, "a", solver="exact")
    assert answer.method == "exact"
    assert answer.value == 1


def test_mirrored_submod_answers_are_checked_on_originals():
    rng = random.Random(4)
    for _ in range(20):
        db = random_db(rng, "abce", max_facts=6)
        got = solvers.resilience(db, "cba|eb")
        want = solvers.resilience_exact(db, "cba|eb")
        assert got.value == want.value, db.entries
        if not math.isinf(got.value):
            check_answer(db, "cba|eb", got)
