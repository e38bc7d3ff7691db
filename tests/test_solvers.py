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
from rpqres import flow, graphdb, solvers
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


@pytest.mark.parametrize("language", sorted(PRUNED_CASES))
def test_networks_hold_only_useful_vertices(language, monkeypatch):
    networks = []
    real_min_cut = flow.min_cut

    def capture(net):
        networks.append(net)
        return real_min_cut(net)

    monkeypatch.setattr(flow, "min_cut", capture)
    letters, _ = PRUNED_CASES[language]
    rng = random.Random(language)
    for _ in range(10):
        db = random_db(rng, letters, max_facts=24, max_nodes=8)
        solvers.resilience(with_unused_labels(rng, db), language)
    assert networks
    for net in networks:
        vertices = {v for e in net.edges for v in (e.tail, e.head)}
        assert vertices <= on_some_path(net)


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
# word-list extraction


def x(text):
    return solvers.extract_word_list(automaton_for(text))


def test_extract_word_list_basics():
    assert x("ab|bc") == parse_words("ab\nbc")
    assert x("abc") == {parse_word("abc")}
    assert x("a") == {parse_word("a")}
    assert x("ab|a|~") == parse_words("ab\na\n~")
    # repeated endpoint letters still extract: the middle is empty
    assert x("aa") == {parse_word("aa")}
    assert x("(ab|ba)c") == parse_words("abc\nbac")


def test_extract_word_list_shared_suffix_state():
    # a minimal DFA merges the two b-states; extraction must still
    # tell the two middles apart
    m = minimize(automaton_for("axb|ayb"))
    assert solvers.extract_word_list(m) == parse_words("axb\nayb")


def test_extract_word_list_long_words():
    assert x("axyb|bztc") == parse_words("axyb\nbztc")


def test_extract_word_list_refusals():
    for bad in ("ax*b", "a(xz|xw)b", "axxb"):
        with pytest.raises(SolverRefusal):
            x(bad)
    # two middles reaching one minimal-DFA state must not be conflated
    with pytest.raises(SolverRefusal):
        solvers.extract_word_list(minimize(automaton_for("axzb|ayzb")))


def test_extract_word_list_roundtrip():
    rng = random.Random(5)
    letters = "abcdefgh"
    for _ in range(50):
        words = set()
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, 4)
            words.add(tuple(rng.sample(letters, k)))
        m = minimize(words_to_nfa(words))
        try:
            extracted = solvers.extract_word_list(m)
        except SolverRefusal:
            continue
        assert extracted == frozenset(words)


# ---------------------------------------------------------------------------
# BCL solver


def test_bcl_refuses_odd_cycle():
    db = GraphDB.from_facts([Fact("u", "a", "v")])
    with pytest.raises(SolverRefusal, match="odd cycle"):
        solvers.resilience_bcl(db, "ab|bc|ca")


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


def test_submod_zone_cap():
    facts = {}
    for i in range(25):
        facts[Fact(f"p{i}", "b", f"q{i}")] = 1
        facts[Fact(f"q{i}", "c", f"r{i}")] = 1
        facts[Fact(f"q{i}", "e", f"s{i}")] = 1
    db = GraphDB.from_pairs(facts)
    with pytest.raises(ResourceCapError):
        solvers.resilience_submod(db, parse_word("abc"), "e", z_cap=20)


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
