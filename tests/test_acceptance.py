"""The acceptance gate: ten criteria, exact comparisons throughout.

Each test prints one PASS line (visible with -v plus -s, or in failure
reports); a failing criterion fails its test.  Randomness is seeded, so
every run checks the same instances.
"""

import itertools
import math
import random

import oracles
from rpqres import classifier, flow, gadgets, solvers
from rpqres.automata import (
    accepts,
    automaton_for,
    eps_nfa_to_ro,
    is_equivalent,
    is_finite_language,
    is_local_language,
    is_neutral_letter,
    language_words,
    reduce_regular,
)
from rpqres.graphdb import Fact, GraphDB
from rpqres.lang import parse_word


def random_db(rng, letters, max_facts, max_nodes=5, max_mult=5):
    nodes = [f"n{i}" for i in range(max_nodes)]
    pool = {}
    for _ in range(rng.randint(1, max_facts)):
        fact = Fact(rng.choice(nodes), rng.choice(letters), rng.choice(nodes))
        pool.setdefault(fact, rng.randint(1, max_mult))
    return GraphDB.from_pairs(pool)


# ---------------------------------------------------------------------------


def test_criterion_01_local_solver_oracle_equivalence():
    rng = random.Random(101)
    specs = ("ax*b", "ab|ad|cd", "a|b")
    checked = 0
    for _ in range(100):
        db = random_db(rng, "abcdx", max_facts=8)
        for spec in specs:
            got = solvers.resilience_local(db, spec).value
            want = solvers.resilience_exact(db, spec).value
            assert got == want, (spec, db.entries, got, want)
            checked += 1
    print(
        f"criterion 1: PASS - local solver equals exhaustive search on"
        f" {checked} instances"
    )


def test_criterion_02_min_cut_correspondence():
    rng = random.Random(202)
    nodes = ["s", "t", "u", "v", "w", "x"]
    for trial in range(25):
        net = flow.FlowNetwork("s", "t")
        for _ in range(rng.randint(1, 10)):
            tail, head = rng.sample(nodes, 2)
            net.add_edge(tail, head, rng.randint(1, 9))

        big = sum(e.capacity for e in net.edges) + 1
        pool = {Fact("src", "a", "n_s"): big, Fact("n_t", "b", "tgt"): big}
        for e in net.edges:
            fact = Fact(f"n_{e.tail}", "x", f"n_{e.head}")
            pool[fact] = pool.get(fact, 0) + e.capacity
        db = GraphDB.from_pairs(pool)

        answer = solvers.resilience(db, "ax*b")
        cut = flow.min_cut(net)
        assert answer.value == cut.value, (trial, net.dump())
    print("criterion 2: PASS - ax*b resilience equals min cut on 25 networks")


def test_criterion_03_bcl_solver_oracle_equivalence():
    rng = random.Random(303)
    cases = (("ab|bc", "abc"), ("axyb|bztc|cd|dea", "abcdetxyz"))
    checked = 0
    for spec, letters in cases:
        for _ in range(100):
            db = random_db(rng, letters, max_facts=8)
            got = solvers.resilience_bcl(db, spec).value
            want = solvers.resilience_exact(db, spec).value
            assert got == want, (spec, db.entries, got, want)
            checked += 1
    print(
        f"criterion 3: PASS - BCL solver equals exhaustive search on"
        f" {checked} instances"
    )


def _zone_objective(db, word, extra, zone):
    """The set function minimized by the two-word solver."""
    a_prev, a_last = word[-2], word[-1]
    total = 0
    kept = {}
    for fact, mult in db.entries:
        if fact.label == a_prev and fact.head in zone:
            total += mult
        if fact.label == extra and fact.tail not in zone:
            total += mult
        if not (fact.label == a_last and fact.tail in zone):
            kept[fact] = mult
    rest = solvers.resilience_local(GraphDB.from_pairs(kept), [word])
    return total + rest.value


def test_criterion_04_submod_solver_oracle_equivalence():
    rng = random.Random(404)
    cases = (("abc|be", parse_word("abc"), "e"), ("abcd|ce", parse_word("abcd"), "e"))
    checked = 0
    for spec, word, extra in cases:
        letters = "".join(sorted(set(spec) - {"|"}))
        for _ in range(100):
            db = random_db(rng, letters, max_facts=8)
            got = solvers.resilience_submod(db, word, extra).value
            want = solvers.resilience_exact(db, spec).value
            assert got == want, (spec, db.entries, got, want)
            checked += 1

    # the zone objective is submodular: checked on every chain A <= B, v
    violations = 0
    for spec, word, extra in cases:
        letters = "".join(sorted(set(spec) - {"|"}))
        for _ in range(6):
            db = random_db(rng, letters, max_facts=8, max_nodes=6)
            adom = sorted(db.adom())
            assert len(adom) <= 6
            value = {}
            for r in range(len(adom) + 1):
                for combo in itertools.combinations(adom, r):
                    value[frozenset(combo)] = _zone_objective(
                        db, word, extra, frozenset(combo)
                    )
            for b_set in value:
                for a_size in range(len(b_set) + 1):
                    for a_tuple in itertools.combinations(sorted(b_set), a_size):
                        a_set = frozenset(a_tuple)
                        for v in adom:
                            if v in b_set:
                                continue
                            gain_a = value[a_set | {v}] - value[a_set]
                            gain_b = value[b_set | {v}] - value[b_set]
                            if gain_a < gain_b:
                                violations += 1
    assert violations == 0
    print(
        f"criterion 4: PASS - submod solver equals exhaustive search on"
        f" {checked} instances; zero submodularity violations"
    )


def test_criterion_05_classification_regression():
    expected = {
        "PTIME": ["ax*b", "ab|ad|cd", "abc|abd", "abc|be", "abcd|ce", "ab|bc", "axb|byc"],
        "NP_HARD": [
            "aaaa", "aa", "abca|cab", "axb|cxd", "b(aa)*d",
            "ax*b|cxd", "ab|bc|ca", "abc|be|ef", "abcd|bef",
        ],
        "UNKNOWN": ["abcd|be", "abc|bcd", "abc|bef", "ax*b|xd"],
    }
    for status, texts in expected.items():
        for text in texts:
            verdict = classifier.classify(text)
            assert verdict.status == status, (text, verdict)
    total = sum(len(v) for v in expected.values())
    print(f"criterion 5: PASS - all {total} named languages classify as listed")


def test_criterion_06_builtin_gadget_validation():
    g = gadgets.builtin_gadgets()["aa"]
    report_aa = gadgets.validate_gadget(g, "aa")
    assert report_aa.valid
    assert report_aa.odd_path_length == 5
    # for aaa the completed gadget has exactly three matches, so a
    # five-edge path is out of reach; the valid odd path has length 3
    report_aaa = gadgets.validate_gadget(g, "aaa")
    assert report_aaa.valid
    assert report_aaa.odd_path_length == 3
    print(
        "criterion 6: PASS - aa gadget valid for aa (odd path length 5)"
        " and aaa (odd path length 3)"
    )


def test_criterion_07_hardness_roundtrip():
    g = gadgets.builtin_gadgets()["aa"]
    triangle = [("u", "v"), ("v", "w"), ("u", "w")]
    db = gadgets.encode_graph(triangle, g, vertices=("u", "v", "w"))
    assert solvers.resilience_exact(db, "aa", fact_cap=len(db)).value == 8
    assert gadgets.hardness_roundtrip("aa", g, triangle)

    rng = random.Random(707)
    names = ["p", "q", "r", "s", "t"]
    for trial in range(10):
        edges = sorted(
            {
                tuple(sorted(rng.sample(names, 2)))
                for _ in range(rng.randint(1, 6))
            }
        )
        assert gadgets.hardness_roundtrip("aa", g, edges), (trial, edges)
    print(
        "criterion 7: PASS - triangle encoding costs 8; formula holds on"
        " 10 random graphs"
    )


def test_criterion_08_condensation_preserves_hitting_sets():
    g = gadgets.builtin_gadgets()["aa"]
    replayed = 0
    for text in ("aa", "aaa"):
        report = gadgets.validate_gadget(g, text)
        assert report.valid
        for step in report.steps:
            before = oracles.brute_hitting_set(step.edges_before)
            after = oracles.brute_hitting_set(step.edges_after)
            assert before == after, (text, step.rule)
            replayed += 1
    assert replayed > 0  # the aaa validation does apply rules
    print(
        f"criterion 8: PASS - minimum hitting set unchanged across"
        f" {replayed} logged rule applications"
    )


def _random_regex(rng, depth, leaves=("a", "b", "c", "~")):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    shape = rng.random()
    left = _random_regex(rng, depth - 1, leaves)
    right = _random_regex(rng, depth - 1, leaves)
    if shape < 0.4:
        return f"({left})({right})"
    if shape < 0.8:
        return f"({left})|({right})"
    return f"({left})*"


def test_criterion_09_read_once_construction_laws():
    rng = random.Random(909)
    probes = [
        tuple(p)
        for n in range(7)
        for p in itertools.product("abc", repeat=n)
    ]
    locals_seen = 0
    for _ in range(200):
        text = _random_regex(rng, 4)
        m = automaton_for(text)
        ro = eps_nfa_to_ro(m)
        mismatch = False
        for word in probes:
            in_m = accepts(m, word)
            in_ro = accepts(ro, word)
            assert not in_m or in_ro, (text, word)  # always an overapproximation
            mismatch = mismatch or (in_m != in_ro)
        local = is_local_language(m)
        assert local == is_equivalent(m, ro), text
        if mismatch:
            assert not local, (text, "differs on a short word yet claimed local")
        if local:
            locals_seen += 1
            assert all(accepts(m, word) == accepts(ro, word) for word in probes)
        if is_finite_language(m):
            words = frozenset(language_words(m))
            assert (oracles.letter_cartesian_counterexample(words) is None) == local, text
            assert oracles.brute_letter_cartesian(words) == local, text
    print(
        f"criterion 9: PASS - 200 regexes obey both construction laws"
        f" ({locals_seen} recognized local)"
    )


def test_criterion_10_reduction_laws():
    rng = random.Random(1010)
    samples = ["a|ab", "ax*b", "ab|bc", "aa|a", "e*be*ce*|e*de*fe*"]
    samples += [_random_regex(rng, 3) for _ in range(20)]
    for text in samples:
        m = automaton_for(text)
        reduced = reduce_regular(m)
        assert is_equivalent(reduce_regular(reduced), reduced), text
        letters = sorted(m.alphabet)
        if letters:
            for _ in range(8):
                db = random_db(rng, letters, max_facts=6, max_mult=1)
                assert oracles.brute_satisfies(db, m) == oracles.brute_satisfies(
                    db, reduced
                ), (text, db.entries)

    dicho = automaton_for("e*be*ce*|e*de*fe*")
    assert is_equivalent(reduce_regular(dicho), automaton_for("be*c|de*f"))
    assert is_neutral_letter(dicho, "e")
    verdict = classifier.classify(dicho)
    assert verdict.status == classifier.NP_HARD
    assert verdict.reason == "neutral letter dichotomy"
    assert verdict.witness["letter"] == "e"
    assert verdict.witness["four_legged"] == {
        "letter": "e",
        "before1": "b",
        "after1": "c",
        "before2": "d",
        "after2": "f",
    }
    print(
        "criterion 10: PASS - reduction idempotent, query-equivalent, and"
        " the neutral-letter dichotomy case classifies hard"
    )
