"""Databases, walks, and match enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rpqres import automata, graphdb, lang
from rpqres.automata import automaton_for
from rpqres.errors import InputError
from rpqres.graphdb import Fact, GraphDB


def db_of(*triples, mults=None):
    facts = [Fact(*t) for t in triples]
    if mults is None:
        return GraphDB.from_facts(facts)
    return GraphDB.from_pairs(zip(facts, mults))


CHAIN = db_of(("u", "a", "v"), ("v", "x", "w"), ("w", "b", "z"))


def test_from_pairs_merges_nothing():
    with pytest.raises(InputError):
        GraphDB.from_pairs([(Fact("u", "a", "v"), 1), (Fact("u", "a", "v"), 2)])


def test_multiplicity_validation():
    with pytest.raises(InputError):
        GraphDB.from_pairs([(Fact("u", "a", "v"), 0)])
    with pytest.raises(InputError):
        GraphDB.from_pairs([(Fact("u", "a", "v"), -3)])


def test_multiplicity_refuses_bools():
    for flag in (True, False):
        with pytest.raises(InputError, match="positive integer"):
            GraphDB.from_pairs({("a", "x", "b"): flag})


def test_constructors_keep_the_facts_they_are_given():
    fact = Fact("u", "a", "v")
    assert GraphDB.from_facts([fact]).entries[0][0] is fact
    assert GraphDB.from_pairs({fact: 2}).entries[0][0] is fact
    built = GraphDB.from_facts([("v", "b", "w")]).entries[0][0]
    assert type(built) is Fact and built == ("v", "b", "w")


def test_constructors_check_fact_fields():
    # each field must be one token of the text format, so serialize_db
    # writes what parse_db reads back
    for facts in (
        [("a b", "x", "c")], [(1, "y", 2), ("a", "b", "c")], [("a", "b")], ["abc"], [5]
    ):
        with pytest.raises(InputError, match="three fields"):
            GraphDB.from_facts(facts)
    with pytest.raises(InputError):
        GraphDB.from_pairs({Fact("u", "a#", "v"): 2})


def test_basic_accessors():
    db = db_of(("u", "a", "v"), ("v", "b", "w"), mults=(2, 5))
    assert db.mult(Fact("u", "a", "v")) == 2
    with pytest.raises(KeyError):
        db.mult(Fact("x", "a", "y"))
    assert db.adom() == frozenset({"u", "v", "w"})
    assert db.total_multiplicity() == 7
    assert len(db) == 2
    assert Fact("v", "b", "w") in db


def test_lookup_maps_are_built_on_first_use():
    db = graphdb.parse_db("u a v 2\nv b w\n")
    rest = db.without([Fact("v", "b", "w")])
    # parsing and deriving databases leave the lookup maps unbuilt
    assert not {"_mults", "_adom"} & (vars(db).keys() | vars(rest).keys())
    assert Fact("u", "a", "v") in rest
    assert rest.mult(Fact("u", "a", "v")) == 2
    assert "_mults" in vars(rest)


def test_without_and_unit():
    db = db_of(("u", "a", "v"), ("v", "b", "w"), mults=(2, 5))
    rest = db.without([Fact("u", "a", "v")])
    assert rest.facts() == (Fact("v", "b", "w"),)
    assert db.with_unit_multiplicities().total_multiplicity() == 2


def test_parse_serialize_roundtrip():
    text = "u a v\nv x w 3\nw b z\n"
    db = graphdb.parse_db(text)
    assert db.mult(Fact("v", "x", "w")) == 3
    assert graphdb.parse_db(graphdb.serialize_db(db)).entries == db.entries


def test_parse_db_diagnostics():
    with pytest.raises(InputError, match="line 2"):
        graphdb.parse_db("u a v\nu a\n")
    with pytest.raises(InputError, match="multiplicity"):
        graphdb.parse_db("u a v 0\n")
    with pytest.raises(InputError, match="duplicate"):
        graphdb.parse_db("u a v\nu a v 2\n")


def test_parse_db_reports_the_first_bad_line():
    with pytest.raises(InputError, match="^line 2: bad multiplicity 'x'$"):
        graphdb.parse_db("u a v\nu a w x\nu a\nu a v\n")
    with pytest.raises(InputError, match="^line 3: expected"):
        graphdb.parse_db("# header\n\nu a v w 1\nu a w x\n")


def test_parse_db_reports_a_repeated_fact_before_its_multiplicity():
    with pytest.raises(InputError) as info:
        graphdb.parse_db("u a v\nu a v 0\n")
    assert str(info.value) == (
        "line 2: duplicate fact u a v (state the multiplicity once)"
    )


# database texts in the shapes the format allows and the ways it goes
# wrong: few names, so facts repeat; any whitespace between fields; every
# line break that str.splitlines honours; comments and blank lines
NAMES = st.sampled_from(["u", "v", "w", "a", "b"])
MULTS = st.sampled_from([
    "1", "2", "3", "+3", "1_000", str(2**64 - 1),
    "2", "3", "+3", "1_000",
    "0", "-1", "x", "2**64", str(2**64),
])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\xa0", " \t"])
BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028", "\x1e"])


@st.composite
def db_lines(draw):
    kind = draw(st.sampled_from(["fact"] * 6 + ["comment", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\xa0"]))
    if kind == "comment":
        return "#" + draw(st.sampled_from(["", " u a v", "#", " x y"]))
    size = draw(st.sampled_from([3, 3, 3, 4, 4, 5]))
    fields = [draw(NAMES) for _ in range(3)] + [draw(MULTS) for _ in range(size - 3)]
    line = fields[0]
    for field in fields[1:]:
        line += draw(SEPARATORS) + field
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(
        st.sampled_from(["", "", " ", "# note", " #u a v 2"])
    )


@st.composite
def db_texts(draw):
    text = ""
    for line in draw(st.lists(db_lines(), max_size=8)):
        text += line + draw(BREAKS)
    return text[: -1] if text and draw(st.booleans()) else text


@given(db_texts())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_parse_db_matches_the_two_pass_reference(text):
    try:
        expected = oracles.two_pass_parse_db(text)
    except ValueError as exc:
        with pytest.raises(InputError) as info:
            graphdb.parse_db(text)
        assert str(info.value) == str(exc)
    else:
        entries = graphdb.parse_db(text).entries
        assert entries == expected
        assert all(type(f) is Fact and type(m) is int for f, m in entries)


def test_serialize_is_sorted_and_stable():
    db = db_of(("z", "a", "y"), ("a", "b", "c"))
    assert graphdb.serialize_db(db) == "a b c\nz a y\n"


def test_mirror_db():
    db = db_of(("u", "a", "v"), mults=(4,))
    m = graphdb.mirror_db(db)
    assert m.facts() == (Fact("v", "a", "u"),)
    assert m.mult(Fact("v", "a", "u")) == 4
    assert graphdb.mirror_db(m).entries == db.entries


# ---------------------------------------------------------------------------
# walks and satisfaction


def walk_of(db, spec):
    return graphdb.witness_walk(graphdb.product(db, automaton_for(spec)))


def test_witness_walk_simple():
    walk = walk_of(CHAIN, "ax*b")
    assert walk == (
        Fact("u", "a", "v"),
        Fact("v", "x", "w"),
        Fact("w", "b", "z"),
    )


def test_witness_walk_empty_word():
    assert walk_of(CHAIN, "a*") == ()


def test_witness_walk_absent():
    assert walk_of(CHAIN, "ba") is None


def test_witness_walk_uses_cycles():
    loop = db_of(("u", "a", "u"),)
    walk = walk_of(loop, "aaa")
    assert walk == (Fact("u", "a", "u"),) * 3


def test_witness_walk_agrees_with_bruteforce():
    for text in ("ax*b", "ab", "ba", "a*", "xx"):
        m = automaton_for(text)
        assert (walk_of(CHAIN, text) is not None) == oracles.brute_satisfies(CHAIN, m)


def random_db(rng, letters, max_facts=12, max_nodes=5):
    nodes = [f"n{i}" for i in range(rng.randint(1, max_nodes))]
    return db_of(*{
        (rng.choice(nodes), rng.choice(letters), rng.choice(nodes))
        for _ in range(rng.randint(0, max_facts))
    })


def is_accepted_walk(walk, A):
    heads_meet = all(f.head == g.tail for f, g in zip(walk, walk[1:]))
    return heads_meet and automata.accepts(A, tuple(f.label for f in walk))


@pytest.mark.parametrize("spec", ["ax*b", "aa", "(ab)*a", "ab|bc|ca"])
def test_masked_walk_is_the_walk_on_the_sub_database(spec):
    A = automaton_for(spec)
    rng = random.Random(spec)
    for _ in range(60):
        db = random_db(rng, "abcx")
        prod = graphdb.product(db, A)
        facts = db.facts()
        for _ in range(8):
            mask = rng.getrandbits(len(facts)) if facts else 0
            rest = db.without(f for i, f in enumerate(facts) if mask >> i & 1)
            walk = graphdb.witness_walk(prod, mask)
            assert walk == walk_of(rest, spec)
            assert (walk is not None) == oracles.brute_satisfies(rest, A)
            if walk is not None:
                assert set(walk) <= set(rest.facts())
                assert is_accepted_walk(walk, A)


def test_masks_reach_past_64_facts():
    # 70 facts that no walk uses sort before the two that form the match
    db = db_of(*[(f"u{i:02}", "b", f"v{i:02}") for i in range(70)],
               ("z0", "a", "z1"), ("z1", "a", "z2"))
    prod = graphdb.product(db, automaton_for("aa"))
    assert prod.facts.index(Fact("z1", "a", "z2")) == 71
    assert graphdb.witness_walk(prod, (1 << 70) - 1) == (
        Fact("z0", "a", "z1"), Fact("z1", "a", "z2")
    )
    assert graphdb.witness_walk(prod, 1 << 71) is None


def test_product_keeps_only_pairs_that_reach_a_final_pair():
    # the a fact into q starts a walk that no b fact finishes
    dead_end = Fact("p", "a", "q")
    db = db_of(("u", "a", "v"), ("v", "x", "w"), ("w", "b", "z"), dead_end)
    prod = graphdb.product(db, automaton_for("ax*b"))
    kept = set(range(len(prod.arcs)))
    pred = {}
    for p, arcs in enumerate(prod.arcs):
        for bit, fact, q in arcs:
            assert q in kept
            assert bit == 1 << fact
            assert prod.facts[fact] != dead_end
            pred.setdefault(q, []).append(p)
    finals = [p for p, final in enumerate(prod.final) if final]
    assert automata.reach(pred, finals) == kept
    assert all(not prod.arcs[p] for p in finals)


# ---------------------------------------------------------------------------
# match enumeration


def test_enumerate_matches_fact_sets():
    db = db_of(("u", "a", "v"), ("v", "a", "u"))
    matches = graphdb.enumerate_matches(db, {lang.parse_word("aa")})
    # aa walks: u->v->u, v->u->v; both use the same two facts
    assert len(matches) == 1
    assert matches[0].facts == frozenset(db.facts())


def test_enumerate_matches_walks_can_repeat_facts():
    loop = db_of(("u", "a", "u"),)
    matches = graphdb.enumerate_matches(loop, {lang.parse_word("aa")})
    assert len(matches) == 1
    assert matches[0].facts == frozenset(loop.facts())
    assert len(matches[0].walk) == 2


def test_enumerate_matches_is_sorted_and_deduplicated():
    db = db_of(("u", "a", "v"), ("w", "a", "v"), ("x", "b", "y"))
    matches = graphdb.enumerate_matches(db, {lang.parse_word("a"), lang.parse_word("b")})
    fact_sets = [m.facts for m in matches]
    assert fact_sets == sorted(fact_sets, key=lambda s: tuple(sorted(s)))
    assert len(fact_sets) == len(set(fact_sets))
    assert len(matches) == 3


def test_enumerate_matches_skips_empty_word():
    # the empty walk uses no facts, so it never forms a match
    assert graphdb.enumerate_matches(CHAIN, {()}) == []
    only_a = graphdb.enumerate_matches(CHAIN, {(), ("a",)})
    assert [m.facts for m in only_a] == [frozenset({Fact("u", "a", "v")})]


def recursive_matches(db, language):
    """The recursive enumeration that ``enumerate_matches`` replaces."""
    found = {}

    def extend(word, path):
        if len(path) == len(word):
            found.setdefault(frozenset(path), tuple(path))
            return
        for fact in db.facts():
            if fact.label == word[len(path)] and (not path or path[-1].head == fact.tail):
                extend(word, path + [fact])

    for word in sorted(frozenset(language)):
        if word:
            extend(word, [])
    return sorted(found.items(), key=lambda item: tuple(sorted(item[0])))


def test_enumerate_matches_keeps_the_recursive_walks():
    rng = random.Random(5)
    for letters, word_letters in (("ab", "ab"), ("abc", "abcd")):
        for _ in range(150):
            db = random_db(rng, letters, max_facts=8, max_nodes=4)
            words = {
                tuple(rng.choice(word_letters) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            }
            matches = graphdb.enumerate_matches(db, words)
            assert [(m.facts, m.walk) for m in matches] == recursive_matches(db, words)


def spelling_nodes(db, word):
    """For each position k, the nodes where some walk spelling word[:k]
    ends and some walk spelling word[k:] starts, by plain reachability."""
    def step(nodes, letter, forward):
        return {
            (f.head if forward else f.tail)
            for f in db.facts()
            if f.label == letter and (f.tail if forward else f.head) in nodes
        }

    ends = [{f.tail for f in db.facts() if f.label == word[0]}]
    for letter in word:
        ends.append(step(ends[-1], letter, True))
    starts = [{f.head for f in db.facts() if f.label == word[-1]}]
    for letter in reversed(word):
        starts.append(step(starts[-1], letter, False))
    starts.reverse()
    return [e & s for e, s in zip(ends, starts)]


def test_word_nodes_are_exactly_the_nodes_on_a_spelling_walk():
    rng = random.Random(6)
    for _ in range(300):
        db = random_db(rng, "abc", max_facts=10, max_nodes=5)
        word = tuple(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        graph = graphdb._LabelGraph(db.facts())
        assert graphdb._word_nodes(graph, word) == spelling_nodes(db, word), (db, word)


LONG = 3000


def long_chain():
    """One 3,000-letter word along a 3,000-fact chain: every fact starts a
    walk, but only the first one reaches the end."""
    return [(f"c{i:04}", "a", f"c{i + 1:04}") for i in range(LONG)], ("a",) * LONG


def cycle_behind_one_start():
    """Only one fact starts the word; the rest of it could be spelt from
    every node of the cycle."""
    cycle = [(f"c{i:04}", "b", f"c{(i + 1) % LONG:04}") for i in range(LONG)]
    return cycle + [("s", "a", "c0000")], ("a",) + ("b",) * (LONG - 1)


def cycle_before_one_end():
    """Every fact of the cycle starts the word, but only one fact ends it."""
    cycle = [(f"c{i:04}", "a", f"c{(i + 1) % LONG:04}") for i in range(LONG)]
    return cycle + [("c0000", "b", "t")], ("a",) * (LONG - 1) + ("b",)


@pytest.mark.parametrize("shape", [long_chain, cycle_behind_one_start, cycle_before_one_end])
def test_enumerate_matches_one_long_walk(shape):
    triples, word = shape()
    db = db_of(*triples)
    matches = graphdb.enumerate_matches(db, {word})
    assert len(matches) == 1
    (match,) = matches
    assert tuple(f.label for f in match.walk) == word
    assert all(f.head == g.tail for f, g in zip(match.walk, match.walk[1:]))
    assert match.facts == frozenset(match.walk)


def test_enumerate_matches_long_words():
    n = 1200  # past the interpreter's default recursion limit
    chain = db_of(*[(f"n{i}", "a", f"n{i + 1}") for i in range(n)])
    matches = graphdb.enumerate_matches(chain, {("a",) * n})
    assert len(matches) == 1
    assert matches[0].walk == tuple(sorted(chain.facts(), key=lambda f: int(f.tail[1:])))
