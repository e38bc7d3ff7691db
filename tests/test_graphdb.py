"""Databases, walks, and match enumeration."""

import pytest

import oracles
from rpqres import graphdb, lang
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


def test_witness_walk_simple():
    walk = graphdb.witness_walk(CHAIN, automaton_for("ax*b"))
    assert walk == (
        Fact("u", "a", "v"),
        Fact("v", "x", "w"),
        Fact("w", "b", "z"),
    )


def test_witness_walk_empty_word():
    assert graphdb.witness_walk(CHAIN, automaton_for("a*")) == ()


def test_witness_walk_absent():
    assert graphdb.witness_walk(CHAIN, automaton_for("ba")) is None


def test_witness_walk_uses_cycles():
    loop = db_of(("u", "a", "u"),)
    walk = graphdb.witness_walk(loop, automaton_for("aaa"))
    assert walk == (Fact("u", "a", "u"),) * 3


def test_satisfies_agrees_with_bruteforce():
    for text in ("ax*b", "ab", "ba", "a*", "xx"):
        m = automaton_for(text)
        assert graphdb.satisfies(CHAIN, m) == oracles.brute_satisfies(CHAIN, m)


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
