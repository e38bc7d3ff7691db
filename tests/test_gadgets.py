"""Gadget validation: hypergraphs, condensation, encodings, round-trips."""

import json
import random

import pytest

import oracles
from rpqres import automata, gadgets, lang
from rpqres.errors import InputError, ResourceCapError
from rpqres.gadgets import (
    MatchHypergraph,
    PreGadget,
    build_match_hypergraph,
    builtin_gadgets,
    completion,
    condense,
    encode_graph,
    hardness_roundtrip,
    load_gadget,
    parse_graph,
    save_gadget,
    subdivide,
    validate_gadget,
    vertex_cover_bruteforce,
)
from rpqres.graphdb import Fact, GraphDB
from rpqres.solvers import resilience_exact


AA = builtin_gadgets()["aa"]


def words(text):
    return lang.parse_words(text)


# ---------------------------------------------------------------------------
# pre-gadgets and completion


def test_builtin_catalog():
    catalog = builtin_gadgets()
    assert set(catalog) == {"aa", "aaa"}
    assert catalog["aa"].db.entries == catalog["aaa"].db.entries
    assert len(catalog["aa"].db) == 4


def test_pregadget_validation():
    db = GraphDB.from_facts([Fact("t_in", "a", "n1")])
    with pytest.raises(InputError, match="distinct"):
        PreGadget(db, "t_in", "t_in", "a")  # endpoints must differ
    with pytest.raises(InputError, match="distinct"):
        PreGadget(db=db, t_in="t_in", t_out="t_in", label="a")
    with pytest.raises(InputError):
        PreGadget(db, "t_in", "zzz", "a")  # t_out outside the domain
    with pytest.raises(InputError):
        PreGadget(db, "n1", "t_in", "a")  # t_in occurs as a head
    bag = GraphDB.from_pairs({Fact("t_in", "a", "n1"): 2})
    with pytest.raises(InputError):
        PreGadget(bag, "t_in", "n1", "a")  # set semantics only


def test_completion_adds_two_fresh_facts():
    completed, f_in, f_out = completion(AA)
    assert len(completed) == len(AA.db) + 2
    assert f_in.head == "t_in" and f_out.head == "t_out"
    assert f_in.label == "a" == f_out.label
    assert f_in.tail not in AA.db.adom()
    assert f_out.tail not in AA.db.adom()
    assert f_in.tail != f_out.tail


def test_completion_avoids_name_clashes():
    db = GraphDB.from_facts([Fact("s_in", "a", "n1"), Fact("t_in", "a", "n1")])
    g = PreGadget(db, "t_in", "s_in", "a")
    completed, f_in, _ = completion(g)
    assert f_in.tail != "s_in"
    assert len(completed) == 4


# ---------------------------------------------------------------------------
# hypergraph of matches


def test_aa_hypergraph_shape():
    completed, f_in, f_out = completion(AA)
    H = build_match_hypergraph(completed, words("aa"), f_in, f_out)
    assert len(H.vertices) == 6
    assert len(H.edges) == 5
    assert all(len(e) == 2 for e in H.edges)
    assert f_in in H.vertices and f_out in H.vertices


def test_hypergraph_validation():
    f = Fact("u", "a", "v")
    for vertices, edges, message in (
        (frozenset({f}), frozenset({frozenset()}), "non-empty"),
        (frozenset(), frozenset({frozenset({f})}), "within the vertex set"),
    ):
        with pytest.raises(InputError, match=message):
            MatchHypergraph(vertices, edges)
        with pytest.raises(InputError, match=message):
            MatchHypergraph(vertices=vertices, edges=edges, f_in=f)


def test_incident():
    f, g = Fact("u", "a", "v"), Fact("v", "a", "w")
    H = MatchHypergraph(
        frozenset({f, g}), frozenset({frozenset({f, g}), frozenset({f})})
    )
    assert len(H.incident(f)) == 2
    assert len(H.incident(g)) == 1


# ---------------------------------------------------------------------------
# condensation


def test_aa_condenses_with_no_rules():
    completed, f_in, f_out = completion(AA)
    H = build_match_hypergraph(completed, words("aa"), f_in, f_out)
    result = condense(H, protected=frozenset({f_in, f_out}))
    assert result.status == "path"
    assert result.steps == ()
    assert len(result.edges) == 5


def test_aaa_condenses_via_node_domination():
    completed, f_in, f_out = completion(AA)
    H = build_match_hypergraph(completed, words("aaa"), f_in, f_out)
    result = condense(H, protected=frozenset({f_in, f_out}))
    assert result.status == "path"
    assert len(result.edges) == 3
    assert any(step.rule == "node-domination" for step in result.steps)


def test_edge_domination_drops_supersets():
    f, g, h = Fact("u", "a", "v"), Fact("v", "a", "w"), Fact("w", "a", "x")
    H = MatchHypergraph(
        frozenset({f, g, h}),
        frozenset({frozenset({f, g}), frozenset({f, g, h}), frozenset({f})}),
    )
    result = condense(H)
    kept = result.edges
    assert frozenset({f, g, h}) not in kept
    assert frozenset({f, g}) not in kept
    assert frozenset({f}) in kept


def _step(step) -> tuple:
    return (
        step.rule, step.removed, step.dominator,
        step.vertices_before, step.edges_before,
        step.vertices_after, step.edges_after,
    )


def test_edge_domination_in_one_pass_matches_the_restarting_scan():
    rng = random.Random(400)
    removals = 0
    for _ in range(400):
        facts = [Fact(f"n{i}", "a", f"n{i + 1}") for i in range(rng.randint(2, 7))]
        edges = {
            frozenset(rng.sample(facts, rng.randint(1, min(4, len(facts)))))
            for _ in range(rng.randint(1, 12))
        }
        vertices = frozenset(facts)
        steps, reference = [], []
        kept = gadgets._edge_domination(vertices, frozenset(edges), steps)
        assert kept == oracles.restarting_edge_domination(vertices, edges, reference)
        assert list(map(_step, steps)) == reference
        removals += len(steps)
    assert removals > 900


def _random_hypergraph(rng):
    """2-14 facts; most carry an odd f_in..f_out path of pairs, and every
    one carries random extra edges, supersets of path edges among them."""
    facts = [Fact(f"n{i}", "a", f"n{i + 1}") for i in range(rng.randint(2, 14))]
    f_in, f_out = facts[0], facts[-1]
    edges = set()
    if rng.random() < 0.8:
        inner = rng.sample(facts[1:-1], rng.randint(0, len(facts) - 2))
        path = [f_in] + inner[: len(inner) // 2 * 2] + [f_out]
        edges.update(frozenset(pair) for pair in zip(path, path[1:]))
    for _ in range(rng.randint(0 if edges else 1, 6)):
        extra = set(rng.sample(facts, rng.randint(1, min(3, len(facts)))))
        if edges and rng.random() < 0.5:
            extra.update(rng.choice(sorted(edges, key=sorted)))
        edges.add(frozenset(extra))
    return MatchHypergraph(frozenset(facts), frozenset(edges), f_in, f_out)


def test_condense_matches_the_two_path_search(monkeypatch):
    rng = random.Random(2500)
    statuses = {"path": 0, "exhausted": 0, "budget": 0}
    for trial in range(3_000):
        budget = (3, 6, 9, 16)[trial % 4]
        monkeypatch.setattr(gadgets, "NODE_BUDGET", budget)
        H = _random_hypergraph(rng)
        protected = frozenset({H.f_in, H.f_out})
        result = condense(H, protected)
        reference = oracles.two_path_condense(
            H.vertices, H.edges, H.f_in, H.f_out, protected, budget
        )
        steps = tuple(map(_step, result.steps))
        assert (result.status, steps, result.vertices, result.edges, result.path) == reference
        statuses[result.status] += 1
    assert min(statuses.values()) >= 100, statuses


def test_condensation_steps_preserve_hitting_set():
    completed, f_in, f_out = completion(AA)
    H = build_match_hypergraph(completed, words("aaa"), f_in, f_out)
    result = condense(H, protected=frozenset({f_in, f_out}))
    assert result.steps
    for step in result.steps:
        before = oracles.brute_hitting_set(step.edges_before)
        after = oracles.brute_hitting_set(step.edges_after)
        assert before == after, step.rule


# ---------------------------------------------------------------------------
# validation reports


def test_validate_aa():
    report = validate_gadget(AA, "aa")
    assert report.valid
    assert report.odd_path_length == 5
    assert report.render() == "VALID, odd path length 5"


def test_validate_aa_for_aaa():
    report = validate_gadget(AA, "aaa")
    assert report.valid
    assert report.odd_path_length == 3


def test_validate_invalid_gadget():
    # no walk reaches t_out, so no odd path can exist
    db = GraphDB.from_facts([Fact("t_in", "a", "n1"), Fact("n2", "a", "n3")])
    g = PreGadget(db, "t_in", "n2", "a")
    report = validate_gadget(g, "aa")
    assert report.status == "invalid"
    assert not report.valid
    assert report.render().startswith("INVALID")


def test_validate_inconclusive_over_budget():
    # 19 vertices, no odd path, greedy gets stuck: must not claim invalid
    facts = [Fact("t_in", "a", f"m{i}") for i in range(8)]
    facts += [Fact(f"m{i}", "a", f"p{i}") for i in range(8)]
    facts.append(Fact("t_out", "a", "q"))
    g = PreGadget(GraphDB.from_facts(facts), "t_in", "t_out", "a")
    report = validate_gadget(g, "aa")
    assert report.status == "inconclusive"
    assert report.render().startswith("INCONCLUSIVE")


def test_validate_requires_reduced_language():
    with pytest.raises(InputError):
        validate_gadget(AA, words("a\naa"))


def test_validate_requires_finite_language():
    with pytest.raises(InputError):
        validate_gadget(AA, "a*b")


# ---------------------------------------------------------------------------
# graph encodings


def triangle():
    return parse_graph("u v\nv w\nu w\n")


def test_encode_triangle_counts():
    db = encode_graph(triangle(), AA)
    assert len(db) == 3 + 3 * 4
    assert all(m == 1 for _, m in db.entries)


def test_encode_empty_graph():
    assert len(encode_graph([], AA)) == 0
    assert len(encode_graph([], AA, vertices=("u",))) == 1


def test_encode_single_edge_is_renamed_completion():
    db = encode_graph([("u", "v")], AA)
    completed, _, _ = completion(AA)
    assert len(db) == len(completed)
    # same multiset of labels and same degree profile
    assert sorted(f.label for f in db.facts()) == sorted(
        f.label for f in completed.facts()
    )


def test_encode_copies_do_not_share_internal_nodes():
    db = encode_graph([("u", "v"), ("v", "w")], AA)
    internal = [n for n in db.adom() if n.startswith("e")]
    first = {n for n in internal if n.startswith("e0_")}
    second = {n for n in internal if n.startswith("e1_")}
    assert first and second and not (first & second)


# ---------------------------------------------------------------------------
# subdivision and vertex cover


def test_subdivide_shapes():
    assert subdivide([("u", "v")], 1) == (("u", "v"),)
    path = subdivide([("u", "v")], 3)
    assert len(path) == 3
    vertices = {v for e in path for v in e}
    assert len(vertices) == 4
    with pytest.raises(InputError):
        subdivide([("u", "v")], 2)
    with pytest.raises(InputError):
        subdivide([("u", "v")], -3)


def test_vertex_cover_examples():
    assert vertex_cover_bruteforce(triangle()) == 2
    assert vertex_cover_bruteforce([("u", "v")]) == 1
    assert vertex_cover_bruteforce([]) == 0
    assert vertex_cover_bruteforce([("u", "u"), ("u", "v")]) == 1


def test_vertex_cover_cap():
    edges = [(f"a{i}", f"b{i}") for i in range(11)]
    with pytest.raises(ResourceCapError):
        vertex_cover_bruteforce(edges)


def test_vertex_cover_matches_bruteforce():
    rng = random.Random(6)
    names = ["u", "v", "w", "x", "y"]
    for _ in range(20):
        edges = {
            tuple(sorted(rng.sample(names, 2)))
            for _ in range(rng.randint(1, 6))
        }
        assert vertex_cover_bruteforce(sorted(edges)) == oracles.brute_vertex_cover(
            edges
        )


def test_subdivision_formula():
    rng = random.Random(2024)
    names = ["a", "b", "c", "d", "e", "f", "g"]
    for trial in range(30):
        ell = 3 if trial % 2 else 5
        max_edges = 6 if ell == 3 else 3  # keep the subdivided graph under the cap
        edges = sorted(
            {
                tuple(sorted(rng.sample(names, 2)))
                for _ in range(rng.randint(1, max_edges))
            }
        )
        expected = vertex_cover_bruteforce(edges) + len(edges) * (ell - 1) // 2
        assert vertex_cover_bruteforce(subdivide(edges, ell)) == expected


# ---------------------------------------------------------------------------
# the full hardness round-trip


def test_roundtrip_single_edge():
    assert hardness_roundtrip("aa", AA, [("u", "v")])
    db = encode_graph([("u", "v")], AA, vertices=("u", "v"))
    assert resilience_exact(db, "aa").value == 1 + 1 * 2


def test_roundtrip_enumerates_the_language_once(monkeypatch):
    calls = []
    real = automata.language_words

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(automata, "language_words", counting)
    assert hardness_roundtrip("aa", AA, [("u", "v")])
    assert len(calls) == 1


def test_roundtrip_triangle():
    assert hardness_roundtrip("aa", AA, triangle())


def test_roundtrip_empty_graph():
    assert hardness_roundtrip("aa", AA, [])


def test_roundtrip_rejects_invalid_gadget():
    db = GraphDB.from_facts([Fact("t_in", "a", "n1"), Fact("n2", "a", "n3")])
    g = PreGadget(db, "t_in", "n2", "a")
    with pytest.raises(InputError):
        hardness_roundtrip("aa", g, [("u", "v")])


# ---------------------------------------------------------------------------
# file formats


def test_gadget_file_roundtrip():
    text = save_gadget(AA, expected_odd_length=5)
    g, expected = load_gadget(text)
    assert g.db.entries == AA.db.entries
    assert (g.t_in, g.t_out, g.label) == (AA.t_in, AA.t_out, AA.label)
    assert expected == 5


def test_gadget_file_optional_pin():
    g, expected = load_gadget(save_gadget(AA))
    assert expected is None
    assert g.db.entries == AA.db.entries


def test_load_gadget_diagnostics():
    with pytest.raises(InputError):
        load_gadget("not json")
    with pytest.raises(InputError):
        load_gadget(json.dumps({"facts": []}))
    good = json.loads(save_gadget(AA))
    good["expected_odd_length"] = 4  # even
    with pytest.raises(InputError):
        load_gadget(json.dumps(good))


def test_parse_graph():
    # undirected pairs are normalized, line order kept
    assert parse_graph("u v\n# comment\nb a\n") == (("u", "v"), ("a", "b"))
    assert parse_graph("u -> v\nv -> u\n") == (("u", "v"), ("v", "u"))
    with pytest.raises(InputError, match="line 2"):
        parse_graph("u v\nu\n")
