"""The public value types: copying, pickling, immutability, and what
importing the package loads."""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

import rpqres
from rpqres import automata, flow, graphdb, lang
from rpqres.classifier import Verdict, classify
from rpqres.gadgets import (
    CondensationResult,
    CondensationStep,
    GadgetReport,
    MatchHypergraph,
    PreGadget,
    build_match_hypergraph,
    builtin_gadgets,
    completion,
    condense,
    validate_gadget,
)
from rpqres.graphdb import Fact, GraphDB
from rpqres.solvers import ResilienceAnswer, resilience


FIELDS = {
    lang.RUnion: ("parts",),
    automata.EpsNFA: ("states", "initial", "final", "transitions", "alphabet"),
    GraphDB: ("entries",),
    Verdict: ("status", "method", "reason", "witness"),
    ResilienceAnswer: ("value", "contingency", "method"),
    flow.CutResult: ("value", "edge_indices"),
    graphdb.Match: ("facts", "walk"),
    MatchHypergraph: ("vertices", "edges", "f_in", "f_out"),
    CondensationStep: (
        "rule", "removed", "dominator",
        "vertices_before", "edges_before", "vertices_after", "edges_after",
    ),
    CondensationResult: ("status", "steps", "vertices", "edges", "path"),
    PreGadget: ("db", "t_in", "t_out", "label"),
    GadgetReport: (
        "status", "odd_path_length", "steps", "reason", "initial", "final", "path",
    ),
}


def _samples() -> dict:
    regex = lang.parse_regex("ab*|c~|∅")
    nfa = automata.automaton_for("ab*|c")
    nfa.tables
    automata.trim(nfa)
    assert {"_tables", "_trimmed"} <= set(vars(nfa))
    db = GraphDB.from_pairs({Fact("u", "a", "v"): 2, Fact("v", "b", "w"): 1})
    db.mult(Fact("u", "a", "v"))
    db.adom()
    assert {"_mults", "_adom"} <= set(vars(db))
    gadget = builtin_gadgets()["aaa"]
    completed, f_in, f_out = completion(gadget)
    hypergraph = build_match_hypergraph(completed, lang.parse_words("aaa"), f_in, f_out)
    report = validate_gadget(gadget, "aaa")
    assert report.steps
    return {
        "regex": regex,
        "nfa": nfa,
        "db": db,
        "ptime verdict": classify("ax*b"),
        "hard verdict": classify("aa"),
        "answer": resilience(db, "ab"),
        "infinite answer": ResilienceAnswer(math.inf, None, "local"),
        "cut": flow.CutResult(2, (0, 3)),
        "match": graphdb.enumerate_matches(db, [("a", "b")])[0],
        "hypergraph": hypergraph,
        "condensation": condense(hypergraph),
        "pre-gadget": gadget,
        "report": report,
        "step": report.steps[0],
    }


SAMPLES = _samples()


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a verdict's witness is a dict
        return None


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_values_survive_pickling_and_copying(name):
    value = SAMPLES[name]
    copies = [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and _hash(other) == _hash(value)
        # a rebuilt set may list its members in another order
        assert sorted(repr(other)) == sorted(repr(value))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_keep_their_names_order_and_repr(name):
    value = SAMPLES[name]
    fields = FIELDS[type(value)]
    values = [getattr(value, field) for field in fields]
    assert type(value)(*values) == value == type(value)(**dict(zip(fields, values)))
    shown = ", ".join(f"{field}={got!r}" for field, got in zip(fields, values))
    assert repr(value) == f"{type(value).__name__}({shown})"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_set_or_deleted(name):
    value = SAMPLES[name]
    before = repr(value)
    for field in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before


def test_regex_nodes_of_every_kind_are_frozen():
    kinds = set()
    todo = [SAMPLES["regex"]]
    while todo:
        node = todo.pop()
        kinds.add(type(node))
        todo.extend(lang.regex_children(node))
        with pytest.raises(AttributeError):
            node.letter = "z"
    assert len(kinds) == 6


def test_importing_the_package_loads_no_code_generators():
    # dataclasses imports inspect, ast, dis and tokenize, and compiles
    # methods for every class it decorates: none of it is needed to start;
    # nor is click, which imports inspect too, to parse a command line
    src = os.path.dirname(os.path.dirname(rpqres.__file__))
    for module in ("rpqres", "rpqres.cli"):
        script = (
            f"import sys, {module}; "
            "print(*{'dataclasses', 'inspect', 'click'} & set(sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.split() == [], module
