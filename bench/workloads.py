"""The three workloads: their inputs, made from a seed, and their operations.

``generate(name, seed, root)`` returns a ``Workload``: the input texts the
set-up phase parses into program objects, and the list of operations one
round runs.  Every round runs the same list, so the share of operations
that fail is the same in every run.  Each operation carries the checker
for its answer; checkers run after the measured loop.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import checks
from checks import F, automaton, words_automaton

WORKLOADS = ("bulk-ptime", "exact-hard", "lang-small")

# labels that no query of the benchmark uses: pruning can remove their facts
UNUSED = ("y", "z")
UNUSED_SHARE = 0.4


class Op:
    """One operation of a round.

    ``run(objs)`` performs it through the public API and returns the raw
    answer; ``plain(answer)`` turns the answer into plain data outside the
    timed region; ``check(plain)`` returns a list of problems.  The runner
    fills ``results`` (distinct raw answers), ``errors`` and ``answers``
    (the plain forms of ``results``).
    """

    def __init__(self, label, run, plain, check):
        self.label, self.run, self.plain, self.check = label, run, plain, check
        self.results, self.errors, self.answers = [], [], []


class Workload:
    """Inputs and one round of operations.  (dataclasses is not used here:
    the set-up phase times the import of what rpqres needs, and a module
    the benchmark loaded first would come for free.)"""

    def __init__(self, name, batch=1, uses_cli=False):
        self.name = name
        self.sources = []  # (key, kind, text): kind db, gadget, graph or builtin
        self.encodings = []  # (key, graph key, gadget key)
        self.ops = []
        self.batch = batch  # operations timed between two reference-loop runs
        self.uses_cli = uses_cli
        self.objs = None  # program objects, once set up


# ---------------------------------------------------------------------------
# plain-data views of answers


def plain_answer(answer) -> dict:
    return {
        "value": answer.value,
        "method": answer.method,
        "contingency": None if answer.contingency is None
        else frozenset(F(*f) for f in answer.contingency),
    }


def plain_verdict(verdict) -> dict:
    return {
        "status": verdict.status,
        "method": verdict.method,
        "reason": verdict.reason,
        "witness": verdict.witness,
    }


def plain_report(report) -> dict:
    def hyper(H):
        return (H.vertices, H.edges)

    return {
        "status": report.status,
        "odd_path_length": report.odd_path_length,
        "initial": hyper(report.initial),
        "final": None if report.final is None else hyper(report.final),
        "steps": [
            (s.rule, s.vertices_before, s.edges_before, s.vertices_after, s.edges_after)
            for s in report.steps
        ],
        "path": report.path,
        "f_in": report.initial.f_in,
        "f_out": report.initial.f_out,
    }


def plain_cli(outcome) -> dict:
    code, out = outcome
    return {"exit": code, "json": json.loads(out) if out.strip() else None}


def cli_answer(doc: dict) -> dict:
    value = doc["value"]
    return {
        "value": math.inf if value == "inf" else value,
        "method": doc["method"],
        "contingency": None if doc["contingency"] is None
        else frozenset(F(*f) for f in doc["contingency"]),
    }


# ---------------------------------------------------------------------------
# operations


def resilience_op(label, key, language, entries, nfa, expected_value, expected_method):
    """resilience(db, language) with its value and contingency set checked.
    ``entries`` maps facts to multiplicities, or is a function returning
    that map once the inputs are set up."""

    def check(answer):
        facts = entries() if callable(entries) else entries
        return checks.check_value(
            expected_value(), answer["value"], answer["method"], expected_method
        ) + checks.check_contingency(facts, nfa, answer["value"], answer["contingency"])

    return Op(
        label,
        lambda objs: objs.api.resilience(objs[key], language),
        plain_answer,
        check,
    )


def cli_resilience_op(label, text, language, entries, nfa, expected_value):
    inner = resilience_op(label, None, language, entries, nfa, expected_value, None)

    def check(outcome):
        if outcome["exit"] != 0:
            return [f"exit code {outcome['exit']}"]
        return inner.check(cli_answer(outcome["json"]))

    return Op(
        label,
        lambda objs: objs.cli(["resilience", "--json", language, "-"], text),
        plain_cli,
        check,
    )


def classify_op(label, text, expected=None):
    return Op(
        label,
        lambda objs: objs.api.classify(text),
        plain_verdict,
        lambda verdict: checks.check_verdict(text, verdict, expected),
    )


def cli_classify_op(label, text, expected=None):
    def check(outcome):
        if outcome["exit"] != 0:
            return [f"exit code {outcome['exit']}"]
        return checks.check_verdict(text, outcome["json"], expected)

    return Op(
        label,
        lambda objs: objs.cli(["classify", "--json", text], None),
        plain_cli,
        check,
    )


def db_text(entries: dict) -> str:
    return "".join(
        f"{f.tail} {f.label} {f.head}" + (f" {m}\n" if m != 1 else "\n")
        for f, m in sorted(entries.items())
    )


def random_entries(rng, count, letters, nodes, max_mult=1, unused_share=0.0):
    """count distinct facts; a share of them carry labels no query uses."""
    entries = {}
    while len(entries) < count:
        pool = UNUSED if rng.random() < unused_share else letters
        f = F(f"n{rng.randrange(nodes)}", rng.choice(pool), f"n{rng.randrange(nodes)}")
        if f not in entries:
            entries[f] = rng.randint(1, max_mult)
    return entries


# ---------------------------------------------------------------------------
# bulk-ptime

LOCAL_AUTOMATA = {
    "ax*b": automaton({0}, {2}, [(0, "a", 1), (1, "x", 1), (1, "b", 2)]),
    "a(b|c)*d": automaton({0}, {2}, [(0, "a", 1), (1, "b", 1), (1, "c", 1), (1, "d", 2)]),
}
BCL_TWO_LETTER = {  # language: (words, letters on one side of the bipartition)
    "ab|bc": (("ab", "bc"), {"a", "c"}),
    "ab|bc|cd": (("ab", "bc", "cd"), {"a", "c"}),
}
# one random graph per language and size: many sizes spread evenly, so that
# the operations' times spread evenly too and the median has close neighbours
BULK_SIZES = tuple(range(1000, 3000, 180))
SUBMOD_JUNCTIONS = 6
CHAIN_LENGTH = 2000


def submod_entries(rng, facts, junctions):
    """a, b, c facts at random; e facts leave only the junction nodes,
    each of which is entered by at least one b fact."""
    nodes = facts // 2
    names = [f"n{i}" for i in range(nodes)]
    junction_nodes = rng.sample(names, junctions)
    entries = {}
    for v in junction_nodes:
        entries[F(rng.choice(names), "b", v)] = rng.randint(1, 3)
        for _ in range(rng.randint(1, 3)):
            entries[F(v, "e", rng.choice(names))] = rng.randint(1, 3)
    while len(entries) < facts:
        f = F(rng.choice(names), rng.choice("abc"), rng.choice(names))
        entries.setdefault(f, rng.randint(1, 3))
    return entries


def chain_entries(rng, length):
    labels = ["a"] + ["x"] * (length - 2) + ["b"]
    return {F(f"c{i}", label, f"c{i + 1}"): rng.randint(2, 9) for i, label in enumerate(labels)}


def bulk_ptime(rng, root) -> Workload:
    w = Workload("bulk-ptime")

    def add(key, language, entries, nfa, expected_value, method):
        w.sources.append((key, "db", db_text(entries)))
        w.ops.append(resilience_op(
            f"resilience {language} {key}", key, language, entries, nfa,
            _once(expected_value), method,
        ))

    for size in BULK_SIZES:
        for language, nfa in LOCAL_AUTOMATA.items():
            entries = random_entries(rng, size, sorted(nfa.alphabet), size // 2, 3, UNUSED_SHARE)
            add(f"{language}-{size}", language, entries, nfa,
                lambda e=entries, n=nfa: checks.local_value(e, n), "local")
        for language, (words, left) in BCL_TWO_LETTER.items():
            letters = sorted({a for word in words for a in word})
            entries = random_entries(rng, size, letters, size // 2, 1, UNUSED_SHARE)
            add(f"{language}-{size}", language, entries, words_automaton(words),
                lambda e=entries, ws=words, l=left: checks.two_letter_bcl_value(e, ws, l), "bcl")
        entries = random_entries(rng, size, "abcd", size // 2, 3, UNUSED_SHARE)
        # not two-letter words: the value is checked through its contingency set
        add(f"abc|cd-{size}", "abc|cd", entries, words_automaton(("abc", "cd")), None, "bcl")
    entries = submod_entries(rng, 400, SUBMOD_JUNCTIONS)
    add("abc|be-400", "abc|be", entries, words_automaton(("abc", "be")),
        lambda e=entries: checks.submod_value(e, "abc", "e"), "submod")
    entries = chain_entries(rng, CHAIN_LENGTH)
    add(f"ax*b-chain-{CHAIN_LENGTH}", "ax*b", entries, LOCAL_AUTOMATA["ax*b"],
        lambda e=entries: checks.local_value(e, LOCAL_AUTOMATA["ax*b"]), "local")
    return w


def _once(compute):
    """Memoize a reference computation.  None means no reference value: the
    answer is then checked through its contingency set alone."""
    if compute is None:
        return lambda: None
    cache = []

    def value():
        if not cache:
            cache.append(compute())
        return cache[0]

    return value


# ---------------------------------------------------------------------------
# exact-hard

# 4-cycles (vertex cover number 2, so value 2 + 4 * 2 = 10) through their
# vertices in name order; the seed picks the names.  Other shapes, and other
# orders around the cycle, move the exact search's work by up to a fifth
# from graph to graph, and this family sets the workload's median.
AA_GRAPHS = 10
AXB_COUNTS = {"a": 4, "c": 4, "x": 6, "b": 4, "d": 4}
AXB_VALUE = 6
AXB_INSTANCES = 4
TRIANGLE_FACTS = 20
TRIANGLE_VALUE = 8
TRIANGLE_INSTANCES = 4


def aa_graph(rng):
    """A 4-cycle on seeded two-digit vertex names, taken in name order."""
    vertices = [f"v{k}" for k in sorted(rng.sample(range(10, 100), 4))]
    return sorted((min(u, v), max(u, v)) for u, v in zip(vertices, vertices[1:] + vertices[:1]))


def axb_entries(rng):
    """Layered: a and c facts into the hubs, x facts between the hubs, b and
    d facts out of them."""
    while True:
        entries = {}
        for label, count in AXB_COUNTS.items():
            placed = 0
            while placed < count:
                if label in "ac":
                    f = F(f"s{rng.randrange(3)}", label, f"h{rng.randrange(3)}")
                elif label == "x":
                    f = F(f"h{rng.randrange(3)}", label, f"k{rng.randrange(3)}")
                else:
                    f = F(f"k{rng.randrange(3)}", label, f"t{rng.randrange(3)}")
                if f not in entries:
                    entries[f] = 1
                    placed += 1
        if checks.finite_value(entries, ("axb", "cxd")) == AXB_VALUE:
            return entries


def triangle_entries(rng):
    while True:
        entries = random_entries(rng, TRIANGLE_FACTS, "abc", 6)
        if checks.finite_value(entries, ("ab", "bc", "ca")) == TRIANGLE_VALUE:
            return entries


def exact_hard(rng, root) -> Workload:
    w = Workload("exact-hard")
    gadget_text = (root / "samples" / "aa.gadget").read_text()
    odd_length = json.loads(gadget_text)["expected_odd_length"]
    w.sources.append(("aa.gadget", "gadget", gadget_text))
    for i in range(AA_GRAPHS):
        edges = aa_graph(rng)
        key = f"aa-graph-{i}"
        w.sources.append((key, "graph", "".join(f"{u} {v}\n" for u, v in edges)))
        w.encodings.append((f"aa-encoding-{i}", key, "aa.gadget"))
        w.ops.append(resilience_op(
            f"resilience aa encoding-{i} (4-cycle)", f"aa-encoding-{i}", "aa",
            lambda k=f"aa-encoding-{i}": {F(*f): m for f, m in w.objs[k].entries},
            words_automaton(["aa"]),
            _once(lambda e=edges: checks.gadget_encoding_value(e, odd_length)), "exact",
        ))
    for language, words, make, count in (
        ("axb|cxd", ("axb", "cxd"), axb_entries, AXB_INSTANCES),
        ("ab|bc|ca", ("ab", "bc", "ca"), triangle_entries, TRIANGLE_INSTANCES),
    ):
        for i in range(count):
            entries = make(rng)
            key = f"{language}-{i}"
            w.sources.append((key, "db", db_text(entries)))
            w.ops.append(resilience_op(
                f"resilience {language} {key}", key, language, entries, words_automaton(words),
                _once(lambda e=entries, ws=words: checks.finite_value(e, ws)), "exact",
            ))
    return w


# ---------------------------------------------------------------------------
# lang-small

# (status, method) as documented in the README and the acceptance tests
FIXED_LANGUAGES = {
    "ax*b": ("PTIME", "local"),
    "a(b|c)*d": ("PTIME", "local"),
    "a|ab": ("PTIME", "local"),
    "a|b": ("PTIME", "local"),
    "aa|a": ("PTIME", "local"),
    "ab|ad|cd": ("PTIME", "local"),
    "abc|abd": ("PTIME", "local"),
    "ab|c": ("PTIME", "local"),
    "abc|d": ("PTIME", "local"),
    "ab|bc": ("PTIME", "bcl"),
    "axb|byc": ("PTIME", "bcl"),
    "ab|bc|cd": ("PTIME", "bcl"),
    "abc|cd": ("PTIME", "bcl"),
    "abc|be": ("PTIME", "submod"),
    "abcd|ce": ("PTIME", "submod"),
    "aa": ("NP_HARD", None),
    "aaa": ("NP_HARD", None),
    "aaaa": ("NP_HARD", None),
    "abca|cab": ("NP_HARD", None),
    "axb|cxd": ("NP_HARD", None),
    "b(aa)*d": ("NP_HARD", None),
    "ax*b|cxd": ("NP_HARD", None),
    "ab|bc|ca": ("NP_HARD", None),
    "abc|be|ef": ("NP_HARD", None),
    "abcd|bef": ("NP_HARD", None),
    "abcd|be|ef": ("NP_HARD", None),
    "e*be*ce*|e*de*fe*": ("NP_HARD", None),
    "abc|bcd": ("UNKNOWN", None),
    "abcd|be": ("UNKNOWN", None),
    "abc|bef": ("UNKNOWN", None),
    "ax*b|xd": ("UNKNOWN", None),
}
RANDOM_REGEXES = 4
RANDOM_REGEX_DEPTH = 2
SMALL_DB_FACTS = (4, 6, 8)
RANDOM_GADGETS = 6
CLI_EVERY = 4  # every fourth fixed language is also sent through the command line
# inputs that make the regex parser recurse past the interpreter's limit
DEEP_STARS = "a" + "*" * 3000
DEEP_PARENS = "(" * 600 + "a" + ")" * 600


def random_regex(rng, depth):
    """A star-free regex over a, b, c and ~.  (With stars, a few in a
    thousand seeded regexes take the classifier 50 times longer than the
    rest, and one of them in a round would swing the whole workload.)"""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["a", "b", "c", "~"])
    left = random_regex(rng, depth - 1)
    right = random_regex(rng, depth - 1)
    return f"({left})({right})" if rng.random() < 0.5 else f"({left})|({right})"


def random_pregadget(rng):
    """Facts labeled a among t_in, t_out and three inner nodes, with t_in
    and t_out never heads."""
    inner = ["n1", "n2", "n3"]
    while True:
        facts = set()
        for _ in range(rng.randint(3, 5)):
            facts.add((rng.choice(["t_in", "t_out"] + inner), "a", rng.choice(inner)))
        nodes = {x for f in facts for x in (f[0], f[2])}
        if {"t_in", "t_out"} <= nodes:
            doc = {"facts": sorted(map(list, facts)), "label": "a", "t_in": "t_in", "t_out": "t_out"}
            return json.dumps(doc)


def gadget_op(label, key, language, words, expected):
    return Op(
        label,
        lambda objs: objs.api.validate_gadget(objs[key], language),
        plain_report,
        lambda report: checks.check_gadget_report(report, words, expected),
    )


def cli_gadget_op(label, text, language, twin):
    """validate-gadget --json, compared with the checked library report of
    the same gadget."""

    def check(outcome):
        if not twin.answers:
            return ["the library call on the same gadget gave no answer to compare with"]
        reference = twin.answers[0]
        doc = outcome["json"]
        problems = []
        if outcome["exit"] != (3 if reference["status"] == "inconclusive" else 0):
            problems.append(f"exit code {outcome['exit']} for a {reference['status']} report")
        if (doc["status"], doc["odd_path_length"]) != (reference["status"], reference["odd_path_length"]):
            problems.append(f"command line says {doc['status']}, library says {reference['status']}")
        return problems

    return Op(
        label,
        lambda objs: objs.cli(["validate-gadget", "--json", "-", language], text),
        plain_cli,
        check,
    )


def lang_small(rng, root) -> Workload:
    w = Workload("lang-small", batch=8, uses_cli=True)
    languages = [(text, expected) for text, expected in FIXED_LANGUAGES.items()]
    languages += [(random_regex(rng, RANDOM_REGEX_DEPTH), None) for _ in range(RANDOM_REGEXES)]
    classify_ops, resilience_ops, cli_ops = [], [], []
    for i, (text, expected) in enumerate(languages):
        classify_ops.append(classify_op(f"classify #{i} {text}", text, expected))
        lang = checks.Language(text)
        letters = list(lang.alphabet) or ["a"]
        size = SMALL_DB_FACTS[i % len(SMALL_DB_FACTS)]
        entries = random_entries(rng, size, letters, max(3, size // 2), 2)
        key = f"small-db-{i}"  # unique per language, so also an operation label
        w.sources.append((key, "db", db_text(entries)))
        value = _once(lambda e=entries, n=lang.nfa: checks.oracle_value(e, n))
        resilience_ops.append(resilience_op(
            f"resilience {text} {key}", key, text, entries, lang.nfa, value, None
        ))
        if expected is not None and i % CLI_EVERY == 0:
            cli_ops.append(cli_classify_op(f"cli classify {text}", text, expected))
            cli_ops.append(cli_resilience_op(
                f"cli resilience {text} {key}", db_text(entries), text, entries, lang.nfa, value
            ))
    gadget_ops = []
    sample = (root / "samples" / "aa.gadget").read_text()
    gadgets = [("sample-aa", "file", sample, "aa", ("valid", json.loads(sample)["expected_odd_length"]))]
    gadgets += [("builtin-aa", "builtin", "aa", "aa", ("valid", 5)), ("builtin-aaa", "builtin", "aaa", "aaa", ("valid", 3))]
    for i in range(RANDOM_GADGETS):
        gadgets.append((f"random-gadget-{i}", "file", random_pregadget(rng), ("aa", "aaa")[i % 2], None))
    for i, (key, kind, source, language, expected) in enumerate(gadgets):
        w.sources.append((key, "gadget" if kind == "file" else "builtin", source))
        op = gadget_op(f"validate_gadget {key} {language}", key, language, (language,), expected)
        gadget_ops.append(op)
        if kind == "file" and i % 2 == 0:
            cli_ops.append(cli_gadget_op(f"cli validate-gadget {key} {language}", source, language, op))
    # interleave the kinds so that every timed batch mixes them
    kinds = [classify_ops, resilience_ops, gadget_ops, cli_ops]
    longest = max(map(len, kinds))
    w.ops = [k[i] for i in range(longest) for k in kinds if i < len(k)]
    w.ops.append(classify_op("classify a followed by 3000 stars", DEEP_STARS, ("PTIME", "local")))
    w.ops.append(classify_op("classify a inside 600 parentheses", DEEP_PARENS, ("PTIME", "local")))
    return w


def generate(name: str, seed: int, root: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"bulk-ptime": bulk_ptime, "exact-hard": exact_hard, "lang-small": lang_small}[name](rng, root)
