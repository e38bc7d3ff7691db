"""The benchmark's own tests: each answer checker accepts a right answer
and rejects a wrong one.

    python3 -m pytest bench
"""

import math
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH), str(BENCH.parent / "tests")]

import checks  # noqa: E402
import oracles  # noqa: E402
import rpqres  # noqa: E402
import workloads  # noqa: E402
from checks import F  # noqa: E402


def small_db(seed, letters, facts=7, nodes=4, max_mult=2):
    return workloads.random_entries(random.Random(seed), facts, letters, nodes, max_mult)


def program_answer(entries, language):
    answer = rpqres.resilience(rpqres.parse_db(workloads.db_text(entries)), language)
    return workloads.plain_answer(answer)


# ---------------------------------------------------------------------------
# reference values agree with the brute-force oracles


def test_reference_values_match_the_oracles():
    for seed in range(6):
        entries = small_db(seed, "axb")
        nfa = workloads.LOCAL_AUTOMATA["ax*b"]
        assert checks.local_value(entries, nfa) == checks.oracle_value(entries, nfa)
        entries = small_db(seed, "abc", max_mult=1)
        words = ("ab", "bc")
        assert checks.two_letter_bcl_value(entries, words, {"a", "c"}) == checks.oracle_value(
            entries, checks.words_automaton(words)
        )
        assert checks.finite_value(entries, ("ab", "bc", "ca")) == checks.oracle_value(
            entries, checks.words_automaton(("ab", "bc", "ca"))
        )
        entries = small_db(seed, "abce", facts=8)
        assert checks.submod_value(entries, "abc", "e") == checks.oracle_value(
            entries, checks.words_automaton(("abc", "be"))
        )


def test_regex_compiler_matches_python_re_on_deep_inputs():
    stars = checks.Language(workloads.DEEP_STARS)
    parens = checks.Language(workloads.DEEP_PARENS)
    assert stars.member("") and stars.member("aaa") and not stars.member("b")
    assert parens.member("a") and not parens.member("aa")
    assert checks.query_holds([F("u", "a", "v")], parens.nfa)


# ---------------------------------------------------------------------------
# values off by one


def test_value_off_by_one_is_rejected():
    entries = small_db(1, "axb")
    language = "ax*b"
    right = program_answer(entries, language)
    expected = checks.local_value(entries, workloads.LOCAL_AUTOMATA[language])
    assert checks.check_value(expected, right["value"]) == []
    for wrong in (right["value"] - 1, right["value"] + 1):
        assert checks.check_value(expected, wrong)


def test_resilience_op_rejects_a_value_off_by_one():
    entries = small_db(2, "ab")
    nfa = checks.words_automaton(("ab",))
    op = workloads.resilience_op(
        "t", None, "ab", entries, nfa, lambda: checks.finite_value(entries, ("ab",)), None
    )
    right = program_answer(entries, "ab")
    assert op.check(right) == []
    assert op.check(dict(right, value=right["value"] + 1))


# ---------------------------------------------------------------------------
# contingency sets


def test_contingency_missing_a_fact_is_rejected():
    for seed in range(4):
        entries = small_db(seed, "abc", facts=9)
        language = "ab|bc|ca"
        nfa = checks.words_automaton(("ab", "bc", "ca"))
        right = program_answer(entries, language)
        assert right["contingency"], "the instance must need a removal"
        assert checks.check_contingency(entries, nfa, right["value"], right["contingency"]) == []
        for fact in right["contingency"]:
            short = right["contingency"] - {fact}
            # with the value it claims, and with the value adjusted to the set
            assert checks.check_contingency(entries, nfa, right["value"], short)
            cost = right["value"] - entries[fact]
            assert checks.check_contingency(entries, nfa, cost, short)


def test_contingency_with_a_foreign_fact_is_rejected():
    entries = small_db(3, "axb")
    nfa = workloads.LOCAL_AUTOMATA["ax*b"]
    right = program_answer(entries, "ax*b")
    foreign = F("nowhere", "a", "else")
    assert checks.check_contingency(entries, nfa, right["value"], right["contingency"] | {foreign})


# ---------------------------------------------------------------------------
# verdict witnesses


def verdict(text):
    return workloads.plain_verdict(rpqres.classify(text))


def test_right_verdicts_pass():
    for text, expected in workloads.FIXED_LANGUAGES.items():
        assert checks.check_verdict(text, verdict(text), expected) == [], text


def test_bad_verdict_witnesses_are_rejected():
    def altered(text, **changes):
        v = verdict(text)
        return dict(v, witness=dict(v["witness"], **changes))

    bad = [
        # the cross word axd is not in the language, but axb is
        ("axb|cxd", altered("axb|cxd", after2="b")),
        ("abca|cab", altered("abca|cab", word="cab")),
        ("abca|cab", altered("abca|cab", gap="b")),
        ("ab|bc|ca", altered("ab|bc|ca", renaming={"a": "b", "b": "a", "c": "c"})),
        ("ab|bc", altered("ab|bc", sides=[["a", "b"], ["c"]])),
        ("abc|be", altered("abc|be", letters=["a", "b", "e", "c"])),
        ("b(aa)*d", altered("b(aa)*d", word="b")),
        ("e*be*ce*|e*de*fe*", altered("e*be*ce*|e*de*fe*", letter="b")),
    ]
    for text, v in bad:
        assert checks.check_verdict(text, v), (text, v["witness"])


def test_wrong_status_is_rejected():
    v = verdict("aa")
    assert checks.check_verdict("aa", v, ("PTIME", "local"))
    assert checks.check_verdict("ab|bc", dict(verdict("ab|bc"), method="local", witness=None))


# ---------------------------------------------------------------------------
# condensation


def gadget_report(language="aaa"):
    g = rpqres.builtin_gadgets()["aa"]
    return workloads.plain_report(rpqres.validate_gadget(g, language))


def test_right_gadget_reports_pass():
    for language, length in (("aa", 5), ("aaa", 3)):
        report = gadget_report(language)
        assert checks.check_gadget_report(report, (language,), ("valid", length)) == []
    assert gadget_report("aaa")["steps"], "the aaa validation applies rules"


def test_condensation_step_changing_the_hitting_set_is_rejected():
    report = gadget_report("aaa")
    for k, (rule, vb, eb, va, ea) in enumerate(report["steps"]):
        # drop a hyperedge the step kept, but only where that lowers the
        # minimum hitting set
        for e in ea:
            smaller = ea - {e}
            if oracles.brute_hitting_set(smaller) != oracles.brute_hitting_set(ea):
                steps = list(report["steps"])
                steps[k] = (rule, vb, eb, va, smaller)
                problems = checks.check_gadget_report(dict(report, steps=steps), ("aaa",))
                assert any("minimum hitting set" in p for p in problems), problems
                return
    raise AssertionError("no step offered a hitting-set-changing edit")


def test_wrong_initial_hypergraph_and_path_are_rejected():
    report = gadget_report("aa")
    vertices, edges = report["initial"]
    assert checks.check_gadget_report(dict(report, initial=(vertices, set(list(edges)[1:]))), ("aa",))
    assert checks.check_gadget_report(dict(report, odd_path_length=3), ("aa",), ("valid", 5))
    assert checks.check_gadget_report(dict(report, path=report["path"][::-1]), ("aa",))


def test_encoding_value_is_cover_number_plus_subdivisions():
    triangle = [("u", "v"), ("v", "w"), ("u", "w")]
    assert checks.gadget_encoding_value(triangle, 5) == 2 + 3 * 2
    g = rpqres.builtin_gadgets()["aa"]
    db = rpqres.encode_graph(triangle, g)
    expected = checks.gadget_encoding_value(triangle, 5)
    assert checks.check_value(expected, rpqres.resilience(db, "aa").value) == []
    assert checks.check_value(expected, expected - 1)


def test_infinite_values_need_no_contingency():
    nfa = checks.Language("a*").nfa
    assert checks.check_contingency({}, nfa, math.inf, None) == []
    assert checks.check_contingency({}, nfa, 3, None)


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import json

    import run
    from tracing import Tracer

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    emitted = Tracer().metrics(rounds=1, setup_reps=1)
    assert list(emitted) == [m["name"] for m in declared]
    assert [run._unit(name) for name in emitted] == [m["unit"] for m in declared]
