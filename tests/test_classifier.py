"""Complexity classification: detectors and the full pipeline."""

import gc
import random
import weakref

import pytest

import oracles
from rpqres import classifier, lang
from rpqres.automata import (
    accepts,
    automaton_for,
    determinize,
    is_finite_language,
    language_words,
    make_nfa,
    reduce_regular,
    trim,
)
from rpqres.errors import InputError, ResourceCapError
from rpqres.classifier import (
    NP_HARD,
    PTIME,
    UNKNOWN,
    Verdict,
    bcl_analysis,
    chain_violation,
    classify,
    endpoint_graph,
    four_legged_witness,
    is_four_legged_finite,
    match_known_hard,
    matches_submod_pattern,
)
from test_acceptance import _random_regex


def words(text):
    return lang.parse_words(text)


def c(text):
    return classify(text)


# ---------------------------------------------------------------------------
# verdict plumbing


def test_verdict_validation():
    for status, method, witness, message in (
        ("SLOW", "local", None, "bad verdict status"),
        (PTIME, None, None, "must name its solver"),  # tractable needs a method
        (NP_HARD, None, None, "must carry a witness"),  # hardness needs a witness
    ):
        with pytest.raises(InputError, match=message):
            Verdict(status, method, "x", witness)
        with pytest.raises(InputError, match=message):
            Verdict(status=status, method=method, reason="x", witness=witness)


# ---------------------------------------------------------------------------
# finite detectors


def test_four_legged_detection():
    reduced = words("ab\nbc")
    assert is_four_legged_finite(reduced) is None  # all legs need length > 0
    hit = is_four_legged_finite(words("axb\ncxd"))
    assert hit is not None
    assert hit.letter == "x"
    # the split a|x|b finds nothing, which says nothing about a|y|b
    hit = is_four_legged_finite(words("axb\nayb\ncyd"))
    assert hit == ("y", ("a",), ("b",), ("c",), ("d",))


def test_four_legged_search_matches_the_pairwise_search():
    # criterion 09's random languages, reduced as the classifier does and
    # as written; the pairwise search is slow past a few dozen words, so
    # finite languages are compared on at most 40 words and infinite ones
    # on words cut at leg caps 2-4, where only its hits are conclusive
    rng = random.Random(909)
    found = compared = bounded_hits = 0
    for _ in range(400):
        A = automaton_for(_random_regex(rng, 4))
        for D in (reduce_regular(A), trim(determinize(A))):

            def member(w, D=D):
                return accepts(D, w)

            got = four_legged_witness(D)
            if got is not None:
                x, before1, after1, before2, after2 = got
                assert before1 and after1 and before2 and after2
                assert member(before1 + (x,) + after1)
                assert member(before2 + (x,) + after2)
                assert not member(before1 + (x,) + after2)
                found += 1
            if is_finite_language(D):
                try:
                    ws = language_words(D, max_words=40)
                except ResourceCapError:
                    continue
                expected = oracles.four_legged_search(ws, member)
                assert (got is None) == (expected is None)
                compared += 1
                continue
            for leg_cap in (2, 3, 4):
                try:
                    ws = language_words(D, max_len=2 * leg_cap + 1, max_words=40)
                except ResourceCapError:
                    continue
                if oracles.four_legged_search(ws, member, leg_cap) is not None:
                    assert got is not None
                    bounded_hits += 1
    assert found >= 50
    assert compared >= 500
    assert bounded_hits >= 50


def test_four_legged_witness_has_no_leg_bound():
    # two legs of seven letters: the search puts no bound on leg length
    verdict = c("cdefghixb*q|jklmnopxz")
    assert verdict.status == NP_HARD
    assert verdict.reason == "four-legged"
    legs = verdict.witness
    assert legs["kind"] == "four-legged"
    D = reduce_regular(automaton_for("cdefghixb*q|jklmnopxz"))
    x, before1, after1, before2, after2 = (
        tuple(legs[k]) for k in ("letter", "before1", "after1", "before2", "after2")
    )
    assert len(before1) > 6 and len(before2) > 6
    assert accepts(D, before1 + x + after1)
    assert accepts(D, before2 + x + after2)
    assert not accepts(D, before1 + x + after2)


def test_four_legged_search_respects_the_state_cap():
    # five heads on x make 20 seed pairs, but the first seed already
    # splits, so a cap below the seed count still finds the split
    D = reduce_regular(automaton_for("ax*b|cx*d|ex*f|gx*h|ix*j"))
    assert four_legged_witness(D, state_cap=1) == ("x", ("a",), ("b",), ("c",), ("d",))
    # the first split of axc*b|dxccccccf is six pairs deep on the letter c
    text = "axc*b|dxccccccf"
    D = reduce_regular(automaton_for(text))
    assert four_legged_witness(D, state_cap=6) is not None
    with pytest.raises(ResourceCapError):
        four_legged_witness(D, state_cap=5)
    verdict = classify(text, state_cap=5)
    assert verdict.status == UNKNOWN
    assert verdict.reason.startswith("resource cap")
    assert classify(text).reason == "four-legged"


def test_four_legged_search_finds_a_split_among_many_seeds():
    # 400 heads on the first middle letter give 159,600 seed pairs, more
    # than the default cap; the first seed splits after one letter, or
    # after two when the middle is cx
    for middle in ("x", "cx"):
        text = "|".join(f"[a{i}]{middle}[b{i}]" for i in range(400))
        verdict = classify(text)
        assert verdict.status == NP_HARD, middle
        assert verdict.witness == {
            "kind": "four-legged",
            "letter": middle[0],
            "before1": "[a0]",
            "after1": middle[1:] + "[b0]",
            "before2": "[a1]",
            "after2": middle[1:] + "[b1]",
        }


def test_four_legged_witness_checks_its_automaton():
    # axb|cxd with an epsilon move into its final state
    moves = [(0, "a", 1), (1, "x", 2), (2, "b", 3), (0, "c", 4), (4, "x", 5)]
    moves += [(5, "d", 3), (3, None, 6)]
    with pytest.raises(InputError):
        four_legged_witness(make_nfa(range(7), [0], [6], moves))
    # the regex's own automaton is epsilon-free and deterministic
    hit = four_legged_witness(automaton_for("axb|cxd"))
    assert hit == ("x", ("a",), ("b",), ("c",), ("d",))
    # {ax, cxd} plus a dead state: the final state after ax may move, but
    # only into the dead state, so no leg follows it
    moves = [(0, "a", 1), (1, "x", 2), (2, "z", 6)]
    moves += [(0, "c", 3), (3, "x", 4), (4, "d", 5)]
    dfa = make_nfa(range(7), [0], [2, 5], moves)
    assert four_legged_witness(dfa) is None


def test_classify_large_unions_under_a_star():
    pairs = "(" + "|".join(f"[a{i}][b{i}]" for i in range(200)) + ")*"
    letters = "x(" + "|".join(f"[a{i}]" for i in range(200)) + ")*y"
    for text in (pairs, letters):
        verdict = classify(text)
        assert (verdict.status, verdict.method) == (PTIME, "local")


def test_neutral_letter_verdict_survives_a_capped_search(monkeypatch):
    def capped(D, state_cap):
        raise ResourceCapError("four-legged search over 0 pairs")

    monkeypatch.setattr(classifier, "four_legged_witness", capped)
    verdict = classify("e*be*ce*|e*de*fe*")
    assert verdict.status == NP_HARD
    assert verdict.reason == "neutral letter dichotomy"
    assert verdict.witness == {"kind": "neutral-letter", "letter": "e"}
    assert classify("ax*b|cxd").reason.startswith("resource cap")


def test_four_legged_requires_reduced_input():
    with pytest.raises(InputError):
        is_four_legged_finite(words("a\nab"))


def test_chain_violation_reports():
    assert chain_violation(words("ab\nbc")) is None
    assert chain_violation(words("aba")) is not None
    assert "b" in chain_violation(words("abc\nbd"))
    assert chain_violation(words("ab\nbc\nca")) is None
    assert chain_violation(words("aba")) is not None


def test_endpoint_graph():
    vertices, edges = endpoint_graph(words("ab\nbc\nc"))
    assert ("a", "b") in edges
    assert ("b", "c") in edges
    assert len(edges) == 2
    assert {"a", "b", "c"} <= set(vertices)


def test_bcl_analysis_bipartite():
    analysis = bcl_analysis(words("ab\nbc"))
    assert analysis.is_bcl
    side0, side1 = analysis.bipartition
    assert {"a", "c"} <= side0 | side1


def test_bcl_analysis_odd_cycle():
    analysis = bcl_analysis(words("ab\nbc\nca"))
    assert not analysis.is_bcl
    assert analysis.odd_cycle is not None
    assert len(analysis.odd_cycle) % 2 == 1


def test_submod_pattern_match():
    hit = matches_submod_pattern(words("abc\nbe"))
    assert hit is not None and not hit.mirrored
    assert hit.n == 3
    assert hit.letters == ("a", "b", "c", "e")
    mirrored = matches_submod_pattern(words("cba\neb"))
    assert mirrored is not None and mirrored.mirrored
    assert matches_submod_pattern(words("abc\nbc")) is None
    assert matches_submod_pattern(words("ab\nbc")) is None


def test_known_hard_catalog():
    assert match_known_hard(words("ab\nbc\nca")) is not None
    hit = match_known_hard(words("xy\nyz\nzx"))  # renamed triangle
    assert hit is not None
    assert hit["renaming"]
    assert match_known_hard(words("ab\ncd")) is None


def test_known_hard_catalog_mirror():
    mirrored = lang.mirror_finite(words("abcd\nbef"))
    hit = match_known_hard(mirrored)
    assert hit is not None
    assert hit["mirrored"]


# ---------------------------------------------------------------------------
# full pipeline: tractable cases


def test_classify_local():
    for text in ("ax*b", "ab|ad|cd", "a|b", "abc|abd", "a*"):
        verdict = c(text)
        assert verdict.status == PTIME, text
        assert verdict.method == "local", text


def test_classify_bcl():
    verdict = c("ab|bc")
    assert verdict.status == PTIME
    assert verdict.method == "bcl"
    assert c("axb|byc").method == "bcl"


def test_classify_submod():
    verdict = c("abc|be")
    assert verdict.status == PTIME
    assert verdict.method == "submod"
    assert c("abcd|ce").method == "submod"


def test_classify_uses_reduction_first():
    # a|ab reduces to a, which is local
    verdict = c("a|ab")
    assert verdict.status == PTIME
    assert verdict.method == "local"


# ---------------------------------------------------------------------------
# full pipeline: hard cases


def test_classify_repeated_letter():
    for text in ("aa", "aaaa", "abca|cab"):
        verdict = c(text)
        assert verdict.status == NP_HARD, text
        assert verdict.reason == "repeated letter", text
        assert verdict.witness["kind"] == "repeated-letter"


def test_repeated_letter_word_is_the_least_enumerated_one():
    rng = random.Random(303)
    checked = 0
    for _ in range(400):
        reduced = reduce_regular(automaton_for(_random_regex(rng, 4, "abcd~")))
        if not is_finite_language(reduced):
            continue
        repeating = [w for w in language_words(reduced) if len(set(w)) < len(w)]
        assert classifier.repeated_letter_word(reduced) == min(repeating, default=None)
        checked += bool(repeating)
    assert checked > 20


def test_classify_repeated_letter_past_the_word_cap():
    # the reduction a(a|b)^14 has 2^14 words, over the enumeration cap
    verdict = c("(a|b)*a" + "(a|b)" * 14)
    assert (verdict.status, verdict.reason) == (NP_HARD, "repeated letter")
    assert verdict.witness == {
        "kind": "repeated-letter", "word": "a" * 15, "letter": "a",
        "before": "~", "gap": "~", "after": "a" * 13,
    }
    # 7^5 words that repeat no letter, and one more so that the language
    # is not local: the cap stays unknown
    groups = ["(" + "|".join(f"[{g}{k}]" for k in range(7)) + ")" for g in "pqrst"]
    verdict = c("".join(groups) + "|[p0][r0]")
    assert verdict.status == UNKNOWN
    assert verdict.reason == "resource cap: word enumeration exceeded the 10000-word cap"


def test_classify_four_legged():
    verdict = c("axb|cxd")
    assert verdict.status == NP_HARD
    assert verdict.witness["kind"] == "four-legged"


def test_classify_catalog():
    for text in ("ab|bc|ca", "abc|be|ef", "abcd|bef", "abcd|be|ef"):
        verdict = c(text)
        assert verdict.status == NP_HARD, text
        assert verdict.witness["kind"] == "catalog", text


def test_classify_non_aperiodic():
    verdict = c("b(aa)*d")
    assert verdict.status == NP_HARD
    assert verdict.witness["kind"] == "non-aperiodic"
    assert verdict.witness["period"] >= 2


def test_classify_four_legged_infinite():
    verdict = c("ax*b|cxd")
    assert verdict.status == NP_HARD
    assert verdict.witness["kind"] == "four-legged"


def test_classify_neutral_letter():
    verdict = c("e*be*ce*|e*de*fe*")
    assert verdict.status == NP_HARD
    assert verdict.reason == "neutral letter dichotomy"
    assert verdict.witness["letter"] == "e"


# ---------------------------------------------------------------------------
# full pipeline: open cases


def test_classify_unknown():
    for text in ("abcd|be", "abc|bcd", "abc|bef", "ax*b|xd", "a(b|c)*a"):
        verdict = c(text)
        assert verdict.status == UNKNOWN, text
        assert verdict.method is None


def test_classify_chain_non_bipartite_is_conjectured_only():
    # chain language, odd endpoint cycle, but not in the proven catalog
    verdict = c("axb|byc|cza")
    assert verdict.status == UNKNOWN
    assert "conjectured" in verdict.reason


def test_classify_accepts_word_lists_and_automata():
    assert classify(words("ab\nbc")).method == "bcl"
    assert classify(automaton_for("aa")).status == NP_HARD


def test_classify_reports_caps_as_unknown():
    verdict = classify("ab|bc", state_cap=3)
    assert verdict.status == UNKNOWN
    assert verdict.reason.startswith("resource cap")


def test_automata_are_not_kept_alive():
    A = automaton_for("pq|qr")
    ref = weakref.ref(A)
    assert classify(A).status == PTIME
    del A
    gc.collect()
    assert ref() is None


def test_classify_deep_regexes():
    for text in ("a" + "*" * 3000, "(" * 600 + "a" + ")" * 600):
        verdict = classify(text)
        assert (verdict.status, verdict.method) == (PTIME, "local")
