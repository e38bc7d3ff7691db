"""Words, reduction, repeated letters, and the regex layer."""

from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

import oracles
from rpqres import lang
from rpqres.errors import InputError


def w(text):
    return lang.parse_word(text)


# ---------------------------------------------------------------------------
# word parsing and rendering


def test_parse_word_basics():
    assert w("abc") == ("a", "b", "c")
    assert w("~") == ()
    assert w("[load]b") == ("load", "b")
    assert w("[*]") == ("*",)


def test_parse_word_rejects_garbage():
    with pytest.raises(InputError):
        w("")
    with pytest.raises(InputError):
        w("a b")
    with pytest.raises(InputError):
        w("a*b")  # reserved outside brackets
    with pytest.raises(InputError):
        w("[ab")
    with pytest.raises(InputError):
        w("[]")


def test_render_word_brackets_long_letters():
    assert lang.render_word(()) == "~"
    assert lang.render_word(("a", "load", "b")) == "a[load]b"


def test_parse_words_list():
    text = "ab  # a comment\n\n~\n[x]y\n"
    assert lang.parse_words(text) == frozenset({("a", "b"), (), ("x", "y")})


words_st = st.lists(
    st.sampled_from("abcx"), min_size=0, max_size=6
).map(tuple)


@given(words_st)
def test_word_roundtrip(word):
    assert lang.parse_word(lang.render_word(word)) == word


# ---------------------------------------------------------------------------
# infixes and reduction


def test_infix_definitions():
    assert lang.is_infix(w("bc"), w("abcd"))
    assert lang.is_infix(w("abcd"), w("abcd"))
    assert not lang.is_infix(w("ca"), w("abcd"))
    assert lang.is_strict_infix(w("bc"), w("abcd"))
    assert not lang.is_strict_infix(w("abcd"), w("abcd"))
    assert lang.is_infix((), w("a"))


def test_reduce_drops_superwords():
    language = {w("a"), w("aa"), w("ba"), w("cb")}
    assert lang.reduce_finite(language) == {w("a"), w("cb")}


def test_reduce_keeps_incomparable_words():
    language = {w("abc"), w("bcd")}
    assert lang.reduce_finite(language) == frozenset(language)


@given(st.frozensets(words_st, max_size=8))
def test_reduce_is_idempotent(language):
    once = lang.reduce_finite(language)
    assert lang.reduce_finite(once) == once


@given(st.frozensets(words_st, max_size=8))
def test_reduce_matches_bruteforce(language):
    assert lang.reduce_finite(language) == oracles.brute_reduce(language)


@given(st.frozensets(words_st, max_size=8))
def test_mirror_is_an_involution(language):
    assert lang.mirror_finite(lang.mirror_finite(language)) == frozenset(language)


def test_mirror_reverses_each_word():
    assert lang.mirror_finite({w("abc")}) == {w("cba")}


# ---------------------------------------------------------------------------
# repeated letters and maximal gaps


def test_has_repeated_letter():
    hit = lang.has_repeated_letter(w("abca"))
    assert hit.letter == "a"
    assert hit.before == ()
    assert hit.gap == ("b", "c")
    assert hit.after == ()
    assert lang.has_repeated_letter(w("abc")) is None


class GapDecomposition(NamedTuple):
    word: tuple
    before: tuple
    letter: str
    gap: tuple
    after: tuple


def maximal_gap_words(language):
    """Words whose repeated letters are farthest apart.

    Among all decompositions word = before + a + gap + a + after over the
    whole language, keep the words achieving the largest ``gap`` length,
    then the longest words among those.  One witnessing decomposition per
    word (the first pair of maximal gap), words in lexicographic order.
    """
    found = []
    for word in sorted(frozenset(language)):
        best = None
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                if word[i] == word[j] and (best is None or j - i - 1 > best[0]):
                    best = (j - i - 1, i, j)
        if best is not None:
            found.append((best[0], word, best[1], best[2]))
    if not found:
        raise InputError("no word of the language has a repeated letter")
    top_gap = max(gap for gap, _, _, _ in found)
    widest = [entry for entry in found if entry[0] == top_gap]
    top_len = max(len(word) for _, word, _, _ in widest)
    return [
        GapDecomposition(word, word[:i], word[i], word[i + 1 : j], word[j + 1 :])
        for gap, word, i, j in widest
        if len(word) == top_len
    ]


def test_maximal_gap_prefers_wider_then_longer():
    # gaps: aba -> 1, abca -> 2
    result = maximal_gap_words({w("aba"), w("abca")})
    assert [d.word for d in result] == [w("abca")]
    d = result[0]
    assert d.word == d.before + (d.letter,) + d.gap + (d.letter,) + d.after
    assert len(d.gap) == 2


def test_maximal_gap_needs_a_repeat():
    with pytest.raises(InputError):
        maximal_gap_words({w("abc")})


# ---------------------------------------------------------------------------
# regexes


def test_parse_regex_shapes():
    a, b, c = lang.RLetter("a"), lang.RLetter("b"), lang.RLetter("c")
    r = lang.parse_regex("ab|c*")
    assert r == lang.RUnion((lang.RConcat((a, b)), lang.RStar(c)))


def test_parse_regex_brackets_and_epsilon():
    r = lang.parse_regex("[go]~")
    assert r == lang.RConcat((lang.RLetter("go"), lang.REpsilon()))


def test_parse_regex_rejects_garbage():
    for bad in ("", "a|", "(a", "a)", "*a", "[", "a**b("):
        with pytest.raises(InputError):
            lang.parse_regex(bad)


def test_parse_regex_collapses_repeated_stars():
    assert lang.parse_regex("a**") == lang.parse_regex("a*")
    assert lang.parse_regex("(ab)***c") == lang.parse_regex("(ab)*c")
    assert lang.parse_regex("a" + "*" * 3000) == lang.RStar(lang.RLetter("a"))


def test_regex_tokens_take_a_run_of_stars_at_once():
    kinds = [t.kind for t in lang._tokenize_regex("a** [bc]")]
    assert kinds == ["letter", "*", "letter", "end"]
    with pytest.raises(InputError, match="expected an expression at position 1"):
        lang.parse_regex("(***a)")


def test_parse_regex_nesting_is_not_recursive():
    assert lang.parse_regex("(" * 600 + "a" + ")" * 600) == lang.RLetter("a")
    with pytest.raises(InputError, match="expected '\\)' at position 1200"):
        lang.parse_regex("(" * 600 + "a" + ")" * 599)
    with pytest.raises(InputError, match="unexpected '\\)' at position 601"):
        lang.parse_regex("(" * 300 + "a" + ")" * 301)


def test_regex_to_string_parses_back():
    for text in ("ab|c", "(a|b)*c", "a(b|~)d", "[load]x*"):
        r = lang.parse_regex(text)
        again = lang.parse_regex(lang.regex_to_string(r))
        assert again == r


def test_deep_regex_trees_are_walked_without_recursion():
    text = "(" * 600 + "a" + "b)" * 600
    r = lang.parse_regex(text)
    expected = lang.RLetter("a")
    for _ in range(600):
        expected = lang.RConcat((expected, lang.RLetter("b")))
    assert r == expected
    # each inner concatenation keeps its brackets
    printed = lang.regex_to_string(r)
    assert printed == "(" * 599 + "ab)" + "b)" * 598 + "b"
    assert lang.regex_to_string(lang.parse_regex(printed)) == printed
    # a deep starred union needs its brackets at every level
    text = "(" * 600 + "a" + "|b)*" * 600
    assert lang.regex_to_string(lang.parse_regex(text)) == text


def test_deep_regex_trees_compare_hash_and_print_without_recursion():
    text = "(" * 600 + "a" + "b)" * 600
    r, again = lang.parse_regex(text), lang.parse_regex(text)
    assert r == again and not r != again
    assert hash(r) == hash(again) and {r: 1}[again] == 1
    assert r != lang.parse_regex("(" * 600 + "a" + "b)" * 599 + "a)")
    assert r != lang.parse_regex("(" * 599 + "a" + "b)" * 599)
    assert repr(r) == (
        "RConcat(parts=(" * 600 + "RLetter(letter='a')"
        + ", RLetter(letter='b')))" * 600
    )


def test_regex_equality_hash_and_repr_keep_their_meaning():
    a, b = lang.RLetter("a"), lang.RLetter("b")
    assert lang.parse_regex("a(b|c)*") == lang.parse_regex("a(b|c)*")
    assert lang.parse_regex("ab") != lang.parse_regex("ba")
    assert lang.RConcat((a, b)) != lang.RUnion((a, b))
    assert lang.RConcat((a, b)) != lang.RConcat((a, b, b))
    assert lang.RStar(a) != a and a != "a"
    assert len({lang.RStar(a), lang.RStar(lang.RLetter("a")), lang.REmpty(),
                lang.REmpty(), lang.REpsilon()}) == 3
    assert repr(lang.parse_regex("a*|~|∅")) == (
        "RUnion(parts=(RStar(inner=RLetter(letter='a')), REpsilon(), REmpty()))"
    )
    assert repr(lang.RConcat((a,))) == "RConcat(parts=(RLetter(letter='a'),))"
