"""Automaton algebra: construction, determinization, locality, reduction."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_acceptance import _random_regex
from rpqres import automata, lang
from rpqres.classifier import UNKNOWN, classify
from rpqres.automata import (
    accepts,
    automaton_for,
    determinize,
    eps_nfa_to_ro,
    is_equivalent,
    is_finite_language,
    is_local_language,
    is_neutral_letter,
    is_subset,
    language_words,
    minimize,
    neutral_letters,
    non_aperiodic_witness,
    parse_automaton,
    reduce_regular,
    regex_to_epsnfa,
    serialize_automaton,
    trim,
    words_to_nfa,
)
from rpqres.errors import InputError, ResourceCapError


def A(text):
    return automaton_for(text)


def wd(text):
    return lang.parse_word(text)


# ---------------------------------------------------------------------------
# acceptance and construction


def test_regex_acceptance():
    ab = A("ax*b")
    assert accepts(ab, wd("ab"))
    assert accepts(ab, wd("axxxb"))
    assert not accepts(ab, wd("a"))
    assert not accepts(ab, wd("axa"))


def test_regex_to_epsnfa_numbers_states_in_preorder():
    r = lang.RConcat((lang.RLetter("a"), lang.RStar(lang.RLetter("b"))))
    m = automata.regex_to_epsnfa(r)
    # Thompson numbers the concatenation 0 and 1, the letter a 2 and 3, the
    # star 4 and 5, its letter 6 and 7; 0 and 2 merge into state 0, the
    # rest into state 1
    assert (m.states, m.initial, m.final) == ({0, 1}, {0}, {1})
    assert m.transitions == {(0, "a", 1), (1, "b", 1)}
    # a star beside an empty word keeps its epsilon moves: the union's
    # start 0 and end 1 and the star's loop, which stands for 2
    m = A("a*|~")
    assert (m.states, m.initial, m.final) == ({0, 1, 2}, {0}, {1})
    assert m.transitions == {(0, None, 1), (0, None, 2), (2, "a", 2), (2, None, 1)}


def test_regex_to_epsnfa_deep_tree():
    m = automata.regex_to_epsnfa(lang.parse_regex("(" * 600 + "a" + "b)" * 600))
    assert len(m.states) == 602  # a chain; Thompson's has 2 * 1201
    assert accepts(m, wd("a" + "b" * 600))
    assert not accepts(m, wd("a" + "b" * 599))


def _rule_fires(m):
    """Whether one of the two contraction rules of `regex_to_epsnfa` still
    applies, or an epsilon self-loop is left."""
    out, into = {}, {}
    for src, label, dst in m.transitions:
        out.setdefault(src, []).append(label)
        into.setdefault(dst, []).append(label)
        if label is None and src == dst:
            return True
    return any(
        (s not in m.final and out.get(s) == [None])
        or (s not in m.initial and into.get(s) == [None])
        for s in m.states
    )


def _python_regex(text):
    return text.replace("~", "(?:)").replace("∅", "(?!)")


def test_regex_automaton_matches_python_re():
    # criterion 09's random regexes, as written and with every c leaf
    # turned into the empty language
    rng = random.Random(909)
    words = [
        "".join(p) for n in range(5) for p in itertools.product("abc", repeat=n)
    ]
    for _ in range(600):
        text = _random_regex(rng, 4)
        for variant in (text, text.replace("(c)", "(∅)")):
            m = automaton_for(variant)
            assert not _rule_fires(m), variant
            assert m.initial == {0} and m.states == set(range(len(m.states)))
            pattern = re.compile(_python_regex(variant))
            for word in words:
                assert accepts(m, tuple(word)) == bool(pattern.fullmatch(word)), (
                    variant, word,
                )


def test_regex_automaton_contracts_every_epsilon_move():
    for text in ("ab|bc|ca", "a(b|c)*d", "b(aa)*d", "ax*b|cxd"):
        m = A(text)
        assert all(label is not None for _, label, _ in m.transitions), text
    # epsilon moves that only a merge makes parallel still contract
    assert A("(~|~*)(a|a)").transitions == {(0, "a", 1)}


@pytest.mark.parametrize("moves", [
    # merging 3 into 2 leaves 4 one epsilon move in, after 4 was checked
    [(0, "x", 2), (2, None, 3), (2, None, 4), (3, None, 4), (3, "y", 1), (4, "w", 1)],
    # merging 2 into 3 leaves 4 one epsilon move out, after 4 was checked
    [(0, "x", 4), (4, None, 2), (4, None, 3), (2, None, 3), (0, "z", 3), (3, "y", 1)],
])
def test_contraction_rechecks_the_states_a_merge_touches(moves):
    m = automata._contracted(list(range(5)), moves, frozenset("wxyz"))
    assert not _rule_fires(m)
    assert is_equivalent(m, automata.make_nfa(range(5), [0], [1], moves))


def test_words_to_nfa_exact():
    m = words_to_nfa({wd("ab"), wd("c")})
    assert accepts(m, wd("ab"))
    assert accepts(m, wd("c"))
    assert not accepts(m, wd("abc"))
    assert not accepts(m, ())


def test_automaton_for_accepts_many_specs():
    r = lang.parse_regex("ab")
    for spec in ("ab", r, regex_to_epsnfa(r), [wd("ab")]):
        assert accepts(automaton_for(spec), wd("ab"))
    with pytest.raises(InputError):
        automaton_for(42)
    with pytest.raises(InputError):
        automaton_for(["ab"])  # strings are not words


# regexes over a tiny alphabet, depth-bounded
regex_st = st.recursive(
    st.sampled_from(["a", "b", "c", "~"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: f"({t[0]})({t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]})|({t[1]})"),
        inner.map(lambda r: f"({r})*"),
    ),
    max_leaves=6,
)

short_words = [
    tuple(p)
    for n in range(4)
    for p in __import__("itertools").product("abc", repeat=n)
]


@given(regex_st)
@settings(max_examples=60, deadline=None)
def test_determinize_preserves_language(text):
    m = A(text)
    d = determinize(m)
    assert automata.is_deterministic(d)
    for word in short_words:
        assert accepts(m, word) == accepts(d, word)


@given(regex_st)
@settings(max_examples=60, deadline=None)
def test_complement_flips_membership(text):
    m = A(text)
    c = automata.EpsNFA(*oracles.complement(determinize(m), frozenset("abc")))
    for word in short_words:
        assert accepts(m, word) != accepts(c, word)


@given(regex_st)
@settings(max_examples=40, deadline=None)
def test_trim_preserves_language(text):
    m = A(text)
    t = trim(m)
    for word in short_words:
        assert accepts(m, word) == accepts(t, word)
    assert is_equivalent(m, t)


def test_trim_is_kept_on_the_automaton():
    moves = [(0, "a", 1), (1, "b", 2), (0, "c", 3)]
    m = automata.make_nfa(range(4), [0], [2], moves)
    t = trim(m)
    assert t.states == {0, 1, 2}
    assert trim(m) is t and trim(t) is t
    again = automata.make_nfa(range(4), [0], [2], moves)
    assert again == m and hash(again) == hash(m) and repr(again) == repr(m)
    assert trim(again) is not t and trim(again) == t


def test_subset_and_equivalence():
    assert is_subset(A("ab"), A("ab|cd"))
    assert not is_subset(A("ab|cd"), A("ab"))
    assert is_equivalent(A("a(b|c)"), A("ab|ac"))


def test_tables_stay_out_of_equality_and_repr():
    m, again = A("a(b|c)*"), A("a(b|c)*")
    before = (repr(m), hash(m))
    assert accepts(m, wd("abc"))  # builds the tables of m only
    assert "_tables" in vars(m) and "_tables" not in vars(again)
    assert m == again and (repr(m), hash(m)) == before


def test_tables_are_built_once_outside_the_fields():
    m, again = A("ab*|c"), A("ab*|c")
    first = m.tables
    assert m.tables is first and vars(m)["_tables"] is first
    assert m == again and hash(m) == hash(again) and repr(m) == repr(again)
    assert again.tables == first and again.tables is not first
    assert m == again and hash(m) == hash(again) and repr(m) == repr(again)
    assert "_tables" not in repr(m)


def test_inclusion_stops_at_a_counterexample_before_the_cap():
    # the counterexample a needs one subset of (ab|bc)*c beyond its start,
    # while determinizing (ab|bc)*c needs more than two
    assert not is_subset(A("a"), A("(ab|bc)*c"), state_cap=2)
    with pytest.raises(ResourceCapError):
        determinize(A("(ab|bc)*c"), state_cap=2)
    with pytest.raises(ResourceCapError):
        is_subset(A("(ab|bc)*c"), A("(ab|bc)*c"), state_cap=2)


def _is_trim_dfa(D):
    """At most one initial state, no epsilon moves, at most one move per
    state and letter, and every state reachable and co-reachable."""
    moves = [(src, label) for src, label, _ in D.transitions]
    if len(D.initial) > 1 or None in {label for _, label in moves}:
        return False
    return len(set(moves)) == len(moves) and oracles.trim(D).states == D.states


def test_tables_match_the_reference_constructions():
    rng = random.Random(707)
    texts = [_random_regex(rng, 4) for _ in range(300)]
    texts += ["e*be*ce*|e*de*fe*", "b(aa)*d", "(ab|bc)*c", "(" * 30 + "a" + "b)" * 30]
    empty = automata.make_nfa({0}, {0}, (), (), "ab")
    machines = [A(text) for text in texts] + [empty]
    for m in machines:
        d = determinize(m)
        assert (d.states, d.initial, d.final, d.transitions, d.alphabet) == (
            oracles.subset_construction(m)
        )
        reduced, reference = reduce_regular(m), oracles.reference_reduce(m)
        assert oracles.included(reduced, reference)
        assert oracles.included(reference, reduced)
        assert _is_trim_dfa(reduced)
    # pairs over different alphabets, with the empty language and the
    # empty word among them
    shifted = [A(_random_regex(rng, 3).replace("a", "d")) for _ in range(60)]
    pool = machines[:60] + shifted + [empty, A("~")]
    for _ in range(600):
        x, y = rng.choice(pool), rng.choice(pool)
        assert is_subset(x, y) == oracles.included(x, y)


def test_minimize_matches_brzozowski():
    rng = random.Random(909)
    checked = 0
    for _ in range(300):
        m = A(_random_regex(rng, 4))
        for given in (m, reduce_regular(m)):
            d = minimize(given)
            assert len(d.initial) == 1 and None not in {t[1] for t in d.transitions}
            moves = {(src, label): dst for src, label, dst in d.transitions}
            assert len(moves) == len(d.transitions) == len(d.states) * len(d.alphabet)
            assert oracles.included(d, given) and oracles.included(given, d)
            assert len(d.states) == len(oracles.brzozowski_minimal(given).states)
            checked += 1
    assert checked == 600


# ---------------------------------------------------------------------------
# finiteness and word enumeration


def test_language_words_sorted():
    assert language_words(A("ba|ab|a")) == [wd("a"), wd("ab"), wd("ba")]


def test_language_words_reads_a_dfa_as_it_is():
    # a complete DFA with a dead state and a trim DFA, both deterministic
    # already, list the same words as the automaton they come from
    for text in ("ba|ab|a", "a(b|c)d|ae", "(a|b)c*", "a(b|c)*a"):
        m = A(text)
        for D in (determinize(m), reduce_regular(m)):
            assert automata.is_deterministic(D)
            expected = [w for w in language_words(m, max_len=5) if accepts(D, w)]
            assert language_words(D, max_len=5) == expected, text


def test_language_words_infinite_needs_cap():
    with pytest.raises(InputError):
        language_words(A("a*"))
    assert language_words(A("a*"), max_len=2) == [(), wd("a"), wd("aa")]


def test_language_words_word_cap():
    with pytest.raises(ResourceCapError):
        language_words(A("a|b|c|ab|ac"), max_words=3)
    # the default cap: 10,000 words pass, and 11^4 = 14,641 are refused
    # while the prefixes are still being extended
    assert len(language_words(A("(a|b|c|d|e|f|g|h|i|j)" * 4))) == 10_000
    with pytest.raises(ResourceCapError, match="10000-word cap"):
        language_words(A("(a|b|c|d|e|f|g|h|i|j|k)" * 4))


def test_is_finite_language():
    assert is_finite_language(A("abc|d"))
    assert not is_finite_language(A("ab*"))
    # unreachable loops do not count
    loop = automata.make_nfa(
        {0, 1, 2}, {0}, {1}, {(0, "a", 1), (2, "b", 2)}
    )
    assert is_finite_language(loop)


def test_is_finite_language_matches_the_pumping_bound():
    rng = random.Random("finite language")
    covered = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        transitions = {
            (rng.randrange(n), rng.choice(("a", "b", None)), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))
        }
        p, q = rng.randrange(n), rng.randrange(n)
        transitions |= {(p, None, q), (q, None, p)}  # pumps nothing
        s = rng.randrange(n)
        transitions.add((s, rng.choice("ab"), s))  # maybe dead or unreachable
        initial = {rng.randrange(n) for _ in range(rng.randint(1, 2))}
        final = {rng.randrange(n) for _ in range(rng.randint(1, 2))}
        nfa = automata.make_nfa(range(n), initial, final, transitions, "ab")
        finite = is_finite_language(nfa)
        assert finite == oracles.brute_is_finite(nfa), (n, initial, final, transitions)
        covered.add(finite)
        useful = oracles.trim(nfa).states
        if finite and p != q and {p, q} <= useful:
            covered.add("epsilon-only cycle")
        if finite and s not in useful:
            covered.add("letter loop on a useless state")
    assert covered == {
        True, False, "epsilon-only cycle", "letter loop on a useless state"
    }


# ---------------------------------------------------------------------------
# the read-once construction


def test_ro_shape():
    ro = eps_nfa_to_ro(A("ab|bc"))
    # one letter transition per letter
    labels = [label for _, label, _ in ro.transitions if label is not None]
    assert len(labels) == len(set(labels))
    assert sorted(labels) == ["a", "b", "c"]


def test_ro_overapproximates():
    m = A("ab|bc")
    ro = eps_nfa_to_ro(m)
    assert is_subset(m, ro)
    # abc starts with a first letter, ends with a last one, and ab and bc are
    # both pairs of adjacent letters, so the envelope accepts it
    assert accepts(ro, wd("abc"))
    assert not accepts(m, wd("abc"))


def test_ro_epsilon_handling():
    assert accepts(eps_nfa_to_ro(A("a*")), ())
    assert not accepts(eps_nfa_to_ro(A("a")), ())


def test_local_language_detection():
    assert is_local_language(A("ax*b"))
    assert not is_local_language(A("ab|bc"))
    assert is_local_language(A("ab|ad|cd"))


def _fresh(m):
    """The same automaton without the tables and answers kept on m."""
    return automata.EpsNFA(m.states, m.initial, m.final, m.transitions, m.alphabet)


def _locality_inputs():
    """Criterion 09's random regexes with their reductions, determinizations
    and envelopes, and random word lists, some holding the empty word."""
    rng = random.Random(97)
    for _ in range(400):
        m = A(_random_regex(rng, 4))
        yield from (m, reduce_regular(m), determinize(m), eps_nfa_to_ro(m))
    for _ in range(300):
        words = {
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 4))
        }
        yield words_to_nfa(words)


# one letter enters two equivalent states, and a letter read behind them
# enters a state that tells a word apart from the first one it enters
EQUIVALENT_PATHS = ("acd|bacd|de", "abcd|xabcd|ce", "abcde|xabcde|ef")


def _in_row_order(m, seed):
    """The trim of m, each row of its tables read in an order shuffled by
    the seed, so that no one iteration order of the transitions decides
    the answer."""
    trimmed = trim(m)
    T = _fresh(trimmed)
    start, after = trimmed.tables
    rng = random.Random(seed)
    rows = {}
    for s, row in after.items():
        items = list(row.items())
        rng.shuffle(items)
        rows[s] = dict(items)
    vars(T)["_tables"] = automata.Tables(start, rows)
    return T


def test_locality_matches_the_envelope_inclusion():
    inputs = locals_seen = 0
    for m in _locality_inputs():
        inputs += 1
        local = is_local_language(_fresh(m))
        assert local == oracles.reference_is_local(m), m
        locals_seen += local
    assert inputs == 4 * 400 + 300
    assert 0 < locals_seen < inputs


def test_locality_ignores_the_row_order():
    texts = EQUIVALENT_PATHS + ("ax*b", "ab|ad|cd", "a*(c|b)|~")
    rng = random.Random(98)
    texts += tuple(_random_regex(rng, 4) for _ in range(60))
    for text in texts:
        for m in (A(text), reduce_regular(A(text))):
            expected = oracles.reference_is_local(m)
            for seed in range(8):
                assert is_local_language(_in_row_order(m, seed)) == expected, (
                    text, seed,
                )
    for text in EQUIVALENT_PATHS:
        assert not oracles.reference_is_local(A(text))


def test_locality_reads_the_whole_start_closure():
    # the start closure holds the a-loop, the state before c|b and the
    # final state: no single start state stands for it
    m = A("a*(c|b)|~")
    assert len(m.tables.start) == 3 and not automata.is_deterministic(m)
    assert is_local_language(m) == oracles.reference_is_local(m)


def test_locality_stops_before_determinizing():
    # determinizing first meets 2^18 subsets; the search stops at the
    # first pair of a-states that tell a word apart, far below the cap
    m = A("(a|b)*a" + "(a|b)" * 17)
    assert not is_local_language(m, state_cap=1000)


# the fixed languages of the benchmark's lang-small workload
LANG_SMALL_FIXED = (
    "ax*b", "a(b|c)*d", "a|ab", "a|b", "aa|a", "ab|ad|cd", "abc|abd", "ab|c",
    "abc|d", "ab|bc", "axb|byc", "ab|bc|cd", "abc|cd", "abc|be", "abcd|ce",
    "aa", "aaa", "aaaa", "abca|cab", "axb|cxd", "b(aa)*d", "ax*b|cxd",
    "ab|bc|ca", "abc|be|ef", "abcd|bef", "abcd|be|ef", "e*be*ce*|e*de*fe*",
    "abc|bcd", "abcd|be", "abc|bef", "ax*b|xd",
)


def _envelope_inputs():
    """Criterion 09's random regexes, the lang-small languages, and random
    finite word sets, some over a letter that no word uses."""
    rng = random.Random(909)
    for _ in range(600):
        yield A(_random_regex(rng, 4))
    for text in LANG_SMALL_FIXED:
        yield A(text)
    rng = random.Random(19)
    for _ in range(150):
        words = {
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 5))
        }
        m = words_to_nfa(words)
        yield automata.EpsNFA(m.states, m.initial, m.final, m.transitions, frozenset("abcd"))


def test_envelope_is_the_reference_envelope_minimised():
    inputs = 0
    for m in _envelope_inputs():
        inputs += 1
        ro = eps_nfa_to_ro(m)
        reference = automata.EpsNFA(*oracles.reference_envelope(m))
        assert is_equivalent(ro, reference), m
        assert oracles.included(ro, reference) and oracles.included(reference, ro)
        labels = sorted(label for _, label, _ in ro.transitions if label is not None)
        assert labels == sorted(m.alphabet), m  # each letter labels one transition
        entered = {dst for _, label, dst in ro.transitions if label is None}
        left = {src for src, label, _ in ro.transitions if label is None}
        assert not entered & left, m
        assert not _rule_fires(trim(ro)), m
        assert len(ro.states) <= len(reference.states)
        assert is_local_language(m) == is_equivalent(m, reference), m
        assert eps_nfa_to_ro(m) is ro
    assert inputs == 600 + len(LANG_SMALL_FIXED) + 150


def test_envelope_merges_letters_with_the_same_followers():
    for text in ("ax*b", "a(b|c)*d"):
        ro = eps_nfa_to_ro(A(text))
        assert len(ro.states) == 3, text
        assert all(label is not None for _, label, _ in ro.transitions), text
    assert eps_nfa_to_ro(A("ax*b")).transitions == {
        (("a", "in"), "a", ("a", "out")),
        (("a", "out"), "x", ("a", "out")),
        (("a", "out"), "b", ("b", "out")),
    }
    # d follows a and c, but b follows only a: one epsilon move is left
    ro = eps_nfa_to_ro(A("ab|ad|cd"))
    assert [t for t in ro.transitions if t[1] is None] == [
        (("a", "out"), None, ("d", "in"))
    ]
    # a letter no accepted word uses keeps its transition, on dead states
    ro = eps_nfa_to_ro(automata.make_nfa({0, 1}, {0}, {1}, {(0, "a", 1)}, "az"))
    assert (("z", "in"), "z", ("z", "out")) in ro.transitions
    assert trim(ro).alphabet == {"a", "z"} and len(trim(ro).states) == 2


def test_letter_cartesian_finite_matches_bruteforce():
    for text in ("ab|bc", "ab|ad|cd", "abc|abd", "a|b", "abca|cab"):
        words = frozenset(language_words(A(text)))
        assert (
            oracles.letter_cartesian_counterexample(words) is None
        ) == oracles.brute_letter_cartesian(words)


# ---------------------------------------------------------------------------
# reduction on automata


def test_reduce_regular_drops_superwords():
    r = reduce_regular(A("a|aa|ba"))
    assert is_equivalent(r, A("a"))


def test_reduce_regular_of_infinite_language():
    # every word of a*b contains b, and b alone is in the language
    assert is_equivalent(reduce_regular(A("a*b")), A("b"))


def test_reduce_regular_fixed_point():
    r = reduce_regular(A("ab|bc"))
    assert is_equivalent(r, A("ab|bc"))
    assert is_equivalent(reduce_regular(r), r)


@given(regex_st)
@settings(max_examples=40, deadline=None)
def test_reduce_regular_idempotent(text):
    once = reduce_regular(A(text))
    assert is_equivalent(reduce_regular(once), once)


@given(regex_st)
@settings(max_examples=40, deadline=None)
def test_reduce_regular_matches_finite_reduce(text):
    m = A(text)
    if not is_finite_language(m):
        return
    reduced = lang.reduce_finite(language_words(m))
    assert is_equivalent(reduce_regular(m), words_to_nfa(reduced))


def _reduction_by_definition(m, max_len):
    """The words up to max_len in L(m) with no strict infix in L(m)."""
    words = [
        tuple(p)
        for n in range(max_len + 1)
        for p in itertools.product(sorted(m.alphabet), repeat=n)
    ]
    member = {w for w in words if oracles.accepts(m, w)}
    return words, {
        w for w in member
        if not any(
            w[i:j] in member
            for i in range(len(w) + 1)
            for j in range(i, len(w) + 1)
            if j - i < len(w)
        )
    }


def test_reduce_regular_matches_the_definition():
    rng = random.Random(1313)
    texts = [_random_regex(rng, rng.randint(2, 4)) for _ in range(300)]
    texts += ["a|~", "~", "a*", "a(b|c)*a", "ax*b|xd"]
    machines = [A(text) for text in texts]
    machines.append(automata.make_nfa({0}, {0}, (), (), "ab"))
    for m in machines:
        reduced = reduce_regular(m)
        assert _is_trim_dfa(reduced)
        words, expected = _reduction_by_definition(m, 5)
        for w in words:
            assert accepts(reduced, w) == (w in expected), (m, w)


def test_reduce_regular_state_cap():
    # the reduction a(a|b)(a|b)(a|b) keeps 16 of the 25 pairs it finds
    m = A("(a|b)*a(a|b)(a|b)(a|b)")
    with pytest.raises(ResourceCapError):
        reduce_regular(m, state_cap=8)
    verdict = classify(m, state_cap=8)
    assert verdict.status == UNKNOWN
    assert verdict.reason.startswith("resource cap")


# ---------------------------------------------------------------------------
# neutral letters and aperiodicity


def test_neutral_letter():
    m = A("e*be*ce*|e*de*fe*")
    assert is_neutral_letter(m, "e")
    assert not is_neutral_letter(m, "b")
    assert not is_neutral_letter(A("ab"), "a")


def test_neutral_letters_match_the_phased_reference():
    rng = random.Random(909)
    leaves = ("a", "b", "c", "~", "e", "e*")
    texts = [_random_regex(rng, 4, leaves) for _ in range(300)]
    texts += ["0", "e*be*ce*|e*de*fe*"]
    found = 0
    for text in texts:
        m = A(text)
        expected = {
            a for a in m.alphabet | {"z"} if oracles.reference_neutral_letter(m, a)
        }
        for a in sorted(m.alphabet) + ["z"]:  # z is foreign to every alphabet
            assert is_neutral_letter(m, a) == (a in expected), (text, a)
        assert neutral_letters(m) == expected - {"z"}, text
        found += len(expected - {"z"})
    assert is_neutral_letter(A("0"), "z") and neutral_letters(A("e*be*ce*|e*de*fe*")) == {"e"}
    assert found > 50


def test_aperiodicity():
    assert non_aperiodic_witness(A("ax*b")) is None
    witness = non_aperiodic_witness(A("b(aa)*d"))
    assert witness is not None
    word, period = witness
    assert period >= 2
    # the witness word pumps with the stated period
    m = A("b(aa)*d")
    probe = wd("b") + word * period + wd("d")
    probe2 = wd("b") + word * (2 * period) + wd("d")
    probe1 = wd("b") + word + wd("d")
    assert accepts(m, probe) == accepts(m, probe2)
    assert accepts(m, probe1) != accepts(m, probe) or period == 1


def test_aperiodic_star_of_letter():
    assert non_aperiodic_witness(A("a*")) is None
    assert non_aperiodic_witness(A("(ab)*")) is None  # despite the star
    assert non_aperiodic_witness(A("(aa)*")) is not None


# ---------------------------------------------------------------------------
# serialization


def test_serialize_roundtrip():
    m = determinize(A("ab|ax*b"))
    again = parse_automaton(serialize_automaton(m))
    assert is_equivalent(m, again)


def test_serialize_is_stable():
    m = A("ab|cd")
    assert serialize_automaton(m) == serialize_automaton(m)


def test_parse_automaton_rejects_unknown_state():
    text = "states p\ninitial p\nfinal p\np\ta\tq\n"
    with pytest.raises(InputError):
        parse_automaton(text)
