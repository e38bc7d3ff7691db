"""The exit-code contract under random input.

Every subcommand is fed random text as its regex, database, word list,
automaton, gadget JSON and graph.  Whatever the input, the command must
exit 0, 2, 3 or 4 without an uncaught exception, and a failure must be
reported as one ``error:`` line.  A database printed by ``encode`` must
read back.
"""

import json

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from rpqres import graphdb
from rpqres.cli import main

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CHARS = st.characters(codec="utf-8", exclude_characters="\r")
# tokens that the text formats give a meaning to, and some they reject
TOKENS = st.sampled_from(
    ["a", "b", "c", "u", "v", "w", "ab", "EPS", "~", "#", "->", "0", "1", "3",
     "-1", "x#y", "99999999999999999999999", "states", "initial", "final"]
)
LINE = st.one_of(
    st.lists(TOKENS, max_size=5).map(" ".join),
    st.text(CHARS, max_size=12),
)
TEXT = st.lists(LINE, max_size=8).map("\n".join)
REGEX = st.one_of(
    st.text(st.sampled_from("abcx()|*+?~ "), max_size=14),
    st.text(CHARS, max_size=8),
)

JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(allow_nan=False),
    TOKENS, st.text(CHARS, max_size=6),
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(CHARS, max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
FACT = st.lists(st.one_of(TOKENS, JSON_VALUE), min_size=3, max_size=3)
ODD = st.one_of(st.sampled_from(["n#1", "a b", "", "x\ty", "#", "->"]), JSON_VALUE)


@st.composite
def gadget_docs(draw):
    """The chain gadget of aa, with some node names or fields replaced by
    odd tokens or arbitrary JSON values, and maybe some extra facts."""
    names = {"t_in": "t_in", "t_out": "t_out", "m": "m", "n": "n", "label": "a"}
    for key in draw(st.lists(st.sampled_from(sorted(names)), max_size=2, unique=True)):
        names[key] = draw(ODD)
    t_in, t_out, m, n, a = (names[k] for k in ("t_in", "t_out", "m", "n", "label"))
    doc = {
        "facts": [[t_in, a, m], [m, a, n], [t_out, a, n]] + draw(st.lists(FACT, max_size=2)),
        "t_in": t_in,
        "t_out": t_out,
        "label": a,
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=1)):
        doc[key] = draw(ODD)
    if draw(st.booleans()):
        doc["expected_odd_length"] = draw(st.one_of(st.integers(-1, 7), JSON_VALUE))
    return json.dumps(doc)


GADGET = st.one_of(gadget_docs(), JSON_VALUE.map(json.dumps), TEXT)


def invoke(tmp, files, args):
    """Run the CLI with each ``files`` entry written to a file under
    ``tmp``; an argument ``@name`` stands for the path of file ``name``."""
    paths = {}
    for name, text in files.items():
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        paths["@" + name] = str(path)
    result = CliRunner().invoke(main, [paths.get(arg, arg) for arg in args])
    assert result.exit_code in (0, 2, 3, 4), (args, files, result.exception)
    if result.exception is not None:
        assert isinstance(result.exception, SystemExit), (args, files)
    assert "Traceback" not in result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    if result.exit_code in (2, 4):
        assert len(errors) == 1 and result.stderr == errors[0] + "\n", result.stderr
    return result


@FUZZ
@given(regex=REGEX, as_json=st.booleans())
def test_fuzz_classify_regex(tmp_path_factory, regex, as_json):
    args = ["classify"] + ["--json"] * as_json + ["--", regex]
    invoke(tmp_path_factory.mktemp("f"), {}, args)


@FUZZ
@given(words=TEXT, automaton=TEXT)
def test_fuzz_classify_and_automaton_files(tmp_path_factory, words, automaton):
    tmp = tmp_path_factory.mktemp("f")
    files = {"words": words, "nfa": automaton}
    invoke(tmp, files, ["classify", "--words", "@words"])
    invoke(tmp, files, ["classify", "--automaton", "@nfa"])
    for mode in ("--to-ro", "--is-local", "--reduce"):
        invoke(tmp, files, ["automaton", mode, "--automaton", "@nfa"])
        invoke(tmp, files, ["automaton", mode, "--words", "@words"])


@FUZZ
@given(
    regex=REGEX,
    db=TEXT,
    flags=st.lists(
        st.sampled_from(["--set", "--witness", "--json", "--solver=local",
                         "--solver=bcl", "--solver=submod", "--solver=exact"]),
        max_size=2,
    ),
)
def test_fuzz_resilience_and_matches(tmp_path_factory, regex, db, flags):
    tmp = tmp_path_factory.mktemp("f")
    files = {"db": db}
    invoke(tmp, files, ["resilience"] + flags + ["--", regex, "@db"])
    invoke(tmp, files, ["matches", "--", regex, "@db"])


@FUZZ
@given(words=TEXT, automaton=TEXT, db=TEXT)
def test_fuzz_resilience_language_files(tmp_path_factory, words, automaton, db):
    tmp = tmp_path_factory.mktemp("f")
    files = {"words": words, "nfa": automaton, "db": db}
    invoke(tmp, files, ["resilience", "--words", "@words", "@db"])
    invoke(tmp, files, ["resilience", "--automaton", "@nfa", "@db"])
    invoke(tmp, files, ["matches", "--words", "@words", "@db"])


@FUZZ
@given(gadget=GADGET, regex=REGEX, graph=TEXT)
def test_fuzz_gadget_commands(tmp_path_factory, gadget, regex, graph):
    tmp = tmp_path_factory.mktemp("f")
    files = {"gadget": gadget, "graph": graph}
    invoke(tmp, files, ["validate-gadget", "--", "@gadget", regex])
    invoke(tmp, files, ["validate-gadget", "--json", "@gadget", "aa"])
    encoded = invoke(tmp, files, ["encode", "@graph", "@gadget"])
    if encoded.exit_code == 0:
        graphdb.parse_db(encoded.stdout)
