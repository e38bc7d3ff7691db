"""End-to-end runs of the command-line interface."""

import json
import os
import random
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import rpqres
from rpqres import gadgets
from rpqres.cli import main


def run(*args, stdin=None):
    return CliRunner().invoke(main, list(args), input=stdin)


def write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


CHAIN_DB = "u a v\nv x w 3\nw b z\n"


def test_classify_outputs():
    for text, expected in (
        ("ax*b", "PTIME (local)"),
        ("ab|bc", "PTIME (bcl)"),
        ("aa", "NP-hard (repeated letter)"),
        ("abc|bcd", "UNKNOWN"),
        ("a(b|c)*a", "UNKNOWN"),
    ):
        result = run("classify", text)
        assert result.exit_code == 0, result.output
        assert result.output == expected + "\n"


def test_classify_json():
    result = run("classify", "--json", "aa")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["status"] == "NP_HARD"
    assert payload["witness"]["kind"] == "repeated-letter"


def test_classify_json_long_legs():
    result = run("classify", "--json", "cdefghixb*q|jklmnopxz")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "NP_HARD"
    assert payload["reason"] == "four-legged"
    assert payload["witness"]["before1"] == "cdefghi"


def test_classify_rejects_two_sources(tmp_path):
    path = tmp_path / "w.txt"
    write(path, "ab\n")
    result = run("classify", "aa", "--words", str(path))
    assert result.exit_code == 2
    assert "exactly one language source" in result.output


def test_classify_bad_regex_exit_code():
    result = run("classify", "a(b")
    assert result.exit_code == 2
    assert result.output.startswith("error:")


def test_classify_deeply_nested_regex():
    result = run("classify", "(" * 600 + "a" + ")" * 600)
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.output == "PTIME (local)\n"


def test_classify_deep_concatenation():
    result = run("classify", "(" * 600 + "a" + "b)" * 600)
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.output == "NP-hard (repeated letter)\n"


def test_resilience_basic(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    result = run("resilience", "ax*b", str(db))
    assert result.exit_code == 0
    assert result.output == "1\nmethod local\n"


def test_resilience_stdin_and_witness():
    result = run("resilience", "ax*b", "-", "--witness", stdin=CHAIN_DB)
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "1"
    assert lines[1] == "method local"
    assert lines[2] == "u a v"


def test_resilience_reads_any_line_ending_and_separator():
    src = os.path.dirname(os.path.dirname(rpqres.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def resilience(stdin):
        return subprocess.run(
            [sys.executable, "-m", "rpqres.cli", "resilience", "--json",
             "--witness", "ax*b", "-"],
            env=env, input=stdin, capture_output=True,
        )

    plain = resilience(b"u a v\nv x w 3\nw b z 4\nu a w 2\n")
    assert plain.returncode == 0, plain.stderr
    assert json.loads(plain.stdout)["value"] == 3
    messy = resilience(
        b"# a chain\r\nu\ta\tv\r\n\r\nv x\tw 3  # middle\r\n"
        b"\tw b z 4\r\n# a shortcut\r\nu a w\t2\r\n"
    )
    assert messy.returncode == 0, messy.stderr
    assert messy.stdout == plain.stdout
    duplicate = resilience(b"u a v\nv x w 3\nu a v\nw b z\n")
    assert duplicate.returncode == 2
    assert duplicate.stdout == b""
    assert duplicate.stderr.decode() == (
        "error: line 3: duplicate fact u a v (state the multiplicity once)\n"
    )


def test_resilience_epsilon_is_inf(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    result = run("resilience", "a*", str(db))
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "inf"


def test_resilience_json(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    result = run("resilience", "--json", "ax*b", str(db))
    payload = json.loads(result.output)
    assert payload == {
        "value": 1,
        "method": "local",
        "contingency": [["u", "a", "v"]],
    }


def test_resilience_long_chain():
    # 100,000 facts along one path, the cheapest at position 61,803
    labels = ["a"] + ["x"] * 99_998 + ["b"]
    text = "".join(
        f"c{i} {label} c{i + 1} {3 if i == 61_803 else 4 + i % 89}\n"
        for i, label in enumerate(labels)
    )
    result = run("resilience", "--json", "ax*b", "-", stdin=text)
    assert result.exception is None
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "value": 3,
        "method": "local",
        "contingency": [["c61803", "x", "c61804"]],
    }


def test_resilience_set_flag(tmp_path):
    db = tmp_path / "m.db"
    write(db, "u a v 9\nv b w 5\n")
    assert run("resilience", "ab", str(db)).output.splitlines()[0] == "5"
    assert (
        run("resilience", "--set", "ab", str(db)).output.splitlines()[0] == "1"
    )


def test_resilience_solver_refusal_exit_code(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    result = run("resilience", "--solver", "bcl", "ax*b", str(db))
    assert result.exit_code == 4


def test_resilience_words_file(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    wl = tmp_path / "lang.words"
    write(wl, "ab\n")
    result = run("resilience", "--words", str(wl), str(db))
    assert result.exit_code == 0


def test_matches_dump(tmp_path):
    db = tmp_path / "pair.db"
    write(db, "u a v\nv b w\n")
    result = run("matches", "ab|b", str(db))
    assert result.exit_code == 0
    assert result.output == "u a v | v b w\nv b w\n"


def test_matches_long_word(tmp_path):
    n = 1500
    words, db = tmp_path / "long.words", tmp_path / "chain.db"
    write(words, "a" * n + "\n")
    write(db, "".join(f"n{i} a n{i + 1}\n" for i in range(n)))
    result = run("matches", "--words", str(words), str(db))
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert result.output.count("|") == n - 1
    assert result.output.startswith("n0 a n1 | n1 a n2 |")


@pytest.mark.parametrize("command", ["matches", "validate-gadget"])
def test_word_enumeration_is_capped(tmp_path, command):
    # (a|b) repeated 23 times has 2^23 words; the cap refuses it before
    # the prefixes are extended that far
    regex, target = "(a|b)" * 23, str(tmp_path / "target")
    if command == "matches":
        write(target, "u a v\n")
        args = (regex, target)
    else:
        write(target, gadgets.save_gadget(gadgets.builtin_gadgets()["aa"]))
        args = (target, regex)
    start = time.perf_counter()
    result = run(command, *args)
    assert time.perf_counter() - start < 10
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr == "error: word enumeration exceeded the 10000-word cap\n"


@pytest.mark.parametrize("command", ["resilience", "matches"])
def test_lang_db_argument_errors(tmp_path, command):
    db, words = tmp_path / "pair.db", tmp_path / "ab.words"
    write(db, "u a v\n")
    write(words, "ab\n")
    missing = str(tmp_path / "missing.db")
    for args, message in (
        ((str(db),), "expected LANG and DB arguments"),
        (("ab", str(db), str(db)), "expected LANG and DB arguments"),
        (("--words", str(words)), "expected one DB argument"),
        (("--words", str(words), "ab", str(db)), "expected one DB argument"),
        (("ab", missing), f"cannot read {missing}"),
    ):
        result = run(command, *args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {message}")
        assert len(result.stderr.splitlines()) == 1
    # the language is read before the database
    result = run(command, "a(", missing)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and missing not in result.stderr


def test_automaton_is_local():
    assert run("automaton", "--is-local", "ab|bc").output == "false\n"
    assert run("automaton", "--is-local", "ax*b").output == "true\n"


def test_automaton_is_local_ignores_hash_seeds():
    # a enters two equivalent states (after a and after ba, or xa); the
    # letter read behind them enters a state unlike the first one it
    # enters elsewhere, whichever state is walked first
    src = os.path.dirname(os.path.dirname(rpqres.__file__))
    for regex in ("acd|bacd|de", "abcd|xabcd|ce"):
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "rpqres.cli", "automaton", "--is-local",
                 regex],
                env=env, capture_output=True, check=True,
            )
            assert done.stdout == b"false\n", (regex, seed)


def test_automaton_needs_exactly_one_mode():
    result = run("automaton", "ab")
    assert result.exit_code == 2
    result = run("automaton", "--to-ro", "--is-local", "ab")
    assert result.exit_code == 2


def test_automaton_to_ro_parses_back():
    ro = run("automaton", "--to-ro", "ab|bc")
    assert ro.exit_code == 0
    local = run("automaton", "--is-local", "--automaton", "-", stdin=ro.output)
    assert local.output == "true\n"


def test_automaton_to_ro_output():
    # a and x have the same followers, so they share one out-state, which
    # the in-state of x and b merges into: three states, no EPS line
    result = run("automaton", "--to-ro", "ax*b")
    assert result.exit_code == 0
    assert result.output == (
        "states a.in a.out b.out\ninitial a.in\nfinal b.out\n"
        "a.in\ta\ta.out\na.out\tb\tb.out\na.out\tx\ta.out\n"
    )


def test_automaton_to_ro_ignores_hash_seeds():
    src = os.path.dirname(os.path.dirname(rpqres.__file__))
    for regex in ("ax*b", "ab|ad|cd", "ab|bc|ca", "(ab)*c|a*"):
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "rpqres.cli", "automaton", "--to-ro",
                 regex],
                env=env, capture_output=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] == run(
            "automaton", "--to-ro", regex
        ).output.encode()


def test_resilience_ignores_hash_seeds(tmp_path):
    """The local, bcl and submod networks are numbered as the reach meets
    their vertices; the answer printed stays the same under any seed."""
    rng = random.Random(23)
    facts = {
        f"n{rng.randrange(8)} {rng.choice('abcdex')} n{rng.randrange(8)}": rng.randint(1, 2)
        for _ in range(60)
    }
    db = tmp_path / "random.db"
    write(db, "".join(f"{fact} {m}\n" for fact, m in facts.items()))
    src = os.path.dirname(os.path.dirname(rpqres.__file__))
    for regex in ("ax*b", "ab|ad|cd", "ab|bc|cd", "abc|be"):
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "rpqres.cli", "resilience", "--json",
                 "--witness", regex, str(db)],
                env=env, capture_output=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] == run(
            "resilience", "--json", "--witness", regex, str(db)
        ).output.encode()
        assert json.loads(outputs[0])["contingency"], regex


def test_automaton_reduce_roundtrip():
    reduced = run("automaton", "--reduce", "a|ab|ba")
    assert reduced.exit_code == 0
    verdict = run("classify", "--automaton", "-", stdin=reduced.output)
    assert verdict.output == "PTIME (local)\n"


def test_automaton_reduce_output():
    # a is kept; b leads only to ba, which has a as a strict infix
    result = run("automaton", "--reduce", "a|ab|ba")
    assert result.exit_code == 0
    assert result.output == "states 0 1\ninitial 0\nfinal 1\n0\ta\t1\n"


def test_automaton_reduce_ignores_hash_seeds():
    src = os.path.dirname(os.path.dirname(rpqres.__file__))
    for regex in ("a|ab|ba", "(ab|bc)*c|ax*b"):
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "rpqres.cli", "automaton", "--reduce",
                 regex],
                env=env, capture_output=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] == run(
            "automaton", "--reduce", regex
        ).output.encode()


def test_gadget_workflow(tmp_path):
    gadget = tmp_path / "aa.gadget"
    write(gadget, gadgets.save_gadget(gadgets.builtin_gadgets()["aa"], 5))
    graph = tmp_path / "triangle.graph"
    write(graph, "u v\nv w\nu w\n")

    result = run("validate-gadget", str(gadget), "aa")
    assert result.exit_code == 0
    assert result.output == "VALID, odd path length 5\n"

    encoded = run("encode", str(graph), str(gadget))
    assert encoded.exit_code == 0
    assert len(encoded.output.splitlines()) == 15

    value = run("resilience", "aa", "-", stdin=encoded.output)
    assert value.exit_code == 0
    assert value.output.splitlines()[0] == "8"


def test_validate_gadget_json(tmp_path):
    gadget = tmp_path / "aa.gadget"
    write(gadget, gadgets.save_gadget(gadgets.builtin_gadgets()["aa"]))
    result = run("validate-gadget", "--json", str(gadget), "aaa")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["status"] == "valid"
    assert payload["odd_path_length"] == 3
    assert payload["steps"]


def test_validate_gadget_pin_mismatch(tmp_path):
    gadget = tmp_path / "aa.gadget"
    write(gadget, gadgets.save_gadget(gadgets.builtin_gadgets()["aa"], 5))
    result = run("validate-gadget", str(gadget), "aaa")
    assert result.exit_code == 2
    assert "expects odd path length 5" in result.output


def test_validate_gadget_inconclusive_exit_code(tmp_path):
    lines = [f"t_in a m{i}\n" for i in range(8)]
    lines += [f"m{i} a p{i}\n" for i in range(8)]
    lines.append("t_out a q\n")
    payload = {
        "facts": [line.split() for line in lines],
        "t_in": "t_in",
        "t_out": "t_out",
        "label": "a",
    }
    gadget = tmp_path / "big.gadget"
    write(gadget, json.dumps(payload))
    result = run("validate-gadget", str(gadget), "aa")
    assert result.exit_code == 3
    assert result.output.startswith("INCONCLUSIVE")


@pytest.mark.parametrize(
    "change",
    [{"t_in": ["t_in"]}, {"label": {"a": 1}}, {"rename": "n#1"}],
    ids=["list t_in", "dict label", "node with #"],
)
def test_gadget_files_with_bad_fields_are_input_errors(tmp_path, change):
    payload = json.loads(gadgets.save_gadget(gadgets.builtin_gadgets()["aa"]))
    if "rename" in change:
        payload["facts"] = [
            [change["rename"] if x == "n1" else x for x in fact]
            for fact in payload["facts"]
        ]
    else:
        payload.update(change)
    gadget = tmp_path / "bad.gadget"
    write(gadget, json.dumps(payload))
    graph = tmp_path / "edge.graph"
    write(graph, "u v\n")
    for args in (
        ("validate-gadget", str(gadget), "aa"),
        ("encode", str(graph), str(gadget)),
    ):
        result = run(*args)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert len(result.stderr.splitlines()) == 1


def test_byte_identical_reruns(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    first = run("resilience", "ab|ad|cd", str(db), "--witness").output
    for _ in range(3):
        assert run("resilience", "ab|ad|cd", str(db), "--witness").output == first
    assert run("classify", "abcd|be").output == run("classify", "abcd|be").output
