"""End-to-end runs of the command-line interface."""

import json

from click.testing import CliRunner

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


def test_automaton_is_local():
    assert run("automaton", "--is-local", "ab|bc").output == "false\n"
    assert run("automaton", "--is-local", "ax*b").output == "true\n"


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


def test_automaton_reduce_roundtrip():
    reduced = run("automaton", "--reduce", "a|ab|ba")
    assert reduced.exit_code == 0
    verdict = run("classify", "--automaton", "-", stdin=reduced.output)
    assert verdict.output == "PTIME (local)\n"


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


def test_byte_identical_reruns(tmp_path):
    db = tmp_path / "chain.db"
    write(db, CHAIN_DB)
    first = run("resilience", "ab|ad|cd", str(db), "--witness").output
    for _ in range(3):
        assert run("resilience", "ab|ad|cd", str(db), "--witness").output == first
    assert run("classify", "abcd|be").output == run("classify", "abcd|be").output
