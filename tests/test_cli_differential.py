"""The command line against the click command line it replaced.

``tests/click_cli.py`` is the click front end as it stood before
``rpqres.cli`` moved to argparse.  Every run here goes through
``same_as_click``, which requires equal exit codes and standard output,
and equal standard error unless click reported a usage error.
``tests/test_cli.py`` and ``tests/test_cli_fuzz.py`` run through it too.
"""

import os

import pytest

import click_cli
from cli_harness import invoke, same_as_click
from rpqres import cli

SAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "samples")
DATA = "u a v\nv x w 3\nw b z\nv b w 2\nw c u\nu a u\nz - u 4\nu - v\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("data.db", DATA),
        ("multi.db", "u a v 9\nv b w 5\n"),
        ("ab.words", "ab\nbc\n"),
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / name)
    paths["aa.gadget"] = os.path.join(SAMPLES, "aa.gadget")
    paths["triangle.graph"] = os.path.join(SAMPLES, "triangle.graph")
    return paths


def test_readme_examples(files):
    db, gadget = files["data.db"], files["aa.gadget"]
    for args in (
        ["classify", "ax*b"],
        ["classify", "aa"],
        ["classify", "abc|bcd"],
        ["resilience", "ax*b", db],
        ["resilience", "ab|bc", db, "--witness"],
        ["resilience", "--set", "aa", db],
        ["automaton", "--is-local", "ab|bc"],
        ["automaton", "--to-ro", "ax*b"],
        ["automaton", "--reduce", "a|ab"],
        ["validate-gadget", gadget, "aa"],
        ["matches", "ab", db],
    ):
        assert same_as_click(args).exit_code == 0, args
    encoded = same_as_click(["encode", files["triangle.graph"], gadget])
    value = same_as_click(["resilience", "aa", "-"], encoded.stdout)
    assert value.stdout.splitlines()[0] == "8"


# each command with its operands and one or two of its options
PLACED = [
    ("classify", ["ab|bc"], ["--json"]),
    ("classify", [], ["--words", "@ab.words", "--json"]),
    ("resilience", ["ab|bc", "@data.db"], ["--witness"]),
    ("resilience", ["ab|bc", "@data.db"], ["--json", "--witness"]),
    ("resilience", ["ax*b", "@data.db"], ["--solver", "local"]),
    ("resilience", ["ax*b", "@data.db"], ["--solver=exact"]),
    ("resilience", ["ax*b", "@data.db"], ["--solver", "bcl"]),
    ("resilience", ["ab", "@multi.db"], ["--set"]),
    ("resilience", ["@data.db"], ["--words", "@ab.words"]),
    ("resilience", ["@data.db"], ["--words=@ab.words", "--solver=submod"]),
    ("validate-gadget", ["@aa.gadget", "aa"], ["--json"]),
    ("validate-gadget", ["@aa.gadget"], ["--words", "@ab.words"]),
    ("matches", ["ab|x", "@data.db"], []),
    ("matches", ["@data.db"], ["--words", "@ab.words"]),
    ("automaton", ["ab|bc"], ["--to-ro"]),
    ("automaton", [], ["--is-local", "--words", "@ab.words"]),
    ("encode", ["@triangle.graph", "@aa.gadget"], []),
]


@pytest.mark.parametrize("command, operands, options", PLACED)
def test_options_before_between_and_after_the_operands(
    files, command, operands, options
):
    def path(arg):
        name, _, rest = arg.partition("@")
        return name + files[rest] if rest else arg

    operands, options = [path(a) for a in operands], [path(a) for a in options]
    outputs = set()
    for at in range(len(operands) + 1):
        result = same_as_click([command, *operands[:at], *options, *operands[at:]])
        assert result.exit_code in (0, 4), result
        outputs.add(result)
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "flags, value",
    [
        ([], "5"),
        (["--set"], "1"),
        (["--bag"], "5"),
        (["--set", "--bag"], "5"),
        (["--bag", "--set"], "1"),
        (["--set", "--set"], "1"),
        (["--bag", "--bag", "--set"], "1"),
        (["--set", "--bag", "--set", "--bag"], "5"),
    ],
)
def test_the_last_of_set_and_bag_wins(files, flags, value):
    result = same_as_click(["resilience", *flags, "ab", files["multi.db"]])
    assert result.stdout.splitlines()[0] == value


def test_operands_after_a_double_dash(files):
    db, gadget = files["data.db"], files["aa.gadget"]
    for args in (
        ["classify", "--", "-ab"],
        ["classify", "--json", "--", "-|a"],
        ["classify", "--", "-"],
        ["classify", "--", "--"],
        ["classify", "--", "--json"],
        ["resilience", "--", "-a", db],
        ["resilience", "--witness", "--", "a-|-u", db],
        ["resilience", "a", "--", db],
        ["resilience", "--set", "--", "--set", db],
        ["matches", "--", "-a", db],
        ["validate-gadget", "--", gadget, "-aa"],
        ["automaton", "--is-local", "--", "-ab"],
        ["encode", "--", files["triangle.graph"], gadget],
    ):
        assert same_as_click(args).exit_code == 0, args
    # a second -- is an operand: three operands are one too many
    assert same_as_click(["resilience", "--", "a", "--", db]).exit_code == 2


def test_usage_errors_keep_the_exit_code(files):
    # click printed a usage block for these; the text changed, the code not
    for args in (
        ["classify", "--bogus", "ab"],
        ["classify", "--wit", "ab"],
        ["classify", "-ab"],
        ["classify", "--json=yes", "ab"],
        ["resilience", "--solver", "fast", "ab", files["data.db"]],
        ["resilience", "ab", files["data.db"], "--solver"],
        ["classify", "ab", "cd"],
        ["encode", files["triangle.graph"]],
        ["automaton", "ab", "--to-ro", "--reduce"],
        ["frobnicate"],
        ["--json", "classify", "ab"],
    ):
        result = same_as_click(args)
        assert result.exit_code == 2 and result.stdout == "", args
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_deliberate_differences_from_click(files):
    def click(args):
        return invoke(click_cli.main, args, standalone_mode=True)

    # a token that looks like a negative number or holds a space is an
    # operand to argparse; click took every dash-led token for an option
    for regex in ("-1", "-2.5", "-a b"):
        assert click(["classify", regex]).exit_code == 2
        assert invoke(cli.main, ["classify", regex]) == same_as_click(
            ["classify", "--", regex]
        )
    # an option value that starts with a dash needs the = form; click took
    # the next token whatever it was
    result = invoke(cli.main, ["classify", "--words", "-x"])
    assert result.stderr == "error: argument --words: expected one argument\n"
    assert same_as_click(["classify", "--words=-x"]).stderr.startswith(
        "error: cannot read -x"
    )
    # -h is help, as --help is
    assert click(["classify", "-h"]).exit_code == 2
    assert invoke(cli.main, ["classify", "-h"]) == invoke(
        cli.main, ["classify", "--help"]
    )
