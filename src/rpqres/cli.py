"""Command-line front end.

Subcommands cover classification, resilience computation, gadget
validation, graph encoding, match enumeration, and automaton utilities.
Exit codes: 0 analysis completed, 2 input or usage error, 3 resource cap
(or an inconclusive gadget report), 4 solver refusal.  Every error is
reported as one ``error: ...`` line on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import automata, classifier, gadgets, graphdb, lang, solvers
from .errors import InputError, ResourceCapError, SolverRefusal


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _language(regexes, words_path, automaton_path) -> automata.EpsNFA:
    """The language of the inline ``regexes`` (a list) or of a file."""
    sources = [*regexes, *(p for p in (words_path, automaton_path) if p is not None)]
    if len(sources) != 1:
        raise InputError(
            "give exactly one language source: an inline regex,"
            " --words FILE, or --automaton FILE"
        )
    if regexes:
        return automata.automaton_for(regexes[0])
    if words_path is not None:
        return automata.words_to_nfa(lang.parse_words(_read(words_path)))
    return automata.parse_automaton(_read(automaton_path))


def _language_and_db(args, words_path, automaton_path):
    """The language and database of a ``[LANG] DB`` command line."""
    if words_path is not None or automaton_path is not None:
        if len(args) != 1:
            raise InputError("expected one DB argument")
    elif len(args) != 2:
        raise InputError("expected LANG and DB arguments")
    A = _language(args[:-1], words_path, automaton_path)
    return A, graphdb.parse_db(_read(args[-1]))


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as one ``error:`` line."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


# The top-level parser only prints help and reports a bad command: main picks
# the command, as parse_intermixed_args refuses a parser with subparsers.
_TOP = _Parser(
    prog="rpqres", allow_abbrev=False,
    description="Resilience of regular path queries over labeled graph databases.",
)
_SUBPARSERS = _TOP.add_subparsers(title="commands", metavar="COMMAND")
_COMMANDS = {}
_OPTIONS = {
    "--words": dict(dest="words_path", metavar="FILE", help="read the language as a"
                    " word list (one word per line, ~ for the empty word); - for"
                    " standard input"),
    "--automaton": dict(dest="automaton_path", metavar="FILE", help="read the"
                        " language from an automaton file; - for standard input"),
    "--json": dict(dest="as_json", action="store_true", help="machine-readable output"),
    "--set": dict(dest="semantics", action="store_const", const="set", default="bag",
                  help="collapse multiplicities to one"),
    "--bag": dict(dest="semantics", action="store_const", const="bag",
                  help="respect multiplicities (default)"),
    "--solver": dict(choices=["auto", "local", "bcl", "submod", "exact"],
                     default="auto", help="the solver to run (default: auto)"),
    "--witness": dict(action="store_true", help="also print a contingency set"),
    "--to-ro": dict(action="store_true", help="print the read-once construction"),
    "--is-local": dict(action="store_true",
                       help="print whether the language is local"),
    "--reduce": dict(dest="do_reduce", action="store_true",
                     help="print the reduced automaton"),
}
_LANGUAGE_FILES = ("--words", "--automaton")


def _command(name, operands, *options):
    """Register the decorated function as command ``name``; the operands,
    which the usage line shows as ``operands``, are passed as ``args``."""

    def register(function):
        parser = _SUBPARSERS.add_parser(
            name, help=function.__doc__, description=function.__doc__,
            usage=f"%(prog)s [options] {operands}", allow_abbrev=False,
        )
        parser.add_argument("args", nargs="*", help=argparse.SUPPRESS)
        for option in options:
            parser.add_argument(option, **_OPTIONS[option])
        _COMMANDS[name] = parser, function
        return function

    return register


# ---------------------------------------------------------------------------
# classify


def _render_verdict(verdict: classifier.Verdict) -> str:
    if verdict.status == classifier.PTIME:
        return f"PTIME ({verdict.method})"
    if verdict.status == classifier.NP_HARD:
        return f"NP-hard ({verdict.reason})"
    if verdict.reason == "unclassified":
        return "UNKNOWN"
    return f"UNKNOWN ({verdict.reason})"


@_command("classify", "[REGEX]", *_LANGUAGE_FILES, "--json")
def classify(args, words_path, automaton_path, as_json):
    """Classify the resilience complexity of a language."""
    A = _language(args, words_path, automaton_path)
    verdict = classifier.classify(A)
    if as_json:
        print(json.dumps({
            "status": verdict.status,
            "method": verdict.method,
            "reason": verdict.reason,
            "witness": verdict.witness,
        }, sort_keys=True))
    else:
        print(_render_verdict(verdict))


# ---------------------------------------------------------------------------
# resilience


@_command(
    "resilience", "[LANG] DB", *_LANGUAGE_FILES, "--set", "--bag", "--solver",
    "--witness", "--json",
)
def resilience(args, words_path, automaton_path, semantics, solver, witness, as_json):
    """Resilience of LANG over the database DB (a file path, or -)."""
    A, db = _language_and_db(args, words_path, automaton_path)
    answer = solvers.resilience(db, A, semantics=semantics, solver=solver)
    infinite = isinstance(answer.value, float) and math.isinf(answer.value)
    if as_json:
        print(json.dumps({
            "value": "inf" if infinite else answer.value,
            "method": answer.method,
            "contingency": None if answer.contingency is None
            else [list(f) for f in sorted(answer.contingency)],
        }, sort_keys=True))
        return
    print("inf" if infinite else str(answer.value))
    print(f"method {answer.method}")
    if witness and answer.contingency is not None:
        for fact in sorted(answer.contingency):
            print(fact.render())


# ---------------------------------------------------------------------------
# gadgets


def _render_piece(piece) -> object:
    if isinstance(piece, frozenset):
        return [list(f) for f in sorted(piece)]
    return list(piece)


@_command("validate-gadget", "GADGET [LANG]", *_LANGUAGE_FILES, "--json")
def validate_gadget(args, words_path, automaton_path, as_json):
    """Check that GADGET is a valid hardness gadget for LANG."""
    if words_path is not None or automaton_path is not None:
        if len(args) != 1:
            raise InputError("expected one GADGET argument")
    elif len(args) != 2:
        raise InputError("expected GADGET and LANG arguments")
    gadget, expected = gadgets.load_gadget(_read(args[0]))
    A = _language(args[1:], words_path, automaton_path)
    report = gadgets.validate_gadget(gadget, A)
    if report.valid and expected is not None and expected != report.odd_path_length:
        raise InputError(
            f"gadget file expects odd path length {expected},"
            f" found {report.odd_path_length}"
        )
    if as_json:
        print(json.dumps({
            "status": report.status,
            "odd_path_length": report.odd_path_length,
            "reason": report.reason,
            "initial_edge_count": len(report.initial.edges),
            "steps": [
                {
                    "rule": step.rule,
                    "removed": _render_piece(step.removed),
                    "dominator": _render_piece(step.dominator),
                }
                for step in report.steps
            ],
        }, sort_keys=True))
    else:
        print(report.render())
    if report.status == "inconclusive":
        sys.exit(3)


@_command("encode", "GRAPH GADGET")
def encode(args):
    """Encode GRAPH through GADGET and print the database."""
    if len(args) != 2:
        raise InputError("expected GRAPH and GADGET arguments")
    graph_path, gadget_path = args
    edges = gadgets.parse_graph(_read(graph_path))
    gadget, _ = gadgets.load_gadget(_read(gadget_path))
    print(graphdb.serialize_db(gadgets.encode_graph(edges, gadget)), end="")


@_command("matches", "[LANG] DB", *_LANGUAGE_FILES)
def matches(args, words_path, automaton_path):
    """Enumerate the query matches of LANG over DB, one per line."""
    A, db = _language_and_db(args, words_path, automaton_path)
    words = automata.language_words(A)
    for match in graphdb.enumerate_matches(db, words):
        print(" | ".join(f.render() for f in sorted(match.facts)))


# ---------------------------------------------------------------------------
# automaton utilities


def _presentable(A: automata.EpsNFA) -> automata.EpsNFA:
    """Relabel states to clean serializable tokens when needed."""

    def readable(state):
        if isinstance(state, tuple) and len(state) == 2:
            return f"{state[0]}.{state[1]}"
        return str(state)

    mapping = {s: readable(s) for s in A.states}
    tokens = list(mapping.values())
    if len(set(tokens)) != len(tokens) or any(
        not t or any(c.isspace() for c in t) for t in tokens
    ):
        mapping = {s: f"s{i}" for i, s in enumerate(sorted(A.states, key=str))}
    return automata.EpsNFA(
        frozenset(mapping.values()),
        frozenset(mapping[s] for s in A.initial),
        frozenset(mapping[s] for s in A.final),
        frozenset(
            (mapping[src], label, mapping[dst])
            for src, label, dst in A.transitions
        ),
        A.alphabet,
    )


@_command("automaton", "[REGEX]", *_LANGUAGE_FILES, "--to-ro", "--is-local",
          "--reduce")
def automaton(args, words_path, automaton_path, to_ro, is_local, do_reduce):
    """Automaton utilities over a language."""
    if sum((to_ro, is_local, do_reduce)) != 1:
        raise InputError("pick exactly one of --to-ro, --is-local, --reduce")
    A = _language(args, words_path, automaton_path)
    if is_local:
        print("true" if automata.is_local_language(A) else "false")
    elif to_ro:
        ro = _presentable(automata.eps_nfa_to_ro(A))
        print(automata.serialize_automaton(ro), end="")
    else:
        print(automata.serialize_automaton(automata.reduce_regular(A)), end="")


def _run(parser, command, argv):
    # everything after the first -- is an operand, even text that starts
    # with a dash, which parse_intermixed_args would take for an option
    cut = argv.index("--") if "--" in argv else len(argv)
    options = parser.parse_intermixed_args(argv[:cut])
    options.args += argv[cut + 1:]
    try:
        command(**vars(options))
    except (InputError, ResourceCapError, SolverRefusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except BrokenPipeError:  # the reader left: drop the rest, as at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def main(args=None, prog_name=None, standalone_mode=True):
    """Run the command line on ``args`` (by default ``sys.argv[1:]``).

    An error raises ``SystemExit`` with its exit code; success returns, or
    exits 0 in standalone mode.  The signature, and ``main.main``, are
    click's calling convention; help always names the program ``rpqres``.
    """
    argv = sys.argv[1:] if args is None else list(args)
    if argv and argv[0] in _COMMANDS:
        _run(*_COMMANDS[argv[0]], argv[1:])
    else:  # prints the help, or reports the unknown command or option
        _TOP.parse_args(argv[:1])
        _TOP.error("missing command")
    if standalone_mode:
        sys.exit(0)


main.main = main


if __name__ == "__main__":
    main()
