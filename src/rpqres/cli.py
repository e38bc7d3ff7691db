"""Command-line front end.

Subcommands cover classification, resilience computation, gadget
validation, graph encoding, match enumeration, and automaton utilities.
Exit codes: 0 analysis completed, 2 input error, 3 resource cap (or an
inconclusive gadget report), 4 solver refusal.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click

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


def _language(regex, words_path, automaton_path) -> automata.EpsNFA:
    sources = [s for s in (regex, words_path, automaton_path) if s is not None]
    if len(sources) != 1:
        raise InputError(
            "give exactly one language source: an inline regex,"
            " --words FILE, or --automaton FILE"
        )
    if regex is not None:
        return automata.automaton_for(regex)
    if words_path is not None:
        return automata.words_to_nfa(lang.parse_words(_read(words_path)))
    return automata.parse_automaton(_read(automaton_path))


def _language_and_db(args, words_path, automaton_path):
    """The language and database of a ``[LANG] DB`` command line."""
    if words_path is not None or automaton_path is not None:
        if len(args) != 1:
            raise InputError("expected one DB argument")
        regex, db_path = None, args[0]
    else:
        if len(args) != 2:
            raise InputError("expected LANG and DB arguments")
        regex, db_path = args
    A = _language(regex, words_path, automaton_path)
    return A, graphdb.parse_db(_read(db_path))


def _language_options(command):
    command = click.option(
        "--words", "words_path", metavar="FILE",
        help="read the language as a word list (one word per line, ~ for"
        " the empty word); - for standard input",
    )(command)
    command = click.option(
        "--automaton", "automaton_path", metavar="FILE",
        help="read the language from an automaton file; - for standard input",
    )(command)
    return command


def _reporting(command):
    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except (InputError, ResourceCapError, SolverRefusal) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


@click.group()
def main():
    """Resilience of regular path queries over labeled graph databases."""


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


@main.command()
@click.argument("regex", required=False)
@_language_options
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@_reporting
def classify(regex, words_path, automaton_path, as_json):
    """Classify the resilience complexity of a language."""
    A = _language(regex, words_path, automaton_path)
    verdict = classifier.classify(A)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "status": verdict.status,
                    "method": verdict.method,
                    "reason": verdict.reason,
                    "witness": verdict.witness,
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(_render_verdict(verdict))


# ---------------------------------------------------------------------------
# resilience


def _fact_triples(facts) -> list:
    return [list(f) for f in sorted(facts)]


@main.command()
@click.argument("args", nargs=-1, metavar="[LANG] DB")
@_language_options
@click.option(
    "--set", "semantics", flag_value="set",
    help="collapse multiplicities to one",
)
@click.option(
    "--bag", "semantics", flag_value="bag", default=True,
    help="respect multiplicities (default)",
)
@click.option(
    "--solver",
    type=click.Choice(["auto", "local", "bcl", "submod", "exact"]),
    default="auto",
    show_default=True,
)
@click.option("--witness", is_flag=True, help="also print a contingency set")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@_reporting
def resilience(args, words_path, automaton_path, semantics, solver, witness, as_json):
    """Resilience of LANG over the database DB (a file path, or -)."""
    A, db = _language_and_db(args, words_path, automaton_path)
    answer = solvers.resilience(db, A, semantics=semantics, solver=solver)
    infinite = isinstance(answer.value, float) and math.isinf(answer.value)
    if as_json:
        click.echo(
            json.dumps(
                {
                    "value": "inf" if infinite else answer.value,
                    "method": answer.method,
                    "contingency": None
                    if answer.contingency is None
                    else _fact_triples(answer.contingency),
                },
                sort_keys=True,
            )
        )
        return
    click.echo("inf" if infinite else str(answer.value))
    click.echo(f"method {answer.method}")
    if witness and answer.contingency is not None:
        for fact in sorted(answer.contingency):
            click.echo(fact.render())


# ---------------------------------------------------------------------------
# gadgets


def _render_piece(piece) -> object:
    if isinstance(piece, frozenset):
        return [list(f) for f in sorted(piece)]
    return list(piece)


@main.command("validate-gadget")
@click.argument("args", nargs=-1, metavar="GADGET [LANG]")
@_language_options
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@_reporting
def validate_gadget(args, words_path, automaton_path, as_json):
    """Check that GADGET is a valid hardness gadget for LANG."""
    if words_path is not None or automaton_path is not None:
        if len(args) != 1:
            raise InputError("expected one GADGET argument")
        gadget_path, regex = args[0], None
    else:
        if len(args) != 2:
            raise InputError("expected GADGET and LANG arguments")
        gadget_path, regex = args
    gadget, expected = gadgets.load_gadget(_read(gadget_path))
    A = _language(regex, words_path, automaton_path)
    report = gadgets.validate_gadget(gadget, A)
    if report.valid and expected is not None and expected != report.odd_path_length:
        raise InputError(
            f"gadget file expects odd path length {expected},"
            f" found {report.odd_path_length}"
        )
    if as_json:
        click.echo(
            json.dumps(
                {
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
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(report.render())
    if report.status == "inconclusive":
        sys.exit(3)


@main.command()
@click.argument("graph_path", metavar="GRAPH")
@click.argument("gadget_path", metavar="GADGET")
@_reporting
def encode(graph_path, gadget_path):
    """Encode GRAPH through GADGET and print the database."""
    edges = gadgets.parse_graph(_read(graph_path))
    gadget, _ = gadgets.load_gadget(_read(gadget_path))
    click.echo(graphdb.serialize_db(gadgets.encode_graph(edges, gadget)), nl=False)


@main.command()
@click.argument("args", nargs=-1, metavar="[LANG] DB")
@_language_options
@_reporting
def matches(args, words_path, automaton_path):
    """Enumerate the query matches of LANG over DB, one per line."""
    A, db = _language_and_db(args, words_path, automaton_path)
    words = automata.language_words(A)
    for match in graphdb.enumerate_matches(db, words):
        click.echo(" | ".join(f.render() for f in sorted(match.facts)))


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
        mapping = {
            s: f"s{i}" for i, s in enumerate(sorted(A.states, key=str))
        }
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


@main.command()
@click.argument("regex", required=False)
@_language_options
@click.option("--to-ro", is_flag=True, help="print the read-once construction")
@click.option("--is-local", is_flag=True, help="print whether the language is local")
@click.option("--reduce", "do_reduce", is_flag=True, help="print the reduced automaton")
@_reporting
def automaton(regex, words_path, automaton_path, to_ro, is_local, do_reduce):
    """Automaton utilities over a language."""
    if sum((to_ro, is_local, do_reduce)) != 1:
        raise InputError("pick exactly one of --to-ro, --is-local, --reduce")
    A = _language(regex, words_path, automaton_path)
    if is_local:
        click.echo("true" if automata.is_local_language(A) else "false")
    elif to_ro:
        click.echo(
            automata.serialize_automaton(_presentable(automata.eps_nfa_to_ro(A))),
            nl=False,
        )
    else:
        click.echo(
            automata.serialize_automaton(automata.reduce_regular(A)), nl=False
        )


if __name__ == "__main__":
    main()
