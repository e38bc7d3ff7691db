"""In-process runs of the command line, as the benchmark makes them.

``invoke`` calls ``main.main(args=..., prog_name="rpqres",
standalone_mode=False)`` with standard input, output and error redirected
to strings.  Only ``SystemExit`` is caught: any other exception escapes
to the test, so an uncaught error fails it with its traceback.
``same_as_click`` also runs the click command line that ``rpqres.cli``
replaced (``tests/click_cli.py``) and checks that both agree.
"""

import contextlib
import io
import sys
from typing import NamedTuple

import click_cli
from rpqres import cli


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def invoke(main, args, stdin=None, **call):
    """Run ``main.main`` on ``args``; ``call`` overrides keyword arguments
    of the call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    call = dict(prog_name="rpqres", standalone_mode=False) | call
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=list(args), **call)
                code = 0
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin = saved
    return Result(code, out.getvalue(), err.getvalue())


def same_as_click(args, stdin=None):
    """Run ``rpqres.cli`` on ``args``, check it against the click command
    line, and return its result.

    The exit code and standard output must be equal, and so must standard
    error unless click reported a usage error, whose text has changed.
    Click runs in standalone mode, so that its usage errors exit, and with
    colour on, so that ``click.echo`` prints escape sequences as given.
    """
    result = invoke(cli.main, args, stdin)
    reference = invoke(
        click_cli.main, args, stdin, standalone_mode=True, color=True
    )
    assert result.exit_code == reference.exit_code, (args, result, reference)
    assert result.stdout == reference.stdout, args
    if reference.exit_code != 2 or reference.stderr.startswith("error: "):
        assert result.stderr == reference.stderr, args
    return result
