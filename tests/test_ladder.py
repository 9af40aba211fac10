"""The CLI ladder's output, pinned.

`scripts/cli_ladder.py` runs a fixed list of invocations, each in a fresh
process, and `tests/ladder.sha256` holds the digest of each one's record
(command, exit code, stdout, stderr) as that script writes it.  Here the
same list runs in this process through `cli.main`, with captured streams,
and every record must hash to its line.  A deliberate change of output
rewrites the file with `python scripts/cli_ladder.py OUT > tests/ladder.sha256`.
"""

import contextlib
import importlib.util
import io
import shlex
from pathlib import Path

from orbefun import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "ladder.sha256"

_spec = importlib.util.spec_from_file_location("cli_ladder", ROOT / "scripts" / "cli_ladder.py")
cli_ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_ladder)


def _run(args):
    """(exit code, stdout, stderr) of one invocation of `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_ladder_output_matches_its_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines(keepends=True)
    invocations = list(cli_ladder.ladder())
    assert len(invocations) == len(expected)
    for k, (args, line) in enumerate(zip(invocations, expected)):
        got = cli_ladder.digest_line(args, cli_ladder.record(args, *_run(args)))
        assert got == line, f"invocation {k} differs: orbefun {shlex.join(args)}"
