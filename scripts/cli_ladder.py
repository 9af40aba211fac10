#!/usr/bin/env python3
"""Run a fixed ladder of orbefun CLI invocations and record every result.

    python scripts/cli_ladder.py OUT > DIGESTS

Each invocation is a fresh `python -m orbefun`, importing the package from
the `src/` of the checkout this script sits in, with PYTHONHASHSEED=0.  OUT
receives, for every invocation in a fixed order, the command, its exit code,
its stdout and its stderr.  Two checkouts behave identically on the ladder
exactly when their files are byte-identical, so comparing them is one `cmp`.
Standard output receives one line per invocation, the sha256 of its record
in OUT and the command, and standard error the count.  `tests/ladder.sha256`
holds those lines; the tier-1 test `tests/test_ladder.py` runs the ladder in
process and checks every record against its line.

The ladder: each polynomial below with `info`, and with every command in
COMMANDS under every group in GROUPS, each in text and JSON; for every
polynomial and group, `check-duality --engine series` in text, so that the
series engine's output is checked on its own and not only against the basis
engine's; `dual` and `check-duality` on two groups given by generator lists;
three large pairs; the bundled corpus in text and JSON; a few inputs that
must fail with their exit code; and last, `check-duality --engine basis`
once, so that the basis engine's output is checked on its own too.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

POLYNOMIALS = (
    "x1^5 + x2^5 + x3^5 + x4^5 + x5^5",
    "x1^3 + x2^3 + x3^3 + x4^3 + x5^3 + x6^3",
    "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1",
    "x^3*y + y^2 + z^2*w + w^3*z",
    "x^4 + y^4",
    # a loop and a Fermat atom whose variables interleave
    "x^2*w + z^3 + w^2*y + y^2*x",
)
GROUPS = ("trivial", "G0", "SL", "Gf")
# groups given by redundant generator lists, whose duals have several
# generators with entries right of their pivots
EXPLICIT = (
    ("x^3*y + y^2 + z^2*w + w^3*z", "1/5(0,0,1,3), 1/5(0,0,4,2)"),
    ("x^2*w + z^3 + w^2*y + y^2*x", "1/3(2,2,0,2) 1/3(1,1,0,1)"),
)
# three large pairs: the dual is the transpose's whole group of order 16807;
# SL's lattice rows all reach the last coordinate, over a Milnor ring of
# 100,000 monomials; the cyclic chain's dual E-function has 14,706 terms to
# sort and print
LARGE = (
    ("check-duality", "x1^7 + x2^7 + x3^7 + x4^7 + x5^7", "--group", "trivial"),
    ("hodge", "x1^11 + x2^11 + x3^11 + x4^11 + x5^11", "--group", "SL"),
    ("check-duality", "x1^7*x2 + x2^7*x3 + x3^7*x4 + x4^7*x5 + x5^7", "--group", "trivial"),
)
COMMANDS = ("check-duality", "dual", "pairs", "hodge", "variance", "efunction")
FORMATS = ("text", "json")
FAILURES = (
    ("info", "x^3 +"),
    ("info", "x^2 + x^3"),
    ("efunction", "x^4 + y^4", "--group", "1/3(1,0)"),
    ("efunction", "x^3", "--group", "1/3(1) ,, 1/3(2)"),
    ("efunction", "x^3", "--group", "1/3(1),"),
    # element components are decimal digits: no underscore, no sign
    ("efunction", "x^3 + y^3", "--group", "1/3(1_0,+2)"),
    ("efunction", "x^3 + y^3", "--group", "1/3(-1,2)"),
    # the whole text is read before its meaning: each stops at its first bad
    # character, with no warning and whatever the number of variables
    ("info", "x^3 ++ y$"),
    ("info", "x^^3 + y%"),
    ("info", "0*x^3 ++ y"),
    ("info", "2*x^3 ++ y^2"),
    ("efunction", "x^3 + y^3", "--group", "1/3(1,,2)"),
    ("efunction", "x^3 + y^3 + z^3", "--group", "1/3(1,,2)"),
    ("efunction", "x^3 + y^3 + z^3", "--group", "1/3(1 1)"),
    # a blank text is incomplete, so it is reported at its end
    ("info", "   "),
)


def ladder():
    for poly in POLYNOMIALS:
        for fmt in FORMATS:
            yield ("info", poly, "--format", fmt)
        for group in GROUPS:
            for command in COMMANDS:
                for fmt in FORMATS:
                    yield (command, poly, "--group", group, "--format", fmt)
            yield ("check-duality", poly, "--group", group, "--engine", "series")
    for poly, group in EXPLICIT:
        for command in ("dual", "check-duality"):
            for fmt in FORMATS:
                yield (command, poly, "--group", group, "--format", fmt)
    yield from LARGE
    for fmt in FORMATS:
        yield ("corpus", "--format", fmt)
    yield from FAILURES
    yield ("check-duality", "x^3*y + y^2 + z^2*w + w^3*z", "--group", "G0", "--engine", "basis")


def record(args: tuple[str, ...], code: int, stdout: bytes, stderr: bytes) -> bytes:
    """One invocation's entry in OUT."""
    head = f"$ orbefun {shlex.join(args)}\nexit {code}\n".encode()
    return head + b"--- stdout\n" + stdout + b"--- stderr\n" + stderr


def digest_line(args: tuple[str, ...], entry: bytes) -> str:
    """One invocation's line on standard output."""
    return f"{hashlib.sha256(entry).hexdigest()}  {shlex.join(args)}\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: cli_ladder.py OUT", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    count = 0
    with open(argv[0], "wb") as out:
        for args in ladder():
            proc = subprocess.run(
                [sys.executable, "-m", "orbefun", *args], env=env, cwd=ROOT, capture_output=True
            )
            entry = record(args, proc.returncode, proc.stdout, proc.stderr)
            out.write(entry)
            sys.stdout.write(digest_line(args, entry))
            count += 1
    print(f"{count} invocations written to {argv[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
