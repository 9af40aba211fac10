#!/usr/bin/env python3
"""Reach audit: the lines inside the package's functions that no run reaches.

    python scripts/reach.py

In one process, under `sys.settrace`, this runs through `cli.main` with
captured streams:

- the ladder of `scripts/cli_ladder.py` without its LARGE pairs (the ladder
  runs the bundled corpus too, in text and JSON);
- `corpus` on the sweep's seed-1 corpus, `perfbench/sweep.py`'s
  `corpus_text(1)`;
- the fermat11-efunction and fermat7-duality commands of `perfbench/run.py`.

It then prints every line of a function body in `src/orbefun/` that never
ran, as `module:line  function  source`, and the count per module.  A line
is one that holds code of a function, a lambda or a comprehension (not its
`def` or decorator line); it is attributed to the innermost named function
around it.  The perfbench modules are imported without writing bytecode.
Standard library only; runs outside the tier-1 suite.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import tempfile
import types
from collections import Counter
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbefun"
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True


def _load(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function_lines(path: Path) -> dict[int, str]:
    """Line -> the innermost named function around it, for every line that
    holds code of a function body in the module at `path`."""
    out: dict[int, str] = {}

    def walk(code: types.CodeType, owner: str) -> None:
        if code.co_flags & CO_NEWLOCALS:  # a function, lambda or comprehension
            if not code.co_name.startswith("<"):
                owner = code.co_qualname
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    out.setdefault(line, owner)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, owner)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return out


def _invocations(tmp: Path) -> list[list[str]]:
    cli_ladder = _load("cli_ladder", ROOT / "scripts" / "cli_ladder.py")
    sys.path.insert(0, str(ROOT / "perfbench"))
    run = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    corpus = tmp / "sweep-seed1.txt"
    corpus.write_text(run.sweep.corpus_text(1), encoding="utf-8")
    large = set(cli_ladder.LARGE)
    return [
        *(list(args) for args in cli_ladder.ladder() if args not in large),
        ["corpus", "--corpus-file", str(corpus)],
        run.WORKLOADS["fermat11-efunction"],
        run.WORKLOADS["fermat7-duality"],
    ]


def _run_traced(invocations: list[list[str]]) -> set[tuple[str, int]]:
    """(file, line) of every line of the package run by the invocations."""
    from orbefun import cli

    seen: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        for argv in invocations:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
    finally:
        sys.settrace(None)
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        invocations = _invocations(Path(tmp))
        seen = _run_traced(invocations)
    counts: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, owner in sorted(_function_lines(path).items()):
            if (str(path), line) not in seen:
                counts[path.stem] += 1
                print(f"{path.stem}:{line}  {owner}  {source[line - 1].strip()}")
    print(f"\n{sum(counts.values())} unreached lines after {len(invocations)} invocations")
    for module, count in counts.most_common():
        print(f"{module:16} {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
