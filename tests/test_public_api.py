"""The package's top level: the names of the README's library sketch plus the
error types, and every other function under one name, in its own module."""

import importlib
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import orbefun

SKETCH = (
    "parse_polynomial",
    "parse_group_spec",
    "efunction_basis",
    "efunction_series",
    "transpose",
    "dual_group",
    "check_duality",
)
ERRORS = (
    "CoefficientWarning",
    "DomainError",
    "InputSyntaxError",
    "MembershipError",
    "ModeError",
    "NotDecomposableError",
    "NotInvertibleError",
    "OrbefunError",
    "VerificationError",
)

# the other 42 names the top level used to re-export, by the module that defines them
MOVED = {
    "basis_engine": (
        "SectorContribution atom_basis degree_counts "
        "hodge_table milnor_basis pair_table psi psi_structure_ok sectors "
        "spectrum_identity_holds"
    ),
    "corpus": "CorpusEntry EntryResult default_corpus parse_corpus run_corpus run_entry",
    "efunction": (
        "BiExpPolynomial HodgeTable central_charge exponent_mean exponents variance"
    ),
    "invertible": (
        "Atom InvertiblePolynomial WeightSystem atom_polynomial determinant "
        "from_exponent_matrix milnor_number restrict weights"
    ),
    "symmetry": (
        "AbelianSubgroup GroupElement all_subgroups format_element gf_group "
        "grading_operator grading_subgroup is_in_sl parse_element "
        "sl_subgroup subgroup"
    ),
}


def test_all_is_the_sketch_plus_the_errors():
    assert sorted(orbefun.__all__) == sorted(SKETCH + ERRORS)
    assert len(orbefun.__all__) == 16
    for name in orbefun.__all__:
        assert getattr(orbefun, name).__module__.startswith("orbefun.")


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MOVED.items() for n in names.split()]
)
def test_dropped_name_resolves_from_its_module(module, name):
    obj = getattr(importlib.import_module(f"orbefun.{module}"), name)
    assert obj.__module__ == f"orbefun.{module}"
    assert not hasattr(orbefun, name)


ROOT = Path(__file__).resolve().parent.parent


def _code_names(path):
    """The names a Python file reads: its NAME tokens, leaving out comments,
    strings and the name that follows `def` or `class`."""
    out, prev = set(), None
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                out.add(tok.string)
            if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                prev = tok.string
    return out


def _readers():
    """Every name read by code outside the tests, in src/ and perfbench/; a
    mention in README.md is not a reader."""
    names = set()
    for path in (*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")):
        names |= _code_names(path)
    return names


def test_every_moved_name_has_a_reader_outside_the_tests():
    readers = _readers()
    alone = [name for names in MOVED.values() for name in names.split() if name not in readers]
    assert alone == []


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from orbefun import" in block
    exec(compile(block, "README.md", "exec"), {})


# run in a fresh interpreter: the modules each step leaves in sys.modules;
# argv[1] is a one-entry corpus file
_STARTUP = """
import contextlib, io, sys
before = set(sys.modules)
import orbefun
import orbefun.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("orbefun"))

def new():
    return sorted(set(sys.modules) - before)

report = {"dir": dir(orbefun)}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for step, argv in (("help", ["--help"]), ("usage", ["no-such-command"])):
        try:
            cli.main(argv)
        except SystemExit as exc:
            report[step] = (exc.code, loaded())
    for step, argv in (
        ("info", ["info", "x^3*y + y^2"]),
        ("dual", ["dual", "x^3*y + y^2"]),
        ("efunction", ["efunction", "x^3*y + y^2", "--group", "G0"]),
        ("check-duality", ["check-duality", "x^3*y + y^2"]),
    ):
        report[step] = (cli.main(argv), loaded())
    report["text"] = new()
    report["corpus"] = (cli.main(["corpus", "--corpus-file", sys.argv[1]]), loaded())
report["all"] = new()
names = {}
exec("from orbefun import *", names)
report["star"] = sorted(n for n in names if n != "__builtins__")
report["psi"] = hasattr(orbefun, "psi")
try:
    orbefun.no_such_name
except AttributeError as exc:
    report["missing"] = str(exc)
import json
print(json.dumps(report))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_text("c ; x^3*y + y^2 ; Gf\n", encoding="utf-8")
    src = str(Path(orbefun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, str(corpus)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    bare = ["orbefun", "orbefun.cli", "orbefun.errors"]
    assert report["help"] == [0, bare]
    assert report["usage"] == [1, bare]
    engines = {"orbefun.basis_engine", "orbefun.series_engine", "orbefun.corpus"}
    for step in ("info", "dual"):
        code, modules = report[step]
        assert code == 0
        assert not engines & set(modules), step
    for step in ("efunction", "check-duality", "corpus"):
        assert report[step][0] == 0, step
    assert "orbefun.corpus" in report["corpus"][1]
    # the value types need neither dataclasses nor inspect, and only the
    # commands that print JSON (the corpus battery reads it) load json
    assert not {"dataclasses", "inspect"} & set(report["all"])
    assert "json" not in report["text"]
    assert report["star"] == sorted(orbefun.__all__)
    assert set(orbefun.__all__) <= set(report["dir"])
    assert report["psi"] is False
    assert report["missing"] == "module 'orbefun' has no attribute 'no_such_name'"
