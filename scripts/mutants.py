#!/usr/bin/env python3
"""Mutation checks: each recorded mutant must fail the tests named for it.

    python scripts/mutants.py [NAME ...]

Each row of MUTANTS is (name, file under src/, exact source text,
replacement, test ids).  For every row, or for the rows NAME, the script
copies `src/` to a temporary directory, replaces the source text there,
and runs the named tests with pytest against that copy.  The mutant is
killed when every named test fails (for a parametrized or hypothesis test,
at least one of its cases), and it survives otherwise.  A source text that
does not occur exactly once is an error, so the table has to follow the
code.  The named tests are first run once on the unmutated `src/`, where
they must pass.

Exit status: 0 when every mutant is killed, 1 when one survives or a row is
in error, 2 when the named tests fail on the unmutated tree.  Runs outside
the tier-1 suite; standard library only, besides pytest for the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

SERIES = "tests/test_series_engine.py::"
BASIS = "tests/test_basis_counts.py::"
LATTICES = "tests/test_lattices.py::"
SOLVER = "tests/test_solver.py::"
EFUNCTION = "tests/test_efunction.py::"
PARSERS = "tests/test_parsers.py::"
MULTIPLICATIVITY = "tests/test_multiplicativity.py::"
# the psi column: the named small atoms and every atom of the bundled corpus
PSI = (
    "tests/test_basis_engine.py::test_psi_structure_on_small_atoms",
    "tests/test_acceptance.py::test_criterion_06_pairing_map_structure",
)
# the engine comparison: one engine against the other, no oracle
ENGINES = (
    SERIES + "test_matches_basis_engine_on_named_pairs",
    "tests/test_acceptance.py::test_criterion_02_engine_equivalence",
)

MUTANTS = (
    # the parsers: the polynomial lexer and grammar, and the group spec
    (
        "lexer without the integer-too-long guard",
        "invertible.py",
        "        except ValueError:  # beyond the interpreter's digit limit",
        "        except ZeroDivisionError:",
        (PARSERS + "test_integers_beyond_the_digit_limit_are_syntax_errors",),
    ),
    (
        "polynomial parser without the x0 check",
        "invertible.py",
        're.fullmatch(r"[wxyz]|x[1-9][0-9]?", name)',
        're.fullmatch(r"[wxyz]|x[0-9][0-9]?", name)',
        (PARSERS + "test_a_name_is_checked_as_it_is_read", PARSERS + "test_reference_agrees_on_documented_samples"),
    ),
    (
        "polynomial parser without the x99 bound",
        "invertible.py",
        're.fullmatch(r"[wxyz]|x[1-9][0-9]?", name)',
        're.fullmatch(r"[wxyz]|x[1-9][0-9]*", name)',
        (PARSERS + "test_a_variable_past_x99_is_one_invalid_name",),
    ),
    (
        "polynomial parser taking any decimal digit in a name",
        "invertible.py",
        're.fullmatch(r"[wxyz]|x[1-9][0-9]?", name)',
        're.fullmatch(r"[wxyz]|x(?!0)\\d\\d?", name)',
        (PARSERS + "test_variable_names_are_ascii", PARSERS + "test_reference_agrees_on_documented_samples"),
    ),
    (
        "group spec errors placed in the piece, not the spec",
        "symmetry.py",
        '        raise InputSyntaxError("denominator must be positive", pos)',
        '        raise InputSyntaxError("denominator must be positive", pos - start)',
        ("tests/test_symmetry.py::test_group_spec_errors_point_into_the_spec",),
    ),
    (
        "invalid component reported at the start of its element",
        "symmetry.py",
        'InputSyntaxError(f"invalid component in {piece!r}", pos)',
        'InputSyntaxError(f"invalid component in {piece!r}", start)',
        ("tests/test_symmetry.py::test_group_spec_syntax_errors_point_at_the_first_bad_character",),
    ),
    (
        "generator list syntax errors reported at position 0",
        "symmetry.py",
        "        raise InputSyntaxError(message, start + value.startswith(\"1\"))",
        "        raise InputSyntaxError(message, 0)",
        ("tests/test_symmetry.py::test_group_spec_syntax_errors_point_at_the_first_bad_character",),
    ),
    (
        "lexer tokenizing the whole text up front",
        "invertible.py",
        "        self.pos = 0  # where the next scan starts\n",
        "        self.pos = 0  # where the next scan starts\n"
        '        while self.peek()[0] != "end":\n'
        "            self.token = None\n"
        "        self.pos, self.token = 0, None\n",
        (PARSERS + "test_syntax_is_checked_before_meaning",),
    ),
    (
        "element arity checked before its syntax",
        "symmetry.py",
        "    lex = _Lexer(_GROUP_GRAMMAR, spec)\n",
        "    lex = _Lexer(_GROUP_GRAMMAR, spec)\n"
        "    if spec.count(\",\") + 1 != f.n:  # the components of a one-generator spec, counted up front\n"
        '        raise DomainError(f"element {spec!r} has {spec.count(\',\') + 1} components, expected {f.n}")\n',
        ("tests/test_symmetry.py::test_group_spec_syntax_errors_point_at_the_first_bad_character",),
    ),
    (
        "polynomial parser stopping at the first monomial",
        "invertible.py",
        """    lex.expect("end", "expected '+' between monomials")""",
        '    lex.accept("end")',
        ("tests/test_invertible.py::test_parse_syntax_errors_carry_positions",),
    ),
    # the exact solver and det E
    (
        "solve without its row check",
        "invertible.py",
        "        if sum(e * x[j] for j, e in enumerate(row) if e) != det * b[i]:",
        "        if False:",
        (SOLVER + "test_solve_checks_its_answer",),
    ),
    (
        "loop sign in determinant",
        "invertible.py",
        "prod(atom.a) - ((-1) ** len(atom.a)",
        "prod(atom.a) + ((-1) ** len(atom.a)",
        (SOLVER + "test_interleaved_examples", SOLVER + "test_solver_matches_leibniz_and_adjugate"),
    ),
    (
        "loop closed with 1 + d",
        "invertible.py",
        "acc = c * (det // (1 - d))",
        "acc = c * (det // (1 + d))",
        (SOLVER + "test_interleaved_examples", SOLVER + "test_solver_matches_leibniz_and_adjugate"),
    ),
    # lattices
    (
        "_hnf without the reduction above the pivots",
        "symmetry.py",
        "            if k:  # then row i is not N*e_i, so its pivot is below N too",
        "            if False:",
        (LATTICES + "test_equal_generator_lists_give_equal_forms",),
    ),
    (
        "greedy generators not reversed",
        "symmetry.py",
        "            for j, row in reversed(tuple(enumerate(self.rows)))",
        "            for j, row in enumerate(self.rows)",
        (LATTICES + "test_greedy_generators_are_the_rows_last_first",),
    ),
    (
        "sorted elements left in lattice order",
        "symmetry.py",
        "    return tuple(GroupElement(G.N, v) for v in sorted(_numerators(G)))",
        "    return tuple(GroupElement(G.N, v) for v in _numerators(G))",
        (
            "tests/test_sector_classes.py::test_sorted_elements_follow_fraction_order",
            "tests/test_basis_engine.py::test_pair_table_iterates_in_printed_order",
        ),
    ),
    (
        "locus_ages residues not taken mod N",
        "symmetry.py",
        "                tail = tuple((u + v) % N for u, v in zip(tail, step))",
        "                tail = tuple(u + v for u, v in zip(tail, step))",
        (LATTICES + "test_order_membership_and_classes_match_the_oracle",),
    ),
    (
        "_kernel pivot entered as N/pv",
        "symmetry.py",
        "kept.append([x * (N // gcd(N, pv)) for x in pivot])",
        "kept.append([x * (N // pv) for x in pivot])",
        (LATTICES + "test_greedy_generators_dual_and_sl_match_the_oracle",),
    ),
    # the invariance tests both engines read
    (
        "character_data on the raw lattice rows",
        "symmetry.py",
        "    rows = _hnf(N, ([row[i] for i in reversed(fixed)] for row in G.rows), len(fixed))\n"
        "    for j, row in enumerate(rows):\n"
        "        if row[j] == N:\n",
        "    rows = [[row[i] for i in reversed(fixed)] for row in G.rows]\n"
        "    for row in rows:\n"
        "        if not any(x % N for x in row):\n",
        (
            SERIES + "test_constraint_reduction_keeps_the_invariant_characters",
            SERIES + "test_chain_g0_identity_locus_work",
            BASIS + "test_fermat11_sl_identity_locus_work",
        ),
    ),
    (
        "character_data in Hermite form from the left",
        "symmetry.py",
        "    rows = _hnf(N, ([row[i] for i in reversed(fixed)] for row in G.rows), len(fixed))\n"
        "    for j, row in enumerate(rows):\n"
        "        if row[j] == N:\n"
        "            continue\n"
        "        scale = gcd(N, *row)\n"
        "        out.append((N // scale, tuple(x // scale for x in reversed(row))))",
        "    rows = _hnf(N, ([row[i] for i in fixed] for row in G.rows), len(fixed))\n"
        "    for j, row in enumerate(rows):\n"
        "        if row[j] == N:\n"
        "            continue\n"
        "        scale = gcd(N, *row)\n"
        "        out.append((N // scale, tuple(x // scale for x in row)))",
        (
            SERIES + "test_constraint_reduction_keeps_the_invariant_characters",
            SERIES + "test_chain_g0_identity_locus_work",
        ),
    ),
    # the series engine's pass
    (
        "series pass without the residue-0 close",
        "series_engine.py",
        "                if any(new[k] for k in closing):",
        "                if False:",
        (SERIES + "test_pass_equals_walk_on_every_locus", SERIES + "test_pass_equals_walk_on_ladder"),
    ),
    (
        "series pass cut at top",
        "series_engine.py",
        "        limit += q  # top - suffix[j+1]",
        "        limit = top",
        (SERIES + "test_pass_holds_no_more_than_the_walk",),
    ),
    (
        "series prefactor halving n - n_g before scaling it",
        "series_engine.py",
        "(f.n - len(fixed)) * L // 2",
        "(f.n - len(fixed)) // 2 * L",
        (MULTIPLICATIVITY + "test_ladder_splits_into_its_atoms", MULTIPLICATIVITY + "test_small_atoms"),
    ),
    (
        "series pass with one degree moved",
        "series_engine.py",
        "            factor[(0,) * len(touched)] = [(scale, 1)]",
        "            factor[(0,) * len(touched)] = [(scale + (j == 0), 1)]",
        ENGINES,
    ),
    # the basis engine's count
    (
        "chain exclusion that keeps the count",
        "basis_engine.py",
        "        if k[j] != a[j] - 1:\n            return False",
        "        if k[j] != 0:\n            return False",
        ENGINES,
    ),
    (
        "basis count without the residue-0 close",
        "basis_engine.py",
        "                if any(new[r] for r in closing):",
        "                if False:",
        (BASIS + "test_counts_equal_filter_on_every_locus", BASIS + "test_counts_equal_filter_on_ladder"),
    ),
    (
        "basis count with one degree moved",
        "basis_engine.py",
        "sum(map(mul, c, wa))] += 1",
        "sum(map(mul, c, wa)) + (k == (0,) * len(k))] += 1",
        ENGINES,
    ),
    (
        "Hodge table with the sector parities swapped",
        "basis_engine.py",
        "        odd = ng % 2\n",
        "        odd = (ng + 1) % 2\n",
        (
            "tests/test_basis_engine.py::test_hodge_tables_match_hand_computations",
            "tests/test_acceptance.py::test_criterion_11_mode_signs_name_the_parity",
        ),
    ),
    (
        "spectrum identity reading the lowest degree one unit of 1/d up",
        "basis_engine.py",
        "    lhs = degree_counts(f)\n",
        "    lhs = {e + (e == min(degree_counts(f))): c for e, c in degree_counts(f).items()}\n",
        ("tests/test_basis_engine.py::test_spectrum_identity",),
    ),
    # the listing path: each locus's basis filtered under its tests, psi solved once per locus
    (
        "sector filter skipping the last test",
        "basis_engine.py",
        "% den for den, vec in tests)",
        "% den for den, vec in tests[:-1])",
        (
            "tests/test_basis_engine.py::test_sectors_of_diag44_grading_group",
            "tests/test_basis_engine.py::test_pair_table_transpose_symmetry",
            "tests/test_basis_engine.py::test_pair_table_equals_the_per_element_oracle_on_ladder",
            "tests/test_sector_classes.py::test_engines_match_per_element_reference",
        ),
    ),
    (
        "pair table reusing one locus's images for every locus of its size",
        "basis_engine.py",
        "        images[fixed] = sorted(counts.items())\n"
        "    return MappingProxyType({\n"
        "        (g, gt): count for g in sorted_elements(G) for gt, count in images[g.fixed_indices()]\n",
        "        images[len(fixed)] = sorted(counts.items())\n"
        "    return MappingProxyType({\n"
        "        (g, gt): count for g in sorted_elements(G) for gt, count in images[len(g.fixed_indices())]\n",
        (
            "tests/test_basis_engine.py::test_pair_table_equals_the_per_element_oracle",
            "tests/test_basis_engine.py::test_pair_table_equals_the_per_element_oracle_on_ladder",
        ),
    ),
    # the psi check's image profiles on the lattice of each atom's dual group
    (
        "psi check: chains counted against all elements",
        "basis_engine.py",
        "            targets = sum(\n"
        "                sum(ages.values()) for I, (_, ages) in locus_ages(Gt).items() if len(I) % 2 == 0\n"
        "            )\n",
        "            targets = Gt.order\n",
        PSI + ("tests/test_corpus.py::test_psi_structure_checked_once_per_polynomial",),
    ),
    (
        "psi check: odd loops allowed to hit the identity",
        "basis_engine.py",
        "            targets = Gt.order - 1\n"
        "            sizes = {h: int(not h.is_identity) for h in fibers}\n",
        "            targets = Gt.order\n"
        "            sizes = {h: 1 for h in fibers}\n",
        PSI,
    ),
    (
        "psi check: even loops with an identity fiber of 1",
        "basis_engine.py",
        "            sizes = {h: 1 + h.is_identity for h in fibers}\n",
        "            sizes = {h: 1 for h in fibers}\n",
        PSI,
    ),
    # the corpus run keeps each polynomial's mu and psi verdicts
    (
        "corpus verdicts keyed by the group spec",
        "corpus.py",
        "    if f not in verdicts:\n"
        "        verdicts[f] = _pf(spectrum_identity_holds(f)), _pf(psi_structure_ok(f))\n"
        '    st["mu"], st["psi"] = verdicts[f]\n',
        "    if entry.group not in verdicts:\n"
        "        verdicts[entry.group] = _pf(spectrum_identity_holds(f)), _pf(psi_structure_ok(f))\n"
        '    st["mu"], st["psi"] = verdicts[entry.group]\n',
        ("tests/test_corpus.py::test_interleaved_polynomials_are_checked_once_each",),
    ),
    # start-up: the top level imports no computation module, and no command dataclasses
    (
        "top level importing the basis engine eagerly",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        'from .basis_engine import efunction_basis\n\n__version__ = "0.1.0"\n',
        ("tests/test_public_api.py::test_each_command_loads_only_the_modules_it_runs",),
    ),
    (
        "value types importing dataclasses again",
        "invertible.py",
        "import re\nimport warnings\n",
        "import re\nimport warnings\nfrom dataclasses import dataclass\n",
        ("tests/test_public_api.py::test_each_command_loads_only_the_modules_it_runs",),
    ),
    # the value types: equality and hashing read every field; the corpus records are read-only
    (
        "polynomial equality and hashing without the variables",
        "invertible.py",
        '    __slots__ = _fields = ("n", "exponents", "variables", "atoms")',
        '    __slots__ = ("n", "exponents", "variables", "atoms")\n    _fields = ("n", "exponents", "atoms")',
        ("tests/test_value_types.py::test_values_differ_in_any_field",),
    ),
    (
        "group element without the gcd reduction",
        "symmetry.py",
        "        if d != 1:\n            r //= d\n",
        "        if False:\n            r //= d\n",
        ("tests/test_value_types.py::test_group_elements_equal_however_built",),
    ),
    (
        "corpus statuses held as a plain dict",
        "corpus.py",
        "statuses=MappingProxyType(dict(statuses))",
        "statuses=dict(statuses)",
        ("tests/test_corpus.py::test_corpus_records_are_read_only",),
    ),
    (
        "group element equality and hashing without the order",
        "symmetry.py",
        '    __slots__ = _fields = ("r", "a")',
        '    __slots__ = ("r", "a")\n    _fields = ("a",)',
        ("tests/test_value_types.py::test_values_differ_in_any_field",),
    ),
    # the carrier: integer numerators over one canonical denominator
    (
        "canonical-denominator reduction skipped",
        "efunction.py",
        "    if g > 1:\n"
        "        nums = {(a // g, b // g): v for (a, b), v in nums.items()}\n"
        "    return den // g, nums",
        "    return den, nums",
        (
            EFUNCTION + "test_numerators_over_any_denominator_build_the_canonical_polynomial",
            EFUNCTION + "test_polynomial_arithmetic_equals_the_fraction_oracle",
            "tests/test_acceptance.py::test_criterion_03_golden_values",
        ),
    ),
    (
        "integer moment without the n/2 shift",
        "efunction.py",
        "(2 * q - shift) ** power",
        "(2 * q) ** power",
        (
            EFUNCTION + "test_exponents_and_variance_example",
            EFUNCTION + "test_table_and_moments_equal_the_fraction_oracle",
            "tests/test_acceptance.py::test_criterion_08_variance",
        ),
    ),
    # the duality check compares numerator maps
    (
        "duality check with the sign always +1",
        "efunction.py",
        "{(-a, b): (-1) ** n * c for",
        "{(-a, b): c for",
        (
            EFUNCTION + "test_check_duality_sign",
            EFUNCTION + "test_polynomial_arithmetic_equals_the_fraction_oracle",
            "tests/test_acceptance.py::test_criterion_01_duality",
        ),
    ),
    (
        "duality check without negating the t-exponent",
        "efunction.py",
        "{(-a, b): (-1) ** n * c for",
        "{(a, b): (-1) ** n * c for",
        (
            EFUNCTION + "test_check_duality_sign",
            EFUNCTION + "test_polynomial_arithmetic_equals_the_fraction_oracle",
            "tests/test_acceptance.py::test_criterion_01_duality",
        ),
    ),
    # the value types take integers only and order only against their own class
    (
        "carriers without the integer guard",
        "efunction.py",
        "        if type(x) is not int:",
        "        if False:",
        ("tests/test_value_types.py::test_value_types_take_only_integers",),
    ),
    (
        "carriers taking a bool for an integer",
        "efunction.py",
        "        if type(x) is not int:",
        "        if not isinstance(x, int):",
        ("tests/test_value_types.py::test_value_types_take_only_integers",),
    ),
    (
        "group element order taking a bool for an integer",
        "symmetry.py",
        "        if type(r) is not int:",
        "        if not isinstance(r, int):",
        ("tests/test_value_types.py::test_value_types_take_only_integers",),
    ),
    (
        "group element order without the class check",
        "symmetry.py",
        "        if other.__class__ is not self.__class__:\n"
        "            return NotImplemented\n"
        "        r, s = self.r, other.r",
        "        r, s = self.r, other.r",
        ("tests/test_value_types.py::test_ordered_values_compare_only_with_their_own_class",),
    ),
    # a coefficient is checked and warned about only once the text is in the grammar
    (
        "coefficient checked and warned as it is read",
        "invertible.py",
        """            coefficients.append((lex.integer("expected a coefficient"), pos))\n""",
        """            value = lex.integer("expected a coefficient")\n"""
        "            if value == 0:\n"
        '                raise NotInvertibleError(f"zero coefficient at position {pos}")\n'
        "            warnings.warn(\n"
        '                f"coefficient {value} on the monomial at position {pos} is ignored",\n'
        "                CoefficientWarning,\n"
        "                stacklevel=2,\n"
        "            )\n",
        (
            "tests/test_invertible.py::test_a_coefficient_the_parse_rejects_draws_no_warning",
            "tests/test_cli.py::test_coefficient_warnings_are_one_line_each_and_main_leaves_no_filter",
            PARSERS + "test_syntax_is_checked_before_meaning",
        ),
    ),
)


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """Run `tests` against the package in `src`: (exit code, output)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    return proc.returncode, proc.stdout + proc.stderr


def _failed(output: str) -> list[str]:
    """The node ids that the short summary reports as failed or in error."""
    out = []
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.append(line[len(tag):])
    return out


def run(name: str, file: str, text: str, replacement: str, tests: tuple[str, ...]) -> str:
    """'killed', or a line saying why the mutant counts as survived or in error."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "orbefun" / file
        code = path.read_text()
        if code.count(text) != 1:
            return f"error: the source text occurs {code.count(text)} times in {file}"
        path.write_text(code.replace(text, replacement))
        status, output = _pytest(src, tests)
    if status == -1:
        return "killed"  # a mutant that hangs is caught too
    if status not in (0, 1):
        return f"error: pytest exited {status}\n{output}"
    failed = _failed(output)
    passed = [t for t in tests if not any(f.startswith(t) for f in failed)]
    return "killed" if not passed else "survived: passes " + ", ".join(passed)


def main(argv: list[str]) -> int:
    rows = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    tests = tuple(dict.fromkeys(t for m in rows for t in m[4]))
    status, output = _pytest(ROOT / "src", tests)
    if status != 0:
        print(f"the named tests fail on the unmutated tree:\n{output}", file=sys.stderr)
        return 2
    killed = 0
    for row in rows:
        result = run(*row)
        killed += result == "killed"
        print(f"{row[0]}: {result}", flush=True)
    print(f"{killed} of {len(rows)} mutants killed")
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
