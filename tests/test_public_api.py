"""The package's top level: the names of the README's library sketch plus the
error types, and every other function under one name, in its own module."""

import importlib
import re
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

# the other 51 names the top level used to re-export, by the module that defines them
MOVED = {
    "basis_engine": (
        "PairTable SectorContribution atom_basis degree_counts expected_multiplicity "
        "hodge_table milnor_basis pair_table psi psi_structure_ok sectors "
        "spectrum_identity_holds"
    ),
    "corpus": "CorpusEntry EntryResult default_corpus format_corpus parse_corpus run_corpus run_entry",
    "efunction": (
        "BiExpPolynomial HodgeTable central_charge e_to_hodge exponent_mean exponents "
        "hodge_from_efunction parse_efunction variance"
    ),
    "invertible": (
        "Atom InvertiblePolynomial WeightSystem atom_polynomial determinant exponent_inverse "
        "from_exponent_matrix milnor_number restrict weights"
    ),
    "symmetry": (
        "AbelianSubgroup GroupElement all_subgroups format_element gf_group "
        "grading_operator grading_subgroup identity is_in_sl pairing parse_element "
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


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from orbefun import" in block
    exec(compile(block, "README.md", "exec"), {})
