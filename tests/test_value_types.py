"""The value types: immutable, equal by their fields, hashed by them except
the three result tables, which are unhashable (the corpus records equal
only themselves), and GroupElement ordered only against its own class."""

import atexit
import contextlib
import gc
import io
import operator
import os
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import orbefun
from orbefun import DomainError, parse_polynomial, transpose
from orbefun.basis_engine import efunction_basis, hodge_table, pair_table, sectors
from orbefun.cli import main
from orbefun.corpus import CorpusEntry, run_entry
from orbefun.efunction import BiExpPolynomial, HodgeTable
from orbefun.invertible import Atom, restrict, weights
from orbefun.symmetry import GroupElement, gf_group, subgroup
from strategies import polynomials


def _equal_values(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_equal_values_have_equal_hashes(f):
    _equal_values(parse_polynomial(f.to_text()), parse_polynomial(f.to_text()))
    _equal_values(transpose(transpose(f)), f)
    _equal_values(restrict(f, range(f.n)), f)
    Gf = gf_group(f)
    H = subgroup(f, Gf.generators)
    _equal_values(H, Gf)


def test_values_differ_in_any_field():
    assert parse_polynomial("x^3") != parse_polynomial("y^3")
    assert parse_polynomial("x^3*y + y^2") != parse_polynomial("x^3 + y^2")
    Gx, Gy = gf_group(parse_polynomial("x^3")), gf_group(parse_polynomial("y^3"))
    assert (Gx.N, Gx.rows) == (Gy.N, Gy.rows) and Gx != Gy  # one lattice, two ambients
    f = parse_polynomial("x^2*y + y^3")
    atom = f.atoms[0]
    assert f != atom and atom != (atom.kind, atom.var_indices, atom.a)
    assert GroupElement(3, (1, 2)) != GroupElement(5, (1, 2))
    assert GroupElement(3, (1, 2)) != GroupElement(3, (2, 1))


def test_group_elements_equal_however_built():
    _equal_values(GroupElement(3, (1, 2)), GroupElement(6, (2, 4)))
    _equal_values(GroupElement(3, (4, -3)), GroupElement(3, (1, 3)))
    _equal_values(GroupElement(1, (0, 0)), GroupElement(7, (14, -7)))


def test_corpus_records_equal_only_themselves():
    entry = CorpusEntry("c", "x^3", "Gf")
    twin = CorpusEntry("c", "x^3", "Gf")
    assert entry == entry and entry != twin
    assert len({entry, twin}) == 2
    assert run_entry(entry) != run_entry(entry)


def _one_of_each_value_type():
    f = parse_polynomial("x^3*y + y^2")
    G = gf_group(f)
    entry = CorpusEntry("c", "x^3", "Gf", {"chi": 2, "variance": "1/18"})
    return (
        f.atoms[0],
        weights(f),
        f,
        G,
        G.generators[0],
        sectors(f, G)[0],
        efunction_basis(f, G),
        hodge_table(f, G),
        pair_table(f, G),
        entry,
        run_entry(entry),
    )


def test_every_value_type_is_immutable():
    values = _one_of_each_value_type()
    assert sorted(type(v).__name__ for v in values) == sorted(
        "Atom WeightSystem InvertiblePolynomial AbelianSubgroup GroupElement "
        "SectorContribution BiExpPolynomial HodgeTable PairTable CorpusEntry EntryResult".split()
    )
    for value in values:
        for name in type(value)._fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1


def test_every_value_type_stores_its_fields_and_nothing_else():
    for value in _one_of_each_value_type():
        assert type(value).__slots__ == type(value)._fields, type(value).__name__


def _stored(value):
    """Every object a value holds, through its slots, containers and mappings."""
    yield value
    if isinstance(value, (tuple, list, frozenset, set)):
        items = value
    elif isinstance(value, Mapping):
        items = [x for kv in value.items() for x in kv]
    elif hasattr(type(value), "_fields"):
        slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
        items = [getattr(value, s) for s in slots]
    else:
        items = ()
    for item in items:
        yield from _stored(item)


def test_no_value_type_stores_a_fraction():
    # the Fraction views (q, comps, terms, entries) are computed on read
    values = _one_of_each_value_type()
    by_name = {type(v).__name__: v for v in values}
    by_name["BiExpPolynomial"].terms, by_name["HodgeTable"].entries
    for value in values:
        stored = list(_stored(value))
        assert not [x for x in stored if isinstance(x, Fraction)], type(value).__name__
    stored_types = {type(x).__name__ for v in values for x in _stored(v)}
    assert {"GroupElement", "WeightSystem", "CorpusEntry"} <= stored_types


def test_values_compare_only_with_their_own_class():
    values = _one_of_each_value_type()
    for value in values:
        for other in (None, 0, (), *(v for v in values if type(v) is not type(value))):
            assert type(value).__eq__(value, other) is NotImplemented
            assert value != other
    unhashable = [v for v in values if type(v).__hash__ is None]
    assert sorted(type(v).__name__ for v in unhashable) == [
        "BiExpPolynomial", "HodgeTable", "PairTable",
    ]
    for value in unhashable:
        with pytest.raises(TypeError):
            hash(value)


def test_ordered_values_compare_only_with_their_own_class():
    g = GroupElement(3, (1, 2))
    for value, other in ((g, 1), (g, None), (g, (3, (1, 2)))):
        for op in (operator.lt, operator.gt, operator.le):
            with pytest.raises(TypeError):
                op(value, other)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BiExpPolynomial(1, {(0, 0): 1.5}),
        lambda: BiExpPolynomial(1, {(0, 0): Fraction(3, 2)}),
        lambda: BiExpPolynomial(1, {(0, 0): Fraction(2)}),
        lambda: BiExpPolynomial(2, {(1.0, 0): 1}),
        lambda: BiExpPolynomial(2, {(0, Fraction(1, 2)): 1}),
        lambda: BiExpPolynomial(2.0, {(1, 0): 1}),
        lambda: BiExpPolynomial(2.0, {}),
        lambda: HodgeTable(1, 2, {(1, 1): (1.7, 0)}),
        lambda: HodgeTable(1, 2, {(1, 1): (1, Fraction(1))}),
        lambda: HodgeTable(1, 2, {(Fraction(1), 1): (1, 0)}),
        lambda: HodgeTable(1.0, 2, {(1, 1): (1, 0)}),
        lambda: HodgeTable(1, Fraction(2), {}),
        lambda: GroupElement(2, (Fraction(1),)),
        lambda: GroupElement(2.0, (1,)),
        # a bool passes isinstance(x, int), but stored it prints as True and
        # writes JSON that `from_json_obj` rejects
        lambda: BiExpPolynomial(1, {(0, 0): True}),
        lambda: BiExpPolynomial(True, {(0, 0): 1}),
        lambda: BiExpPolynomial(2, {(False, 1): 1}),
        lambda: HodgeTable(True, 1, {(0, 0): (1, 0)}),
        lambda: HodgeTable(1, 1, {(0, 0): (1, True)}),
        lambda: GroupElement(True, [0]),
    ],
)
def test_value_types_take_only_integers(build):
    with pytest.raises(TypeError):
        build()


def test_carriers_take_only_a_positive_denominator():
    for den in (0, -2):
        with pytest.raises(ValueError):
            BiExpPolynomial(den, {(1, 0): 1})
        with pytest.raises(ValueError):
            HodgeTable(1, den, {(1, 0): (1, 0)})
    assert (BiExpPolynomial(1, {(0, 0): 3}).nums, HodgeTable(1, 1, {}).den) == ({(0, 0): 3}, 1)


def test_atom_rejects_a_bad_kind_or_length():
    with pytest.raises(DomainError, match="kind"):
        Atom("ring", (0,), (3,))
    with pytest.raises(DomainError, match="2 variables but 1 exponents"):
        Atom("chain", (0, 1), (3,))
    assert Atom("loop", (0, 1), (2, 2)).a == (2, 2)


# a fresh interpreter counts the exit freezes: its own hook, registered
# before main's, runs after them
_EXIT_HOOKS = """
import atexit, contextlib, gc, io
real, calls = gc.freeze, []

def freeze():
    calls.append(1)
    real()

gc.freeze = freeze
atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))
import orbefun.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["info", "x^3"], ["efunction", "x^3"], ["info", "y^3"]):
        cli.main(argv)
"""


def test_main_leaves_one_exit_hook_however_often_it_runs(capsys):
    src = str(Path(orbefun.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _EXIT_HOOKS], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 True\n", "")
    # in process, collection stays as it was until the process itself exits
    frozen = gc.get_freeze_count()
    assert main(["info", "x^3"]) == 0
    assert gc.get_freeze_count() == frozen and gc.isenabled()


def test_main_adds_at_most_one_exit_slot():
    # unregistering a hook leaves its slot behind, so registering it again on
    # every call would grow the exit table by one slot per call
    before = atexit._ncallbacks()
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(1000):
            assert main(["info", "x^3"]) == 0
    assert atexit._ncallbacks() - before <= 1
