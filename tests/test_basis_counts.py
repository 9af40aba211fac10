"""The basis engine's per-locus count against the explicit monomial filter."""

from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import (
    VerificationError,
    basis_engine,
    efunction_basis,
    efunction_series,
    parse_group_spec,
    parse_polynomial,
)
from orbefun.basis_engine import _invariant_counts, atom_basis, hodge_table
from orbefun.invertible import restrict, weights
from orbefun.symmetry import character_data, locus_ages
import reference_engines as ref
from strategies import interleaved_polynomials, symmetric_pairs
from test_series_engine import GROUPS, LADDER, _sides


def _assert_counts_equal_filter(p, H):
    # the filter reads the raw lattice rows, the count the Hermite-form
    # tests; the count keys each degree l by l*d
    for fixed, expected in ref.locus_degree_counts(p, H).items():
        fsub = restrict(p, fixed)
        d = weights(fsub).d
        assert _invariant_counts(fsub, character_data(H, fixed)) == {
            ell * d: k for ell, k in expected.items()
        }


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(symmetric_pairs(), symmetric_pairs(polys=interleaved_polynomials)),
    st.booleans(),
)
def test_counts_equal_filter_on_every_locus(fG, dual):
    _assert_counts_equal_filter(*_sides(*fG)[dual])


@pytest.mark.parametrize("dual", (False, True), ids=("pair", "dual"))
@pytest.mark.parametrize("spec", GROUPS)
@pytest.mark.parametrize("text", LADDER)
def test_counts_equal_filter_on_ladder(text, spec, dual):
    f = parse_polynomial(text)
    _assert_counts_equal_filter(*_sides(f, parse_group_spec(f, spec))[dual])


def _held_per_atom(monkeypatch, fsub, chardata):
    """Entries held by each partial product of the basis count."""
    sizes = []
    real = basis_engine._products

    def recording(*args):
        for held in real(*args):
            sizes.append(len(held))
            yield held

    with monkeypatch.context() as mp:
        mp.setattr(basis_engine, "_products", recording)
        _invariant_counts(fsub, chardata)
    return sizes


@pytest.mark.parametrize("spec", GROUPS)
@pytest.mark.parametrize("text", LADDER)
def test_entries_held_at_most_product_of_atom_bases(monkeypatch, text, spec):
    f = parse_polynomial(text)
    for p, H in _sides(f, parse_group_spec(f, spec)):
        for fixed in locus_ages(H):
            fsub = restrict(p, fixed)
            sizes = _held_per_atom(monkeypatch, fsub, character_data(H, fixed))
            bounds = [
                prod(len(atom_basis(a)) for a in fsub.atoms[:t])
                for t in range(len(fsub.atoms) + 1)
            ]
            assert len(sizes) == len(bounds)
            assert all(s <= b for s, b in zip(sizes, bounds))


def test_fermat11_sl_identity_locus_work(monkeypatch):
    # SL's raw lattice rows all stay open to the last atom; under them the
    # count would hold 10,000 entries after the fourth
    f = parse_polynomial("x1^11 + x2^11 + x3^11 + x4^11 + x5^11")
    chardata = character_data(parse_group_spec(f, "SL"), tuple(range(5)))
    assert max(_held_per_atom(monkeypatch, f, chardata)) <= 100


def test_fermat11_hodge_table_lists_no_basis(monkeypatch):
    calls = []
    real = basis_engine.milnor_basis
    monkeypatch.setattr(basis_engine, "milnor_basis", lambda f: calls.append(f) or real(f))
    f = parse_polynomial("x1^11 + x2^11 + x3^11 + x4^11 + x5^11")
    G = parse_group_spec(f, "G0")
    basis_engine.hodge_table.cache_clear()
    basis_engine.efunction_basis.cache_clear()
    E = efunction_basis(f, G)
    assert calls == []
    assert E == efunction_series(f, G)


def test_atom_bases_short_of_milnor_number_fail(monkeypatch):
    monkeypatch.setattr(basis_engine, "atom_basis", lambda atom: atom_basis(atom)[1:])
    f = parse_polynomial("x^3*y + y^2 + z^4")
    basis_engine.hodge_table.cache_clear()
    with pytest.raises(VerificationError, match="Milnor number"):
        hodge_table(f, parse_group_spec(f, "G0"))
    with pytest.raises(VerificationError, match="Milnor number"):
        basis_engine.degree_counts(f)
    basis_engine.hodge_table.cache_clear()
