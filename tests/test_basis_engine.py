"""Sector-by-sector engine: monomial bases, tables, the pairing map."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import (
    basis_engine,
    efunction_basis,
    efunction_series,
    parse_group_spec,
    parse_polynomial,
    transpose,
)
from orbefun.basis_engine import (
    _chain_excluded,
    atom_basis,
    degree_counts,
    hodge_table,
    milnor_basis,
    pair_table,
    psi,
    psi_structure_ok,
    sectors,
    spectrum_identity_holds,
)
from orbefun.invertible import milnor_number, weights
from orbefun.symmetry import AbelianSubgroup, dual_group, gf_group, parse_element, subgroup
import reference_engines as ref
from reference_engines import expected_multiplicity
from reference_symmetry import identity
from strategies import interleaved_polynomials, polynomials, symmetric_pairs
from test_series_engine import GROUPS, LADDER, _sides

F = Fraction


def test_chain_exclusion_pattern():
    # excluded: leading (a1-1, 0, a3-1, 0, ...) prefixes of odd length ending
    # at the pattern value, or the full alternating word of odd length
    assert _chain_excluded((2,), (3,)) is True
    assert _chain_excluded((1,), (3,)) is False
    assert _chain_excluded((2, 0), (3, 2)) is False
    assert _chain_excluded((2, 1), (3, 2)) is True
    assert _chain_excluded((1, 1, 1), (2, 2, 2)) is True
    assert _chain_excluded((1, 0, 1), (2, 2, 2)) is True
    assert _chain_excluded((1, 0, 1, 0), (2, 2, 2, 2)) is False
    assert _chain_excluded((1, 0, 1, 1), (2, 2, 2, 2)) is True


def test_atom_basis_counts():
    fermat = parse_polynomial("x^4").atoms[0]
    assert len(atom_basis(fermat)) == 3
    chain = parse_polynomial("x^3*y + y^2").atoms[0]
    assert len(atom_basis(chain)) == 5
    loop = parse_polynomial("x^2*y + y^2*x").atoms[0]
    assert len(atom_basis(loop)) == 4  # loops keep the full box


def test_milnor_basis_chain_3_2():
    f = parse_polynomial("x^3*y + y^2")
    assert milnor_basis(f) == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0))
    # degrees sum w_i*(k_i + 1) over d = 6, w = (1, 3): x^k1*y^k2 sits at 4 + k1 + 3*k2
    assert weights(f).d == 6
    assert degree_counts(f) == {4: 1, 5: 1, 6: 1, 7: 1, 8: 1}


def test_degree_multiset_is_palindromic():
    for text in ("x^3*y + y^2", "x^2*y + y^2*z + z^2*x", "x^4 + y^4"):
        f = parse_polynomial(text)
        counts = degree_counts(f)  # degrees l keyed by l*d
        d = weights(f).d
        assert counts == {f.n * d - e: c for e, c in counts.items()}


def test_spectrum_identity():
    for text in ("x^3", "x^3*y + y^2", "x^2*y + y^2*x", "x^2*y + y^2*z + z^3"):
        assert spectrum_identity_holds(parse_polynomial(text))


def test_sectors_of_diag44_grading_group():
    f = parse_polynomial("x^4 + y^4")
    G = parse_group_spec(f, "1/4(1,1)")
    secs = {s.g: s for s in sectors(f, G)}
    assert len(secs) == 4
    free = secs[identity(2)]
    assert free.monomials == ((0, 2), (1, 1), (2, 0))  # each of degree 1
    # the two age-J sectors contribute one empty monomial each
    twisted = secs[parse_element("1/4(1,1)", 2)]
    assert twisted.fixed == ()
    assert twisted.monomials == ((),)


def test_hodge_tables_match_hand_computations():
    f = parse_polynomial("x^4 + y^4")
    T = hodge_table(f, parse_group_spec(f, "1/4(1,1)"))
    assert dict(T.entries) == {
        (F(1, 2), F(1, 2)): (1, 0),
        (F(1), F(1)): (4, 0),
        (F(3, 2), F(3, 2)): (1, 0),
    }
    g = parse_polynomial("x^3")
    Tg = hodge_table(g, gf_group(g))
    assert dict(Tg.entries) == {
        (F(1, 3), F(1, 3)): (1, 0),
        (F(2, 3), F(2, 3)): (1, 0),
    }
    h = parse_polynomial("x^3*y + y^2")
    Th = hodge_table(h, gf_group(h))
    assert dict(Th.entries) == {
        (F(2, 3), F(2, 3)): (1, 0),
        (F(1), F(1)): (2, 0),
        (F(4, 3), F(4, 3)): (1, 0),
    }


def test_efunction_golden_values():
    f = parse_polynomial("x^3*y + y^2")
    E = efunction_basis(f, gf_group(f))
    assert E.pretty() == "(t*tb)^(-1/3) + 2 + (t*tb)^(1/3)"
    assert E.chi() == 4


def test_psi_examples():
    f = parse_polynomial("x^3*y + y^2")
    assert psi(f, (2, 0)).is_identity
    assert psi(f, (0, 0)).comps == (F(1, 3), F(1, 3))
    loop = parse_polynomial("x^2*y + y^2*x")
    assert psi(loop, (1, 0)).is_identity


def test_psi_lands_in_dual_symmetry_group():
    f = parse_polynomial("x^2*y + y^2*z + z^3")
    ft = transpose(f)
    Gt = gf_group(ft)
    for k in milnor_basis(f):
        assert psi(f, k) in Gt


def test_psi_structure_lists_no_group_element_and_no_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("psi_structure_ok listed a group or a Milnor basis")

    monkeypatch.setattr(AbelianSubgroup, "elements", property(refuse))
    monkeypatch.setattr(basis_engine, "milnor_basis", refuse)
    for text in LADDER:
        assert psi_structure_ok(parse_polynomial(text))


def test_psi_structure_on_small_atoms():
    for text in ("x^5", "x^3*y + y^2", "x^2*y + y^2*x", "x^3*y + y^3*x",
                 "x^2*y + y^2*z + z^2*x", "x^2*y + y^2*z + z^2*w + w^2*x"):
        assert psi_structure_ok(parse_polynomial(text))


def test_pair_table_loop22_trivial():
    f = parse_polynomial("x^2*y + y^2*x")
    T = pair_table(f, subgroup(f, ()))
    rows = {
        (identity(2), identity(2)): 2,
        (identity(2), parse_element("1/3(1,1)", 2)): 1,
        (identity(2), parse_element("1/3(2,2)", 2)): 1,
    }
    assert T.rows == rows
    assert sum(T.rows.values()) == milnor_number(f)


def test_pair_table_transpose_symmetry():
    for text, spec in (
        ("x^3*y + y^2", "Gf"),
        ("x^2*y + y^2*x", "trivial"),
        ("x^4 + y^4", "1/4(1,1)"),
    ):
        f = parse_polynomial(text)
        G = parse_group_spec(f, spec)
        T = pair_table(f, G)
        Td = pair_table(transpose(f), dual_group(f, G))
        assert Td.rows == {(b, a): v for (a, b), v in T.rows.items()}


def test_expected_multiplicity_even_loops():
    # x^2*y+y^2*x+z^2*w+w^2*z: both atoms are even loops, so the row where
    # both sides vanish on both loops carries multiplicity 2^2
    f = parse_polynomial("x^2*y + y^2*x + z^2*w + w^2*z")
    G = parse_group_spec(f, "trivial")
    T = pair_table(f, G)
    e = identity(4)
    assert T.rows[(e, e)] == 4
    assert expected_multiplicity(f, e, e) == 4
    for (g, gt), m in T.rows.items():
        assert m == expected_multiplicity(f, g, gt)


def test_pair_table_row_parity_identity():
    f = parse_polynomial("x^4 + y^4")
    G = parse_group_spec(f, "SL")
    for (g, gt), _ in pair_table(f, G).rows.items():
        assert (-1) ** g.n_fixed == (-1) ** (f.n - gt.n_fixed)


@settings(max_examples=25, deadline=None)
@given(polynomials())
def test_basis_size_is_milnor_number(f):
    basis = milnor_basis(f)
    assert len(basis) == milnor_number(f)
    assert list(basis) == sorted(set(basis))


@settings(max_examples=25, deadline=None)
@given(polynomials())
def test_spectrum_identity_random(f):
    assert spectrum_identity_holds(f)


@settings(max_examples=20, deadline=None)
@given(symmetric_pairs(max_vars=3))
def test_pair_table_total_and_transpose_random(fG):
    f, G = fG
    T = pair_table(f, G)
    swapped = {(b, a): v for (a, b), v in T.rows.items()}
    assert pair_table(transpose(f), dual_group(f, G)).rows == swapped
    for (g, gt), m in T.rows.items():
        assert m == expected_multiplicity(f, g, gt)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(symmetric_pairs(), symmetric_pairs(polys=interleaved_polynomials)),
    st.booleans(),
)
def test_pair_table_equals_the_per_element_oracle(fG, dual):
    p, H = _sides(*fG)[dual]
    assert pair_table(p, H).rows == ref.pair_table(p, H)


@pytest.mark.parametrize("spec", GROUPS)
@pytest.mark.parametrize("text", ("x^3*y + y^2 + z^2*w + w^3*z", "x^2*w + z^3 + w^2*y + y^2*x"))
def test_pair_table_equals_the_per_element_oracle_on_ladder(text, spec):
    # the chain-and-loop polynomial has loci of one size with different
    # images on every group, on one side of the duality or the other
    f = parse_polynomial(text)
    for p, H in _sides(f, parse_group_spec(f, spec)):
        assert pair_table(p, H).rows == ref.pair_table(p, H)


def _psi_calls(monkeypatch, f, G):
    """The psi solves one `pair_table(f, G)` makes."""
    calls = []
    real = basis_engine.psi
    with monkeypatch.context() as mp:
        mp.setattr(basis_engine, "psi", lambda fsub, k: calls.append(k) or real(fsub, k))
        pair_table(f, G)
    return len(calls)


@pytest.mark.parametrize("text, spec, solves", [
    ("x1^7 + x2^7 + x3^7 + x4^7 + x5^7", "Gf", (1, 7776)),
    ("x1^3 + x2^3 + x3^3", "trivial", (8, 1)),
    ("x^2*y + y^2*x + z^2*w + w^2*z", "1/3(1,1,0,0)", (12, 12)),
    ("x^3*y + y^2 + z^2*w + w^3*z", "G0", (6, 24)),
])
def test_pair_table_solves_psi_once_per_locus_monomial(monkeypatch, text, spec, solves):
    # psi(k) depends on a sector only through its fixed locus: fermat7's Gf
    # has 7,776 elements on the locus (), whose one empty monomial needs one
    # solve; solves are counted for the pair and for its dual
    f = parse_polynomial(text)
    for (p, H), expected in zip(_sides(f, parse_group_spec(f, spec)), solves):
        per_locus = {sec.fixed: len(sec.monomials) for sec in sectors(p, H)}
        assert _psi_calls(monkeypatch, p, H) == sum(per_locus.values()) == expected


@settings(max_examples=25, deadline=None)
@given(polynomials(max_vars=3))
def test_degree_law_for_psi(f):
    q = weights(f).q
    for k in milnor_basis(f):
        im = psi(f, k)
        assert sum(qi * (e + 1) for qi, e in zip(q, k)) == im.age + F(im.n_fixed, 2)


def test_cached_values_are_read_only():
    f = parse_polynomial("x^3*y + y^2")
    G = parse_group_spec(f, "Gf")
    E = efunction_basis(f, G)
    with pytest.raises(TypeError):
        E.terms[(F(0), F(0))] = 7
    with pytest.raises(TypeError):
        del efunction_series(f, G).terms[(F(0), F(0))]
    with pytest.raises(TypeError):
        hodge_table(f, G).entries[(F(0), F(0))] = (1, 0)
    # the integer numerators the views are built from are read-only too
    with pytest.raises(TypeError):
        E.nums[(0, 0)] = 7
    with pytest.raises(TypeError):
        del efunction_series(f, G).nums[next(iter(E.nums))]
    with pytest.raises(TypeError):
        hodge_table(f, G).nums[(0, 0)] = (1, 0)
    # and so are the attributes that hold them
    with pytest.raises(AttributeError):
        E.den = 1
    with pytest.raises(AttributeError):
        E.nums = {}
    with pytest.raises(AttributeError):
        hodge_table(f, G).n = 7
    T = pair_table(f, G)
    with pytest.raises(TypeError):
        T.rows[next(iter(T.rows))] = 5
    assert efunction_basis(f, G) == E == efunction_series(f, G)
