"""Subgroups as Hermite-form lattices, checked against the enumerative oracle
in `reference_symmetry.py` on `polynomials()` and on `interleaved_polynomials()`."""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import VerificationError, dual_group, parse_polynomial, transpose
from orbefun import symmetry
from orbefun.invertible import determinant
from orbefun.symmetry import (
    AbelianSubgroup,
    GroupElement,
    all_subgroups,
    gf_group,
    locus_ages,
    sl_subgroup,
    sorted_elements,
    subgroup,
)
import reference_symmetry as ref
from strategies import interleaved_polynomials, polynomials, symmetric_pairs

POLYS = (polynomials, interleaved_polynomials)


def pairs_over(polys):
    return symmetric_pairs(polys=polys)


def _is_hermite_form(G):
    N, rows = G.N, G.rows
    for j, row in enumerate(rows):
        d = row[j]
        if d < 1 or N % d or any(row[:j]):
            return False
        if any(not 0 <= row[k] < rows[k][k] for k in range(j + 1, len(rows))):
            return False
    return True


def _same_group(H, R):
    assert H.elements == R.elements
    assert H.generators == R.generators


@pytest.mark.parametrize("polys", POLYS)
def test_equal_generator_lists_give_equal_forms(polys):
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def check(data):
        f = data.draw(polys())
        elems = sorted_elements(gf_group(f))
        gens = data.draw(st.lists(st.sampled_from(elems), max_size=3))
        # the same group from a shuffled list padded with sums and the identity
        extra = [g + h for g in gens for h in gens][:3] + [GroupElement((0,) * f.n)]
        other = data.draw(st.permutations(gens + extra))
        G, H = subgroup(f, gens), subgroup(f, other)
        assert G.rows == H.rows
        assert G == H and hash(G) == hash(H)
        assert _is_hermite_form(G)

    check()


@pytest.mark.parametrize("polys", POLYS)
def test_order_membership_and_classes_match_the_oracle(polys):
    @settings(max_examples=25, deadline=None)
    @given(pairs_over(polys))
    def check(fG):
        f, G = fG
        R = ref.subgroup(f, G.generators)
        assert G.order == len(G.elements) == R.order
        assert G.elements == R.elements
        for g in gf_group(f).elements:
            assert (g in G) == (g in R.elements)
        classes = Counter((g.fixed_indices(), g.age) for g in R.elements)
        assert {(I, age): k for I, ages in locus_ages(G).items() for age, k in ages.items()} == classes

    check()


@pytest.mark.parametrize("polys", POLYS)
def test_greedy_generators_dual_and_sl_match_the_oracle(polys):
    @settings(max_examples=25, deadline=None)
    @given(pairs_over(polys))
    def check(fG):
        f, G = fG
        for H in (gf_group(f), dual_group(f, G), sl_subgroup(f)):
            assert _is_hermite_form(H)
        _same_group(gf_group(f), ref.gf_group(f))
        _same_group(dual_group(f, G), ref.dual_group(f, G))
        _same_group(sl_subgroup(f), ref.sl_subgroup(f))

    check()


@pytest.mark.parametrize("polys", POLYS)
def test_all_subgroups_match_the_oracle(polys):
    @settings(max_examples=15, deadline=None)
    @given(polys(max_vars=2))
    def check(f):
        subs = all_subgroups(gf_group(f))
        expected = ref.all_subgroups(ref.gf_group(f))
        assert len(subs) == len(expected)
        for H, R in zip(subs, expected):
            _same_group(H, R)

    check()


@pytest.mark.parametrize("polys", POLYS)
def test_double_dual_and_order_product(polys):
    @settings(max_examples=25, deadline=None)
    @given(pairs_over(polys))
    def check(fG):
        f, G = fG
        Gd = dual_group(f, G)
        assert dual_group(transpose(f), Gd) == G
        assert G.order * Gd.order == determinant(f)

    check()


def test_greedy_generators_are_the_rows_last_first():
    f = parse_polynomial("x^4 + y^4")
    Gd = dual_group(f, symmetry.parse_group_spec(f, "1/4(1,2) 1/4(3,2)"))
    assert Gd.rows == ((2, 1), (0, 2))
    assert [str(g) for g in Gd.generators] == ["1/2(0,1)", "1/4(2,1)"]


def test_membership_rejects_foreign_orders_and_lengths():
    f = parse_polynomial("x^3*y + y^2")
    G = gf_group(f)
    assert G.N == 6
    assert GroupElement((0, 0)) in G
    assert symmetry.parse_element("1/4(1,2)", 2) not in G  # order 4 does not divide 6
    assert symmetry.parse_element("1/3(1)", 1) not in G


def test_gf_order_is_checked_against_det(monkeypatch):
    f = parse_polynomial("x^5*y + y^3")
    monkeypatch.setattr(symmetry, "determinant", lambda f: 16)
    with pytest.raises(VerificationError):
        gf_group.__wrapped__(f)


def test_non_integral_row_fails_the_dual():
    f = parse_polynomial("x^4 + y^4")
    bogus = AbelianSubgroup(f, 4, ((1, 1), (0, 4)))  # (1/4, 1/4) is in G_f ...
    assert dual_group.__wrapped__(f, bogus).order == 4
    bogus = AbelianSubgroup(f, 8, ((1, 0), (0, 8)))  # ... (1/8, 0) is not
    with pytest.raises(VerificationError):
        dual_group.__wrapped__(f, bogus)


def test_sector_classes_must_add_up_to_the_order():
    f = parse_polynomial("x^4 + y^4")
    G = gf_group(f)
    short = SimpleNamespace(N=G.N, rows=G.rows, order=G.order + 1)
    with pytest.raises(VerificationError):
        locus_ages.__wrapped__(short)
