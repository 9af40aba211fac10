"""Diagonal symmetry groups: elements, age, pairing, duality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from orbefun import (
    DomainError,
    InputSyntaxError,
    MembershipError,
    dual_group,
    parse_group_spec,
    parse_polynomial,
    transpose,
)
from orbefun.invertible import determinant
from orbefun.symmetry import (
    GroupElement,
    all_subgroups,
    format_element,
    gf_group,
    grading_operator,
    grading_subgroup,
    is_in_sl,
    parse_element,
    sl_subgroup,
    sorted_elements,
    subgroup,
)
import reference_symmetry as ref
from reference_symmetry import identity
from strategies import polynomials, symmetric_pairs

F = Fraction


def test_element_canonicalized_mod_one():
    g = GroupElement(4, (5, -1))
    assert (g.r, g.a) == (4, (1, 3))
    assert g.comps == (F(1, 4), F(3, 4))
    assert g.age == 1
    assert g.n_fixed == 0
    assert (GroupElement(12, (3, 9)).r, GroupElement(12, (3, 9)).a) == (4, (1, 3))


def _inverse(g):
    return GroupElement(g.r, [-x for x in g.a])


def test_age_of_inverse():
    g = parse_element("1/6(1,3)", 2)
    assert g.age + _inverse(g).age == 2 - _inverse(g).n_fixed  # one coordinate 1/2, none fixed
    h = parse_element("1/6(1,0)", 2)
    assert h.age + _inverse(h).age == 2 - h.n_fixed


def test_format_parse_round_trip():
    for text in ("1/4(1,3)", "1/6(1,5)", "1/1(0,0)"):
        g = parse_element(text, 2)
        assert format_element(g) == text
    with pytest.raises(DomainError):
        parse_element("1/4(1)", 2)  # wrong arity


def test_element_takes_only_integers_and_a_positive_order():
    for r, a in ((10, (0.1,)), (2, (1, 0.5)), (2, (F(1, 2),)), (2, (F(2),)), (2.0, (1,)), (F(2), (1,))):
        with pytest.raises(TypeError):
            GroupElement(r, a)
    for r in (0, -3):
        with pytest.raises(ValueError):
            GroupElement(r, (1,))


def test_subgroup_elements_of_cyclic_group():
    g = parse_element("1/4(1,3)", 2)
    elems = subgroup(parse_polynomial("x^4 + y^4"), (g,)).elements
    assert len(elems) == 4


def test_gf_order_equals_determinant():
    for text in ("x^3", "x^3*y + y^2", "x^2*y + y^2*x", "x^4 + y^4"):
        f = parse_polynomial(text)
        assert gf_group(f).order == determinant(f)


def test_gf_membership_row_characters():
    f = parse_polynomial("x^3*y + y^2")
    G = gf_group(f)
    assert parse_element("1/6(1,3)", 2) in G
    assert parse_element("1/6(1,1)", 2) not in G


def test_subgroup_rejects_non_symmetries():
    f = parse_polynomial("x^4 + y^4")
    with pytest.raises(MembershipError):
        subgroup(f, (parse_element("1/3(1,0)", 2),))


def test_grading_operator_is_weights():
    f = parse_polynomial("x^3*y + y^2")
    g0 = grading_operator(f)
    assert g0.comps == (F(1, 6), F(1, 2))
    assert g0 in grading_subgroup(f)
    assert grading_subgroup(f).order == 6


def test_sl_subgroup_examples():
    f = parse_polynomial("x^4 + y^4")
    SL = sl_subgroup(f)
    assert SL.order == 4
    assert all(is_in_sl(g) for g in sorted_elements(SL))
    f3 = parse_polynomial("x^3")
    assert sl_subgroup(f3).order == 1


def test_pairing_examples():
    f = parse_polynomial("x^4 + y^4")
    g = parse_element("1/4(1,0)", 2)
    assert ref.pairing(f, g, g) == F(1, 4)
    h = parse_element("1/4(1,3)", 2)
    assert ref.pairing(f, h, parse_element("1/4(1,1)", 2)) == 0
    assert ref.pairing(f, h, h) == F(1, 2)


def test_dual_group_examples():
    f = parse_polynomial("x^4 + y^4")
    G = subgroup(f, (parse_element("1/4(1,1)", 2),))
    Gd = dual_group(f, G)
    assert Gd.order == 4
    assert parse_element("1/4(1,3)", 2) in Gd
    # dual of the full group is trivial, dual of trivial is everything
    assert dual_group(f, gf_group(f)).order == 1
    assert dual_group(f, subgroup(f, ())).order == 16


def test_dual_group_rejects_mismatched_pair():
    f = parse_polynomial("x^4 + y^4")
    G = gf_group(parse_polynomial("x^3 + y^3"))
    with pytest.raises(DomainError):
        dual_group(f, G)


def test_dual_of_grading_subgroup_is_sl_of_transpose():
    for text in ("x^3*y + y^2", "x^4 + y^4", "x^2*y + y^2*z + z^3"):
        f = parse_polynomial(text)
        assert dual_group(f, grading_subgroup(f)) == sl_subgroup(transpose(f))


def test_parse_group_spec_tokens():
    f = parse_polynomial("x^4 + y^4")
    assert parse_group_spec(f, "trivial").order == 1
    assert parse_group_spec(f, "Gf").order == 16
    assert parse_group_spec(f, "G0").order == 4
    assert parse_group_spec(f, "SL").order == 4
    assert parse_group_spec(f, "1/4(1,1)").order == 4
    assert parse_group_spec(f, "1/4(1,0), 1/4(0,1)").order == 16


def test_parse_group_spec_rejects_empty_items():
    f = parse_polynomial("x^3")
    assert parse_group_spec(f, "1/3(1) 1/3(2)").order == 3
    assert parse_group_spec(f, " 1/3(1) ,\t1/3(2) ").order == 3
    for spec in ("1/3(1) ,, 1/3(2)", ", 1/3(1)", "1/3(1),", ","):
        with pytest.raises(InputSyntaxError):
            parse_group_spec(f, spec)


# positions count from the start of the whole spec, leading whitespace included
@pytest.mark.parametrize("spec, message, pos", [
    ("1/0(1)", "denominator must be positive", 2),
    ("1/3(1), 1/0(1)", "denominator must be positive", 10),
    ("  1/3(1)\t1/0(1)", "denominator must be positive", 11),
    ("1/3(1) 1 / 0(1)", "denominator must be positive", 11),
    ("1/ " + "9" * 5000 + "(1)", "denominator too long", 3),
    ("1/3(1) 1/3(+1)", "invalid component", 11),
    ("1/3(1), 1/3(1" + "0" * 5000 + ")", "component too long", 12),
])
def test_group_spec_errors_point_into_the_spec(spec, message, pos):
    f = parse_polynomial("x^3")
    with pytest.raises(InputSyntaxError, match=message) as info:
        parse_group_spec(f, spec)
    assert info.value.position == pos


# a syntax error is reported at the first character that no valid spec
# continues with: inside a component, at a separator, or at the end
@pytest.mark.parametrize("poly, spec, message, pos", [
    ("x^3", "1/3(1) 1/3(+1)", "invalid component", 11),
    ("x^3", "1/3(1),, 1/3(2)", "invalid group spec", 7),
    ("x^3", "1/3(1) ,, 1/3(2)", "invalid group spec", 8),
    ("x^3", "1/3(1),", "invalid group spec", 7),
    ("x^3 + y^3", "1/3(1_0,+2)", "invalid component", 5),
    ("x^3 + y^3", "1/3(-1,2)", "invalid component", 4),
    # a start of trivial, Gf, G0 or SL runs as far as the name goes, and a
    # whole name as far as the whitespace after it
    ("x^3", "Gx", "invalid group spec", 1),
    ("x^3", " trivia", "invalid group spec", 7),
    ("x^3", "SL,", "invalid group spec", 2),
    ("x^3", "trivial  1/3(1)", "invalid group spec", 9),
    ("x^3", "G f", "invalid group spec", 1),
    ("x^3", "", "invalid group spec", 0),
])
def test_group_spec_syntax_errors_point_at_the_first_bad_character(poly, spec, message, pos):
    with pytest.raises(InputSyntaxError, match=message) as info:
        parse_group_spec(parse_polynomial(poly), spec)
    assert info.value.position == pos


def test_all_subgroups_counts():
    # Z4 x Z4 has 15 subgroups, Z3 x Z3 has 6
    assert len(all_subgroups(gf_group(parse_polynomial("x^4 + y^4")))) == 15
    assert len(all_subgroups(gf_group(parse_polynomial("x^3 + y^3")))) == 6


def test_fixed_indices_respect_atom_structure():
    f = parse_polynomial("x^3*y + y^2")
    for g in sorted_elements(gf_group(f)):
        fixed = g.fixed_indices()
        # chain: a fixed head forces the tail to be fixed too
        if 0 in fixed:
            assert 1 in fixed
    loop = parse_polynomial("x^2*y + y^2*x")
    for g in sorted_elements(gf_group(loop)):
        fixed = g.fixed_indices()
        assert fixed in ((), (0, 1))  # loops fix all-or-nothing


@settings(max_examples=25, deadline=None)
@given(symmetric_pairs())
def test_double_dual_restores_subgroup(fG):
    f, G = fG
    ft = transpose(f)
    assert dual_group(ft, dual_group(f, G)) == G


@settings(max_examples=25, deadline=None)
@given(symmetric_pairs())
def test_order_product_is_determinant(fG):
    f, G = fG
    assert G.order * dual_group(f, G).order == determinant(f)


@settings(max_examples=25, deadline=None)
@given(polynomials())
def test_identity_and_age_bounds(f):
    for g in sorted_elements(gf_group(f)):
        assert 0 <= g.age <= f.n
        assert g.age + _inverse(g).age == f.n - g.n_fixed
        assert (g.is_identity) == (g == identity(f.n))


def _same_group(H, R):
    assert H.elements == R.elements
    assert H.generators == R.generators


@settings(max_examples=25, deadline=None)
@given(symmetric_pairs())
def test_groups_match_reference_enumeration(fG):
    f, G = fG
    _same_group(gf_group(f), ref.gf_group(f))
    _same_group(G, ref.subgroup(f, G.generators))
    _same_group(dual_group(f, G), ref.dual_group(f, G))
    _same_group(sl_subgroup(f), ref.sl_subgroup(f))


@settings(max_examples=25, deadline=None)
@given(polynomials(max_vars=2))
def test_all_subgroups_match_reference_enumeration(f):
    subs = all_subgroups(gf_group(f))
    expected = ref.all_subgroups(ref.gf_group(f))
    assert len(subs) == len(expected)
    for H, R in zip(subs, expected):
        _same_group(H, R)
