"""Sector sums over fixed loci, and the integer-backed group elements."""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbefun import (
    DomainError,
    basis_engine,
    dual_group,
    efunction_basis,
    efunction_series,
    parse_group_spec,
    parse_polynomial,
    series_engine,
    symmetry,
    transpose,
)
from orbefun.basis_engine import hodge_table, sectors
from orbefun.symmetry import (
    GroupElement,
    format_element,
    gf_group,
    locus_ages,
    parse_element,
    sorted_elements,
    subgroup,
)
import reference_engines as ref
from strategies import symmetric_pairs
from test_basis_engine import _pair
from test_series_engine import GROUPS, LADDER, _sides

F = Fraction


# ---------------------------------------------------------------------------
# the per-locus sums against the per-element loops


@settings(max_examples=25, deadline=None)
@given(symmetric_pairs())
def test_engines_match_per_element_reference(fG):
    f, G = fG
    for p, H in ((f, G), (transpose(f), dual_group(f, G))):
        assert sectors(p, H) == ref.sectors(p, H)
        assert hodge_table(p, H) == ref.hodge_table(p, H)
        assert efunction_basis(p, H) == ref.efunction_basis(p, H)
        assert efunction_series(p, H) == ref.efunction_series(p, H)


@settings(max_examples=25, deadline=None)
@given(symmetric_pairs())
def test_locus_ages_partition_the_group(fG):
    _, G = fG
    classes = locus_ages(G)
    assert sum(sum(ages.values()) for _, ages in classes.values()) == G.order
    for g in G.elements:
        # ages as numerators over N
        assert classes[g.fixed_indices()][1][g.age * G.N] >= 1
    assert list(classes) == sorted(classes)


def test_locus_ages_of_fermat_cubic_dual():
    f = parse_polynomial("x1^3 + x2^3 + x3^3")
    Gd = dual_group(f, subgroup(f, ()))
    classes = locus_ages(Gd)
    assert Gd.order == 27
    assert len(classes) == 8

    def over_n(ages):
        return {age * Gd.N: k for age, k in ages.items()}

    # a locus fixing k coordinates holds 2^(3-k) elements, each moved
    # coordinate contributing 1/3 or 2/3 to the age
    assert classes[(0, 1, 2)][1] == over_n({F(0): 1})
    assert classes[(1, 2)][1] == over_n({F(1, 3): 1, F(2, 3): 1})
    assert classes[()][1] == over_n({F(1): 1, F(4, 3): 3, F(5, 3): 3, F(2): 1})


def test_one_sector_computation_per_fixed_locus(monkeypatch):
    # 27 sectors but 8 fixed loci: each engine's inner computation must run
    # once per locus, not once per element
    f = parse_polynomial("x1^3 + x2^3 + x3^3")
    Gd = dual_group(f, subgroup(f, ()))
    ft = transpose(f)
    calls = {"series": 0, "basis": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        series_engine,
        "_invariant_sector_series",
        counting("series", series_engine._invariant_sector_series),
    )
    monkeypatch.setattr(
        basis_engine, "_invariant_counts", counting("basis", basis_engine._invariant_counts)
    )
    series_engine.efunction_series.cache_clear()
    basis_engine.hodge_table.cache_clear()
    basis_engine.efunction_basis.cache_clear()
    assert efunction_series(ft, Gd) == efunction_basis(ft, Gd)
    assert calls == {"series": 8, "basis": 8}


@pytest.mark.parametrize("text", LADDER)
def test_character_data_runs_once_per_group_and_locus(monkeypatch, text):
    # both engines on both sides of the duality, every group: each locus's
    # tests are reduced once, whichever module asks for them
    calls = Counter()
    real = symmetry.character_data

    def counting(G, fixed):
        calls[G, fixed] += 1
        return real(G, fixed)

    for module in (symmetry, basis_engine, series_engine):
        if hasattr(module, "character_data"):
            monkeypatch.setattr(module, "character_data", counting)
    for cached in (locus_ages, hodge_table, efunction_basis, efunction_series):
        cached.cache_clear()
    f = parse_polynomial(text)
    for spec in GROUPS:
        for p, H in _sides(f, parse_group_spec(f, spec)):
            assert efunction_basis(p, H) == efunction_series(p, H)
    assert calls and max(calls.values()) == 1


def test_engines_reject_group_of_another_polynomial():
    f = parse_polynomial("x^4 + y^4")
    G = gf_group(parse_polynomial("x^3 + y^3"))
    with pytest.raises(DomainError):
        efunction_basis(f, G)
    with pytest.raises(DomainError):
        efunction_series(f, G)


# ---------------------------------------------------------------------------
# GroupElement against plain Fraction tuples


@st.composite
def _element_lists(draw):
    """Lists of (r, a): an order and n integer numerators, any residues."""
    n = draw(st.integers(0, 3))
    nums = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    return draw(st.lists(st.tuples(st.integers(1, 12), nums), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_element_lists())
def test_group_element_matches_fraction_tuples(lists):
    gs = [GroupElement(r, a) for r, a in lists]
    canon = [tuple(F(x, r) % 1 for x in a) for r, a in lists]
    for g, c in zip(gs, canon):
        assert g.comps == c
        assert g.n == len(c)
        assert g.age == sum(c, F(0))
        assert g.r == lcm(*(x.denominator for x in c))
        assert g.n_fixed == sum(1 for x in c if x == 0)
        assert g.fixed_indices() == tuple(i for i, x in enumerate(c) if x == 0)
        assert g.is_identity == all(x == 0 for x in c)
        text = format_element(g)
        assert parse_element(text, g.n) == g
        assert format_element(parse_element(text, g.n)) == text
    g, h = gs[0], gs[-1]
    a, b = canon[0], canon[-1]
    assert (g == h) == (a == b)
    assert len({g, h}) == len({a, b})
    assert (g < h) == (a < b) and (g <= h) == (a <= b)
    assert (g > h) == (a > b) and (g >= h) == (a >= b)
    assert [x.comps for x in sorted(gs)] == sorted(canon)


@settings(max_examples=25, deadline=None)
@given(symmetric_pairs())
# a lattice whose elements, listed by their coefficients on its rows, come
# out of order: 1/2(1,1) before 1/2(1,0)
@example(_pair("x^4 + y^4", "1/4(1,1), 1/2(0,1)"))
def test_sorted_elements_follow_fraction_order(fG):
    f, G = fG
    for H in (G, gf_group(f)):
        assert [g.comps for g in sorted_elements(H)] == sorted(g.comps for g in H.elements)
