"""Independent series-side engine and cross-engine agreement."""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import (
    dual_group,
    efunction_basis,
    efunction_series,
    parse_group_spec,
    parse_polynomial,
    series_engine,
    transpose,
)
from orbefun.invertible import weights
from orbefun.symmetry import character_data, gf_group, locus_ages, subgroup
import reference_engines as ref
from strategies import interleaved_polynomials, symmetric_pairs

F = Fraction


def test_trivial_group_fermat_cubic():
    f = parse_polynomial("x^3")
    E = efunction_series(f, subgroup(f, ()))
    assert E.terms == {
        (F(1, 6), F(-1, 6)): -1,
        (F(-1, 6), F(1, 6)): -1,
    }


def test_full_group_fermat_cubic():
    f = parse_polynomial("x^3")
    E = efunction_series(f, gf_group(f))
    assert E.terms == {
        (F(-1, 6), F(-1, 6)): 1,
        (F(1, 6), F(1, 6)): 1,
    }


def test_character_filter_shrinks_output():
    # only group-invariant products of coordinate series survive
    f = parse_polynomial("x^4 + y^4")
    full = efunction_series(f, subgroup(f, ()))
    cut = efunction_series(f, parse_group_spec(f, "1/4(1,1)"))
    assert sum(abs(c) for c in full.terms.values()) == 9
    assert cut.chi() == 6


def test_matches_basis_engine_on_named_pairs():
    cases = (
        ("x^3*y + y^2", "Gf"),
        ("x^3*y + y^2", "trivial"),
        ("x^2*y + y^2*x", "Gf"),
        ("x^2*y + y^2*z + z^2*x", "SL"),
        ("x^4 + y^4", "1/4(1,1)"),
        ("x^2*y + y^2 + z^3", "G0"),
    )
    for text, spec in cases:
        f = parse_polynomial(text)
        G = parse_group_spec(f, spec)
        assert efunction_series(f, G) == efunction_basis(f, G)


@settings(max_examples=20, deadline=None)
@given(symmetric_pairs(max_vars=3))
def test_matches_basis_engine_random(fG):
    f, G = fG
    assert efunction_series(f, G) == efunction_basis(f, G)


# ---------------------------------------------------------------------------
# the one-pass product against the recursive walk it replaced

LADDER = (
    "x1^5 + x2^5 + x3^5 + x4^5 + x5^5",
    "x1^3 + x2^3 + x3^3 + x4^3 + x5^3 + x6^3",
    "x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x1",
    "x^3*y + y^2 + z^2*w + w^3*z",
    "x^4 + y^4",
    "x^2*w + z^3 + w^2*y + y^2*x",
)
GROUPS = ("trivial", "G0", "SL", "Gf")


def _sides(f, G):
    return ((f, G), (transpose(f), dual_group(f, G)))


def _locus_inputs(p, H):
    """(fixed, wsub, d) of every fixed locus of H, as efunction_series builds
    them: the weights on the locus as numerators over p's denominator d."""
    ws = weights(p)
    return [(fixed, tuple(ws.w[i] for i in fixed), ws.d) for fixed in locus_ages(H)]


def _assert_pass_equals_walk(p, H):
    # the walk reads the raw lattice rows, the pass the Hermite-form tests
    for fixed, wsub, d in _locus_inputs(p, H):
        tests = character_data(H, fixed)
        scale, degrees = series_engine._invariant_sector_series(wsub, d, tests)
        assert {F(e, scale): c for e, c in degrees.items()} == ref.invariant_sector_series(
            tuple(F(x, d) for x in wsub), ref.raw_character_data(H, fixed)
        )


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(symmetric_pairs(), symmetric_pairs(polys=interleaved_polynomials)),
    st.booleans(),
)
def test_pass_equals_walk_on_every_locus(fG, dual):
    p, H = _sides(*fG)[dual]
    _assert_pass_equals_walk(p, H)


@pytest.mark.parametrize("dual", (False, True), ids=("pair", "dual"))
@pytest.mark.parametrize("spec", GROUPS)
@pytest.mark.parametrize("text", LADDER)
def test_pass_equals_walk_on_ladder(text, spec, dual):
    f = parse_polynomial(text)
    _assert_pass_equals_walk(*_sides(f, parse_group_spec(f, spec))[dual])


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(symmetric_pairs(), symmetric_pairs(polys=interleaved_polynomials)),
    st.booleans(),
)
def test_constraint_reduction_keeps_the_invariant_characters(fG, dual):
    # on each locus the Hermite-form tests pass exactly the characters that
    # the raw lattice rows pass, checked over all of (Z/N)^|I| where small
    p, H = _sides(*fG)[dual]
    for fixed in locus_ages(H):
        tests = character_data(H, fixed)
        lasts = [max(j for j, v in enumerate(vec) if v) for _, vec in tests]
        assert len(set(lasts)) == len(lasts)
        if H.N ** len(fixed) > 20000:
            continue
        raw = ref.raw_character_data(H, fixed)
        for c in product(range(H.N), repeat=len(fixed)):
            assert ref.invariant(tests, c) == ref.invariant(raw, c)


# ---------------------------------------------------------------------------
# work counts: entries the pass holds against what the walk enumerates


def _walk_counts(wsub, d):
    """Per depth j: the walk's prefixes (c_1, ..., c_j) under the budget, and
    their binomial terms y^(cost + t*scale), t <= #nonzero, under the cut
    top - suffix[j] that the pass applies after j coordinates."""
    scale = lcm(2, d)
    qs = [x * (scale // d) for x in wsub]
    top = sum(scale - v for v in qs)
    # number of prefixes of each (cost, number of nonzero characters)
    counts = {(0, 0): 1}
    prefixes, terms = [1], [1]
    for j in range(len(qs)):
        cut = top - sum(qs[j + 1 :])
        nxt: dict[tuple[int, int], int] = {}
        for (cost, fr), k in counts.items():
            steps = [(scale, 0)] + [(v * qs[j], 1) for v in range(1, cut // qs[j] + 1)]
            for d, nz in steps:
                if cost + d <= cut:
                    key = (cost + d, fr + nz)
                    nxt[key] = nxt.get(key, 0) + k
        counts = nxt
        prefixes.append(sum(counts.values()))
        terms.append(
            sum(
                k * sum(1 for t in range(fr + 1) if cost + t * scale <= cut)
                for (cost, fr), k in counts.items()
            )
        )
    return prefixes, terms


def _pass_entries(monkeypatch, wsub, d, chardata):
    """Entries (state, cost) of each partial product the pass builds."""
    sizes = []
    layers = series_engine._layers

    def counting(*args):
        for layer in layers(*args):
            sizes.append(sum(len(poly) for poly in layer.values()))
            yield layer

    with monkeypatch.context() as mp:
        mp.setattr(series_engine, "_layers", counting)
        series_engine._invariant_sector_series(wsub, d, chardata)
    return sizes


@pytest.mark.parametrize("text", LADDER)
def test_pass_holds_no_more_than_the_walk(monkeypatch, text):
    # A nonzero character brings two exponents, so where a constraint opens
    # the pass may hold more entries than the walk has prefixes (10 against 7
    # after the first coordinate of the 5-variable loop's dual pair under
    # `trivial`).  Each entry comes from a binomial term of some prefix,
    # which bounds it per depth; over the whole pass the prefixes bound it.
    f = parse_polynomial(text)
    for spec in GROUPS:
        for p, H in _sides(f, parse_group_spec(f, spec)):
            for fixed, wsub, d in _locus_inputs(p, H):
                held = _pass_entries(monkeypatch, wsub, d, character_data(H, fixed))
                prefixes, terms = _walk_counts(wsub, d)
                assert all(h <= t for h, t in zip(held, terms, strict=True))
                assert sum(held) <= sum(prefixes)


def test_fermat7_identity_locus_work(monkeypatch):
    # the walk visits 227,694 prefixes on this locus, whatever the group
    f = parse_polynomial("x1^7 + x2^7 + x3^7 + x4^7 + x5^7")
    ws = weights(f)
    assert sum(_walk_counts(ws.w, ws.d)[0]) == 227694
    held = 0
    for spec in GROUPS:
        chardata = character_data(parse_group_spec(f, spec), tuple(range(5)))
        held += sum(_pass_entries(monkeypatch, ws.w, ws.d, chardata)[1:])
    assert held <= 1000


def test_chain_g0_identity_locus_work(monkeypatch):
    # the raw lattice row of G0 stays open over all five coordinates; under
    # it the pass would hold 13,081 entries
    f = parse_polynomial("x1^7*x2 + x2^7*x3 + x3^7*x4 + x4^7*x5 + x5^7")
    chardata = character_data(parse_group_spec(f, "G0"), tuple(range(5)))
    ws = weights(f)
    assert sum(_pass_entries(monkeypatch, ws.w, ws.d, chardata)) <= 100
