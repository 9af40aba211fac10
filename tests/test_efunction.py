"""The two-exponent Laurent carrier, Hodge tables, derived invariants."""

import json
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import InputSyntaxError, ModeError, check_duality, parse_polynomial
from orbefun.efunction import (
    BiExpPolynomial,
    HodgeTable,
    central_charge,
    e_to_hodge,
    exponent_mean,
    exponents,
    hodge_from_efunction,
    parse_efunction,
    variance,
)

import reference_engines as ref

F = Fraction


def _poly(*terms):
    acc = {}
    for et, etb, c in terms:
        acc[(F(et), F(etb))] = acc.get((F(et), F(etb)), 0) + c
    return BiExpPolynomial(*ref.numerators(acc))


def _table(n, entries):
    return HodgeTable(n, *ref.numerators(entries))


def test_zero_coefficients_are_dropped():
    P = _poly((0, 0, 1), (0, 0, -1))
    assert (P.den, P.nums) == (1, {})
    assert P.terms == {}


def test_int_fraction_and_mixed_input_build_equal_polynomials():
    ints = BiExpPolynomial(1, {(1, -2): 3, (0, 0): -1})
    fracs = BiExpPolynomial(*ref.numerators({(F(1), F(-2)): 3, (F(0), F(0)): -1}))
    mixed = BiExpPolynomial(*ref.numerators({(F(2, 2), -2): 3, (0, F(0)): -1}))
    assert ints == fracs == mixed
    for P in (ints, fracs, mixed):
        assert all(type(e) is Fraction for key in P.terms for e in key)
        assert all(type(c) is int for c in P.terms.values())
        assert hash(frozenset(P.terms.items())) == hash(frozenset(fracs.terms.items()))
    P = _poly((F(1, 3), F(-2, 3), 5), (F(1, 2), 0, 1), (0, 0, 0))
    assert P.den == 6  # the least common denominator of the exponents
    assert P.nums == {(2, -4): 5, (3, 0): 1}
    assert P.terms == {(F(1, 3), F(-2, 3)): 5, (F(1, 2), F(0)): 1}


def test_numerators_over_any_denominator_build_the_canonical_polynomial():
    over_6 = BiExpPolynomial(6, {(3, -3): 2, (6, 0): -1, (2, 2): 0})
    over_12 = BiExpPolynomial(12, {(6, -6): 2, (12, 0): -1})
    over_2 = BiExpPolynomial(2, {(1, -1): 2, (2, 0): -1})
    for P in (over_6, over_12):
        assert (P.den, P.nums) == (over_2.den, over_2.nums) == (2, {(1, -1): 2, (2, 0): -1})
        assert P == over_2 == _poly((F(1, 2), F(-1, 2), 2), (1, 0, -1))
        assert all(type(e) is Fraction for key in P.terms for e in key)
        assert all(type(c) is int for c in P.terms.values())
    zero = BiExpPolynomial(10, {(5, 5): 0})
    assert (zero.den, zero.nums) == (1, {}) and zero == BiExpPolynomial(1, {})
    assert BiExpPolynomial(4, {(0, 0): 3}).den == 1
    with pytest.raises(TypeError):
        over_6.nums[(0, 0)] = 1


def test_chi_is_signed_coefficient_sum():
    P = _poly((F(-1, 2), F(-1, 2), 1), (0, 0, 4), (F(1, 2), F(1, 2), 1))
    assert P.chi() == 6


def test_to_text_canonical_form():
    P = _poly((F(1, 6), F(-1, 6), -1), (F(-1, 6), F(1, 6), -1))
    assert P.to_text() == "-1 * t^(1/6) * tb^(-1/6) - 1 * t^(-1/6) * tb^(1/6)"


def test_pretty_forms():
    assert _poly((F(-1, 6), F(-1, 6), 1), (F(1, 6), F(1, 6), 1)).pretty() == (
        "(t*tb)^(-1/6) + (t*tb)^(1/6)"
    )
    assert _poly((F(1, 6), F(-1, 6), -1), (F(-1, 6), F(1, 6), -1)).pretty() == (
        "-(tb/t)^(-1/6) - (tb/t)^(1/6)"
    )
    assert _poly((0, 0, 3)).pretty() == "3"
    assert BiExpPolynomial(1, {}).pretty() == "0"
    assert _poly((1, 2, 2)).pretty() == "2*t^(1)*tb^(2)"


def test_parse_round_trips():
    samples = (
        "(t*tb)^(-1/2) + 2*(t*tb)^(-1/4) + 3 + 2*(t*tb)^(1/4) + (t*tb)^(1/2)",
        "-(tb/t)^(-1/6) - (tb/t)^(1/6)",
        "1 * t^(-1/6) * tb^(-1/6) + 1 * t^(1/6) * tb^(1/6)",
        "0",
        "-2",
    )
    for text in samples:
        P = parse_efunction(text)
        assert parse_efunction(P.to_text()) == P
        assert parse_efunction(P.pretty()) == P


def test_parse_rejects_garbage():
    for bad in ("t^", "(t*tb)^(1/2", "t^(1/2) tb^(1/2)", "++1", "x^2"):
        with pytest.raises(InputSyntaxError):
            parse_efunction(bad)


def test_json_round_trip():
    P = _poly((F(-1, 3), F(-1, 3), 1), (0, 0, 2), (F(1, 3), F(1, 3), 1))
    blob = json.dumps(P.to_json_obj())
    assert BiExpPolynomial.from_json_obj(json.loads(blob)) == P


def test_hodge_table_drops_empty_rows():
    T = _table(2, {(F(1), F(1)): (0, 0), (F(1, 2), F(1, 2)): (1, 0)})
    assert list(T.entries.items()) == [((F(1, 2), F(1, 2)), (1, 0))]
    assert (T.den, T.nums) == (2, {(1, 1): (1, 0)})


def test_hodge_table_is_stored_over_the_least_common_denominator():
    ints = _table(2, {(1, 0): (2, 0), (F(1, 2), 1): (0, 1)})
    fracs = _table(2, {(F(1), F(0)): (2, 0), (F(1, 2), F(1)): (0, 1)})
    over_6 = HodgeTable(2, 6, {(6, 0): (2, 0), (3, 6): (0, 1), (1, 1): (0, 0)})
    assert ints == fracs == over_6
    for T in (ints, fracs, over_6):
        assert (T.den, T.nums) == (2, {(2, 0): (2, 0), (1, 2): (0, 1)})
        assert all(type(e) is Fraction for key in T.entries for e in key)
        assert all(type(d) is int for dims in T.entries.values() for d in dims)
    T = _table(1, {(F(1, 3), F(2, 3)): (1, 0), (F(1, 2), F(1, 2)): (0, 2)})
    assert (T.den, T.nums) == (6, {(2, 4): (1, 0), (3, 3): (0, 2)})
    assert HodgeTable(1, 4, {}).den == 1


def test_e_to_hodge_modes():
    T = _table(2, {(F(1), F(1)): (4, 0), (F(1, 2), F(1, 2)): (1, 0)})
    sl = e_to_hodge(T, "SL")
    assert sl.terms[(F(0), F(0))] == 4
    assert sl.terms[(F(-1, 2), F(-1, 2))] == -1  # (-1)^(p+q) with p+q = 1
    g0 = e_to_hodge(T, "G0")
    assert g0.terms[(F(-1, 2), F(-1, 2))] == 1  # q - p = 0
    with pytest.raises(ValueError):
        e_to_hodge(T, "nope")


def test_e_to_hodge_mode_violation():
    T = _table(1, {(F(1, 3), F(2, 3)): (0, 1)})
    assert e_to_hodge(T, "SL").terms == {(F(-1, 6), F(1, 6)): -1}  # p + q = 1
    with pytest.raises(ModeError):
        e_to_hodge(T, "G0")  # q - p = 1/3
    with pytest.raises(ModeError):
        e_to_hodge(_table(1, {(F(1, 3), F(1, 2)): (1, 0)}), "SL")


def test_hodge_from_efunction_splits_by_sign():
    P = _poly((F(-1, 6), F(1, 6), -1), (0, 0, 2))
    T = hodge_from_efunction(P, 1)
    assert T.entries[(F(1, 3), F(2, 3))] == (0, 1)
    assert T.entries[(F(1, 2), F(1, 2))] == (2, 0)


def test_round_trip_table_to_efunction():
    f = parse_polynomial("x^4 + y^4")
    from orbefun import efunction_basis
    from orbefun.basis_engine import hodge_table
    from orbefun.symmetry import gf_group

    G = gf_group(f)
    T = hodge_table(f, G)
    assert e_to_hodge(T, "G0") == efunction_basis(f, G)
    assert hodge_from_efunction(efunction_basis(f, G), f.n) == T


def test_exponents_and_variance_example():
    f = parse_polynomial("x^4 + y^4")
    from orbefun import parse_group_spec
    from orbefun.basis_engine import hodge_table

    T = hodge_table(f, parse_group_spec(f, "1/4(1,1)"))
    assert exponents(T) == (F(1, 2), F(1), F(1), F(1), F(1), F(3, 2))
    assert exponent_mean(T) == 0
    assert variance(T) == F(1, 2)
    assert central_charge(f) == 1


def test_check_duality_sign():
    P = _poly((F(-1, 6), F(-1, 6), 1), (F(1, 6), F(1, 6), 1))
    Q = _poly((F(1, 6), F(-1, 6), 1), (F(-1, 6), F(1, 6), 1))
    minus_Q = _poly((F(1, 6), F(-1, 6), -1), (F(-1, 6), F(1, 6), -1))
    assert check_duality(P, Q, 1) is False
    assert check_duality(P, minus_Q, 1) is True
    assert check_duality(P, Q, 2) is True


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(max_denominator=6),
            st.fractions(max_denominator=6),
            st.integers(-5, 5),
        ),
        max_size=6,
    )
)
def test_text_and_json_round_trip_everything(terms):
    P = _poly(*terms)
    assert parse_efunction(P.to_text()) == P
    assert parse_efunction(P.pretty()) == P
    assert BiExpPolynomial.from_json_obj(P.to_json_obj()) == P


# ---------------------------------------------------------------------------
# the integer numerators against the Fraction-keyed arithmetic they replaced

_exps = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_polys = st.dictionaries(st.tuples(_exps, _exps), st.integers(-3, 3), max_size=8)


@st.composite
def _tables(draw):
    """(n, Fraction-keyed rows with empty ones among them), free or with the
    sign exponent of one mode integral on every row."""
    n = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(("free", "SL", "G0")))
    rows = {}
    dims = st.tuples(st.integers(0, 3), st.integers(0, 3))
    for p, k, v in draw(st.lists(st.tuples(_exps, st.integers(-2, 2), dims), max_size=8)):
        q = draw(_exps) if kind == "free" else (k - p if kind == "SL" else p + k)
        rows[(p, q)] = v
    return n, rows


def _lcd(keys):
    return lcm(*(e.denominator for key in keys for e in key))


def _assert_canonical(P, want):
    """P's Fraction view is `want` exactly, over the least common denominator."""
    view = P.terms if isinstance(P, BiExpPolynomial) else P.entries
    assert dict(view) == want
    assert P.den == _lcd(want)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys, st.integers(0, 5))
def test_polynomial_arithmetic_equals_the_fraction_oracle(p, q, n):
    P, Q = BiExpPolynomial(*ref.numerators(p)), BiExpPolynomial(*ref.numerators(q))
    _assert_canonical(P, {k: v for k, v in p.items() if v})
    assert P.chi() == sum(p.values())
    assert check_duality(P, Q, n) == (
        {k: v for k, v in p.items() if v} == ref.scale(ref.invert_t(q), (-1) ** n)
    )
    # the dual that the oracle builds from P passes
    dual = ref.scale(ref.invert_t(p), (-1) ** n)
    assert check_duality(P, BiExpPolynomial(*ref.numerators(dual)), n)
    assert check_duality(BiExpPolynomial(*ref.numerators(dual)), P, n)
    _assert_canonical(hodge_from_efunction(P, n), ref.hodge_from_efunction(p, n))


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_table_conversions_and_moments_equal_the_fraction_oracle(table):
    n, rows = table
    T = _table(n, rows)
    rows = {k: v for k, v in rows.items() if v != (0, 0)}
    _assert_canonical(T, rows)
    for mode in ("SL", "G0"):
        try:
            want = ref.e_to_hodge(n, rows, mode)
        except ModeError as exc:
            with pytest.raises(ModeError, match=re.escape(str(exc))):
                e_to_hodge(T, mode)
        else:
            _assert_canonical(e_to_hodge(T, mode), want)
    for power, moment in ((1, exponent_mean), (2, variance)):
        try:
            want = ref.signed_moment(n, rows, power)
        except ModeError as exc:
            with pytest.raises(ModeError, match=re.escape(str(exc))):
                moment(T)
        else:
            assert moment(T) == want
