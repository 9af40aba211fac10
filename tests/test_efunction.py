"""The two-exponent Laurent carrier, Hodge tables, derived invariants."""

import json
from fractions import Fraction

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

F = Fraction


def _poly(*terms):
    acc = {}
    for et, etb, c in terms:
        acc[(F(et), F(etb))] = acc.get((F(et), F(etb)), 0) + c
    return BiExpPolynomial(acc)


def test_zero_coefficients_are_dropped():
    P = _poly((0, 0, 1), (0, 0, -1))
    assert P.is_zero
    assert P.terms == {}


def test_int_fraction_and_mixed_input_build_equal_polynomials():
    ints = BiExpPolynomial({(1, -2): 3, (0, 0): -1})
    fracs = BiExpPolynomial({(F(1), F(-2)): 3, (F(0), F(0)): -1})
    mixed = BiExpPolynomial({(F(2, 2), -2): 3, (0, F(0)): -1})
    assert ints == fracs == mixed
    for P in (ints, fracs, mixed):
        assert all(type(e) is Fraction for key in P.terms for e in key)
        assert all(type(c) is int for c in P.terms.values())
        assert hash(frozenset(P.terms.items())) == hash(frozenset(fracs.terms.items()))
    kept = (F(1, 3), F(2, 3))
    P = BiExpPolynomial({kept: 5})
    assert all(a is b for a, b in zip(next(iter(P.terms)), kept))


def test_arithmetic():
    P = _poly((F(1, 2), F(1, 2), 1))
    Q = _poly((0, 0, 2))
    s = P + Q
    assert s.terms == {(F(1, 2), F(1, 2)): 1, (F(0), F(0)): 2}
    assert (s - s).is_zero
    assert (-s).terms[(F(1, 2), F(1, 2))] == -1
    assert s.scale(-3).terms[(F(0), F(0))] == -6


def test_invert_t_is_an_involution():
    P = _poly((F(1, 6), F(-1, 6), -1), (F(-1, 6), F(1, 6), -1))
    assert P.invert_t().invert_t() == P
    assert P.invert_t().terms == {(F(-1, 6), F(-1, 6)): -1, (F(1, 6), F(1, 6)): -1}


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
    assert BiExpPolynomial({}).pretty() == "0"
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
    T = HodgeTable(2, {(F(1), F(1)): (0, 0), (F(1, 2), F(1, 2)): (1, 0)})
    assert T.sorted_entries() == [((F(1, 2), F(1, 2)), (1, 0))]
    assert T.total_dimension == 1


def test_hodge_table_keeps_the_fractions_it_is_given():
    ints = HodgeTable(2, {(1, 0): (2, 0), (F(1, 2), 1): (0, 1)})
    fracs = HodgeTable(2, {(F(1), F(0)): (2, 0), (F(1, 2), F(1)): (0, 1)})
    assert ints == fracs
    for T in (ints, fracs):
        assert all(type(e) is Fraction for key in T.entries for e in key)
        assert all(type(d) is int for dims in T.entries.values() for d in dims)
    kept = (F(1, 3), F(2, 3))
    T = HodgeTable(1, {kept: (1, 0)})
    assert all(a is b for a, b in zip(next(iter(T.entries)), kept))


def test_e_to_hodge_modes():
    T = HodgeTable(2, {(F(1), F(1)): (4, 0), (F(1, 2), F(1, 2)): (1, 0)})
    sl = e_to_hodge(T, "SL")
    assert sl.terms[(F(0), F(0))] == 4
    assert sl.terms[(F(-1, 2), F(-1, 2))] == -1  # (-1)^(p+q) with p+q = 1
    g0 = e_to_hodge(T, "G0")
    assert g0.terms[(F(-1, 2), F(-1, 2))] == 1  # q - p = 0
    with pytest.raises(ValueError):
        e_to_hodge(T, "nope")


def test_e_to_hodge_mode_violation():
    T = HodgeTable(1, {(F(1, 3), F(2, 3)): (0, 1)})
    assert e_to_hodge(T, "SL").terms == {(F(-1, 6), F(1, 6)): -1}  # p + q = 1
    with pytest.raises(ModeError):
        e_to_hodge(T, "G0")  # q - p = 1/3
    with pytest.raises(ModeError):
        e_to_hodge(HodgeTable(1, {(F(1, 3), F(1, 2)): (1, 0)}), "SL")


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
    assert check_duality(P, Q, 1) is False
    assert check_duality(P, Q.scale(-1), 1) is True


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
