"""Polynomial parsing, decomposition, weights and the transpose."""

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import (
    CoefficientWarning,
    InputSyntaxError,
    NotDecomposableError,
    NotInvertibleError,
    parse_polynomial,
    transpose,
)
from orbefun.invertible import (
    determinant,
    from_exponent_matrix,
    milnor_number,
    restrict,
    weights,
)
from reference_symmetry import exponent_inverse
from strategies import polynomials

F = Fraction


def test_parse_chain():
    f = parse_polynomial("x^3*y + y^2")
    assert f.n == 2
    assert f.exponents == ((3, 1), (0, 2))
    assert [(a.kind, a.a) for a in f.atoms] == [("chain", (3, 2))]
    assert f.to_text() == "x^3*y + y^2"


def test_parse_fermat_and_loop():
    f = parse_polynomial("x^3")
    assert [(a.kind, a.a) for a in f.atoms] == [("chain", (3,))]
    g = parse_polynomial("x^2*y + y^2*z + z^2*x")
    assert [(a.kind, a.a) for a in g.atoms] == [("loop", (2, 2, 2))]


def test_parse_mixed_atoms_follow_first_appearance():
    f = parse_polynomial("z^3 + x^2*y + y^2")
    assert f.variables == ("z", "x", "y")
    assert [(a.kind, a.a) for a in f.atoms] == [("chain", (3,)), ("chain", (2, 2))]


def test_parse_monomial_order_is_free():
    # same polynomial, different spelling: variables keep first-appearance
    # order, so only relabeling-invariant data coincides
    a = parse_polynomial("y^2 + x^3*y")
    b = parse_polynomial("x^3*y + y^2")
    assert [(at.kind, at.a) for at in a.atoms] == [(at.kind, at.a) for at in b.atoms]
    assert milnor_number(a) == milnor_number(b)
    assert determinant(a) == determinant(b)
    assert sorted(weights(a).q) == sorted(weights(b).q)


def test_parse_coefficient_warns_and_is_dropped():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = parse_polynomial("2*x^3")
    assert f.to_text() == "x^3"
    assert len(caught) == 1
    assert issubclass(caught[0].category, CoefficientWarning)


def test_a_coefficient_the_parse_rejects_draws_no_warning():
    for text, error in (("0*x^3", NotInvertibleError), ("x^3 + 2", InputSyntaxError)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error):
                parse_polynomial(text)
        assert caught == [], text


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(InputSyntaxError) as err:
        parse_polynomial("x^3 +")
    assert err.value.position == 5
    # a blank text is incomplete too, so it is reported at its end
    for blank in ("", "   ", " \t\n "):
        with pytest.raises(InputSyntaxError, match="empty polynomial") as err:
            parse_polynomial(blank)
        assert err.value.position == len(blank)
    with pytest.raises(InputSyntaxError):
        parse_polynomial("x^")
    with pytest.raises(InputSyntaxError):
        parse_polynomial("x^3 y^2")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n - 1, max_size=n + 1,
)))
def test_random_exponent_matrices_decompose_or_fail_cleanly(rows):
    """Every matrix with entries 0-3 is rejected as not invertible or not
    decomposable, or its atoms partition the variables."""
    try:
        f = from_exponent_matrix(rows)
    except (NotInvertibleError, NotDecomposableError):
        return
    covered = sorted(i for atom in f.atoms for i in atom.var_indices)
    assert covered == list(range(f.n))
    for atom in f.atoms:
        assert [f.exponents[i][i] for i in atom.var_indices] == list(atom.a)


def test_non_invertible_shapes_rejected():
    with pytest.raises(NotInvertibleError):
        parse_polynomial("x^2 + x^3")  # square matrix violated
    with pytest.raises(NotInvertibleError):
        parse_polynomial("x^2*y + y^2*x + x^2")
    with pytest.raises(NotDecomposableError):
        parse_polynomial("x*y + y^2")  # no exponent >= 2 in the head


def test_from_exponent_matrix_validates():
    f = from_exponent_matrix(((3, 1), (0, 2)))
    assert f.to_text() == "x^3*y + y^2"
    loop = from_exponent_matrix(((2, 1), (1, 2)))
    assert loop.atoms[0].kind == "loop"
    with pytest.raises(NotDecomposableError):
        from_exponent_matrix(((2, 1), (0, 1)))  # diagonal entry below 2


def test_weights_chain():
    ws = weights(parse_polynomial("x^3*y + y^2"))
    assert ws.q == (F(1, 6), F(1, 2))
    assert ws.d == 6
    assert ws.w == (1, 3)


def test_weights_loop():
    ws = weights(parse_polynomial("x^2*y + y^2*x"))
    assert ws.q == (F(1, 3), F(1, 3))


def test_weights_solve_exponent_system():
    f = parse_polynomial("x^2*y + y^2*z + z^3")
    qs = weights(f).q
    for row in f.exponents:
        assert sum(e * q for e, q in zip(row, qs)) == 1


def test_milnor_number_examples():
    assert milnor_number(parse_polynomial("x^3")) == 2
    assert milnor_number(parse_polynomial("x^3*y + y^2")) == 5
    assert milnor_number(parse_polynomial("x^4 + y^4")) == 9
    assert milnor_number(parse_polynomial("x^2*y + y^2*x")) == 4


def test_determinant_examples():
    assert determinant(parse_polynomial("x^3*y + y^2")) == 6
    assert determinant(parse_polynomial("x^2*y + y^2*z + z^2*x")) == 9
    assert determinant(parse_polynomial("x^2*y + y^2*x")) == 3
    assert determinant(parse_polynomial("x^2*y + y^2*z + z^2*w + w^2*x")) == 15


def test_exponent_inverse_is_inverse():
    f = parse_polynomial("x^2*y + y^2*z + z^3")
    inv = exponent_inverse(f)
    n = f.n
    for i in range(n):
        for j in range(n):
            s = sum(f.exponents[i][k] * inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_transpose_examples():
    f = parse_polynomial("x^3*y + y^2")
    assert transpose(f).to_text() == "x^3 + x*y^2"
    g = parse_polynomial("x^4 + y^4")
    assert transpose(g).to_text() == "x^4 + y^4"


def test_restrict_to_fixed_locus():
    f = parse_polynomial("x^3*y + y^2 + z^3")
    sub = restrict(f, (2,))
    assert sub.to_text() == "z^3"
    both = restrict(f, (0, 1))
    assert both.to_text() == "x^3*y + y^2"
    with pytest.raises(NotDecomposableError):
        restrict(f, (0,))  # head of a chain alone is not a fixed locus


def test_empty_restriction():
    f = parse_polynomial("x^3")
    e = restrict(f, ())
    assert e.n == 0
    assert milnor_number(e) == 1
    assert weights(e).q == ()


def test_decompose_matches_atoms():
    f = parse_polynomial("x^3*y + y^2 + z^2*w + w^2*z")
    kinds = [(a.kind, a.a) for a in f.atoms]
    assert kinds == [("chain", (3, 2)), ("loop", (2, 2))]


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_transpose_is_an_involution(f):
    assert transpose(transpose(f)).exponents == f.exponents


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_parse_round_trips_text(f):
    assert parse_polynomial(f.to_text()).exponents == f.exponents


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_weight_equations_and_range(f):
    qs = weights(f).q
    for row in f.exponents:
        assert sum(e * q for e, q in zip(row, qs)) == 1
    for q in qs:
        assert 0 < q <= F(1, 2)


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_milnor_number_is_weight_product(f):
    expect = 1
    for q in weights(f).q:
        expect *= 1 / q - 1
    assert milnor_number(f) == expect


@settings(max_examples=40, deadline=None)
@given(polynomials())
def test_transpose_preserves_determinant(f):
    assert determinant(transpose(f)) == determinant(f)
