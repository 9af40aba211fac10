"""The atom-by-atom solver behind det E, E^(-1), the weights and psi,
checked against textbook linear algebra computed here from the matrix."""

from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from orbefun import VerificationError, parse_polynomial
from orbefun.basis_engine import milnor_basis, psi
from orbefun.invertible import _solve, determinant, weights
import reference_symmetry as ref
from strategies import interleaved_polynomials, polynomials

F = Fraction

# x^2*z + y^3 + z^2 and x^2*w + w^2*y + y^2*x + z^3, with the monomials in an
# order whose first appearances put a variable of another atom inside each atom
INTERLEAVED = ("z^2 + y^3 + x^2*z", "x^2*w + z^3 + w^2*y + y^2*x")


def leibniz(rows):
    n = len(rows)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][p[i]] for i in range(n))
    return total


def adjugate(rows):
    n = len(rows)

    def minor(i, j):
        return [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]

    return [[(-1) ** (i + j) * leibniz(minor(j, i)) for j in range(n)] for i in range(n)]


def check_solver(f):
    E, n = f.exponents, f.n
    det = leibniz(E)
    assert determinant(f) == det
    inv = ref.exponent_inverse(f)
    for i in range(n):
        for j in range(n):
            assert sum(E[i][k] * inv[k][j] for k in range(n)) == int(i == j)
    adj = adjugate(E)
    for m in milnor_basis(f):
        row = [sum((m.exps[i] + 1) * adj[i][j] for i in range(n)) for j in range(n)]
        assert psi(f, m.exps) == ref.element(F(v, det) for v in row)


def test_interleaved_examples():
    for text in INTERLEAVED:
        f = parse_polynomial(text)
        assert any(max(a.var_indices) - min(a.var_indices) >= len(a.a) for a in f.atoms)
        check_solver(f)
    f = parse_polynomial(INTERLEAVED[0])
    assert determinant(f) == 12
    assert weights(f).q == (F(1, 2), F(1, 3), F(1, 4))
    g = parse_polynomial(INTERLEAVED[1])
    assert determinant(g) == 27
    assert weights(g).q == (F(1, 3),) * 4


def test_solve_checks_its_answer():
    f = parse_polynomial(INTERLEAVED[0])
    assert _solve(f, (1, 2, 3)) == (12, (6, 8, 15))  # (1/2, 2/3, 5/4) over det E
    # atoms that disagree with the exponent matrix give an x that fails E*x = b
    chain, fermat = f.atoms
    wrong = type(chain)("chain", chain.var_indices, (2, 3))
    broken = type(f)(f.n, f.exponents, f.variables, (wrong, fermat))
    with pytest.raises(VerificationError):
        _solve(broken, (1, 1, 1))


@settings(max_examples=40, deadline=None)
@given(st.one_of(polynomials(), interleaved_polynomials()))
def test_solver_matches_leibniz_and_adjugate(f):
    check_solver(f)


@settings(max_examples=60, deadline=None)
@given(st.one_of(polynomials(), interleaved_polynomials()), st.data())
def test_integer_solve_equals_the_fraction_oracle(f, data):
    b = data.draw(st.lists(st.integers(-50, 50), min_size=f.n, max_size=f.n))
    det, nums = _solve(f, b)
    assert det == determinant(f)
    assert tuple(F(x, det) for x in nums) == ref.solve(f, b)

