"""Thom-Sebastiani multiplicativity, for each engine on its own.

For pairs (f1, G1) and (f2, G2) on disjoint variables,

    E(f1 + f2, G1 x G2) = E(f1, G1) * E(f2, G2):

sectors, ages, fixed loci, Milnor bases and invariance all split over the
two sets of variables.  The product is taken here, on the integer
numerators of the two E-functions, and not through any package arithmetic.
"""

from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbefun import efunction_basis, efunction_series, parse_group_spec, parse_polynomial
from orbefun.efunction import BiExpPolynomial
from orbefun.invertible import atom_polynomial, from_exponent_matrix, restrict
from orbefun.symmetry import GroupElement, gf_group, sorted_elements, subgroup
from strategies import atom_specs
from test_series_engine import LADDER

ENGINES = pytest.mark.parametrize(
    "engine", (efunction_basis, efunction_series), ids=("basis", "series")
)
SMALL_ATOMS = (
    "x^5",
    "x^3*y + y^2",
    "x^2*y + y^2*x",
    "x^3*y + y^3*x",
    "x^2*y + y^2*z + z^2*x",
    "x^2*y + y^2*z + z^2*w + w^2*x",
)


def _product(P, Q):
    """P * Q over the least common multiple of their denominators."""
    L = lcm(P.den, Q.den)
    m, k = L // P.den, L // Q.den
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in P.nums.items():
        for (x, y), e in Q.nums.items():
            key = (a * m + x * k, b * m + y * k)
            out[key] = out.get(key, 0) + c * e
    return BiExpPolynomial(L, out)


def _direct_sum(pair1, pair2):
    """(f1 + f2, G1 x G2), the variables of f2 placed after those of f1."""
    (f1, G1), (f2, G2) = pair1, pair2
    n1, n2 = f1.n, f2.n
    rows = [row + (0,) * n2 for row in f1.exponents]
    rows += [(0,) * n1 + row for row in f2.exponents]
    f = from_exponent_matrix(rows)
    gens = [GroupElement(g.r, g.a + (0,) * n2) for g in G1.generators]
    gens += [GroupElement(g.r, (0,) * n1 + g.a) for g in G2.generators]
    return f, subgroup(f, gens)


def _assert_multiplicative(engine, pair1, pair2):
    f, G = _direct_sum(pair1, pair2)
    assert G.order == pair1[1].order * pair2[1].order
    assert engine(f, G) == _product(engine(*pair1), engine(*pair2))


@ENGINES
@pytest.mark.parametrize("spec", ("trivial", "Gf"))
@pytest.mark.parametrize("texts", list(combinations_with_replacement(SMALL_ATOMS, 2)))
def test_small_atoms(engine, spec, texts):
    pairs = []
    for text in texts:
        f = parse_polynomial(text)
        pairs.append((f, parse_group_spec(f, spec)))
    _assert_multiplicative(engine, *pairs)


@ENGINES
@pytest.mark.parametrize("spec", ("trivial", "Gf"))
@pytest.mark.parametrize("text", [t for t in LADDER if len(parse_polynomial(t).atoms) > 1])
def test_ladder_splits_into_its_atoms(engine, spec, text):
    # trivial and G_f of a sum of atoms are the products of the atoms' groups
    f = parse_polynomial(text)
    E = None
    for atom in f.atoms:
        sub = restrict(f, atom.var_indices)
        factor = engine(sub, parse_group_spec(sub, spec))
        E = factor if E is None else _product(E, factor)
    assert engine(f, parse_group_spec(f, spec)) == E


@st.composite
def _atom_pairs(draw):
    """An atom with a random subgroup of its G_f."""
    kind, a = draw(atom_specs())
    f = atom_polynomial(kind, a)
    gens = draw(st.lists(st.sampled_from(sorted_elements(gf_group(f))), max_size=2))
    return f, subgroup(f, gens)


@ENGINES
@settings(max_examples=30, deadline=None)
@given(_atom_pairs(), _atom_pairs())
def test_pairs_of_atoms(engine, pair1, pair2):
    _assert_multiplicative(engine, pair1, pair2)
