"""Hypothesis strategies shared across the suite.

Polynomials are built atom-by-atom as block-diagonal exponent matrices,
capped at 4 variables and exponent 4 so closures stay small enough for
exhaustive group enumeration inside property tests.
"""

from hypothesis import strategies as st

from orbefun import from_exponent_matrix, gf_group, subgroup
from orbefun.symmetry import sorted_elements


def _atom_rows(kind, a):
    m = len(a)
    rows = [[0] * m for _ in range(m)]
    for i, ai in enumerate(a):
        rows[i][i] = ai
    if kind == "chain":
        for i in range(m - 1):
            rows[i][i + 1] = 1
    else:
        for i in range(m):
            rows[i][(i + 1) % m] = 1
    return rows


def atom_specs():
    chain = st.lists(st.integers(2, 4), min_size=1, max_size=3).map(
        lambda a: ("chain", tuple(a))
    )
    loop = st.lists(st.integers(2, 4), min_size=2, max_size=3).map(
        lambda a: ("loop", tuple(a))
    )
    return st.one_of(chain, loop)


@st.composite
def polynomials(draw, max_vars=4):
    specs = draw(
        st.lists(atom_specs(), min_size=1, max_size=2).filter(
            lambda s: sum(len(a) for _, a in s) <= max_vars
        )
    )
    n = sum(len(a) for _, a in specs)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for kind, a in specs:
        block = _atom_rows(kind, a)
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                rows[off + i][off + j] = v
        off += len(a)
    return from_exponent_matrix(tuple(tuple(r) for r in rows))


@st.composite
def interleaved_polynomials(draw, max_vars=4):
    """`polynomials()` with rows and columns permuted together, so that an
    atom's variables need not be contiguous (as in x^2*z + y^3 + z^2)."""
    f = draw(polynomials(max_vars=max_vars))
    p = draw(st.permutations(range(f.n)))
    rows = tuple(tuple(f.exponents[p[i]][p[j]] for j in range(f.n)) for i in range(f.n))
    return from_exponent_matrix(rows)


@st.composite
def symmetric_pairs(draw, max_vars=4, polys=polynomials):
    """A polynomial drawn from `polys` plus a random subgroup of its full
    symmetry group."""
    f = draw(polys(max_vars=max_vars))
    elems = sorted_elements(gf_group(f))
    gens = draw(st.lists(st.sampled_from(elems), min_size=0, max_size=2))
    return f, subgroup(f, tuple(gens))
