"""Reference sector sums, kept as a test oracle.

These are the engines' original loops over every group element in sorted
order: the basis engine filters the Milnor basis of each sector's restricted
polynomial and places the survivors on the Hodge table one element at a
time, and the series engine runs one character walk per element.  They are
slow but follow the paper's sector sum literally, so the package's sums over
fixed loci are checked against them on small groups.

`invariant_sector_series` is the series engine's original recursive walk
over character tuples, the oracle for its one-pass-per-coordinate
replacement.
"""

from fractions import Fraction
from math import comb, lcm

from orbefun.basis_engine import SectorContribution, milnor_basis
from orbefun.efunction import BiExpPolynomial, HodgeTable
from orbefun.invertible import InvertiblePolynomial, restrict, weights
from orbefun.symmetry import AbelianSubgroup, character_data, character_invariant, sorted_elements


def invariant_sector_series(
    qsub: tuple[Fraction, ...],
    chardata: tuple[tuple[int, tuple[int, ...]], ...],
) -> dict[Fraction, int]:
    """Invariant part of the coordinate-series product, as y-degree -> coeff.

    Enumerates character tuples recursively with suffix pruning against the
    scaled budget; each surviving tuple deposits its binomial expansion up
    to the support bound.
    """
    m = len(qsub)
    scale = lcm(2, *(q.denominator for q in qsub))
    qs = [int(q * scale) for q in qsub]
    top = sum(scale - v for v in qs)
    half_total = m * scale // 2
    bound = top - half_total
    suffix = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix[j] = suffix[j + 1] + qs[j]

    ngen = len(chardata)
    dens = [den for den, _ in chardata]
    vecs = [vec for _, vec in chardata]
    sums = [0] * ngen
    out: dict[int, int] = {}

    def walk(j: int, cost: int, fr: int) -> None:
        if j == m:
            for s, den in zip(sums, dens):
                if s % den:
                    return
            base = cost - half_total
            sign = -1 if fr % 2 else 1
            for t in range(fr + 1):
                e = base + t * scale
                if e > bound:
                    break
                out[e] = out.get(e, 0) + sign * (-1 if t % 2 else 1) * comb(fr, t)
            return
        rest = suffix[j + 1]
        if cost + scale + rest <= top:
            walk(j + 1, cost + scale, fr)
        v, step = 1, qs[j]
        while cost + v * step + rest <= top:
            for gi in range(ngen):
                sums[gi] += vecs[gi][j]
            walk(j + 1, cost + v * step, fr + 1)
            v += 1
        for gi in range(ngen):
            sums[gi] -= (v - 1) * vecs[gi][j]

    walk(0, 0, 0)
    return {Fraction(e, scale): v for e, v in out.items() if v}


def sectors(f: InvertiblePolynomial, G: AbelianSubgroup) -> tuple[SectorContribution, ...]:
    assert G.ambient == f
    qf = weights(f).q
    out = []
    for g in sorted_elements(G):
        fixed = g.fixed_indices()
        fsub = restrict(f, fixed)
        if fsub.n:
            assert weights(fsub).q == tuple(qf[i] for i in fixed)
        chardata = character_data(G, fixed)
        mons = tuple(
            m
            for m in milnor_basis(fsub)
            if character_invariant(chardata, [e + 1 for e in m.exps])
        )
        out.append(SectorContribution(g, fixed, mons))
    return tuple(out)


def hodge_table(f: InvertiblePolynomial, G: AbelianSubgroup) -> HodgeTable:
    """Bigraded dimensions split by sector parity (even = n_g even)."""
    entries: dict[tuple[Fraction, Fraction], tuple[int, int]] = {}
    for sec in sectors(f, G):
        ng = sec.n_fixed
        odd = ng % 2
        age = sec.g.age
        for m in sec.monomials:
            key = (age + ng - m.ell, age + m.ell)
            de, do = entries.get(key, (0, 0))
            entries[key] = (de + 1 - odd, do + odd)
    return HodgeTable(f.n, entries)


def efunction_basis(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G): each Hodge-table entry (p, q) -> (even, odd)
    becomes the term t^(p - n/2) * tb^(q - n/2) with coefficient even - odd."""
    half = Fraction(f.n, 2)
    entries = hodge_table(f, G).entries
    return BiExpPolynomial({(p - half, q - half): de - do for (p, q), (de, do) in entries.items()})


def efunction_series(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G) from the projected series, sector by sector."""
    assert G.ambient == f
    qf = weights(f).q
    terms: dict[tuple[Fraction, Fraction], int] = {}
    for g in sorted_elements(G):
        fixed = g.fixed_indices()
        prefactor = g.age - Fraction(f.n - len(fixed), 2)
        inner = invariant_sector_series(
            tuple(qf[i] for i in fixed), character_data(G, fixed)
        )
        for e, coeff in inner.items():
            key = (prefactor - e, prefactor + e)
            val = terms.get(key, 0) + coeff
            if val:
                terms[key] = val
            elif key in terms:
                del terms[key]
    return BiExpPolynomial(terms)
