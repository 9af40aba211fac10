"""Reference sector sums, kept as a test oracle.

These are the engines' original loops over every group element in sorted
order: the basis engine filters the Milnor basis of each sector's restricted
polynomial and places the survivors on the Hodge table one element at a
time, and the series engine runs one character walk per element.  They are
slow but follow the paper's sector sum literally, so the package's sums over
fixed loci are checked against them on small groups.

`invariant_sector_series` is the series engine's original recursive walk
over character tuples, the oracle for its one-pass-per-coordinate
replacement.  `locus_degree_counts` reads the degrees of each locus's
invariant monomials off the per-element filter in `sectors`, the oracle for
the basis engine's per-atom count; each degree is summed here from the
monomial's exponents and f's weights.

`pair_table` is the pairing table as first written: one psi per element
and invariant monomial, solved in Fractions (`reference_symmetry.solve`)
and checked against G's generators with the oracle's own pairing.
`expected_multiplicity` is the predicted value of every pair-table row,
which the pair tables are checked against.

`scale`, `invert_t` and `signed_moment` are the carrier arithmetic as it
ran on Fraction-keyed maps before the E-function and the Hodge table were
stored as integer numerators over one denominator; they take and return
plain Fraction-keyed dicts, dropping zero coefficients as the old
constructors did.  `numerators` puts such a dict over its own least common denominator,
the form the carriers' constructors take.

The oracles list a group's elements with `elements`, the closure of its
generators in `reference_symmetry`, and not with `symmetry.sorted_elements`,
so a fault in the lattice listing does not reach the engines and the
oracles together.  They read `raw_character_data`, the lattice rows
restricted to each locus as they stand, and not the Hermite-form tests that
both engines read from `symmetry.character_data`, and test a character with
their own `invariant`: a fault in that reduction or in the package's filter
then shows as a disagreement with the oracles, not hidden behind the
engines' agreement.
"""

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

from orbefun.basis_engine import SectorContribution, milnor_basis
from orbefun.efunction import BiExpPolynomial, HodgeTable
from orbefun.errors import ModeError, VerificationError
from orbefun.invertible import InvertiblePolynomial, restrict, transpose, weights
from orbefun.symmetry import AbelianSubgroup, GroupElement
import reference_symmetry


def raw_character_data(
    G: AbelianSubgroup, fixed: tuple[int, ...]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Integerized restriction of the rows of G's lattice to the coordinates
    `fixed`; the rows N*e_j, the identity, are left out.

    Each row a becomes a pair (D, v) with D the common denominator of the
    restricted components of a/N and v = D*a/N on them.  A tuple c of
    integers, one per fixed coordinate, is invariant under G as a character
    exactly when sum(c_j * v_j) = 0 mod D for every row.
    """
    N = G.N
    out = []
    for j, row in enumerate(G.rows):
        if row[j] == N:
            continue
        nums = [row[i] for i in fixed]
        scale = gcd(N, *nums)
        out.append((N // scale, tuple(x // scale for x in nums)))
    return tuple(out)


def elements(G: AbelianSubgroup) -> list[GroupElement]:
    """The elements of G in sorted order, closed from its generators by the
    oracle's own arithmetic rather than listed from its lattice."""
    return sorted(reference_symmetry.closure(G.ambient.n, G.generators))


def invariant(chardata: tuple[tuple[int, tuple[int, ...]], ...], c) -> bool:
    """Whether the character tuple c passes every test (D, v) in `chardata`."""
    return all(sum(ci * vi for ci, vi in zip(c, vec)) % den == 0 for den, vec in chardata)


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
    for g in elements(G):
        fixed = g.fixed_indices()
        fsub = restrict(f, fixed)
        if fsub.n:
            assert weights(fsub).q == tuple(qf[i] for i in fixed)
        chardata = raw_character_data(G, fixed)
        mons = tuple(k for k in milnor_basis(fsub) if invariant(chardata, [e + 1 for e in k]))
        out.append(SectorContribution(g, fixed, mons))
    return tuple(out)


def _degrees(f: InvertiblePolynomial, sec: SectorContribution) -> list[Fraction]:
    """The degrees l = sum q_i*(k_i + 1) of the sector's invariant monomials
    k, with q the weights of f on the fixed coordinates."""
    q = [weights(f).q[i] for i in sec.fixed]
    return [sum((qi * (e + 1) for qi, e in zip(q, k)), Fraction(0)) for k in sec.monomials]


def locus_degree_counts(
    f: InvertiblePolynomial, G: AbelianSubgroup
) -> dict[tuple[int, ...], Counter]:
    """Fixed locus -> degree -> number of invariant basis monomials there."""
    return {sec.fixed: Counter(_degrees(f, sec)) for sec in sectors(f, G)}


def hodge_table(f: InvertiblePolynomial, G: AbelianSubgroup) -> HodgeTable:
    """Bigraded dimensions split by sector parity (even = n_g even)."""
    entries: dict[tuple[Fraction, Fraction], tuple[int, int]] = {}
    for sec in sectors(f, G):
        ng = len(sec.fixed)
        odd = ng % 2
        age = sec.g.age
        for ell in _degrees(f, sec):
            key = (age + ng - ell, age + ell)
            de, do = entries.get(key, (0, 0))
            entries[key] = (de + 1 - odd, do + odd)
    return HodgeTable(f.n, *numerators(entries))


def efunction_basis(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G): each Hodge-table entry (p, q) -> (even, odd)
    becomes the term t^(p - n/2) * tb^(q - n/2) with coefficient even - odd."""
    half = Fraction(f.n, 2)
    entries = hodge_table(f, G).entries
    return BiExpPolynomial(
        *numerators({(p - half, q - half): de - do for (p, q), (de, do) in entries.items()})
    )


def efunction_series(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G) from the projected series, sector by sector."""
    assert G.ambient == f
    qf = weights(f).q
    terms: dict[tuple[Fraction, Fraction], int] = {}
    for g in elements(G):
        fixed = g.fixed_indices()
        prefactor = g.age - Fraction(f.n - len(fixed), 2)
        inner = invariant_sector_series(
            tuple(qf[i] for i in fixed), raw_character_data(G, fixed)
        )
        for e, coeff in inner.items():
            key = (prefactor - e, prefactor + e)
            val = terms.get(key, 0) + coeff
            if val:
                terms[key] = val
            elif key in terms:
                del terms[key]
    return BiExpPolynomial(*numerators(terms))


def pair_table(
    f: InvertiblePolynomial, G: AbelianSubgroup
) -> dict[tuple[GroupElement, GroupElement], int]:
    """(sector element, psi image zero-extended) -> number of the sector's
    invariant monomials with that image, one psi per element and monomial.

    psi(k) on the locus I solves E_I^T * x = k + 1; every image must pair to
    zero with each generator of G, which puts it in the dual group.
    """
    rows: dict[tuple[GroupElement, GroupElement], int] = {}
    for sec in sectors(f, G):
        ft = transpose(restrict(f, sec.fixed))
        for k in sec.monomials:
            x = reference_symmetry.solve(ft, [e + 1 for e in k])
            comps = [Fraction(0)] * f.n
            for j, i in enumerate(sec.fixed):
                comps[i] = x[j]
            gt = reference_symmetry.element(comps)
            if any(reference_symmetry.pairing(f, g, gt) for g in G.generators):
                raise VerificationError(f"psi image {gt} is not in the dual group")
            rows[sec.g, gt] = rows.get((sec.g, gt), 0) + 1
    return rows


def expected_multiplicity(f: InvertiblePolynomial, g: GroupElement, gt: GroupElement) -> int:
    """2^r with r the number of even-length loop atoms on which both g and
    gt act trivially; the predicted value of every pair-table row."""
    r = 0
    for atom in f.atoms:
        if atom.kind != "loop" or len(atom.a) % 2:
            continue
        if all(g.a[i] == 0 for i in atom.var_indices) and all(
            gt.a[i] == 0 for i in atom.var_indices
        ):
            r += 1
    return 2 ** r


# ---------------------------------------------------------------------------
# the carrier arithmetic on Fraction keys

Term = tuple[Fraction, Fraction]


def numerators(keyed: dict) -> tuple[int, dict[tuple[int, int], object]]:
    """A map keyed by pairs of rationals as (den, map keyed by the integer
    numerators over den), den the least common denominator of the keys."""
    fracs = {(Fraction(x), Fraction(y)): v for (x, y), v in keyed.items()}
    den = lcm(*(e.denominator for key in fracs for e in key))
    return den, {(int(x * den), int(y * den)): v for (x, y), v in fracs.items()}


def _nonzero(terms: dict[Term, int]) -> dict[Term, int]:
    return {k: c for k, c in terms.items() if c}


def scale(P: dict[Term, int], c: int) -> dict[Term, int]:
    return _nonzero({k: c * v for k, v in P.items()})


def invert_t(P: dict[Term, int]) -> dict[Term, int]:
    """Substitute t -> t^(-1), i.e. negate every t-exponent."""
    return _nonzero({(-et, etb): c for (et, etb), c in P.items()})


def signed_moment(n: int, entries: dict[Term, tuple[int, int]], power: int) -> Fraction:
    """sum (-1)^(q-p) * (q - n/2)^power * (even + odd)."""
    half = Fraction(n, 2)
    total = Fraction(0)
    for (p, q), (de, do) in entries.items():
        s = q - p
        if s.denominator != 1:
            raise ModeError(f"sign exponent {s} at bidegree ({p},{q}) is not an integer")
        sign = -1 if int(s) % 2 else 1
        total += sign * (q - half) ** power * (de + do)
    return total
