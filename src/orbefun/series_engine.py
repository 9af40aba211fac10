"""Infinite engine: E-functions from character-projected coordinate series.

This engine never sees a Milnor basis.  Each sector g contributes a prefactor
(t*tb)^A with A = age(g) - (n - n_g)/2 times, per fixed coordinate of weight
q, the series

    sum_{k>=0} c^k * y^(k*q + 1/2)  -  sum_{k>=0} c^(k+1) * y^((k+1)*q - 1/2)

in y = tb/t, where the formal character variable c is projected onto the
G-invariant part.  The projected product telescopes to a finite polynomial;
with G trivial and g the identity it collapses to the closed product
prod_i (y^(1/2) - y^(q_i - 1/2)) / (1 - y^(q_i)).

Grouping the product by the accumulated character tuple c makes this exact
and fast: a tuple with z zero entries and fr positive ones contributes

    (-1)^fr * y^(sum c_i q_i + z/2 - fr/2) * (1 - y)^fr,

and the invariant part is supported in y-degrees <= sum_i (1 - q_i) - n_g/2,
so tuples and binomial terms beyond that bound are never materialized.  All
exponent arithmetic runs on integers after scaling by a common denominator;
character sums are accumulated along the recursion, once per branch.

The projected series depends on g only through its fixed locus I, and the
prefactor only through its age, so E(f, G) = sum_I A_I(t*tb) * S_I(tb/t):
one walk per locus (S_I), scaled by the number of elements of each age in
that locus (A_I, from `symmetry.locus_ages`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .efunction import BiExpPolynomial
from .errors import DomainError
from .invertible import InvertiblePolynomial, weights
from .symmetry import AbelianSubgroup, character_data, locus_ages


def _invariant_sector_series(
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


@lru_cache(maxsize=None)
def efunction_series(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G) from the projected series, one walk per fixed locus."""
    if G.ambient != f:
        raise DomainError(f"group {G} belongs to {G.ambient.to_text()}, not to {f.to_text()}")
    qf = weights(f).q
    terms: dict[tuple[Fraction, Fraction], int] = {}
    for fixed, ages in locus_ages(G).items():
        inner = _invariant_sector_series(
            tuple(qf[i] for i in fixed), character_data(G, fixed)
        )
        for age, count in ages.items():
            prefactor = age - Fraction(f.n - len(fixed), 2)
            for e, coeff in inner.items():
                key = (prefactor - e, prefactor + e)
                val = terms.get(key, 0) + count * coeff
                if val:
                    terms[key] = val
                elif key in terms:
                    del terms[key]
    return BiExpPolynomial(terms)
