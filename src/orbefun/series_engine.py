"""Infinite engine: E-functions from character-projected coordinate series.

This engine never sees a Milnor basis.  Each sector g contributes a prefactor
(t*tb)^A with A = age(g) - (n - n_g)/2 times, per fixed coordinate of weight
q, the series

    sum_{k>=0} c^k * y^(k*q + 1/2)  -  sum_{k>=0} c^(k+1) * y^((k+1)*q - 1/2)

in y = tb/t, where the formal character variable c is projected onto the
G-invariant part.  The projected product telescopes to a finite polynomial;
with G trivial and g the identity it collapses to the closed product
prod_i (y^(1/2) - y^(q_i - 1/2)) / (1 - y^(q_i)).

Expanding the product one coordinate at a time makes this exact and fast.
All exponents are integer "costs": y-degrees times a common denominator
`scale`, raised by 1/2 per coordinate so that none is negative.  In these
units the coefficient of c^v in the series of a coordinate of weight q
(q scaled too) is the factor

    y^scale                          for v = 0,
    -y^(v*q) + y^(v*q + scale)       for v >= 1.

The pass multiplies these factors in coordinate by coordinate.  It keeps the
partial product as state -> (cost -> coefficient), the state being the
residues of the invariance constraints on the characters chosen so far.  A
constraint opens at its first coordinate with a nonzero entry and closes at
its last one, where only residue 0 survives; after the last coordinate only
the invariant part is left.  That part is supported in y-degrees
<= sum_i (1 - q_i) - n_g/2, i.e. in costs <= top.  Every exponent of a
coordinate's factor is at least its q, so the coordinates after j add at
least suffix[j+1] = sum_{i>j} q_i to whatever they multiply: cutting the
partial product at top - suffix[j+1] after coordinate j drops only terms
that could never return under the bound, and the cut is exact.

The states number at most the residues that the open constraints can take
together, so each constraint should close as early as the group allows.
`symmetry.locus_ages` hands them over (`character_data`) in Hermite form
from the right, no two ending at the same coordinate; the pass only
rewrites them over one common modulus N.  SL of x1^7 + ... + x5^7, say, has the lattice rows
(1,0,0,0,6), (0,1,0,0,6), ..., (0,0,0,1,6) mod 7, which together reach 7^4
residues before the last coordinate closes them all; from the right they
become (6,0,0,0,1), (6,0,0,1,0), (6,0,1,0,0), (6,1,0,0,0), one closing at
each coordinate after the first, and their residues take at most 7 values
together.

The projected series depends on g only through its fixed locus I, and the
prefactor only through its age, so E(f, G) = sum_I A_I(t*tb) * S_I(tb/t):
one pass per locus (S_I), scaled by the number of elements of each age in
that locus (A_I, from `symmetry.locus_ages`).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .efunction import BiExpPolynomial
from .errors import DomainError
from .invertible import InvertiblePolynomial, weights
from .symmetry import AbelianSubgroup, Tests, locus_ages


def _layers(
    qs: list[int], scale: int, top: int, N: int, rows: list[list[int]]
) -> Iterator[dict[tuple[int, ...], dict[int, int]]]:
    """The partial products, state -> (cost -> coefficient): first the empty
    product, then one after each coordinate.

    A state holds one residue per row; rows not yet opened or already closed
    hold 0.  Entries with coefficient 0 are dropped.
    """
    last = [max(j for j, w in enumerate(r) if w) for r in rows]
    layer = {(0,) * len(rows): {0: 1}}
    yield layer
    limit = top - sum(qs)
    for j, q in enumerate(qs):
        limit += q  # top - suffix[j+1]
        touched = [(k, r[j]) for k, r in enumerate(rows) if r[j]]
        closing = [k for k, end in enumerate(last) if end == j]
        # this coordinate's factor, its terms grouped by the residues they add
        factor: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        if scale <= limit:
            factor[(0,) * len(touched)] = [(scale, 1)]
        v = 1
        while v * q <= limit:
            terms = factor.setdefault(tuple(v * w % N for _, w in touched), [])
            terms.append((v * q, -1))
            if v * q + scale <= limit:
                terms.append((v * q + scale, 1))
            v += 1
        for terms in factor.values():
            terms.sort()
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for state, poly in layer.items():
            for delta, terms in factor.items():
                new = list(state)
                for (k, _), d in zip(touched, delta):
                    new[k] = (new[k] + d) % N
                if any(new[k] for k in closing):
                    continue
                target = nxt.setdefault(tuple(new), {})
                for e, c in poly.items():
                    room = limit - e
                    for fe, fc in terms:
                        if fe > room:
                            break
                        target[e + fe] = target.get(e + fe, 0) + c * fc
        layer = {}
        for state, poly in nxt.items():
            poly = {e: c for e, c in poly.items() if c}
            if poly:
                layer[state] = poly
        yield layer


def _invariant_sector_series(
    qsub: tuple[Fraction, ...], chardata: Tests
) -> tuple[int, dict[int, int]]:
    """Invariant part of the coordinate-series product, as (scale, y-degree
    times scale -> coeff).

    One pass over the coordinates (`_layers`) under the tests of `chardata`,
    rewritten over one modulus.  Once every constraint has closed, the only
    state left is the invariant one, all residues 0; its costs, lowered by
    1/2 per coordinate, are the y-degrees in units of 1/scale.
    """
    m = len(qsub)
    scale = lcm(2, *(q.denominator for q in qsub))
    qs = [q.numerator * (scale // q.denominator) for q in qsub]
    top = sum(scale - v for v in qs)
    N = lcm(*(den for den, _ in chardata))
    rows = [[x * (N // den) for x in vec] for den, vec in chardata]
    for layer in _layers(qs, scale, top, N, rows):
        pass
    half_total = m * scale // 2
    return scale, {e - half_total: c for poly in layer.values() for e, c in poly.items()}


@lru_cache(maxsize=None)
def efunction_series(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G) from the projected series, one pass per fixed locus.

    Every term is placed over L = 2*lcm(N, d), N the group's exponent and d
    the weights' common denominator: `locus_ages` gives the ages as
    numerators over N, and each locus's scale divides 2*d.
    """
    if G.ambient != f:
        raise DomainError(f"group {G} belongs to {G.ambient.to_text()}, not to {f.to_text()}")
    qf = weights(f).q
    L = 2 * lcm(G.N, weights(f).d)
    terms: dict[tuple[int, int], int] = {}
    for fixed, (tests, ages) in locus_ages(G).items():
        scale, inner = _invariant_sector_series(tuple(qf[i] for i in fixed), tests)
        degrees = [(e * (L // scale), coeff) for e, coeff in inner.items()]
        for age, count in ages.items():
            prefactor = age * (L // G.N) - (f.n - len(fixed)) * L // 2
            for e, coeff in degrees:
                key = (prefactor - e, prefactor + e)
                terms[key] = terms.get(key, 0) + count * coeff
    return BiExpPolynomial.from_numerators(L, terms)
