"""Reference enumeration of symmetry groups, kept as a test oracle.

These are the original closure algorithms: a breadth-first frontier that adds
every generator to every element, a generator reduction that re-runs the
whole closure after each new generator, and a subgroup-lattice walk that
closes under pairwise sums.  They are slow but obviously correct, so the
package's lattice forms are checked against them on small groups.

Elements are added through their Fraction view (`add`), with the oracle's
own arithmetic: the package's elements have no arithmetic of their own.

`solve` is the atom-by-atom solver as it ran in Fraction arithmetic before
it was rewritten in integer numerators over det E; the integer solver is
checked against it.  `exponent_inverse` is E^(-1) from the integer solver,
which the tests check against E itself.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from orbefun import VerificationError, transpose
from orbefun.invertible import InvertiblePolynomial, _solve
from orbefun.symmetry import GroupElement, identity, is_in_sl, pairing


@dataclass(frozen=True)
class Group:
    """A subgroup listed by its elements, with the generators the oracle
    chose for it."""

    ambient: object
    generators: tuple
    elements: frozenset

    @property
    def order(self):
        return len(self.elements)


def solve(f: InvertiblePolynomial, b: Sequence[int]) -> tuple[Fraction, ...]:
    """The exact x with E*x = b, solved atom by atom and checked row by row.

    Chains go back to front (x_m = b_m/a_m, x_i = (b_i - x_(i+1))/a_i); loops
    write x_i = c_i + d_i*x_1 along the cyclic recurrence
    x_(i+1) = b_i - a_i*x_i and close it at x_(m+1) = x_1.
    """
    x = [Fraction(0)] * f.n
    for atom in f.atoms:
        idx, a = atom.var_indices, atom.a
        if atom.kind == "chain":
            acc = Fraction(0)
            for i, ai in zip(reversed(idx), reversed(a)):
                acc = (b[i] - acc) / ai
                x[i] = acc
        else:
            c, d = 0, 1
            for i, ai in zip(idx, a):
                c, d = b[i] - ai * c, -ai * d
            acc = Fraction(c, 1 - d)
            for i, ai in zip(idx, a):
                x[i] = acc
                acc = b[i] - ai * acc
    for i, row in enumerate(f.exponents):
        if sum(e * x[j] for j, e in enumerate(row) if e) != b[i]:
            raise VerificationError(f"solution of E*x = {tuple(b)} fails row {i + 1} of {f.to_text()}")
    return tuple(x)


def exponent_inverse(f: InvertiblePolynomial) -> tuple[tuple[Fraction, ...], ...]:
    """E^(-1) as row tuples; column j solves E*x = e_j."""
    cols = [_solve(f, [int(i == j) for i in range(f.n)]) for j in range(f.n)]
    return tuple(zip(*(tuple(Fraction(x, det) for x in col) for det, col in cols)))


def element(comps) -> GroupElement:
    """The element with the given rational components, taken mod 1."""
    comps = [Fraction(c) % 1 for c in comps]
    r = lcm(*(c.denominator for c in comps))
    return GroupElement(r, [c.numerator * (r // c.denominator) for c in comps])


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    return element(x + y for x, y in zip(g.comps, h.comps))


def closure(n, gens):
    elems = {identity(n)}
    frontier = [identity(n)]
    gens = tuple(gens)
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = add(e, g)
            if s not in elems:
                elems.add(s)
                frontier.append(s)
    return frozenset(elems)


def reduce_generators(n, elements):
    gens = []
    known = {identity(n)}
    for e in sorted(elements):
        if e not in known:
            gens.append(e)
            known = set(closure(n, gens))
    return tuple(gens)


def from_elements(ambient, elements):
    elems = frozenset(elements)
    return Group(ambient, reduce_generators(ambient.n, elems), elems)


def gf_group(f):
    cols = tuple(zip(*exponent_inverse(f))) if f.n else ()
    return from_elements(f, closure(f.n, (element(col) for col in cols)))


def subgroup(f, gens):
    return Group(f, tuple(gens), closure(f.n, gens))


def sl_subgroup(f):
    return from_elements(f, (g for g in gf_group(f).elements if is_in_sl(g)))


def dual_group(f, G):
    ft = transpose(f)
    return from_elements(
        ft,
        (
            h
            for h in gf_group(ft).elements
            if all(pairing(f, g, h) == 0 for g in G.generators)
        ),
    )


def all_subgroups(G):
    n = G.ambient.n
    seen = {frozenset({identity(n)})}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for e in G.elements:
            if e in base:
                continue
            extended = set(base)
            new = [e]
            while new:
                x = new.pop()
                for y in tuple(extended):
                    s = add(x, y)
                    if s not in extended:
                        extended.add(s)
                        new.append(s)
            fs = frozenset(extended)
            if fs not in seen:
                seen.add(fs)
                frontier.append(fs)
    subs = [from_elements(G.ambient, elems) for elems in seen]
    subs.sort(key=lambda H: (H.order, sorted(H.elements)))
    return tuple(subs)
