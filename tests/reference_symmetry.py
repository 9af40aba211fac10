"""Reference enumeration of symmetry groups, kept as a test oracle.

These are the original closure algorithms: a breadth-first frontier that adds
every generator to every element, a generator reduction that re-runs the
whole closure after each new generator, and a subgroup-lattice walk that
closes under pairwise sums.  They are slow but obviously correct, so the
package's lattice forms are checked against them on small groups.
"""

from dataclasses import dataclass

from orbefun import transpose
from orbefun.invertible import exponent_inverse
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


def closure(n, gens):
    elems = {identity(n)}
    frontier = [identity(n)]
    gens = tuple(gens)
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = e + g
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
    return from_elements(f, closure(f.n, (GroupElement(col) for col in cols)))


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
                    s = x + y
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
