"""Finite diagonal symmetry groups of invertible polynomials.

A group element is a vector in (Q/Z)^n; component c_i acts on coordinate i
by the root of unity e[c_i] = exp(2*pi*i*c_i).  It is stored in integers:
its order r and numerators a with c_i = a_i / r, 0 <= a_i < r and
gcd(r, a_1, ..., a_n) = 1.  This form is canonical, so arithmetic, hashing,
ordering and fixed loci run on integers; `comps` is a Fraction view.  The
maximal diagonal symmetry group of f is

    G_f = { g : E*g is an integer vector },

a finite abelian group of order det E generated by the columns of E^(-1).
The exponential grading operator g0 has components equal to the weights.

Between G_f and the symmetry group of the transposed polynomial there is the
exact pairing <g, h> = h^T * E * g mod Z.  The dual of a subgroup G of G_f is
its annihilator under this pairing,

    dual_group(f, G) = { h in G_ft : <g, h> = 0 for all g in G },

of order det E / |G|, and dualizing twice returns G.

A sector's contribution depends on its element only through the age and the
fixed locus; `locus_ages` groups a subgroup into these classes.

Subgroups are enumerated one coset at a time by `_extend`.  A subgroup listed
from its elements carries as `generators` the greedy lexicographic choice that
the CLI prints: each element, in sorted order, not generated by those before it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InputSyntaxError, MembershipError, VerificationError
from .invertible import InvertiblePolynomial, determinant, exponent_inverse, transpose, weights


@total_ordering
class GroupElement:
    """An element of (Q/Z)^n stored as its order r and integer numerators a.

    Component i is a_i / r with 0 <= a_i < r and gcd(r, a_1, ..., a_n) = 1,
    so equal elements have equal (r, a).  The constructor takes ints or
    Fractions and reduces them mod 1; `_from_ints` builds an element from
    integer data directly.  Elements order like their Fraction tuples.
    """

    __slots__ = ("r", "a", "_hash")

    def __init__(self, comps: Iterable[int | Fraction]):
        comps = tuple(comps)
        if any(isinstance(c, float) for c in comps):
            raise TypeError(f"group element components must be exact, got {comps!r}")
        fracs = [Fraction(c) for c in comps]
        r = lcm(*(c.denominator for c in fracs))
        self._set(r, [c.numerator * (r // c.denominator) for c in fracs])

    @classmethod
    def _from_ints(cls, r: int, a: Iterable[int]) -> "GroupElement":
        """The element (a_1/r, ..., a_n/r) mod 1, for any integers a_i and r > 0."""
        g = cls.__new__(cls)
        g._set(r, a)
        return g

    def _set(self, r: int, a: Iterable[int]) -> None:
        a = [x % r for x in a]
        d = gcd(r, *a)
        if d != 1:
            r //= d
            a = [x // d for x in a]
        a = tuple(a)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_hash", hash((r, a)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GroupElement is immutable; cannot set {name!r}")

    @property
    def comps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.r) for x in self.a)

    @property
    def n(self) -> int:
        return len(self.a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.r == other.r and self.a == other.a

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "GroupElement") -> bool:
        r, s = self.r, other.r
        for x, y in zip(self.a, other.a):
            if x * s != y * r:
                return x * s < y * r
        return len(self.a) < len(other.a)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        m = lcm(self.r, other.r)
        u, v = m // self.r, m // other.r
        return GroupElement._from_ints(m, [x * u + y * v for x, y in zip(self.a, other.a)])

    def __neg__(self) -> "GroupElement":
        return GroupElement._from_ints(self.r, [-x for x in self.a])

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scaled(self, m: int) -> "GroupElement":
        return GroupElement._from_ints(self.r, [m * x for x in self.a])

    @property
    def age(self) -> Fraction:
        return Fraction(sum(self.a), self.r)

    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.a) if x == 0)

    @property
    def n_fixed(self) -> int:
        return self.a.count(0)

    @property
    def is_identity(self) -> bool:
        return self.r == 1

    @property
    def order(self) -> int:
        return self.r

    def __repr__(self) -> str:
        return f"GroupElement(comps={self.comps!r})"

    def __str__(self) -> str:
        return format_element(self)


def identity(n: int) -> GroupElement:
    return GroupElement._from_ints(1, (0,) * n)


def is_in_sl(g: GroupElement) -> bool:
    """Whether g acts with determinant 1, i.e. its age is an integer."""
    return sum(g.a) % g.r == 0


@dataclass(frozen=True, eq=False)
class AbelianSubgroup:
    """A subgroup of G_f, carried with its ambient polynomial and a small
    generating set; equality compares the element sets."""

    ambient: InvertiblePolynomial
    generators: tuple[GroupElement, ...]
    elements: frozenset[GroupElement]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbelianSubgroup):
            return NotImplemented
        return self.ambient == other.ambient and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.ambient, self.elements))

    def __str__(self) -> str:
        gens = ", ".join(format_element(g) for g in self.generators) or "1"
        return f"<{gens}> of order {self.order}"


def _extend(H: frozenset[GroupElement], g: GroupElement) -> frozenset[GroupElement]:
    """The subgroup generated by the subgroup H and the element g.

    Precondition: H is a subgroup.  Its cosets are then equal or disjoint, so
    H, H+g, H+2g, ... is complete at the first multiple of g already present.
    """
    elems = set(H)
    step = g
    while step not in elems:
        elems.update(h + step for h in H)
        step = step + g
    return frozenset(elems)


def closure(n: int, gens: Iterable[GroupElement]) -> frozenset[GroupElement]:
    elems = frozenset({identity(n)})
    for g in gens:
        elems = _extend(elems, g)
    return elems


def _sorted(elements: Iterable[GroupElement]) -> list[GroupElement]:
    """Elements in the order of their Fraction tuples, sorted by integer
    keys over one common denominator."""
    elements = list(elements)
    den = lcm(*(g.r for g in elements)) if elements else 1
    return sorted(elements, key=lambda g: tuple(x * (den // g.r) for x in g.a))


def sorted_elements(G: AbelianSubgroup) -> tuple[GroupElement, ...]:
    return tuple(_sorted(G.elements))


def _reduce_generators(n: int, elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    gens: list[GroupElement] = []
    known = frozenset({identity(n)})
    for e in _sorted(elements):
        if e not in known:
            gens.append(e)
            known = _extend(known, e)
    return tuple(gens)


def _from_elements(ambient: InvertiblePolynomial, elements: Iterable[GroupElement]) -> AbelianSubgroup:
    elems = frozenset(elements)
    return AbelianSubgroup(ambient, _reduce_generators(ambient.n, elems), elems)


def violated_row(f: InvertiblePolynomial, g: GroupElement) -> int | None:
    """Index of the first monomial of f not preserved by g, or None."""
    for i, row in enumerate(f.exponents):
        if sum(e * x for e, x in zip(row, g.a)) % g.r:
            return i
    return None


def gf_contains(f: InvertiblePolynomial, g: GroupElement) -> bool:
    return g.n == f.n and violated_row(f, g) is None


@lru_cache(maxsize=None)
def gf_group(f: InvertiblePolynomial) -> AbelianSubgroup:
    """The maximal diagonal symmetry group of f, enumerated eagerly."""
    cols = tuple(zip(*exponent_inverse(f))) if f.n else ()
    gens = tuple(dict.fromkeys(GroupElement(col) for col in cols))
    elems = closure(f.n, gens)
    if len(elems) != determinant(f):
        raise VerificationError(f"|G_f| = {len(elems)} but det E = {determinant(f)} for {f.to_text()}")
    return _from_elements(f, elems)


def subgroup(f: InvertiblePolynomial, gens: Iterable[GroupElement]) -> AbelianSubgroup:
    gens = tuple(gens)
    for g in gens:
        if g.n != f.n:
            raise MembershipError(f"element {g} has {g.n} components, expected {f.n}")
        row = violated_row(f, g)
        if row is not None:
            raise MembershipError(
                f"{format_element(g)} is not a symmetry of {f.to_text()}: "
                f"monomial {row + 1} picks up a non-trivial character"
            )
    return AbelianSubgroup(f, gens, closure(f.n, gens))


def grading_operator(f: InvertiblePolynomial) -> GroupElement:
    """The exponential grading operator g0 = (q_1, ..., q_n)."""
    g0 = GroupElement(weights(f).q)
    if not gf_contains(f, g0):
        raise VerificationError(f"grading operator {format_element(g0)} is not in G_f")
    return g0


def grading_subgroup(f: InvertiblePolynomial) -> AbelianSubgroup:
    return subgroup(f, (grading_operator(f),))


@lru_cache(maxsize=None)
def sl_subgroup(f: InvertiblePolynomial) -> AbelianSubgroup:
    """Elements of G_f with integer age (the SL(n) part)."""
    return _from_elements(f, (g for g in gf_group(f).elements if is_in_sl(g)))


def pairing(f: InvertiblePolynomial, g: GroupElement, h: GroupElement) -> Fraction:
    """The exact pairing h^T * E * g mod Z between G_f and G_ft."""
    if not gf_contains(f, g):
        raise MembershipError(f"{format_element(g)} is not in the symmetry group of f")
    if not gf_contains(transpose(f), h):
        raise MembershipError(f"{format_element(h)} is not in the symmetry group of the transpose")
    # E*g is integral, so the pairing is an integer dot product over the order of h
    eg = [sum(e * x for e, x in zip(row, g.a)) // g.r for row in f.exponents]
    return Fraction(sum(y * v for y, v in zip(h.a, eg)), h.r) % 1


@lru_cache(maxsize=None)
def dual_group(f: InvertiblePolynomial, G: AbelianSubgroup) -> AbelianSubgroup:
    """Annihilator of G inside the symmetry group of the transpose."""
    if G.ambient != f:
        raise DomainError(f"group {G} belongs to {G.ambient.to_text()}, not to {f.to_text()}")
    ft = transpose(f)
    # E*g is integral for g in G_f, so the pairing against h reduces to an
    # integer-vector dot product with the numerators of h, modulo its order.
    vecs = []
    for g in G.generators:
        eg = [sum(e * x for e, x in zip(row, g.a)) for row in f.exponents]
        if any(v % g.r for v in eg):
            raise VerificationError(f"E*g is not integral for the generator {format_element(g)}")
        vecs.append([v // g.r for v in eg])
    elems = [
        h
        for h in gf_group(ft).elements
        if not any(sum(x * v for x, v in zip(h.a, vec)) % h.r for vec in vecs)
    ]
    return _from_elements(ft, elems)


def all_subgroups(G: AbelianSubgroup) -> tuple[AbelianSubgroup, ...]:
    """Every subgroup of G, smallest first (breadth-first lattice walk)."""
    n = G.ambient.n
    seen: set[frozenset[GroupElement]] = {frozenset({identity(n)})}
    frontier = list(seen)
    while frontier:
        base = frontier.pop()
        for e in G.elements:
            if e in base:
                continue
            fs = _extend(base, e)
            if fs not in seen:
                seen.add(fs)
                frontier.append(fs)
    subs = [_from_elements(G.ambient, elems) for elems in seen]
    subs.sort(key=lambda H: (H.order, sorted_elements(H)))
    return tuple(subs)


# ---------------------------------------------------------------------------
# text forms: "1/r(a1,...,an)" for elements, tokens or generator lists for groups


def format_element(g: GroupElement) -> str:
    return f"1/{g.r}({','.join(map(str, g.a))})"


_ELEMENT_RE = re.compile(r"\s*1\s*/\s*(\d+)\s*\(\s*([^()]*?)\s*\)\s*$")
_GENERATOR = r"1\s*/\s*\d+\s*\([^()]*\)"
# generators separated by at most one comma each, with any whitespace
_GENERATOR_LIST_RE = re.compile(rf"{_GENERATOR}(?:\s*,?\s*{_GENERATOR})*")


def parse_element(text: str, n: int) -> GroupElement:
    """Read '1/r(a1,...,an)'; r and every a_i are decimal digits."""
    m = _ELEMENT_RE.match(text)
    if not m:
        raise InputSyntaxError(f"expected an element of the form 1/r(a1,...,an): {text!r}", 0)
    try:
        r = int(m.group(1))
    except ValueError:  # beyond the interpreter's digit limit
        raise InputSyntaxError("denominator too long", text.index("/") + 1) from None
    if r < 1:
        raise InputSyntaxError("denominator must be positive", text.index("/") + 1)
    body = m.group(2)
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if len(parts) != n:
        raise DomainError(f"element {text.strip()!r} has {len(parts)} components, expected {n}")
    if not all(p.isdecimal() for p in parts):  # int() alone takes signs and '_'
        raise InputSyntaxError(f"invalid component in {text!r}", 0)
    try:
        nums = [int(p) for p in parts]
    except ValueError:  # beyond the interpreter's digit limit
        raise InputSyntaxError("component too long", text.index("(") + 1) from None
    return GroupElement._from_ints(r, nums)


def parse_group_spec(f: InvertiblePolynomial, spec: str) -> AbelianSubgroup:
    """Resolve a group specification: 'trivial', 'Gf', 'G0', 'SL', or a list
    of generators '1/r(a1,...,an)' separated by commas or by whitespace.

    A list with an empty item (a leading, trailing or doubled comma) is an
    InputSyntaxError."""
    s = spec.strip()
    if s == "trivial":
        return subgroup(f, ())
    if s == "Gf":
        return gf_group(f)
    if s == "G0":
        return grading_subgroup(f)
    if s == "SL":
        return sl_subgroup(f)
    if not _GENERATOR_LIST_RE.fullmatch(s):
        raise InputSyntaxError(
            f"invalid group spec {spec!r}: expected trivial|Gf|G0|SL or generators 1/r(a1,...,an)", 0
        )
    pieces = re.findall(_GENERATOR, s)
    return subgroup(f, tuple(parse_element(p, f.n) for p in pieces))


# ---------------------------------------------------------------------------
# sector classes and characters


@lru_cache(maxsize=None)
def locus_ages(G: AbelianSubgroup) -> Mapping[tuple[int, ...], Mapping[Fraction, int]]:
    """The sector classes of G: fixed locus I -> {age: number of elements}.

    Both engines weigh a sector only through its age and its fixed locus, so
    they sum over these classes, computing once for each locus.  Loci and
    ages come in increasing order; the cached maps are read-only.
    """
    counts = Counter((g.fixed_indices(), g.age) for g in G.elements)
    out: dict[tuple[int, ...], dict[Fraction, int]] = {}
    for (fixed, age), k in sorted(counts.items()):
        out.setdefault(fixed, {})[age] = k
    return MappingProxyType({fixed: MappingProxyType(ages) for fixed, ages in out.items()})


def character_data(G: AbelianSubgroup, fixed: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Integerized restriction of G's generators to the coordinates `fixed`.

    Each generator h becomes a pair (D, v) with D the common denominator of
    the restricted components and v = D*h on them.  A tuple c of integers,
    one per fixed coordinate, is invariant under G as a character exactly
    when sum(c_j * v_j) = 0 mod D for every generator.
    """
    out = []
    for h in G.generators:
        nums = [h.a[i] for i in fixed]
        scale = gcd(h.r, *nums)
        out.append((h.r // scale, tuple(x // scale for x in nums)))
    return tuple(out)


def character_invariant(chardata: tuple[tuple[int, tuple[int, ...]], ...], c: Sequence[int]) -> bool:
    """Whether the character tuple c passes every test in `chardata`."""
    for den, vec in chardata:
        if sum(ci * vi for ci, vi in zip(c, vec)) % den:
            return False
    return True
