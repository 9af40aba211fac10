"""Finite diagonal symmetry groups of invertible polynomials.

A group element is a vector in (Q/Z)^n; component c_i acts on coordinate i
by the root of unity e[c_i] = exp(2*pi*i*c_i).  It is stored in integers:
its order r and numerators a with c_i = a_i / r, 0 <= a_i < r and
gcd(r, a_1, ..., a_n) = 1.  This form is canonical, so equality, hashing,
ordering and fixed loci run on integers; `comps` is a Fraction view.  The
maximal diagonal symmetry group of f is

    G_f = { g : E*g is an integer vector },

a finite abelian group of order det E generated by the columns of E^(-1).
The exponential grading operator g0 has components equal to the weights.

Subgroups are lattices.  With N the exponent of G_f (the least common
denominator of E^(-1), also the exponent of the transpose's group), a
subgroup G is stored as the lattice

    L = { a in Z^n : a/N in G },   N*Z^n inside L,

in upper-triangular Hermite normal form: row j has pivot d_j, a divisor of
N, and entries in [0, d_k) right of it.  The form is canonical, so equality
and hashing read it; every element is sum c_j * row_j / N with
0 <= c_j < N/d_j in exactly one way, so |G| = prod N/d_j; membership is a
triangular reduction.  `gf_group` and `subgroup` take the form of their
generators together with N*Z^n; |G_f| = det E is checked.

Duals and SL parts are kernels.  Between G_f and the symmetry group of the
transposed polynomial there is the exact pairing <g, h> = h^T * E * g mod Z.
The dual of a subgroup G of G_f is its annihilator under this pairing,

    dual_group(f, G) = { h in G_ft : <g, h> = 0 for all g in G },

of order det E / |G|, and dualizing twice returns G.  For g = a/N and
h = b/N the pairing is b.(E*a/N) / N, so the dual is the set of b in Z^n
killed mod N by the integer forms E*a/N, a over the rows of G's lattice;
the rows N*e_i contribute the columns of E, which cut out G_ft.  The SL
part of G_f is the kernel of the form (1, ..., 1) on G_f's lattice.  Both
are `_kernel`: one form at a time, unimodular row steps leave one row with
a nonzero value, which then enters as the multiple that kills it.

A sector's contribution depends on its element only through the age and the
fixed locus; `locus_ages` counts these classes in one pass over the
coordinates of the lattice rows, listing no element, with ages as
numerators over N.  The invariance tests on a locus are its lattice
restricted there, in Hermite form from the right (`character_data`), each
closing as early as the group allows; both engines read them from
`locus_ages`, which reduces them once per locus.

Printed generators are the greedy lexicographic choice: each one the least
element, in Fraction-tuple order, outside the subgroup generated by those
before it.  Each is a coset minimum, and the Hermite form already holds
them: they are its rows with pivot below N, last row first.  Elements are
listed on each read and stored nowhere, as numerators over N (`_numerators`),
whose order over that one denominator is the order of their Fraction tuples.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, prod
from types import MappingProxyType

from .errors import DomainError, InputSyntaxError, MembershipError, VerificationError
from .invertible import InvertiblePolynomial, _Lexer, _solve, _Value, determinant, transpose, weights


@total_ordering
class GroupElement(_Value):
    """An element of (Q/Z)^n stored as its order r and integer numerators a.

    `GroupElement(r, a)` is (a_1/r, ..., a_n/r) mod 1, r a positive integer
    and a_i integers, stored with 0 <= a_i < r and gcd(r, a_1, ..., a_n) = 1,
    so equal elements have equal (r, a).  `comps` is the Fraction view, and
    elements order like their Fraction tuples.
    """

    __slots__ = _fields = ("r", "a")

    def __init__(self, r: int, a: Iterable[int]):
        if type(r) is not int:  # a bool is not an order
            raise TypeError(f"group element order must be an integer, got {r!r}")
        if r < 1:
            raise ValueError(f"group element order must be positive, got {r}")
        a = [x % r for x in a]
        d = gcd(r, *a)  # a TypeError unless every entry is an integer
        if d != 1:
            r //= d
            a = [x // d for x in a]
        self._set(r=r, a=tuple(a))

    @property
    def comps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.r) for x in self.a)

    @property
    def n(self) -> int:
        return len(self.a)

    def __lt__(self, other: "GroupElement") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        r, s = self.r, other.r
        for x, y in zip(self.a, other.a):
            if x * s != y * r:
                return x * s < y * r
        return len(self.a) < len(other.a)

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

    def __str__(self) -> str:
        return format_element(self)


def is_in_sl(g: GroupElement) -> bool:
    """Whether g acts with determinant 1, i.e. its age is an integer."""
    return sum(g.a) % g.r == 0


# ---------------------------------------------------------------------------
# lattices: a subgroup G of G_f as {a in Z^n : a/N in G} in Hermite normal form


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, t0, s1, t1 = s1, t1, s0 - k * s1, t0 - k * t1
    return a, s0, t0


def _hnf(N: int, gens: Iterable[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form of the lattice spanned by `gens` and N*Z^n.

    Row j has zeros left of its pivot d_j = row[j], a divisor of N, and at
    each column k right of it an entry in [0, d_k).  Every entry may be
    taken mod N, since N*e_k is in the lattice; column j starts from the
    row N*e_j and takes the gcd with each pending row, by unimodular 2x2
    steps that clear the pending row there.
    """
    pending = [r for r in ([x % N for x in g] for g in gens) if any(r)]
    rows = []
    for j in range(n):
        pivot = [0] * n
        pivot[j] = N
        rest = []
        for r in pending:
            b = r[j]
            if not b:
                rest.append(r)
                continue
            a = pivot[j]
            g, s, t = _xgcd(a, b)
            # [[s, t], [-b/g, a/g]] has determinant 1 and clears r[j]; the
            # new pivot entry g < N survives the reduction mod N
            pivot, r = (
                [(s * x + t * y) % N for x, y in zip(pivot, r)],
                [(a // g * y - b // g * x) % N for x, y in zip(pivot, r)],
            )
            if any(r):
                rest.append(r)
        rows.append(pivot)
        pending = rest
    for j in range(n):
        d = rows[j][j]
        for i in range(j):
            k = rows[i][j] // d
            if k:  # then row i is not N*e_i, so its pivot is below N too
                rows[i] = [(x - k * y) % N for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


def _in_lattice(N: int, rows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Whether v lies in the lattice of the Hermite form `rows`: triangular
    reduction, column by column."""
    v = list(v)
    for j, row in enumerate(rows):
        x = v[j] % N
        if x % row[j]:
            return False
        k = x // row[j]
        if k:
            v = [y - k * z for y, z in zip(v, row)]
    return True


def _kernel(
    N: int, rows: tuple[tuple[int, ...], ...], forms: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Hermite form of the vectors x of the lattice with Hermite form `rows`
    that every form w kills: w.x = 0 mod N.

    One form at a time: unimodular steps gather the values of the rows into
    one pivot row of value g; the others then have value 0, and the pivot
    row enters as its multiple N/gcd(N, g).
    """
    n = len(rows)
    for w in forms:
        kept = []
        pivot, pv = None, 0
        for r in rows:
            v = sum(x * y for x, y in zip(r, w)) % N
            if not v:
                kept.append(r)
            elif pivot is None:
                pivot, pv = r, v
            else:
                g, s, t = _xgcd(pv, v)
                kept.append([v // g * x - pv // g * y for x, y in zip(pivot, r)])
                pivot, pv = [s * x + t * y for x, y in zip(pivot, r)], g
        if pivot is not None:
            kept.append([x * (N // gcd(N, pv)) for x in pivot])
        rows = _hnf(N, kept, n)
    return rows


class AbelianSubgroup(_Value):
    """A subgroup G of G_f, carried with its ambient polynomial f as the
    lattice {a in Z^n : a/N in G} in Hermite normal form (`rows`), N the
    exponent of G_f; equality and hashing read the form."""

    __slots__ = _fields = ("ambient", "N", "rows")

    def __init__(self, ambient: InvertiblePolynomial, N: int, rows: tuple[tuple[int, ...], ...]):
        self._set(ambient=ambient, N=N, rows=rows)

    @property
    def order(self) -> int:
        return prod(self.N // row[j] for j, row in enumerate(self.rows))

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        """The greedy lexicographic generators: each the least element
        outside the subgroup generated by those before it.  These are the
        rows with pivot d_i below N, last row first.
        Outside the span H of the rows below row i, the elements with the
        most leading zeros are c*row_i + h with h in H and c not a multiple
        of N/d_i; the least has c = 1 and is row i itself, whose entries
        right of the pivot are already least modulo the rows below it."""
        N = self.N
        return tuple(
            GroupElement(N, row)
            for j, row in reversed(tuple(enumerate(self.rows)))
            if row[j] != N
        )

    @property
    def elements(self) -> frozenset[GroupElement]:
        """Every element once; listed anew on each read."""
        return frozenset(GroupElement(self.N, v) for v in _numerators(self))

    def __contains__(self, g: GroupElement) -> bool:
        if g.n != len(self.rows) or self.N % g.r:
            return False
        m = self.N // g.r
        return _in_lattice(self.N, self.rows, [x * m for x in g.a])

    def __str__(self) -> str:
        gens = ", ".join(format_element(g) for g in self.generators) or "1"
        return f"<{gens}> of order {self.order}"


def _numerators(G: AbelianSubgroup) -> list[tuple[int, ...]]:
    """Every element of G as its numerators over N: each sum of c_j * row_j
    mod N with 0 <= c_j < N/d_j, so each element once."""
    N = G.N
    vecs = [(0,) * len(G.rows)]
    for j, row in enumerate(G.rows):
        steps = [[c * x % N for x in row] for c in range(N // row[j])]
        vecs = [tuple((x + y) % N for x, y in zip(v, s)) for v in vecs for s in steps]
    return vecs


def sorted_elements(G: AbelianSubgroup) -> tuple[GroupElement, ...]:
    """The elements in the order of their Fraction tuples, which over one
    denominator N is the order of their numerators."""
    return tuple(GroupElement(G.N, v) for v in sorted(_numerators(G)))


def violated_row(f: InvertiblePolynomial, g: GroupElement) -> int | None:
    """Index of the first monomial of f not preserved by g, or None."""
    for i, row in enumerate(f.exponents):
        if sum(e * x for e, x in zip(row, g.a)) % g.r:
            return i
    return None


@lru_cache(maxsize=None)
def gf_group(f: InvertiblePolynomial) -> AbelianSubgroup:
    """The maximal diagonal symmetry group of f: the lattice spanned by the
    columns of N*E^(-1), N the least common denominator of E^(-1): det E
    over the gcd g of det E and the solver's numerators."""
    sols = [_solve(f, [int(i == j) for i in range(f.n)]) for j in range(f.n)]
    det = sols[0][0] if sols else 1
    g = gcd(det, *(x for _, col in sols for x in col))
    N = det // g
    G = AbelianSubgroup(f, N, _hnf(N, ([x // g for x in col] for _, col in sols), f.n))
    if G.order != determinant(f):
        raise VerificationError(f"|G_f| = {G.order} but det E = {determinant(f)} for {f.to_text()}")
    return G


def subgroup(f: InvertiblePolynomial, gens: Iterable[GroupElement]) -> AbelianSubgroup:
    """The subgroup of G_f generated by `gens`."""
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
    N = gf_group(f).N
    rows = _hnf(N, ([x * (N // g.r) for x in g.a] for g in gens), f.n)
    return AbelianSubgroup(f, N, rows)


def grading_operator(f: InvertiblePolynomial) -> GroupElement:
    """The exponential grading operator g0 = (q_1, ..., q_n)."""
    g0 = GroupElement(weights(f).d, weights(f).w)
    if violated_row(f, g0) is not None:
        raise VerificationError(f"grading operator {format_element(g0)} is not in G_f")
    return g0


def grading_subgroup(f: InvertiblePolynomial) -> AbelianSubgroup:
    return subgroup(f, (grading_operator(f),))


def sl_subgroup(f: InvertiblePolynomial) -> AbelianSubgroup:
    """Elements of G_f with integer age (the SL(n) part): the kernel of the
    form (1, ..., 1) on G_f's lattice."""
    Gf = gf_group(f)
    return AbelianSubgroup(f, Gf.N, _kernel(Gf.N, Gf.rows, ((1,) * f.n,)))


@lru_cache(maxsize=None)
def dual_group(f: InvertiblePolynomial, G: AbelianSubgroup) -> AbelianSubgroup:
    """Annihilator of G inside the symmetry group of the transpose.

    For g = a/N in G_f and h = b/N, h^T*E*g = b.(E*a/N)/N with E*a/N
    integral, so the dual is the kernel on Z^n of the forms E*a/N over the
    rows a of G's lattice.  Those rows include N*e_i, whose forms, the
    columns of E, cut out G_ft itself (N is also its exponent).
    """
    if G.ambient != f:
        raise DomainError(f"group {G} belongs to {G.ambient.to_text()}, not to {f.to_text()}")
    N = G.N
    forms = []
    for a in G.rows:
        ea = [sum(e * x for e, x in zip(row, a)) for row in f.exponents]
        if any(v % N for v in ea):
            raise VerificationError(
                f"E*g is not integral for the generator {format_element(GroupElement(N, a))}"
            )
        forms.append([v // N for v in ea])
    unit = tuple(tuple(int(i == j) for j in range(f.n)) for i in range(f.n))
    return AbelianSubgroup(transpose(f), N, _kernel(N, unit, forms))


def all_subgroups(G: AbelianSubgroup) -> tuple[AbelianSubgroup, ...]:
    """Every subgroup of G, smallest first (breadth-first lattice walk)."""
    n, N = G.ambient.n, G.N
    vecs = _numerators(G)
    start = _hnf(N, (), n)
    seen = {start}
    frontier = [start]
    while frontier:
        base = frontier.pop()
        for v in vecs:
            if _in_lattice(N, base, v):
                continue
            rows = _hnf(N, (*base, v), n)
            if rows not in seen:
                seen.add(rows)
                frontier.append(rows)
    subs = [AbelianSubgroup(G.ambient, N, rows) for rows in seen]
    subs.sort(key=lambda H: (H.order, sorted(_numerators(H))))
    return tuple(subs)


# ---------------------------------------------------------------------------
# text forms: "1/r(a1,...,an)" for elements, tokens or generator lists for groups


def format_element(g: GroupElement) -> str:
    return f"1/{g.r}({','.join(map(str, g.a))})"


# a token after any whitespace, as in `invertible`: each `op` its own kind,
# `int` the digits `int()` reads, `end` the end, and any other character one
# `other` token, which the parser reports where it meets it
_GROUP_GRAMMAR = re.compile(r"\s*(?:(?P<op>[/(),])|(?P<int>\d+)|(?P<end>\Z)|(?P<other>.))", re.S)


def _element(lex: _Lexer, text: str, message: str) -> tuple[int, list[int]]:
    """Read one '1/r(a1,...,an)' from `lex`, a cursor over `text`, as
    (r, [a1, ..., an]).  A syntax error inside the parentheses is an invalid
    component; any other, and an unclosed or nested list, is `message`."""
    _, value, start = lex.peek()
    if value != "1":  # the numerator is the one character '1'
        raise InputSyntaxError(message, start + value.startswith("1"))
    lex.accept("int")
    lex.expect("/", message)
    pos = lex.peek()[2]
    if (r := lex.integer(message, "denominator")) < 1:
        raise InputSyntaxError("denominator must be positive", pos)
    lex.expect("(", message)
    components: list[int] = []
    while not lex.accept(")"):
        if components and not lex.accept(",") or lex.peek()[0] != "int":
            kind, _, pos = lex.peek()
            if kind in ("(", "end"):
                raise InputSyntaxError(message, pos)
            piece = text[start:text.find(")", start) + 1 or None]
            raise InputSyntaxError(f"invalid component in {piece!r}", pos)
        components.append(lex.integer(message, "component"))
    return r, components


def parse_element(text: str, n: int) -> GroupElement:
    """Read '1/r(a1,...,an)'; r and every a_i are decimal digits, as `int()`
    reads them, and the syntax is checked before the arity n."""
    lex = _Lexer(_GROUP_GRAMMAR, text)
    message = f"expected an element of the form 1/r(a1,...,an): {text!r}"
    r, components = _element(lex, text, message)
    lex.expect("end", message)
    if len(components) != n:
        raise DomainError(f"element {text.strip()!r} has {len(components)} components, expected {n}")
    return GroupElement(r, components)


_NAMED_GROUPS = {"trivial": lambda f: subgroup(f, ()), "Gf": gf_group,
                 "G0": grading_subgroup, "SL": sl_subgroup}


def parse_group_spec(f: InvertiblePolynomial, spec: str) -> AbelianSubgroup:
    """Resolve a group specification: 'trivial', 'Gf', 'G0', 'SL', or a list
    of generators '1/r(a1,...,an)' separated by commas or by whitespace.

    As in `invertible`, the syntax is checked before the meaning: a spec
    outside the grammar, such as one with an empty item, is an
    InputSyntaxError at the first character that no valid spec continues
    with, whatever f is; only then does `parse_element` read each generator
    against f, and a wrong arity or a non-symmetry is a DomainError."""
    s = spec.strip()
    if s in _NAMED_GROUPS:
        return _NAMED_GROUPS[s](f)
    message = f"invalid group spec {spec!r}: expected trivial|Gf|G0|SL or generators 1/r(a1,...,an)"
    if not s.startswith("1"):  # at most a start of a name, with the whitespace after a whole one
        stop = max(len(s) - len(s[len(w):].lstrip()) if s.startswith(w)
                   else len(os.path.commonprefix((s, w))) for w in _NAMED_GROUPS)
        raise InputSyntaxError(message, len(spec) - len(spec.lstrip()) + stop)
    lex = _Lexer(_GROUP_GRAMMAR, spec)
    pieces = []
    while True:
        start = lex.peek()[2]
        _element(lex, spec, message)
        pieces.append(spec[start:lex.pos])
        if lex.accept("end"):
            break
        lex.accept(",")
    return subgroup(f, tuple(parse_element(piece, f.n) for piece in pieces))


# ---------------------------------------------------------------------------
# sector classes and characters


Tests = tuple[tuple[int, tuple[int, ...]], ...]


@lru_cache(maxsize=None)
def locus_ages(G: AbelianSubgroup) -> Mapping[tuple[int, ...], tuple[Tests, Mapping[int, int]]]:
    """The sector classes of G: fixed locus I -> (the invariance tests of G
    on I, {age numerator over N: number of elements}).

    Both engines weigh a sector only through its age and its fixed locus, so
    they sum over these classes, computing once for each locus under the
    tests reduced here once.  Loci and ages increase; the maps are read-only.

    The classes are counted in one pass over the coordinates, building no
    element: coordinate j of sum c_i * row_i is final once c_0..c_j are
    chosen, so the state after row j is (the residues of coordinates j+1..,
    the fixed coordinates so far, the sum of the numerators so far).
    """
    N = G.N
    layer = {((0,) * len(G.rows), (), 0): 1}
    for j, row in enumerate(G.rows):
        step = row[j:]
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
        for (tail, fixed, s), k in layer.items():
            for _ in range(N // row[j]):
                x = tail[0]
                key = (tail[1:], fixed + (j,) if x == 0 else fixed, s + x)
                nxt[key] = nxt.get(key, 0) + k
                tail = tuple((u + v) % N for u, v in zip(tail, step))
        layer = nxt
    if sum(layer.values()) != G.order:
        raise VerificationError(f"the sector classes of {G} count {sum(layer.values())} elements")
    out: dict[tuple[int, ...], dict[int, int]] = {}
    for (_, fixed, s), k in sorted(layer.items()):
        out.setdefault(fixed, {})[s] = k
    return MappingProxyType({
        fixed: (character_data(G, fixed), MappingProxyType(ages)) for fixed, ages in out.items()
    })


def character_data(G: AbelianSubgroup, fixed: tuple[int, ...]) -> Tests:
    """The invariance tests of G on the coordinates `fixed`: a tuple c of
    integers, one per fixed coordinate, is invariant under G as a character
    exactly when it passes every test (D, v), sum(c_j * v_j) = 0 mod D.

    The tests are G's lattice restricted to `fixed`, which contains N*Z^m,
    in Hermite form over the reversed coordinates (`_hnf`): no two end at
    the same coordinate, so each closes as early as the group allows, and
    they come last coordinate first.  The rows N*e_j, which every c passes,
    are left out; each other row a gives D, the common denominator of a/N,
    and v = D*a/N, so D > 1 and v is nonzero.
    """
    N = G.N
    out = []
    rows = _hnf(N, ([row[i] for i in reversed(fixed)] for row in G.rows), len(fixed))
    for j, row in enumerate(rows):
        if row[j] == N:
            continue
        scale = gcd(N, *row)
        out.append((N // scale, tuple(x // scale for x in reversed(row))))
    return tuple(out)

