"""Finite engine: E-functions from monomial bases of restricted Milnor rings.

Every sector g of a pair (f, G) fixes a coordinate subspace on which f
restricts to a smaller invertible polynomial.  Its Milnor ring has an
explicit monomial basis, one exponent tuple per atom (`atom_basis`); the
G-invariant basis monomials are placed on the Hodge diamond by

    monomial k, degree l = sum q_i*(k_i + 1)  ->  bidegree
    (p, q) = (age(g) + n_g - l, age(g) + l),     parity (-1)^(n_g),

with n_g the number of fixed coordinates.  Summing sectors gives the Hodge
table and, with sign (-1)^(n_g), the E-function.  The invariant monomials
depend on g only through its fixed locus I, so the sum runs as
sum_I A_I * S_I: the invariant monomials of f restricted to I are counted
by degree once per locus (S_I), then placed once for each age of the locus,
weighted by the number of elements A_I of that age (`symmetry.locus_ages`).

The count never lists the monomials.  A basis monomial is one basis tuple
per atom, and both its scaled degree sum w_i*(k_i + 1) and its character
k + 1 under each test of `symmetry.character_data` are sums over the atoms.
So every atom gets a table (residue under each test, scaled degree) ->
count, and the tables are convolved atom by atom.  A test closes after the
last atom it touches, where only residue 0 survives; once all have closed,
what is left is degree -> number of invariant monomials.  The entries held
after each atom number at most the product of the atom-basis sizes so far:
on x1^11 + ... + x5^11 with G0 the 100,000 basis monomials of the identity
locus come down to at most 37 entries.  The tests arrive in Hermite form
from the right, no two ending at the same coordinate, so each closes as
early as the group allows: with SL, whose lattice rows all reach the last
coordinate, that locus holds at most 10 entries, where the rows as they
stand held 10,000 after the fourth atom.

Explicit monomials, plain exponent tuples, remain where the pairing table
needs them: `milnor_basis` lists them and `sectors` keeps those of each
locus that pass its tests.  The same basis carries a combinatorial map into
the symmetry group of the transposed polynomial: k |-> psi(k), the solution
x of E^T * x = k + 1 taken mod 1 (the fractional part of (k+1)^T * E^(-1)).
Pairing each invariant monomial in sector g with the zero-extension of
psi(k) yields the sector pairing table, the structure that transposes under
(f, G) <-> (transpose, dual group).  psi(k) depends on g only through its
fixed locus, so `pair_table` solves it once per locus and monomial.
`psi_structure_ok` checks psi per atom on the lattice of the atom's
transposed group.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from functools import lru_cache
from itertools import product
from math import lcm, prod
from operator import mul
from types import MappingProxyType

from .efunction import BiExpPolynomial, HodgeTable
from .errors import DomainError, VerificationError
from .invertible import (
    Atom,
    InvertiblePolynomial,
    _solve,
    _Value,
    atom_polynomial,
    milnor_number,
    restrict,
    transpose,
    weights,
)
from .symmetry import (
    AbelianSubgroup,
    GroupElement,
    Tests,
    dual_group,
    format_element,
    gf_group,
    locus_ages,
    sorted_elements,
)


def _chain_excluded(k: tuple[int, ...], a: tuple[int, ...]) -> bool:
    # A chain basis is the box prod [0, a_i - 1] minus the monomials starting
    # with the alternating prefix (a_1 - 1, 0, a_3 - 1, 0, ...) that ends
    # either just after some a_j - 1 entry or by running off the chain there.
    j, m = 0, len(k)
    while True:
        if j == m:
            return False
        if k[j] != a[j] - 1:
            return False
        j += 1
        if j == m:
            return True
        if k[j] != 0:
            return True
        j += 1


def atom_basis(atom: Atom) -> tuple[tuple[int, ...], ...]:
    """Basis exponents of one atom, ordered lexicographically.

    Loops keep the whole box prod [0, a_i - 1]; chains drop the excluded
    alternating pattern.  The count always works out to prod(1/q_i - 1).
    """
    box = product(*(range(ai) for ai in atom.a))
    if atom.kind == "loop":
        return tuple(box)
    return tuple(k for k in box if not _chain_excluded(k, atom.a))


@lru_cache(maxsize=None)
def milnor_basis(f: InvertiblePolynomial) -> tuple[tuple[int, ...], ...]:
    """Monomial basis of the Milnor ring of f: the exponent tuples that put
    one atom-basis tuple on each atom's variables, sorted.

    The zero-variable polynomial has the single empty monomial.
    """
    per_atom = [(atom.var_indices, atom_basis(atom)) for atom in f.atoms]
    out = []
    for combo in product(*(ks for _, ks in per_atom)):
        exps = [0] * f.n
        for (idxs, _), k in zip(per_atom, combo):
            for i, v in zip(idxs, k):
                exps[i] = v
        out.append(tuple(exps))
    out.sort()
    if len(out) != milnor_number(f):
        raise VerificationError(
            f"{len(out)} basis monomials but Milnor number {milnor_number(f)} for {f.to_text()}"
        )
    return tuple(out)


def _atom_table(
    atom: Atom, w: tuple[int, ...], rows: tuple[tuple[int, tuple[int, ...]], ...]
) -> Counter:
    """(residue of k + 1 under each row, scaled degree sum w_i*(k_i + 1)) ->
    number of basis exponents k of the atom, summed over its variables only."""
    table: Counter = Counter()
    idx = atom.var_indices
    wa = [w[i] for i in idx]
    va = [(den, [vec[i] for i in idx]) for den, vec in rows]
    for k in atom_basis(atom):
        c = [e + 1 for e in k]
        table[tuple(sum(map(mul, c, v)) % den for den, v in va), sum(map(mul, c, wa))] += 1
    return table


def _products(
    tables: list[Counter], ends: list[int], dens: list[int]
) -> Iterator[dict[tuple[tuple[int, ...], int], int]]:
    """The partial products of the atom tables, (residues, scaled degree) ->
    count: first the empty product, then one after each atom.

    Row r closes after atom ends[r], the last one it touches: only residue 0
    survives there, so rows not yet opened or already closed hold 0.
    """
    held = {((0,) * len(dens), 0): 1}
    yield held
    for t, table in enumerate(tables):
        closing = [r for r, end in enumerate(ends) if end == t]
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        for (state, deg), count in held.items():
            for (res, d), c in table.items():
                new = tuple((a + b) % den for a, b, den in zip(state, res, dens))
                if any(new[r] for r in closing):
                    continue
                key = (new, deg + d)
                nxt[key] = nxt.get(key, 0) + count * c
        held = nxt
        yield held


def _invariant_counts(fsub: InvertiblePolynomial, chardata: Tests) -> dict[int, int]:
    """Degree l*d -> number of basis monomials k of fsub whose character
    k + 1 passes every test in `chardata`, counted per atom and convolved;
    d is the weights' common denominator.

    Raises VerificationError unless the atom bases multiply out to the
    Milnor number of fsub.
    """
    w = weights(fsub).w
    tables = [_atom_table(atom, w, chardata) for atom in fsub.atoms]
    mu = prod(sum(t.values()) for t in tables)
    if mu != milnor_number(fsub):
        raise VerificationError(
            f"atom bases give {mu} basis monomials but Milnor number "
            f"{milnor_number(fsub)} for {fsub.to_text()}"
        )
    # every test has a nonzero entry, so it touches some atom
    ends = [
        max(t for t, atom in enumerate(fsub.atoms) if any(vec[i] for i in atom.var_indices))
        for _, vec in chardata
    ]
    for held in _products(tables, ends, [den for den, _ in chardata]):
        pass
    return {deg: count for (_, deg), count in held.items()}


def degree_counts(f: InvertiblePolynomial) -> dict[int, int]:
    """How many basis monomials sit in each degree l, keyed by l*d: the atom
    tables convolved under no constraint, the count `hodge_table` makes per
    locus."""
    return _invariant_counts(f, ())


def _mul1(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def spectrum_identity_holds(f: InvertiblePolynomial) -> bool:
    """Check sum_basis y^l * prod_i (1 - y^(q_i)) == prod_i (y^(q_i) - y).

    This ties the combinatorial basis to the weight system alone and is the
    independent certificate for the atom bases and degree sums that
    `hodge_table` counts with; a corpus run computes it once for each
    polynomial, for the `mu` column.  Exponents are counted in units of 1/d,
    d the weights' common denominator, as `degree_counts` keys them, so the
    products run on integers.
    """
    ws = weights(f)
    lhs = degree_counts(f)
    rhs = {0: 1}
    for w in ws.w:
        lhs = _mul1(lhs, {0: 1, w: -1})
        rhs = _mul1(rhs, {w: 1, ws.d: -1})
    return lhs == rhs


# ---------------------------------------------------------------------------
# sectors


class SectorContribution(_Value):
    """One group element with its fixed coordinates and the exponent tuples
    of the G-invariant basis monomials of f restricted to them, indexed by
    the sorted fixed coordinates; the elements of one fixed locus share one
    tuple of monomials."""

    __slots__ = _fields = ("g", "fixed", "monomials")

    def __init__(
        self, g: GroupElement, fixed: tuple[int, ...], monomials: tuple[tuple[int, ...], ...]
    ):
        self._set(g=g, fixed=fixed, monomials=monomials)


def _loci(
    f: InvertiblePolynomial, G: AbelianSubgroup
) -> Iterator[tuple[tuple[int, ...], InvertiblePolynomial, Tests, Mapping[int, int]]]:
    """Each fixed locus I of G with f restricted to I, whose weights must be
    those of f on I, and the tests and ages of I from `locus_ages`."""
    if G.ambient != f:
        raise DomainError(f"group {G} belongs to {G.ambient.to_text()}, not to {f.to_text()}")
    ws = weights(f)
    for fixed, (tests, ages) in locus_ages(G).items():
        fsub = restrict(f, fixed)
        sub = weights(fsub)
        if any(x * ws.d != ws.w[i] * sub.d for x, i in zip(sub.w, fixed)):
            raise VerificationError(f"weights of {fsub.to_text()} are not those of {f.to_text()}")
        yield fixed, fsub, tests, ages


@lru_cache(maxsize=None)
def sectors(f: InvertiblePolynomial, G: AbelianSubgroup) -> tuple[SectorContribution, ...]:
    """Every element of G, in sorted order, with its invariant monomials:
    the basis monomials k of f on each fixed locus whose character k + 1
    passes every test of the locus, filtered once per locus.  Only the
    sector pairing table needs the monomials themselves; `hodge_table`
    counts them."""
    bases = {
        fixed: tuple(
            k for k in milnor_basis(fsub)
            if not any(sum((e + 1) * v for e, v in zip(k, vec)) % den for den, vec in tests)
        )
        for fixed, fsub, tests, _ in _loci(f, G)
    }
    out = []
    for g in sorted_elements(G):
        fixed = g.fixed_indices()
        out.append(SectorContribution(g, fixed, bases[fixed]))
    return tuple(out)


@lru_cache(maxsize=None)
def hodge_table(f: InvertiblePolynomial, G: AbelianSubgroup) -> HodgeTable:
    """Bigraded dimensions split by sector parity (even = n_g even), summed
    over fixed loci and, within each, over ages weighted by their counts;
    the invariant monomials of each locus are counted, never listed."""
    # ages are numerators over N, degrees over the locus's d (a divisor of
    # f's); the bidegrees are placed over D and handed over as they are
    D = lcm(G.N, weights(f).d)
    entries: dict[tuple[int, int], list[int]] = {}
    for fixed, fsub, tests, ages in _loci(f, G):
        ng = len(fixed)
        odd = ng % 2
        m = D // weights(fsub).d
        degrees = [(ell * m, k) for ell, k in _invariant_counts(fsub, tests).items()]
        for age, count in ages.items():
            a = age * (D // G.N)
            top = a + ng * D
            for ell, k in degrees:
                entries.setdefault((top - ell, a + ell), [0, 0])[odd] += count * k
    return HodgeTable(f.n, D, entries)


@lru_cache(maxsize=None)
def efunction_basis(f: InvertiblePolynomial, G: AbelianSubgroup) -> BiExpPolynomial:
    """E-function of (f, G), projected from the Hodge table: each entry
    (p, q) -> (even, odd) becomes the term t^(p - n/2) * tb^(q - n/2) with
    coefficient even - odd, placed over twice the table's denominator.
    Cached too: the corpus battery reads each pair's E-function more than
    once."""
    T = hodge_table(f, G)
    shift = f.n * T.den
    return BiExpPolynomial(2 * T.den, {
        (2 * p - shift, 2 * q - shift): de - do for (p, q), (de, do) in T.nums.items()
    })


# ---------------------------------------------------------------------------
# the transpose-side map psi and the sector pairing table


def psi(f: InvertiblePolynomial, exps: tuple[int, ...]) -> GroupElement:
    """The solution x of E^T * x = exps + 1, mod 1; always a diagonal symmetry
    of the transposed polynomial, whose exponent matrix is E^T."""
    return GroupElement(*_solve(transpose(f), [e + 1 for e in exps]))


class PairTable(_Value):
    """Multiset of (sector element, transpose-side element) pairs counted
    over the invariant basis monomials of every sector; `rows` is read-only."""

    __slots__ = _fields = ("rows",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, rows: Mapping[tuple[GroupElement, GroupElement], int]):
        self._set(rows=MappingProxyType({k: int(v) for k, v in rows.items() if v}))

    def sorted_rows(self) -> list[tuple[tuple[GroupElement, GroupElement], int]]:
        return sorted(self.rows.items())

    def __repr__(self) -> str:
        body = ", ".join(f"({a}, {b}): {v}" for (a, b), v in self.sorted_rows())
        return f"PairTable({{{body}}})"


def pair_table(f: InvertiblePolynomial, G: AbelianSubgroup) -> PairTable:
    """Count invariant monomials by (sector, psi image zero-extended).

    psi(k) depends on a sector only through its fixed locus, so each locus's
    images are solved, and checked to land in the dual group, once; every
    element of the locus reuses their counts.  The table of the dual pair is
    this table with the two columns swapped, which the test suite exercises
    as the main structural duality check.
    """
    Gd = dual_group(f, G)
    images: dict[tuple[int, ...], Counter] = {}
    rows: dict[tuple[GroupElement, GroupElement], int] = {}
    for sec in sectors(f, G):
        locus = sec.fixed
        if locus not in images:
            fsub = restrict(f, sec.fixed)
            counts = images[locus] = Counter()
            for k in sec.monomials:
                h = psi(fsub, k)
                a = [0] * f.n
                for j, i in enumerate(sec.fixed):
                    a[i] = h.a[j]
                gt = GroupElement(h.r, a)
                if gt not in Gd:
                    raise VerificationError(
                        f"psi image {format_element(gt)} is not in the dual group {Gd}"
                    )
                counts[gt] += 1
        for gt, count in images[locus].items():
            rows[sec.g, gt] = count
    return PairTable(rows)


def psi_structure_ok(f: InvertiblePolynomial) -> bool:
    """Per-atom sanity of psi on the full basis box, listing no group element.

    Checks the degree law l(k) = age(psi(k)) + fixed(psi(k))/2 in integers
    and the image profile on the lattice of the dual atom group G: chains
    inject onto the elements fixing an even number of coordinates, odd loops
    biject onto the non-identity elements, even loops cover G with exactly
    the identity fiber doubled.  Images in G, fiber sizes and as many
    distinct images as targets together make the images the target set.
    """
    for atom in f.atoms:
        sub = atom_polynomial(atom.kind, atom.a)
        ws = weights(sub)
        Gt = gf_group(transpose(sub))
        fibers: dict[GroupElement, int] = {}
        for k in atom_basis(atom):
            h = psi(sub, k)
            ell = sum(w * (e + 1) for w, e in zip(ws.w, k))
            if 2 * h.r * ell != ws.d * (2 * sum(h.a) + h.r * h.n_fixed) or h not in Gt:
                return False
            fibers[h] = fibers.get(h, 0) + 1
        if atom.kind == "chain":
            targets = sum(
                sum(ages.values()) for I, (_, ages) in locus_ages(Gt).items() if len(I) % 2 == 0
            )
            sizes = {h: int(h.n_fixed % 2 == 0) for h in fibers}
        elif sub.n % 2:
            targets = Gt.order - 1
            sizes = {h: int(not h.is_identity) for h in fibers}
        else:
            targets = Gt.order
            sizes = {h: 1 + h.is_identity for h in fibers}
        if len(fibers) != targets or fibers != sizes:
            return False
    return True
