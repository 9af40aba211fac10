"""Finite two-variable polynomials with rational exponents, and Hodge tables.

The E-function of a pair (f, G) is a finite integer combination of terms
t^(p - n/2) * tb^(q - n/2); the carrier type BiExpPolynomial is a sparse map
(t-exponent, tb-exponent) -> integer coefficient.  A HodgeTable records at
each rational bidegree (p, q) the dimensions of the even and odd parity
parts.  Under either mode assumption (G inside SL, or G containing the
grading operator) a fixed bidegree only ever carries one parity, so table
and signed E-function determine each other; the conversions live here.

Canonical text form: terms sorted lexicographically by exponent pair,
        -1 * t^(-1/6) * tb^(1/6) + 2 * t^(0) * tb^(0)
with a grouped "pretty" rendering  (t*tb)^(e) / (tb/t)^(e)  when exponents
allow.  Both render back through `parse_efunction`.  JSON form: list of
{"t": "a/b", "tbar": "c/d", "coeff": k} in the same order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputSyntaxError, ModeError
from .invertible import InvertiblePolynomial, weights

Term = tuple[Fraction, Fraction]


class BiExpPolynomial:
    """Immutable-by-convention sparse polynomial in t, tb with Fraction exponents."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        self.terms: dict[Term, int] = {}
        if terms:
            for (et, etb), c in terms.items():
                if c:
                    self.terms[(Fraction(et), Fraction(etb))] = int(c)

    @classmethod
    def single(cls, et: Fraction | int, etb: Fraction | int, coeff: int = 1) -> "BiExpPolynomial":
        return cls({(Fraction(et), Fraction(etb)): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Term, int]]:
        # antiholomorphic exponent first: matches the usual weight ordering
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiExpPolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "BiExpPolynomial") -> "BiExpPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiExpPolynomial(out)

    def __neg__(self) -> "BiExpPolynomial":
        return BiExpPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiExpPolynomial") -> "BiExpPolynomial":
        return self + (-other)

    def scale(self, c: int) -> "BiExpPolynomial":
        return BiExpPolynomial({k: c * v for k, v in self.terms.items()})

    def invert_t(self) -> "BiExpPolynomial":
        """Substitute t -> t^(-1), i.e. negate every t-exponent."""
        return BiExpPolynomial({(-et, etb): c for (et, etb), c in self.terms.items()})

    def chi(self) -> int:
        """Value at t = tb = 1."""
        return sum(self.terms.values())

    # -- text and JSON forms

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, ((et, etb), c) in enumerate(self.sorted_terms()):
            body = f"{abs(c)} * t^({et}) * tb^({etb})"
            parts.append(_joined(i, c, body))
        return "".join(parts)

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, ((et, etb), c) in enumerate(self.sorted_terms()):
            mag = abs(c)
            if et == 0 and etb == 0:
                body = str(mag)
            elif et == etb:
                body = f"(t*tb)^({et})"
                if mag != 1:
                    body = f"{mag}*{body}"
            elif et == -etb:
                body = f"(tb/t)^({etb})"
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = f"t^({et})*tb^({etb})"
                if mag != 1:
                    body = f"{mag}*{body}"
            parts.append(_joined(i, c, body))
        return "".join(parts)

    def to_json_obj(self) -> list[dict[str, object]]:
        return [
            {"t": str(et), "tbar": str(etb), "coeff": c}
            for (et, etb), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping[str, object]]) -> "BiExpPolynomial":
        terms: dict[Term, int] = {}
        for entry in obj:
            key = (Fraction(str(entry["t"])), Fraction(str(entry["tbar"])))
            terms[key] = terms.get(key, 0) + int(entry["coeff"])  # type: ignore[arg-type]
        return cls(terms)

    def __repr__(self) -> str:
        return f"BiExpPolynomial({self.pretty()})"


def _joined(i: int, coeff: int, body: str) -> str:
    if i == 0:
        return f"-{body}" if coeff < 0 else body
    return f" - {body}" if coeff < 0 else f" + {body}"


# ---------------------------------------------------------------------------
# parsing (accepts both the canonical and the grouped pretty form)


def parse_efunction(text: str) -> BiExpPolynomial:
    toks = _tokenize(text)
    if not toks:
        raise InputSyntaxError("empty expression", 0)
    k = 0
    end = len(text)

    def peek():
        return toks[k] if k < len(toks) else ("end", None, end)

    def expect(kind: str):
        nonlocal k
        t, v, pos = peek()
        if t != kind:
            raise InputSyntaxError(f"expected {kind!r}", pos)
        k += 1
        return v

    def parse_rational() -> Fraction:
        nonlocal k
        sign = 1
        t, v, pos = peek()
        if t == "-":
            sign = -1
            k += 1
        num = expect("int")
        den = 1
        t, v, pos = peek()
        if t == "/":
            k += 1
            den = expect("int")
        return Fraction(sign * num, den)

    def parse_exponent() -> Fraction:
        nonlocal k
        t, v, pos = peek()
        if t == "(":
            k += 1
            val = parse_rational()
            expect(")")
            return val
        return parse_rational()

    def parse_base() -> tuple[int, int]:
        nonlocal k
        t, v, pos = peek()
        if t == "t":
            k += 1
            return (1, 0)
        if t == "tb":
            k += 1
            return (0, 1)
        if t == "(":
            k += 1
            first, _, pos1 = peek()
            if first == "t":
                k += 1
                expect("*")
                expect("tb")
                expect(")")
                return (1, 1)
            if first == "tb":
                k += 1
                expect("/")
                expect("t")
                expect(")")
                return (-1, 1)
            raise InputSyntaxError("expected t or tb inside parentheses", pos1)
        raise InputSyntaxError("expected a base t, tb, (t*tb) or (tb/t)", pos)

    terms: dict[Term, int] = {}
    first_term = True
    while True:
        sign = 1
        t, v, pos = peek()
        if t == "-":
            sign = -1
            k += 1
        elif t == "+":
            if first_term:
                raise InputSyntaxError("unexpected '+'", pos)
            k += 1
        elif not first_term:
            if t == "end":
                break
            raise InputSyntaxError("expected '+' or '-' between terms", pos)
        first_term = False

        coeff = 1
        have_factor = False
        t, v, pos = peek()
        if t == "int":
            coeff = v
            k += 1
            t, v, pos = peek()
            if t == "*":
                k += 1
            else:
                have_factor = True  # bare constant
                et = etb = Fraction(0)
        if not have_factor:
            et = etb = Fraction(0)
            while True:
                bt, btb = parse_base()
                e = Fraction(1)
                t, v, pos = peek()
                if t == "^":
                    k += 1
                    e = parse_exponent()
                et += bt * e
                etb += btb * e
                t, v, pos = peek()
                if t == "*":
                    k += 1
                    continue
                break
        key = (et, etb)
        terms[key] = terms.get(key, 0) + sign * coeff
        t, v, pos = peek()
        if t == "end":
            break
    return BiExpPolynomial(terms)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if text.startswith("tb", i):
            toks.append(("tb", "tb", i))
            i += 2
            continue
        if ch == "t":
            toks.append(("t", "t", i))
            i += 1
            continue
        raise InputSyntaxError(f"unexpected character {ch!r}", i)
    return toks


# ---------------------------------------------------------------------------
# Hodge tables


class HodgeTable:
    """Map (p, q) -> (dim even part, dim odd part) for an n-variable pair."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Mapping[Term, tuple[int, int]]):
        self.n = n
        self.entries: dict[Term, tuple[int, int]] = {
            (Fraction(p), Fraction(q)): (int(de), int(do))
            for (p, q), (de, do) in entries.items()
            if de or do
        }

    def sorted_entries(self) -> list[tuple[Term, tuple[int, int]]]:
        return sorted(self.entries.items())

    def hodge_numbers(self) -> dict[Term, int]:
        """Aggregated dimensions h^{p,q} = even + odd."""
        return {pq: de + do for pq, (de, do) in self.entries.items()}

    @property
    def total_dimension(self) -> int:
        return sum(de + do for de, do in self.entries.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgeTable):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        rows = ", ".join(f"({p},{q}): {v}" for (p, q), v in self.sorted_entries())
        return f"HodgeTable(n={self.n}, {{{rows}}})"


def e_to_hodge(table: HodgeTable, mode: str) -> BiExpPolynomial:
    """Signed generating function of a Hodge table.

    mode 'SL' uses sign (-1)^(p+q), mode 'G0' uses (-1)^(q-p); the relevant
    exponent must be an integer on every populated bidegree, otherwise the
    table does not satisfy the mode assumption and ModeError is raised.
    """
    if mode not in ("SL", "G0"):
        raise ValueError(f"unknown mode {mode!r}")
    half = Fraction(table.n, 2)
    terms: dict[Term, int] = {}
    for (p, q), (de, do) in table.entries.items():
        s = p + q if mode == "SL" else q - p
        if s.denominator != 1:
            raise ModeError(f"sign exponent {s} at bidegree ({p},{q}) is not an integer")
        sign = -1 if int(s) % 2 else 1
        key = (p - half, q - half)
        terms[key] = terms.get(key, 0) + sign * (de + do)
    return BiExpPolynomial(terms)


def hodge_from_efunction(P: BiExpPolynomial, n: int) -> HodgeTable:
    """Recover the Hodge table from a signed E-function.

    Valid under either mode assumption, where no bidegree mixes parities:
    positive coefficients are even-part dimensions, negative ones odd-part.
    """
    half = Fraction(n, 2)
    entries: dict[Term, tuple[int, int]] = {}
    for (et, etb), c in P.terms.items():
        pq = (et + half, etb + half)
        entries[pq] = (c, 0) if c > 0 else (0, -c)
    return HodgeTable(n, entries)


def exponents(table: HodgeTable) -> tuple[Fraction, ...]:
    """Multiset of q-degrees, one per unit of h^{p,q}, sorted.  Meaningful for
    pairs whose group contains the grading operator (caller-checked)."""
    out: list[Fraction] = []
    for (_p, q), (de, do) in table.entries.items():
        out.extend([q] * (de + do))
    return tuple(sorted(out))


def _signed_moment(table: HodgeTable, power: int) -> Fraction:
    half = Fraction(table.n, 2)
    total = Fraction(0)
    for (p, q), (de, do) in table.entries.items():
        s = q - p
        if s.denominator != 1:
            raise ModeError(f"sign exponent {s} at bidegree ({p},{q}) is not an integer")
        sign = -1 if int(s) % 2 else 1
        total += sign * (q - half) ** power * (de + do)
    return total


def exponent_mean(table: HodgeTable) -> Fraction:
    """Signed first moment of q - n/2; vanishes for pairs with g0 in G."""
    return _signed_moment(table, 1)


def variance(table: HodgeTable) -> Fraction:
    """Signed second moment of q - n/2 (equals chat * chi / 12 when g0 in G)."""
    return _signed_moment(table, 2)


def central_charge(f: InvertiblePolynomial) -> Fraction:
    """chat = n - 2 * sum(q_i)."""
    return f.n - 2 * sum(weights(f).q, Fraction(0))


def check_duality(P: BiExpPolynomial, Q: BiExpPolynomial, n: int) -> bool:
    """Whether P(t, tb) = (-1)^n * Q(t^(-1), tb)."""
    return P == Q.invert_t().scale((-1) ** n)
