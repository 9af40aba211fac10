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
allow.  Both render back through `parse_efunction`, which reads with the
polynomial parser's `_Lexer` (whitespace insignificant, int := decimal digits):

    expr := ['-'] term (('+' | '-') term)*
    term := int | [int '*'] base ['^' exp] ('*' base ['^' exp])*
    base := 't' | 'tb' | '(t*tb)' | '(tb/t)'
    exp  := rat | '(' rat ')'      rat := ['-'] int ['/' int], nonzero denominator

JSON form: list of {"t": "a/b", "tbar": "c/d", "coeff": k} in the same
order; an exponent is read back from a JSON integer or a string rat as
above, and from nothing else.
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .errors import InputSyntaxError, ModeError
from .invertible import InvertiblePolynomial, _grammar, _Lexer, weights

Term = tuple[Fraction, Fraction]


def _fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


class BiExpPolynomial:
    """Sparse polynomial in t, tb with Fraction exponents; `terms` is a
    read-only map, so a cached E-function cannot be changed by its callers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Term, int] | None = None):
        self.terms: Mapping[Term, int] = MappingProxyType({
            (_fraction(et), _fraction(etb)): c if type(c) is int else int(c)
            for (et, etb), c in (terms or {}).items()
            if c
        })

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
    def from_json_obj(cls, obj: object) -> "BiExpPolynomial":
        """Read the JSON form back; anything else is an InputSyntaxError."""
        if not isinstance(obj, list):
            raise InputSyntaxError(f"E-function JSON must be a list of terms, got {obj!r}", 0)
        terms: dict[Term, int] = {}
        for entry in obj:
            if not isinstance(entry, dict) or set(entry) != {"t", "tbar", "coeff"}:
                raise InputSyntaxError(
                    f"E-function term must have exactly the keys t, tbar, coeff, got {entry!r}", 0
                )
            key = (_json_rational(entry["t"], "t"), _json_rational(entry["tbar"], "tbar"))
            terms[key] = terms.get(key, 0) + _json_int(entry["coeff"], "coeff")
        return cls(terms)

    def __repr__(self) -> str:
        return f"BiExpPolynomial({self.pretty()})"


def _json_int(value: object, what: str) -> int:
    """An integer from JSON data; bools and floats are rejected."""
    if type(value) is int:
        return value
    raise InputSyntaxError(f"{what} must be an integer, got {value!r}", 0)


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def _json_rational(value: object, what: str) -> Fraction:
    """An exact rational from JSON data: an integer, or a string
    -?int['/' int] such as '-1/6' with a nonzero denominator.  Bools, floats,
    signs, underscores, decimal points and exponent notation are rejected
    before any arithmetic, so no string costs more than its length."""
    if type(value) is int:
        return Fraction(value)
    try:
        if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
            return Fraction(*map(int, value.split("/")))
    except (ValueError, ZeroDivisionError):  # past the digit limit, or n/0
        pass
    raise InputSyntaxError(f"{what} must be an exact rational, got {value!r}", 0)


def _joined(i: int, coeff: int, body: str) -> str:
    if i == 0:
        return f"-{body}" if coeff < 0 else body
    return f" - {body}" if coeff < 0 else f" + {body}"


# ---------------------------------------------------------------------------
# parsing (accepts both the canonical and the grouped pretty form)


_EFUNCTION_GRAMMAR = _grammar("+-*/^()", tb="tb", t="t")


def parse_efunction(text: str) -> BiExpPolynomial:
    lex = _Lexer(_EFUNCTION_GRAMMAR, text, "empty expression")
    if lex.peek()[0] == "+":
        raise InputSyntaxError("unexpected '+'", lex.peek()[2])
    sign = -1 if lex.accept("-") else 1
    terms: dict[Term, int] = {}
    while True:
        key, coeff = _term(lex)
        terms[key] = terms.get(key, 0) + sign * coeff
        if lex.accept("end"):
            return BiExpPolynomial(terms)
        sign = -1 if lex.accept("-") else 1
        if sign == 1:
            lex.expect("+", "expected '+' or '-' between terms")


def _term(lex: _Lexer) -> tuple[Term, int]:
    """An unsigned term of the grammar above, as (exponents, coefficient)."""
    coeff = 1
    _, value, _ = lex.peek()
    if lex.accept("int"):
        coeff = value
        if not lex.accept("*"):
            return (Fraction(0), Fraction(0)), coeff  # bare constant
    et = etb = Fraction(0)
    while True:
        bt, btb = _base(lex)
        e = _exponent(lex) if lex.accept("^") else Fraction(1)
        et += bt * e
        etb += btb * e
        if not lex.accept("*"):
            return (et, etb), coeff


def _base(lex: _Lexer) -> tuple[int, int]:
    """t, tb, (t*tb) or (tb/t), as the exponents it contributes to (t, tb)."""
    _, _, pos = lex.peek()
    if lex.accept("t"):
        return (1, 0)
    if lex.accept("tb"):
        return (0, 1)
    if not lex.accept("("):
        raise InputSyntaxError("expected a base t, tb, (t*tb) or (tb/t)", pos)
    _, _, pos = lex.peek()
    if lex.accept("t"):
        for kind in ("*", "tb", ")"):
            lex.expect(kind)
        return (1, 1)
    if lex.accept("tb"):
        for kind in ("/", "t", ")"):
            lex.expect(kind)
        return (-1, 1)
    raise InputSyntaxError("expected t or tb inside parentheses", pos)


def _exponent(lex: _Lexer) -> Fraction:
    """A rational ['-'] int ['/' int], optionally in parentheses."""
    parenthesized = lex.accept("(")
    sign = -1 if lex.accept("-") else 1
    num = lex.expect("int")
    den = 1
    if lex.accept("/"):
        _, _, pos = lex.peek()
        den = lex.expect("int")
        if den == 0:
            raise InputSyntaxError("zero denominator", pos)
    if parenthesized:
        lex.expect(")")
    return Fraction(sign * num, den)


# ---------------------------------------------------------------------------
# Hodge tables


class HodgeTable:
    """Map (p, q) -> (dim even part, dim odd part) for an n-variable pair;
    `entries` is read-only."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Mapping[Term, tuple[int, int]]):
        self.n = n
        self.entries: Mapping[Term, tuple[int, int]] = MappingProxyType({
            (Fraction(p), Fraction(q)): (int(de), int(do))
            for (p, q), (de, do) in entries.items()
            if de or do
        })

    def sorted_entries(self) -> list[tuple[Term, tuple[int, int]]]:
        return sorted(self.entries.items())

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
