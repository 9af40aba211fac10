"""Finite two-variable polynomials with rational exponents, and Hodge tables.

The E-function of a pair (f, G) is a finite integer combination of terms
t^(p - n/2) * tb^(q - n/2).  The carrier type BiExpPolynomial stores it as
one positive denominator `den` and a read-only map `nums` of integer
numerators, (a, b) -> coefficient for the term t^(a/den) * tb^(b/den).
`den` is canonical, the least common denominator of the exponents (1 for
the zero polynomial), so two polynomials are equal exactly when their `den`
and `nums` are.  A HodgeTable records at each rational bidegree (p, q) the
dimensions of the even and odd parity parts, stored the same way:
(p*den, q*den) -> (even, odd).  Under either mode assumption (G inside SL,
or G containing the grading operator) a fixed bidegree only ever carries one
parity, so table and signed E-function determine each other; the
conversions live here.

Each type has one constructor, `BiExpPolynomial(den, nums)` and
`HodgeTable(n, den, nums)`, which takes integer numerators over a positive
integer denominator, rejects anything else and stores the canonical form.
An E-function carries no arithmetic: comparison, conversion and the signed
moments run on the integers, and `check_duality` compares numerator maps.
Fractions appear only at the edges: the parser and the JSON reader, which
put their Fraction-keyed terms over the least common denominator, the text
forms, `exponents`, the values `variance` and `exponent_mean` return, and
the read-only Fraction views `terms` and `entries`, computed on read.

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
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import InputSyntaxError, ModeError
from .invertible import InvertiblePolynomial, _grammar, _Lexer, _Value, weights

Term = tuple[Fraction, Fraction]
Key = tuple[int, int]


def _integers(what: str, values: Iterable[object]) -> None:
    """TypeError unless every value is an int."""
    for x in values:
        if not isinstance(x, int):
            raise TypeError(f"{what} must be integers, got {x!r}")


def _canonical(den: int, nums: dict[Key, object]) -> tuple[int, dict[Key, object]]:
    """`den` and `nums` divided by the gcd of `den` and every numerator, so
    that `den` is the least common denominator of the exponents; TypeError
    unless `den` and the numerators are integers, ValueError unless `den` is
    positive."""
    _integers("denominator and exponent numerators", (den, *(x for key in nums for x in key)))
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")
    g = den
    for a, b in nums:
        g = gcd(g, a, b)
        if g == 1:
            return den, nums
    if g > 1:
        nums = {(a // g, b // g): v for (a, b), v in nums.items()}
    return den // g, nums


def _over_lcd(keys: Mapping[Term, object]) -> tuple[int, dict[Key, object]]:
    """A Fraction-keyed map as (least common denominator, numerator map)."""
    fracs = {(Fraction(x), Fraction(y)): v for (x, y), v in keys.items()}
    den = lcm(*(e.denominator for key in fracs for e in key))
    return den, {
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)): v
        for (x, y), v in fracs.items()
    }


def _fraction_view(den: int, rows: Iterable[tuple[Key, object]]) -> Mapping[Term, object]:
    """Numerator rows in their order, as a read-only map keyed by Fractions."""
    return MappingProxyType({(Fraction(a, den), Fraction(b, den)): v for (a, b), v in rows})


def _exponent_text(den: int, nums: Mapping[Key, object]) -> dict[int, str]:
    """Numerator -> its exponent as text, as str(Fraction(x, den)) writes it,
    once per distinct value."""
    out = {}
    for x in {x for key in nums for x in key}:
        g = gcd(x, den)
        out[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
    return out


class BiExpPolynomial(_Value):
    """Sparse polynomial in t, tb with rational exponents, stored as integer
    numerators over one canonical denominator (see the module docstring).
    The attributes cannot be set, and `nums` and the Fraction view `terms`
    are read-only, so a cached E-function cannot be changed by its callers."""

    __slots__ = _fields = ("den", "nums")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, den: int, nums: Mapping[Key, int]):
        """The polynomial sum c * t^(a/den) * tb^(b/den) over nums (a, b) -> c."""
        _integers("coefficients", nums.values())
        den, nums = _canonical(den, {k: c for k, c in nums.items() if c})
        self._set(den=den, nums=MappingProxyType(nums))

    @property
    def terms(self) -> Mapping[Term, int]:
        """(t-exponent, tb-exponent) -> coefficient, exponents as Fractions."""
        return _fraction_view(self.den, self._sorted_nums())

    def _sorted_nums(self) -> list[tuple[Key, int]]:
        # antiholomorphic exponent first: matches the usual weight ordering;
        # over one positive denominator the numerators sort like the exponents
        return sorted(self.nums.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def chi(self) -> int:
        """Value at t = tb = 1."""
        return sum(self.nums.values())

    # -- text and JSON forms

    def to_text(self) -> str:
        if not self.nums:
            return "0"
        text = _exponent_text(self.den, self.nums)
        parts = []
        for i, ((a, b), c) in enumerate(self._sorted_nums()):
            body = f"{abs(c)} * t^({text[a]}) * tb^({text[b]})"
            parts.append(_joined(i, c, body))
        return "".join(parts)

    def pretty(self) -> str:
        if not self.nums:
            return "0"
        text = _exponent_text(self.den, self.nums)
        parts = []
        for i, ((a, b), c) in enumerate(self._sorted_nums()):
            mag = abs(c)
            if a == 0 and b == 0:
                parts.append(_joined(i, c, str(mag)))
                continue
            if a == b:
                body = f"(t*tb)^({text[a]})"
            elif a == -b:
                body = f"(tb/t)^({text[b]})"
            else:
                body = f"t^({text[a]})*tb^({text[b]})"
            parts.append(_joined(i, c, body if mag == 1 else f"{mag}*{body}"))
        return "".join(parts)

    def to_json_obj(self) -> list[dict[str, object]]:
        text = _exponent_text(self.den, self.nums)
        return [
            {"t": text[a], "tbar": text[b], "coeff": c} for (a, b), c in self._sorted_nums()
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
        return cls(*_over_lcd(terms))

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
            return BiExpPolynomial(*_over_lcd(terms))
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


class HodgeTable(_Value):
    """Map (p, q) -> (dim even part, dim odd part) for an n-variable pair,
    stored as integer numerators (p*den, q*den) over one canonical
    denominator; like BiExpPolynomial, immutable, with `nums` and the
    Fraction view `entries` read-only."""

    __slots__ = _fields = ("n", "den", "nums")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, n: int, den: int, nums: Mapping[Key, Sequence[int]]):
        """The table (p, q) = (a/den, b/den) -> (even, odd) over nums (a, b) -> (even, odd)."""
        _integers("n and dimensions", (n, *(d for dims in nums.values() for d in dims)))
        den, nums = _canonical(den, {k: (de, do) for k, (de, do) in nums.items() if de or do})
        self._set(n=n, den=den, nums=MappingProxyType(nums))

    @property
    def entries(self) -> Mapping[Term, tuple[int, int]]:
        """(p, q) -> (even, odd), bidegrees as Fractions."""
        return _fraction_view(self.den, sorted(self.nums.items()))

    def __repr__(self) -> str:
        rows = ", ".join(f"({p},{q}): {v}" for (p, q), v in self.entries.items())
        return f"HodgeTable(n={self.n}, {{{rows}}})"


def _sign(s: int, den: int, p: int, q: int) -> int:
    """(-1)^(s/den) for the sign exponent s/den at bidegree (p, q) over den;
    ModeError unless s/den is an integer."""
    k, r = divmod(s, den)
    if r:
        raise ModeError(
            f"sign exponent {Fraction(s, den)} at bidegree "
            f"({Fraction(p, den)},{Fraction(q, den)}) is not an integer"
        )
    return -1 if k % 2 else 1


def e_to_hodge(table: HodgeTable, mode: str) -> BiExpPolynomial:
    """Signed generating function of a Hodge table.

    mode 'SL' uses sign (-1)^(p+q), mode 'G0' uses (-1)^(q-p); the relevant
    exponent must be an integer on every populated bidegree, otherwise the
    table does not satisfy the mode assumption and ModeError is raised.
    The exponents p - n/2, q - n/2 are placed over 2*den.
    """
    if mode not in ("SL", "G0"):
        raise ValueError(f"unknown mode {mode!r}")
    den, shift = table.den, table.n * table.den
    return BiExpPolynomial(2 * den, {
        (2 * p - shift, 2 * q - shift): _sign(p + q if mode == "SL" else q - p, den, p, q)
        * (de + do)
        for (p, q), (de, do) in table.nums.items()
    })


def hodge_from_efunction(P: BiExpPolynomial, n: int) -> HodgeTable:
    """Recover the Hodge table from a signed E-function.

    Valid under either mode assumption, where no bidegree mixes parities:
    positive coefficients are even-part dimensions, negative ones odd-part.
    The bidegrees e + n/2 are placed over 2*den.
    """
    shift = n * P.den
    return HodgeTable(n, 2 * P.den, {
        (2 * a + shift, 2 * b + shift): (c, 0) if c > 0 else (0, -c)
        for (a, b), c in P.nums.items()
    })


def exponents(table: HodgeTable) -> tuple[Fraction, ...]:
    """Multiset of q-degrees, one per unit of h^{p,q}, sorted.  Meaningful for
    pairs whose group contains the grading operator (caller-checked)."""
    out: list[int] = []
    for (_p, q), (de, do) in table.nums.items():
        out.extend([q] * (de + do))
    return tuple(Fraction(q, table.den) for q in sorted(out))


def _signed_moment(table: HodgeTable, power: int) -> Fraction:
    """sum (-1)^(q-p) * (q - n/2)^power * (even + odd), with q - n/2 taken
    over 2*den so that the sum runs on integers."""
    den, shift = table.den, table.n * table.den
    total = 0
    for (p, q), (de, do) in table.nums.items():
        total += _sign(q - p, den, p, q) * (2 * q - shift) ** power * (de + do)
    return Fraction(total, (2 * den) ** power)


def exponent_mean(table: HodgeTable) -> Fraction:
    """Signed first moment of q - n/2; vanishes for pairs with g0 in G."""
    return _signed_moment(table, 1)


def variance(table: HodgeTable) -> Fraction:
    """Signed second moment of q - n/2 (equals chat * chi / 12 when g0 in G)."""
    return _signed_moment(table, 2)


def central_charge(f: InvertiblePolynomial) -> Fraction:
    """chat = n - 2 * sum(q_i) = (n*d - 2 * sum(w_i)) / d."""
    ws = weights(f)
    return Fraction(f.n * ws.d - 2 * sum(ws.w), ws.d)


def check_duality(P: BiExpPolynomial, Q: BiExpPolynomial, n: int) -> bool:
    """Whether P(t, tb) = (-1)^n * Q(t^(-1), tb)."""
    return P.den == Q.den and P.nums == {(-a, b): (-1) ** n * c for (a, b), c in Q.nums.items()}
