"""The hand-written parsers that `_Lexer` replaced, kept as an oracle.

`parse_polynomial` and `parse_efunction` below are the earlier front ends,
each with its own character scanner (`_tokenize_polynomial`,
`_tokenize_efunction`) and its own token cursor; apart from those two
names they are unchanged, but for one fix: a variable name's digits are
ASCII, as in the package.  `tests/test_parsers.py` checks the package's
polynomial parser against `parse_polynomial` on generated text, and the
tests read E-function text, such as the `pretty` form, with
`parse_efunction`, which the package no longer has.
"""

import warnings
from fractions import Fraction

from orbefun.efunction import BiExpPolynomial, Term
from orbefun.errors import CoefficientWarning, InputSyntaxError, NotInvertibleError
from orbefun.invertible import InvertiblePolynomial, from_exponent_matrix

from reference_engines import numerators


def _tokenize_polynomial(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+*^":
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
        if ch in "wxyz":
            if ch == "x" and i + 1 < n and text[i + 1].isdecimal():
                j = i + 1
                while j < n and text[j].isdecimal() and j - i < 3:
                    j += 1
                name = text[i:j]
                if name[1] == "0" or not name.isascii():
                    raise InputSyntaxError(f"invalid variable {name!r}", i)
                toks.append(("var", name, i))
                i = j
                continue
            toks.append(("var", ch, i))
            i += 1
            continue
        raise InputSyntaxError(f"unexpected character {ch!r}", i)
    return toks


def parse_polynomial(text: str) -> InvertiblePolynomial:
    """Parse polynomial text and validate it as an invertible polynomial.

    Raises InputSyntaxError for grammar violations and NotInvertibleError /
    NotDecomposableError for structural ones (wrong monomial count, repeated
    monomial, unmatched exponent patterns).
    """
    toks = _tokenize_polynomial(text)
    if not toks:
        raise InputSyntaxError("empty polynomial", 0)
    end = len(text)
    k = 0

    def peek() -> tuple[str, object, int]:
        return toks[k] if k < len(toks) else ("end", None, end)

    terms: list[tuple[list[tuple[str, int]], int]] = []
    while True:
        kind, value, pos = peek()
        term_pos = pos
        if kind == "int":
            if value == 0:
                raise NotInvertibleError(f"zero coefficient at position {pos}")
            k += 1
            if peek()[0] != "*":
                raise InputSyntaxError("expected '*' after coefficient", peek()[2])
            k += 1
            warnings.warn(
                f"coefficient {value} on the monomial at position {pos} is ignored",
                CoefficientWarning,
                stacklevel=2,
            )
        factors: list[tuple[str, int]] = []
        while True:
            kind, value, pos = peek()
            if kind != "var":
                raise InputSyntaxError("expected a variable", pos)
            name = value
            k += 1
            kind, value, pos = peek()
            exp = 1
            if kind == "^":
                k += 1
                kind, value, pos = peek()
                if kind != "int":
                    raise InputSyntaxError("expected an integer exponent", pos)
                exp = value
                k += 1
            factors.append((name, exp))
            kind, value, pos = peek()
            if kind == "*":
                k += 1
                continue
            break
        terms.append((factors, term_pos))
        kind, value, pos = peek()
        if kind == "end":
            break
        if kind != "+":
            raise InputSyntaxError("expected '+' between monomials", pos)
        k += 1

    variables: list[str] = []
    for factors, _ in terms:
        for name, _e in factors:
            if name not in variables:
                variables.append(name)
    rows = []
    for factors, _pos in terms:
        row = [0] * len(variables)
        for name, e in factors:
            row[variables.index(name)] += e
        rows.append(tuple(row))
    return from_exponent_matrix(tuple(rows), tuple(variables))


def _tokenize_efunction(text: str) -> list[tuple[str, object, int]]:
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


def parse_efunction(text: str) -> BiExpPolynomial:
    toks = _tokenize_efunction(text)
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
    return BiExpPolynomial(*numerators(terms))
