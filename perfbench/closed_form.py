"""Independent reference for the untwisted Fermat E-function.

For f = x1^a + ... + xn^a and the trivial group only the identity sector
contributes, and its E-function is the closed product

    E(f, {1}) = prod_i ( - sum_{k=1}^{a-1} (tb/t)^(k/a - 1/2) ).

This module expands that product in Fractions and reads the text form the
CLI prints, so the benchmark can check the program's answer against
arithmetic that shares no code with it.
"""

from __future__ import annotations

import re
from fractions import Fraction

Terms = dict[tuple[Fraction, Fraction], int]

_TERM = re.compile(r"(?:(?P<mag>\d+)\*)?\((?P<base>tb/t|t\*tb)\)\^\((?P<e>-?\d+(?:/\d+)?)\)$")


def fermat_trivial_efunction(n: int, a: int) -> Terms:
    """Terms {(t-exponent, tb-exponent): coefficient} of the closed product."""
    factor = {Fraction(k, a) - Fraction(1, 2): -1 for k in range(1, a)}
    poly = {Fraction(0): 1}
    for _ in range(n):
        out: dict[Fraction, int] = {}
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        poly = {e: c for e, c in out.items() if c}
    # (tb/t)^e = t^(-e) * tb^e
    return {(-e, e): c for e, c in poly.items()}


def parse_pretty(text: str) -> Terms:
    """Read the CLI's pretty text of a sum of (tb/t) and (t*tb) powers, e.g.
    `-(tb/t)^(-1/2) + 3*(t*tb)^(1/2)`; any other kind of term is an error."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    terms: Terms = {}
    for i, piece in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = -1 if piece == "-" else 1
            continue
        m = _TERM.match(piece)
        if m is None:
            raise ValueError(f"unexpected E-function term {piece!r}")
        e = Fraction(m["e"])
        key = (-e, e) if m["base"] == "tb/t" else (e, e)
        terms[key] = terms.get(key, 0) + sign * int(m["mag"] or 1)
    return {k: c for k, c in terms.items() if c}
