"""Invertible polynomials: parsing, validation, atoms, weights, transpose.

An invertible polynomial in n variables is a sum of exactly n monomials whose
n x n exponent matrix E is invertible over the rationals.  Every such
polynomial considered here splits into "atoms" on disjoint sets of variables:

    chain:  x1^a1*x2 + x2^a2*x3 + ... + x(m-1)^a(m-1)*xm + xm^am    (m >= 1)
    loop:   x1^a1*x2 + x2^a2*x3 + ... + xm^am*x1                    (m >= 2)

The one-variable chain x^a is the Fermat case.  Each monomial carries exactly
one exponent >= 2 and is matched to that variable; rows are stored in matched
order, so E always has diagonal >= 2, at most one off-diagonal 1 per row, and
det E > 0.  Exponents equal to 1 in the atom data (rows such as x*y) are
rejected: the matching would be ambiguous and none of the invariants computed
downstream are defined for them here.

Along an atom, row i of E reads a_i*x_i + x_(i+1) (just a_m*x_m at the tail
of a chain), so E is block diagonal up to a simultaneous permutation of rows
and columns, one block per atom.  Hence det E is the product over atoms of
prod(a) for a chain and prod(a) - (-1)^m for a loop of length m, and every
linear system E*x = b (weights, columns of E^(-1), and through the transpose
the map psi) goes through one exact atom-by-atom solver, `_solve`, which
runs in integers, returns numerators over det E and verifies them.

`parse_polynomial` accepts the grammar (whitespace insignificant):

    poly   := term ('+' term)*
    term   := [int '*']? factor ('*' factor)*
    factor := var ('^' int)?
    var    := 'w' | 'x' | 'y' | 'z' | 'x1' ... 'x99'     (case sensitive, ASCII digits)
    int    := decimal digits, as int() reads them

Numeric coefficients are accepted, reduced to presence and reported through
a CoefficientWarning; no computed invariant depends on them.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import attrgetter

from .errors import (
    CoefficientWarning,
    DomainError,
    InputSyntaxError,
    NotDecomposableError,
    NotInvertibleError,
    VerificationError,
)

_DEFAULT_NAMES = ("x", "y", "z", "w")


class _Value:
    """Base of the package's immutable value types.

    A subclass names its stored attributes in `__slots__` and the ones that
    make its value in `_fields`, and sets them once through `_set`; setting
    or deleting an attribute afterwards raises AttributeError.  Instances of
    one class are equal when their `_fields` are, and the hash of those
    fields is computed on first use and stored; a subclass holding a
    mapping sets `__hash__ = None` instead.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...]
    _values: attrgetter  # an instance's `_fields` as one tuple, read in C

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields)

    def _set(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._values(self)))
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Atom(_Value):
    """One chain or loop; variable `var_indices[i]` carries exponent `a[i]`.

    Indices point into the variable tuple of the owning polynomial.  Chains
    are listed head to tail (the tail variable owns the pure power); loops
    are rotated so the smallest index comes first.
    """

    __slots__ = _fields = ("kind", "var_indices", "a")

    def __init__(self, kind: str, var_indices: tuple[int, ...], a: tuple[int, ...]):
        if kind not in ("chain", "loop"):
            raise DomainError(f"atom kind must be 'chain' or 'loop', got {kind!r}")
        if len(var_indices) != len(a):
            raise DomainError(
                f"atom has {len(var_indices)} variables but {len(a)} exponents"
            )
        self._set(kind=kind, var_indices=var_indices, a=a)


class WeightSystem(_Value):
    """Weights q with E*q = (1,...,1)^T: q_i = w_i/d, d the least common denominator."""

    __slots__ = _fields = ("d", "w")

    def __init__(self, d: int, w: tuple[int, ...]):
        self._set(d=d, w=w)

    @property
    def q(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.d) for x in self.w)


class InvertiblePolynomial(_Value):
    """Validated invertible polynomial; construct via `parse_polynomial` or
    `from_exponent_matrix`, never directly."""

    __slots__ = _fields = ("n", "exponents", "variables", "atoms")

    def __init__(
        self,
        n: int,
        exponents: tuple[tuple[int, ...], ...],
        variables: tuple[str, ...],
        atoms: tuple[Atom, ...],
    ):
        self._set(n=n, exponents=exponents, variables=variables, atoms=atoms)

    def to_text(self) -> str:
        if self.n == 0:
            return "0"
        return " + ".join(_monomial_text(row, self.variables) for row in self.exponents)

    def __str__(self) -> str:
        return self.to_text()


def _monomial_text(row: Sequence[int], variables: Sequence[str]) -> str:
    factors = []
    for name, e in zip(variables, row):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors) if factors else "1"


# ---------------------------------------------------------------------------
# parsing


# `space` is skipped, each `op` is its own kind, `int` is the decimal digits
# `int()` reads; the parser rejects a `var` outside x1 ... x99 whole
_POLYNOMIAL_GRAMMAR = re.compile(r"(?P<space>\s+)|(?P<op>[+*^])|(?P<int>\d+)|(?P<var>x\d+|[wxyz])")


class _Lexer:
    """The tokenizer and token cursor of `parse_polynomial`: the text is
    scanned up front into (kind, value, position) tokens under
    `_POLYNOMIAL_GRAMMAR`; a character that no alternative matches, or a text
    with no token, is an InputSyntaxError.  Past the last token `peek`
    returns ("end", None, len(text))."""

    def __init__(self, text: str):
        self.tokens: list[tuple[str, object, int]] = []
        self.k = 0
        self.end = len(text)
        pos = 0
        while pos < self.end:
            m = _POLYNOMIAL_GRAMMAR.match(text, pos)
            if m is None:
                raise InputSyntaxError(f"unexpected character {text[pos]!r}", pos)
            kind, value = m.lastgroup, m.group()
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:  # beyond the interpreter's digit limit
                    raise InputSyntaxError("integer too long", pos) from None
            elif kind == "op":
                kind = value
            if kind != "space":
                self.tokens.append((kind, value, pos))
            pos = m.end()
        if not self.tokens:
            raise InputSyntaxError("empty polynomial", 0)

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.k] if self.k < len(self.tokens) else ("end", None, self.end)

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of `kind`."""
        if self.peek()[0] != kind:
            return False
        self.k += 1
        return True

    def expect(self, kind: str, message: str) -> object:
        """Consume the next token, which must be of `kind`; return its value."""
        _, value, pos = self.peek()
        if not self.accept(kind):
            raise InputSyntaxError(message, pos)
        return value


def parse_polynomial(text: str) -> InvertiblePolynomial:
    """Parse polynomial text and validate it as an invertible polynomial.

    Raises InputSyntaxError for grammar violations and NotInvertibleError /
    NotDecomposableError for structural ones (wrong monomial count, repeated
    monomial, unmatched exponent patterns).
    """
    lex = _Lexer(text)
    for kind, name, pos in lex.tokens:
        if kind == "var" and not re.fullmatch(r"[wxyz]|x[1-9][0-9]?", name):  # x1 ... x99 in ASCII
            raise InputSyntaxError(f"invalid variable {name!r}", pos)

    terms: list[list[tuple[str, int]]] = []
    while True:
        _, value, pos = lex.peek()
        if lex.accept("int"):
            if value == 0:
                raise NotInvertibleError(f"zero coefficient at position {pos}")
            lex.expect("*", "expected '*' after coefficient")
            warnings.warn(
                f"coefficient {value} on the monomial at position {pos} is ignored",
                CoefficientWarning,
                stacklevel=2,
            )
        factors: list[tuple[str, int]] = []
        while True:
            name = lex.expect("var", "expected a variable")
            exp = lex.expect("int", "expected an integer exponent") if lex.accept("^") else 1
            factors.append((name, exp))
            if not lex.accept("*"):
                break
        terms.append(factors)
        if not lex.accept("+"):
            break
    lex.expect("end", "expected '+' between monomials")

    variables = tuple(dict.fromkeys(name for factors in terms for name, _ in factors))
    rows = tuple(tuple(sum(e for name, e in factors if name == v) for v in variables)
                 for factors in terms)
    return from_exponent_matrix(rows, variables)


# ---------------------------------------------------------------------------
# construction and structure


def from_exponent_matrix(
    rows: Sequence[Sequence[int]],
    variables: Sequence[str] | None = None,
) -> InvertiblePolynomial:
    """Validate an exponent matrix, match monomials to variables and decompose.

    Rows may arrive in any order; they are stored with monomial i matched to
    variable i (diagonal >= 2), which fixes det E > 0.
    """
    rows = tuple(tuple(int(e) for e in row) for row in rows)
    if variables is None:
        width = len(rows[0]) if rows else 0
        if width <= len(_DEFAULT_NAMES):
            variables = _DEFAULT_NAMES[:width]
        else:
            variables = tuple(f"x{i + 1}" for i in range(width))
    variables = tuple(variables)
    n = len(variables)
    if n == 0 and not rows:
        return InvertiblePolynomial(0, (), (), ())
    if any(len(row) != n for row in rows):
        raise NotInvertibleError("ragged exponent matrix")
    if any(e < 0 for row in rows for e in row):
        raise NotInvertibleError("negative exponent")
    if len(rows) != n:
        raise NotInvertibleError(f"{len(rows)} monomials but {n} variables")
    for j, name in enumerate(variables):
        if all(row[j] == 0 for row in rows):
            raise NotInvertibleError(f"variable {name} never occurs")
    seen: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(rows):
        if row in seen:
            raise NotInvertibleError(f"repeated monomial {_monomial_text(row, variables)}")
        seen[row] = i

    owner_to_row: dict[int, int] = {}
    succ_of_row: dict[int, int | None] = {}
    for i, row in enumerate(rows):
        text = _monomial_text(row, variables)
        big = [j for j, e in enumerate(row) if e >= 2]
        ones = [j for j, e in enumerate(row) if e == 1]
        if len(big) > 1:
            raise NotDecomposableError(f"monomial {text} has two exponents >= 2")
        if not big:
            raise NotDecomposableError(f"monomial {text} has no exponent >= 2")
        if len(ones) > 1:
            raise NotDecomposableError(f"monomial {text} involves more than two variables")
        j = big[0]
        if j in owner_to_row:
            other = _monomial_text(rows[owner_to_row[j]], variables)
            raise NotDecomposableError(
                f"monomials {other} and {text} both carry the exponent >= 2 of {variables[j]}"
            )
        owner_to_row[j] = i
        succ_of_row[i] = ones[0] if ones else None

    exponents = tuple(rows[owner_to_row[j]] for j in range(n))
    succ = [succ_of_row[owner_to_row[j]] for j in range(n)]
    indeg = [0] * n
    for j in range(n):
        s = succ[j]
        if s is not None:
            indeg[s] += 1
            if indeg[s] > 1:
                raise NotDecomposableError(
                    f"variable {variables[s]} is the link variable of two monomials"
                )

    visited = [False] * n
    atoms: list[Atom] = []
    for head in range(n):
        if indeg[head] != 0 or visited[head]:
            continue
        path = []
        j: int | None = head
        while j is not None:
            if visited[j]:
                raise NotDecomposableError("chain runs into a loop")
            visited[j] = True
            path.append(j)
            j = succ[j]
        atoms.append(Atom("chain", tuple(path), tuple(exponents[v][v] for v in path)))
    for start in range(n):
        if visited[start]:
            continue
        cycle = []
        j = start
        while True:
            visited[j] = True
            cycle.append(j)
            j = succ[j]
            if j is None:
                raise VerificationError("a variable outside every chain has no successor")
            if j == start:
                break
        atoms.append(Atom("loop", tuple(cycle), tuple(exponents[v][v] for v in cycle)))
    atoms.sort(key=lambda atom: min(atom.var_indices))

    f = InvertiblePolynomial(n, exponents, variables, tuple(atoms))
    if determinant(f) <= 0:
        raise VerificationError(f"det E = {determinant(f)} is not positive for {f.to_text()}")
    return f


def atom_polynomial(kind: str, a: Sequence[int]) -> InvertiblePolynomial:
    """Standalone polynomial consisting of a single chain or loop atom."""
    m = len(a)
    rows = []
    for i, ai in enumerate(a):
        row = [0] * m
        row[i] = ai
        if kind == "loop":
            row[(i + 1) % m] = 1
        elif i + 1 < m:
            row[i + 1] = 1
        rows.append(tuple(row))
    return from_exponent_matrix(tuple(rows))


def determinant(f: InvertiblePolynomial) -> int:
    """det E, atom by atom: prod(a) for a chain, prod(a) - (-1)^m for a loop of length m."""
    d = 1
    for atom in f.atoms:
        d *= prod(atom.a) - ((-1) ** len(atom.a) if atom.kind == "loop" else 0)
    return d


def _solve(f: InvertiblePolynomial, b: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(det E, the numerators over det E of the exact x with E*x = b),
    solved atom by atom in integers and checked row by row.

    Chains go back to front: z_i = x_i*p_i, p_i = a_i*...*a_m, is the integer
    b_i*p_(i+1) - z_(i+1).  Loops write x_i = c_i + d_i*x_1 along
    x_(i+1) = b_i - a_i*x_i and close it at x_(m+1) = x_1: 1 - d is +-det of
    the atom, which divides det E."""
    det = determinant(f)
    x = [0] * f.n
    for atom in f.atoms:
        idx, a = atom.var_indices, atom.a
        if atom.kind == "chain":
            z, p = 0, 1
            for i, ai in zip(reversed(idx), reversed(a)):
                z, p = b[i] * p - z, p * ai
                x[i] = z * (det // p)
        else:
            c, d = 0, 1
            for i, ai in zip(idx, a):
                c, d = b[i] - ai * c, -ai * d
            acc = c * (det // (1 - d))
            for i, ai in zip(idx, a):
                x[i] = acc
                acc = b[i] * det - ai * acc
    for i, row in enumerate(f.exponents):
        if sum(e * x[j] for j, e in enumerate(row) if e) != det * b[i]:
            raise VerificationError(f"solution of E*x = {tuple(b)} fails row {i + 1} of {f.to_text()}")
    return det, tuple(x)


@lru_cache(maxsize=None)
def weights(f: InvertiblePolynomial) -> WeightSystem:
    """The unique exact solution of E*q = (1,...,1); every weight lies in (0, 1/2]."""
    det, x = _solve(f, (1,) * f.n)
    if not all(0 < 2 * xi <= det for xi in x):
        raise VerificationError(f"weights of {f.to_text()} are not all in (0, 1/2]")
    g = gcd(det, *x)
    return WeightSystem(det // g, tuple(xi // g for xi in x))


def milnor_number(f: InvertiblePolynomial) -> int:
    """prod(1/q_i - 1) = prod(d - w_i) / prod(w_i)."""
    ws = weights(f)
    num, den = prod(ws.d - w for w in ws.w), prod(ws.w)
    if num % den or num < den:
        raise VerificationError(f"Milnor number {num}/{den} of {f.to_text()} is not a positive integer")
    return num // den


@lru_cache(maxsize=None)
def transpose(f: InvertiblePolynomial) -> InvertiblePolynomial:
    """The transposed polynomial: the one with exponent matrix E^T.

    Keeps the variable names; chains come back in reversed variable order,
    loops in reversed cyclic order.
    """
    if f.n == 0:
        return f
    return from_exponent_matrix(tuple(zip(*f.exponents)), f.variables)


def restrict(f: InvertiblePolynomial, fixed: Iterable[int]) -> InvertiblePolynomial:
    """Restriction of f to the coordinate subspace indexed by `fixed`.

    Substitutes 0 for every other variable and keeps the surviving monomials.
    For a genuine fixed locus of a symmetry the result is again invertible
    (chains lose a leading segment, loops survive whole or vanish); anything
    else fails validation.
    """
    return _restrict(f, tuple(sorted(set(fixed))))


@lru_cache(maxsize=None)
def _restrict(f: InvertiblePolynomial, idx: tuple[int, ...]) -> InvertiblePolynomial:
    if any(i < 0 or i >= f.n for i in idx):
        raise NotInvertibleError(f"variable index out of range: {idx}")
    keep = set(idx)
    rows = [row for row in f.exponents
            if all(j in keep for j, e in enumerate(row) if e)]
    sub_rows = tuple(tuple(row[j] for j in idx) for row in rows)
    sub_vars = tuple(f.variables[j] for j in idx)
    try:
        return from_exponent_matrix(sub_rows, sub_vars)
    except (NotInvertibleError, NotDecomposableError) as exc:
        raise NotDecomposableError(
            f"indices {idx} are not a fixed locus of {f.to_text()}: {exc}"
        ) from exc
