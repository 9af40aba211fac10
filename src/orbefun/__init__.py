"""Exact orbifold E-functions for invertible polynomials with symmetry.

Everything is computed in rational arithmetic: weights, group elements,
E-functions and Hodge tables are exact, never floating point.

The top level holds the names that state the duality theorem
E(f~, G~)(t, tb) = (-1)^n E(f, G)(t^-1, tb), and the error types.  Every
other function lives in its own module: `invertible`, `symmetry`,
`efunction`, `basis_engine`, `series_engine`, `corpus`, `cli`.
"""

from .basis_engine import efunction_basis
from .efunction import check_duality
from .errors import (
    CoefficientWarning,
    DomainError,
    InputSyntaxError,
    MembershipError,
    ModeError,
    NotDecomposableError,
    NotInvertibleError,
    OrbefunError,
    VerificationError,
)
from .invertible import parse_polynomial, transpose
from .series_engine import efunction_series
from .symmetry import dual_group, parse_group_spec

__version__ = "0.1.0"

__all__ = [
    "parse_polynomial",
    "parse_group_spec",
    "efunction_basis",
    "efunction_series",
    "transpose",
    "dual_group",
    "check_duality",
    "CoefficientWarning",
    "DomainError",
    "InputSyntaxError",
    "MembershipError",
    "ModeError",
    "NotDecomposableError",
    "NotInvertibleError",
    "OrbefunError",
    "VerificationError",
]
