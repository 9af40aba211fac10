"""Exact orbifold E-functions for invertible polynomials with symmetry.

Everything is computed in rational arithmetic: weights, group elements,
E-functions and Hodge tables are exact, never floating point.

The top level holds the names that state the duality theorem
E(f~, G~)(t, tb) = (-1)^n E(f, G)(t^-1, tb), and the error types.  Every
other function lives in its own module: `invertible`, `symmetry`,
`efunction`, `basis_engine`, `series_engine`, `corpus`, `cli`.

The seven functions are imported from their modules on first access
(PEP 562), so a process loads only the modules it uses: `orbefun --help`
loads no computation module.
"""

from importlib import import_module

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

__version__ = "0.1.0"

# the module that defines each top-level function
_HOMES = {
    "parse_polynomial": "invertible",
    "parse_group_spec": "symmetry",
    "efunction_basis": "basis_engine",
    "efunction_series": "series_engine",
    "transpose": "invertible",
    "dual_group": "symmetry",
    "check_duality": "efunction",
}

__all__ = [
    *_HOMES,
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


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
