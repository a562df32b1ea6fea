"""Exact symbolic engine for non-commutative binomial expansions.

Layers: exact scalars (rationals, parameter polynomials), the free
associative algebra, normal-ordering rewrite systems, the binomial
expansion engines and closed forms, and a differential-operator
realization on polynomials.

The differential operators and the verification suites are exports served
on first use, so importing the package or its CLI loads neither.
"""

import importlib

from .binomial import (
    EXPAND_METHODS,
    ExpansionReport,
    IncompatibleRelationError,
    closed_form_hsq,
    closed_form_weyl,
    essential_expand,
    exp_defect,
    expansion_report,
    free_pair,
    m_basis,
    m_derivation_expand,
    resolve_relation,
    twisted_expand,
    weyl_coefficient,
    weyl_m_text,
    weyl_triple,
)
from .freealg import (
    Algebra,
    ContextMismatchError,
    Generator,
    NCPoly,
    Word,
    commutator,
    twisted_power,
)
from .rewrite import (
    DEFAULT_BUDGET,
    FAMILIES,
    BudgetExceededError,
    InvalidSystemError,
    MalformedSystemError,
    RelationSystem,
    RewriteError,
    ValidationReport,
    load_system,
    make_family,
)
from .scalars import (
    ParamPoly,
    UnboundParameterError,
    binom,
    factorial,
)

__version__ = "0.1.0"

# The suite names live here, not in ``verify``, so that the CLI parser can
# offer them without loading the suites.
SUITES = ("statements", "theorem1", "theorem2", "hsq", "weyl", "exp", "hermite")

_LAZY = {
    **dict.fromkeys(("DiffOp", "Poly1", "hermite"), "diffop"),
    **dict.fromkeys(("CheckResult", "run_suite"), "verify"),
}

__all__ = [
    "EXPAND_METHODS",
    "ExpansionReport",
    "IncompatibleRelationError",
    "closed_form_hsq",
    "closed_form_weyl",
    "essential_expand",
    "exp_defect",
    "expansion_report",
    "free_pair",
    "m_basis",
    "m_derivation_expand",
    "resolve_relation",
    "twisted_expand",
    "weyl_coefficient",
    "weyl_m_text",
    "weyl_triple",
    "DiffOp",
    "Poly1",
    "hermite",
    "Algebra",
    "ContextMismatchError",
    "Generator",
    "NCPoly",
    "Word",
    "commutator",
    "twisted_power",
    "DEFAULT_BUDGET",
    "FAMILIES",
    "BudgetExceededError",
    "InvalidSystemError",
    "MalformedSystemError",
    "RelationSystem",
    "RewriteError",
    "ValidationReport",
    "load_system",
    "make_family",
    "ParamPoly",
    "UnboundParameterError",
    "binom",
    "factorial",
    "SUITES",
    "CheckResult",
    "run_suite",
    "__version__",
]


def __getattr__(name):
    """Load the module of a deferred export (PEP 562) and cache the name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
