"""Exact symbolic engine for non-commutative binomial expansions.

Layers: exact scalars (rationals, parameter polynomials), the free
associative algebra, normal-ordering rewrite systems, the binomial
expansion engines and closed forms, and a differential-operator
realization on polynomials.
"""

from .binomial import (
    EXPAND_METHODS,
    ExpansionReport,
    IncompatibleRelationError,
    closed_form_hsq,
    closed_form_weyl,
    essential_expand,
    essential_part,
    exp_defect,
    expansion_report,
    free_pair,
    gamma_factor,
    m_basis,
    m_derivation_expand,
    resolve_relation,
    twisted_expand,
    weyl_coefficient,
    weyl_m_text,
    weyl_triple,
)
from .diffop import (
    DiffOp,
    Poly1,
    hermite,
    lambda_expansion,
    realize,
)
from .freealg import (
    Algebra,
    ContextMismatchError,
    Generator,
    NCPoly,
    Word,
    commutator,
    twisted_power,
    word_text,
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
from .verify import SUITES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "EXPAND_METHODS",
    "ExpansionReport",
    "IncompatibleRelationError",
    "closed_form_hsq",
    "closed_form_weyl",
    "essential_expand",
    "essential_part",
    "exp_defect",
    "expansion_report",
    "free_pair",
    "gamma_factor",
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
    "lambda_expansion",
    "realize",
    "Algebra",
    "ContextMismatchError",
    "Generator",
    "NCPoly",
    "Word",
    "commutator",
    "twisted_power",
    "word_text",
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
