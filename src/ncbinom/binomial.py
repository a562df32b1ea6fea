"""Binomial expansion engines over a non-commutative pair A, B.

Everything here is exact free-algebra computation.  The two expansion
families are the twisted-power form (binomial sum over {(A+d_B)^k 1} B^(n-k))
and the M-basis form (ordered binomial sums M_n plus derivation corrections),
together with the closed forms they specialize to when the commutator [B, A]
is h*A^2 (gamma coefficients) or a central element C (Weyl-style).

The brute-force oracle throughout is ``(a + b) ** n`` in the free algebra,
the ``brute`` engine of ``_METHODS`` (method -> engine and required family).
Every engine refuses a negative n with "n must be non-negative".  Each
function computes one path; the D_k recurrence and the Weyl coefficient
triangle that check them are private to :mod:`ncbinom.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import Algebra, NCPoly, commutator, twisted_power, twisted_powers
from .rewrite import FAMILIES, RelationSystem, load_system, make_family
from .scalars import ParamPoly, binom, factorial, pairings


class IncompatibleRelationError(ValueError):
    """An expansion method was paired with a relation it does not fit."""


def free_pair() -> Algebra:
    """The free two-generator context the expansions live in."""
    return Algebra("A", "B")


def weyl_triple() -> Algebra:
    """Generators A, B plus a central C to absorb the commutator."""
    return Algebra("C", "A", "B", central=("C",))


def _ab(algebra: Algebra | None) -> tuple[Algebra, NCPoly, NCPoly]:
    if algebra is None:
        algebra = free_pair()
    return algebra, algebra.gen("A"), algebra.gen("B")


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")


def _ordered_sum(coeffs: list, algebra: Algebra | None) -> NCPoly:
    """sum_k coeffs[k] A^k B^(n-k), where n = len(coeffs) - 1; no coeff is 0."""
    algebra, _, _ = _ab(algebra)
    a, b = (chr(algebra.generator(name).index) for name in "AB")
    n = len(coeffs) - 1
    return algebra._poly(
        {a * k + b * (n - k): NCPoly._coeff(coeff) for k, coeff in enumerate(coeffs)}
    )


def _essential_parts(a: NCPoly, b: NCPoly, n: int):
    """Yield D_0 .. D_n as T_k - A^k, both running in one pass."""
    for t_k, a_k in zip(twisted_powers(a, b, n), a.powers(n)):
        yield t_k - a_k


def m_basis(n: int, algebra: Algebra | None = None) -> NCPoly:
    """The ordered binomial sum M_n = sum_k C(n,k) A^k B^(n-k)."""
    _check_n(n)
    return _ordered_sum([binom(n, k) for k in range(n + 1)], algebra)


def twisted_expand(n: int, algebra: Algebra | None = None) -> NCPoly:
    """Binomial expansion sum_k C(n,k) {(A+d_B)^k 1} B^(n-k).

    Free-algebra equal to (A+B)^n: the twisted powers absorb every
    reordering correction while the binomial coefficient survives.  Each
    T_k is its own ``twisted_power`` call, k steps of the map, which is the
    per-call step count perfbench/tracer.py reports as
    ``binomial.twisted_steps``.
    """
    _check_n(n)
    algebra, a, b = _ab(algebra)
    b_powers = list(b.powers(n))
    total = algebra.zero()
    for k in range(n + 1):
        total = total + binom(n, k) * twisted_power(a, b, k) * b_powers[n - k]
    return total


def _brute_power(n: int, algebra: Algebra | None = None) -> NCPoly:
    """(A+B)^n by repeated multiplication: the free oracle of every method."""
    _check_n(n)
    algebra, a, b = _ab(algebra)
    return (a + b) ** n


def essential_part(k: int, algebra: Algebra | None = None) -> NCPoly:
    """D_k = (A+d_B)^k 1 - A^k, the deviation from the commutative power.

    D_0 = D_1 = 0, and D_k vanishes identically whenever A and B commute.
    """
    algebra, a, b = _ab(algebra)
    return twisted_power(a, b, k) - a ** k


def essential_expand(n: int, algebra: Algebra | None = None) -> NCPoly:
    """Expansion M_n + sum_k C(n,k) D_k B^(n-k); equals (A+B)^n freely."""
    algebra, a, b = _ab(algebra)
    total = m_basis(n, algebra)
    b_powers = list(b.powers(n))
    for k, d_k in enumerate(_essential_parts(a, b, n)):
        if not d_k.is_zero():
            total = total + binom(n, k) * d_k * b_powers[n - k]
    return total


def m_derivation_expand(n: int, algebra: Algebra | None = None) -> NCPoly:
    """Expansion M_n + sum_{k<=n-2} (A+B)^k d_B(M_{n-1-k}).

    The (A+B)^k factors are a running brute product, so the identity is
    checked against an independent path, not through itself.
    """
    algebra, a, b = _ab(algebra)
    total = m_basis(n, algebra)
    for k, s_k in zip(range(n - 1), (a + b).powers(n)):
        total = total + s_k * commutator(b, m_basis(n - 1 - k, algebra))
    return total


def gamma_factors(n: int):
    """Yield gamma_0 .. gamma_n by gamma_{k+1} = (1 + k*h) gamma_k from gamma_0 = 1.

    Each element costs one product with the one before.
    """
    _check_n(n)
    h = ParamPoly.param("h")
    value = ParamPoly.one()
    yield value
    for k in range(n):
        value = (1 + k * h) * value
        yield value


def gamma_factor(n: int) -> ParamPoly:
    """The product (1+h)(1+2h)...(1+(n-1)h); empty product for n <= 1.

    The last element of :func:`gamma_factors`.  Evaluates to 1 at h=0 and
    to n! at h=1.
    """
    *_, value = gamma_factors(n)
    return value


def closed_form_hsq(n: int, algebra: Algebra | None = None) -> NCPoly:
    """Ordered-basis closed form sum_k C(n,k) gamma_k(h) A^k B^(n-k).

    Quotient-equal to (A+B)^n under the relation [B, A] = h*A^2.
    """
    return _ordered_sum(
        [binom(n, k) * gamma for k, gamma in enumerate(gamma_factors(n))], algebra
    )


def weyl_coefficient(n: int, k: int, algebra: Algebra | None = None) -> NCPoly:
    """Central coefficient n!/((n-2k)! k! 2^k) * C^k of the Weyl closed form."""
    _check_n(n)
    if algebra is None:
        algebra = weyl_triple()
    if k < 0 or 2 * k > n:
        raise ValueError(f"k must satisfy 0 <= 2k <= n, got n={n}, k={k}")
    c = chr(algebra.generator("C").index)
    return algebra._poly({c * k: NCPoly._coeff(pairings(n, k))})


def closed_form_weyl(n: int, algebra: Algebra | None = None) -> NCPoly:
    """Closed form sum_{2k<=n} M_{n-2k} * A(n,k) when [B, A] = C is central.

    Quotient-equal to (A+B)^n under the Weyl relation; the C powers are
    kept on the right as constructed (they are central anyway).
    """
    _check_n(n)
    if algebra is None:
        algebra = weyl_triple()
    total = algebra.zero()
    for k in range(n // 2 + 1):
        total = total + m_basis(n - 2 * k, algebra) * weyl_coefficient(n, k, algebra)
    return total


def weyl_m_text(n: int) -> str:
    """Render the Weyl closed form over the M-basis, e.g. ``M_2 + C``."""
    _check_n(n)
    pieces = []
    for k in range(n // 2 + 1):
        value = pairings(n, k)
        m = n - 2 * k
        factors = []
        if value != 1:
            factors.append(str(value))
        if k == 1:
            factors.append("C")
        elif k > 1:
            factors.append(f"C^{k}")
        if m > 0:
            factors.append(f"M_{m}")
        pieces.append("*".join(factors) if factors else "M_0")
    return " + ".join(pieces)


def _exp_series(p: NCPoly, order: int) -> NCPoly:
    """sum_{k<=order} p^k / k!, truncated to total degree <= order."""
    total = p.algebra.zero()
    for k, power in enumerate(p.powers(order)):
        total = total + power * (1 / factorial(k))
    return total.truncate(order)


def exp_defect(which: str, order: int, algebra: Algebra | None = None) -> NCPoly:
    """Defect of an exponential factorization, truncated by total degree.

    which="factored": e^(A+B) - [e^(A+d_B) 1] e^B
    which="split":    e^(A+B) - e^A e^B - sum_k (1/k!) D_k e^B

    Both identities hold degree by degree, so the truncated defect is
    exactly zero for every order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if which not in ("factored", "split"):
        raise ValueError(f"unknown identity {which!r}")
    algebra, a, b = _ab(algebra)
    lhs = _exp_series(a + b, order)
    e_b = _exp_series(b, order)
    if which == "factored":
        twisted = algebra.zero()
        for k, t_k in enumerate(twisted_powers(a, b, order)):
            twisted = twisted + t_k * (1 / factorial(k))
        rhs = twisted * e_b
    else:
        rhs = _exp_series(a, order) * e_b
        for k, d_k in enumerate(_essential_parts(a, b, order)):
            if not d_k.is_zero():
                rhs = rhs + d_k * (1 / factorial(k)) * e_b
    return (lhs - rhs).truncate(order)


def resolve_relation(relation) -> tuple[RelationSystem | None, str | None]:
    """Accept None, a family name, a JSON file path, or a RelationSystem.

    Returns the system plus the identifier used in reports.
    """
    if relation is None:
        return None, None
    if isinstance(relation, RelationSystem):
        return relation, relation.name or "user"
    if isinstance(relation, str):
        if relation in FAMILIES:
            return make_family(relation), relation
        return load_system(relation), relation
    raise TypeError(f"cannot interpret {relation!r} as a relation system")


# expand method -> (engine f(n, algebra), relation family it requires or None)
_METHODS = {
    "brute": (_brute_power, None),
    "theorem1": (twisted_expand, None),
    "corollary1": (essential_expand, None),
    "theorem2": (m_derivation_expand, None),
    "closed_hsq": (closed_form_hsq, "hsq"),
    "closed_weyl": (closed_form_weyl, "weyl"),
}
EXPAND_METHODS = tuple(_METHODS)


@dataclass
class ExpansionReport:
    """One expansion next to its brute-force oracle verdict."""

    n: int
    method: str
    relation: str | None
    oracle_match: bool
    result: NCPoly

    def to_json(self) -> dict:
        """The fields in declaration order, with the result as JSON."""
        return {**vars(self), "result": self.result.to_json()}


def expansion_report(n: int, method: str, relation=None) -> ExpansionReport:
    """Run one expansion method and compare it against (A+B)^n.

    The engine and its required family (supplied when the relation is
    omitted) come from ``_METHODS``.  Without a relation the result is
    compared with the free power, so a free ``brute`` result is its own
    oracle.  Under a relation its normal form is compared with the quotient
    power ``system.power(A+B, n)``, which never forms the 2^n free words.
    """
    _check_n(n)
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    engine, required = _METHODS[method]
    system, label = resolve_relation(relation)
    if required is not None:
        if system is None:
            system, label = make_family(required), required
        elif label != required:
            raise IncompatibleRelationError(
                f"method {method} requires the {required} relation, got {label}"
            )
    algebra = system.algebra if system is not None else free_pair()
    if not (algebra.has_generator("A") and algebra.has_generator("B")):
        raise IncompatibleRelationError(
            "the relation system must declare generators A and B"
        )
    result = engine(n, algebra)
    if system is None:
        match = engine is _brute_power or result == _brute_power(n, algebra)
    else:
        s = algebra.gen("A") + algebra.gen("B")
        match = system.normal_form(result) == system.power(s, n)
    return ExpansionReport(n, method, label, match, result)
