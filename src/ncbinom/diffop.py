"""Differential operators acting on polynomials in one variable x.

Operators are finite sums of normal-ordered terms x^a * D^b (all powers of x
to the left of all derivatives), with ParamPoly coefficients so lambda can
stay symbolic.  Restricting the function space to polynomials keeps every
action exact and equality decidable.

This realizes the abstract expansions: A = x with B = lam*D gives a central
commutator [B, A] = lam, and B = x^2*D gives [B, A] = A^2.  Iterating
(x - D) on the seed 1 generates the probabilists' Hermite polynomials.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .freealg import NCPoly
from .scalars import ParamPoly, _add_term, _Sparse, factorial

HERMITE_PATHS = ("operator", "explicit_sum", "recurrence_oracle")


class Poly1(_Sparse):
    """Sparse polynomial in x: map degree -> ParamPoly, no zero entries.

    Rendered in descending degree, e.g. ``x^3 - 3*x``.
    """

    __slots__ = ()

    _UNIT = 0
    _key = staticmethod(int)
    _key_mul = staticmethod(operator.add)
    _order = staticmethod(operator.neg)

    @staticmethod
    def _key_text(degree: int) -> str:
        return "x" if degree == 1 else f"x^{degree}"

    @classmethod
    def zero(cls) -> Poly1:
        return cls()

    @classmethod
    def one(cls) -> Poly1:
        return cls({0: 1})

    @classmethod
    def x_power(cls, n: int) -> Poly1:
        return cls({n: 1})

    def degree(self) -> int | None:
        return max(self.terms) if self.terms else None

    def coefficient(self, degree: int) -> ParamPoly:
        return self.terms.get(degree, ParamPoly.zero())

    def to_json(self) -> dict:
        return {"coeffs": {str(d): c.text() for d, c in self.canonical_terms()}}

    @classmethod
    def from_json(cls, doc: dict) -> Poly1:
        return cls(
            {int(d): ParamPoly.from_text(t) for d, t in doc["coeffs"].items()}
        )


class DiffOp(_Sparse):
    """Normal-ordered operator: sparse map (a, b) -> coefficient of x^a D^b.

    Composition re-normalizes immediately through D^b x^a =
    sum_j C(b,j) * a!/(a-j)! * x^(a-j) D^(b-j), so representations stay
    unique and equality is structural.
    """

    __slots__ = ()

    _UNIT = (0, 0)

    @staticmethod
    def _key(key) -> tuple[int, int]:
        return (int(key[0]), int(key[1]))

    @staticmethod
    def _order(key: tuple[int, int]):
        return (key[0] + key[1], key)

    @staticmethod
    def _key_text(key: tuple[int, int]) -> str:
        a, b = key
        factors = []
        if a:
            factors.append("x" if a == 1 else f"x^{a}")
        if b:
            factors.append("D" if b == 1 else f"D^{b}")
        return "*".join(factors)

    @classmethod
    def zero(cls) -> DiffOp:
        return cls()

    @classmethod
    def identity(cls) -> DiffOp:
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, xpow: int, dpow: int, coeff=1) -> DiffOp:
        return cls({(xpow, dpow): coeff})

    @classmethod
    def x(cls, power: int = 1) -> DiffOp:
        return cls.term(power, 0)

    @classmethod
    def d(cls, power: int = 1) -> DiffOp:
        return cls.term(0, power)

    def compose(self, other: DiffOp) -> DiffOp:
        """self after other, normal-ordered; acts like operator product."""
        terms: dict[tuple[int, int], ParamPoly] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                base = c1 * c2
                for j in range(min(b1, a2) + 1):
                    key = (a1 + a2 - j, b1 + b2 - j)
                    _add_term(terms, key, base * (math.comb(b1, j) * math.perm(a2, j)))
        return self._new(terms)

    def _mul(self, other: DiffOp) -> DiffOp:
        return self.compose(other)

    def apply(self, p: Poly1) -> Poly1:
        """Act on a polynomial; exact falling-factorial derivative action."""
        terms: dict[int, ParamPoly] = {}
        for (a, b), oc in self.terms.items():
            for m, pc in p.terms.items():
                if m >= b:
                    _add_term(terms, m - b + a, oc * pc * math.perm(m, b))
        return p._new(terms)


def realize(p: NCPoly, mapping: dict[str, DiffOp]) -> DiffOp:
    """Interpret a free-algebra element as an operator, word by word."""
    total = DiffOp.zero()
    for word, coeff in p.terms.items():
        op = DiffOp.identity()
        for g in word:
            op = op.compose(mapping[g.name])
        total = total + coeff * op
    return total


def hermite(n: int, via: str = "operator") -> Poly1:
    """Probabilists' Hermite polynomial He_n.

    via="operator" composes (x - D)^n and applies it to 1;
    via="explicit_sum" evaluates n! sum_k (-1)^k x^(n-2k)/((n-2k)! k! 2^k);
    via="recurrence_oracle" iterates He_{m+1} = x*He_m - m*He_{m-1}, an
    independent check path.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if via == "operator":
        op = DiffOp.x() - DiffOp.d()
        return (op ** n).apply(Poly1.one())
    if via == "explicit_sum":
        coeffs = {}
        for k in range(n // 2 + 1):
            m = n - 2 * k
            value = factorial(n) / (factorial(m) * factorial(k) * Fraction(2) ** k)
            coeffs[m] = -value if k % 2 else value
        return Poly1(coeffs)
    if via == "recurrence_oracle":
        prev, cur = Poly1.one(), Poly1.x_power(1)
        if n == 0:
            return prev
        for m in range(1, n):
            prev, cur = cur, Poly1.x_power(1) * cur - m * prev
        return cur
    raise ValueError(f"unknown via {via!r}")


def lambda_expansion(n: int) -> Poly1:
    """(x + lam*D)^n applied to 1, in closed form.

    sum_k x^(n-2k) * n!/((n-2k)! k! 2^k) * lam^k; at lam = -1 this is He_n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    lam = ParamPoly.param("lam")
    coeffs = {}
    for k in range(n // 2 + 1):
        m = n - 2 * k
        value = factorial(n) / (factorial(m) * factorial(k) * Fraction(2) ** k)
        coeffs[m] = value * lam ** k
    return Poly1(coeffs)
