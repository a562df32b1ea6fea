"""Differential operators acting on polynomials in one variable x.

Operators are finite sums of normal-ordered terms x^a * D^b (all powers of x
to the left of all derivatives), with coefficients in the parameter ring so
lambda can stay symbolic; a constant coefficient is a bare rational, as in
every value type.  Restricting the function space to polynomials keeps every
action exact and equality decidable.

This realizes the abstract expansions: A = x with B = lam*D gives a central
commutator [B, A] = lam, and B = x^2*D gives [B, A] = A^2.  Iterating
(x - D) on the seed 1 generates the probabilists' Hermite polynomials; the
paths that check them, the realization of free-algebra elements and the
closed form of (x + lam*D)^n 1 are private to :mod:`ncbinom.verify`.
"""

from __future__ import annotations

import math
import operator

from .scalars import ParamPoly, _add_term, _box, _Sparse


def _degree(value) -> int:
    """A degree from outside, an ``int`` or a string of decimal digits."""
    if type(value) is int and value >= 0:
        return value
    if type(value) is str and value.isascii() and value.isdigit():
        return int(value)
    raise ValueError(f"degree {value!r} is not a non-negative integer")


class Poly1(_Sparse):
    """Sparse polynomial in x: map degree -> coefficient, no zero entries.

    Rendered in descending degree, e.g. ``x^3 - 3*x``.
    """

    __slots__ = ()

    _UNIT = 0
    _key = staticmethod(_degree)
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
        """The coefficient of x^degree, always as a ``ParamPoly``; 0 for a
        degree that ``_degree`` refuses."""
        try:
            return _box(self.terms.get(_degree(degree), 0))
        except ValueError:
            return _box(0)

    def to_json(self) -> dict:
        return {"coeffs": {str(d): str(c) for d, c in self.canonical_terms()}}

    @classmethod
    def from_json(cls, doc: dict) -> Poly1:
        return cls({d: ParamPoly.from_text(t) for d, t in doc["coeffs"].items()})


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
        return (_degree(key[0]), _degree(key[1]))

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
    def term(cls, xpow: int, dpow: int) -> DiffOp:
        return cls({(xpow, dpow): 1})

    @classmethod
    def x(cls) -> DiffOp:
        return cls.term(1, 0)

    @classmethod
    def d(cls) -> DiffOp:
        return cls.term(0, 1)

    def compose(self, other: DiffOp) -> DiffOp:
        """self after other, normal-ordered; acts like operator product."""
        terms: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                base = c1 * c2
                for j in range(min(b1, a2) + 1):
                    key = (a1 + a2 - j, b1 + b2 - j)
                    _add_term(terms, key, base * (math.comb(b1, j) * math.perm(a2, j)))
        return self._new(terms)

    _mul = compose

    def apply(self, p: Poly1) -> Poly1:
        """Act on a polynomial; exact falling-factorial derivative action."""
        terms: dict = {}
        for (a, b), oc in self.terms.items():
            for m, pc in p.terms.items():
                if m >= b:
                    _add_term(terms, m - b + a, oc * pc * math.perm(m, b))
        return p._new(terms)


def hermite_sequence(n: int):
    """Yield He_0 .. He_n as (x - D)^j 1, each power one step from the one before."""
    if n < 0:
        raise ValueError("n must be non-negative")
    one = Poly1.one()
    for power in (DiffOp.x() - DiffOp.d()).powers(n):
        yield power.apply(one)


def hermite(n: int, via: str = "operator") -> Poly1:
    """Probabilists' Hermite polynomial He_n = (x - D)^n 1.

    ``via`` runs a check path of :mod:`ncbinom.verify` by name instead, only
    because ``perfbench/baseline.py`` times "explicit_sum" and
    "recurrence_oracle" that way.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if via != "operator":
        from .verify import _hermite_oracle
        return _hermite_oracle(n, via)
    *_, result = hermite_sequence(n)
    return result

