"""Exact coefficient arithmetic and the sparse-combination core.

The coefficient ring is Q[h, lam, ...]: polynomials in named central scalar
parameters with arbitrary-precision rational coefficients.  A scalar that
enters a coefficient is stored as an ``int`` when it is integral, else as a
stdlib ``fractions.Fraction`` (reduced, positive denominator), so sums and
products of integers stay in C.  A ``Fraction`` result that happens to be
integral is kept as it is; the two types compare and hash equal, so
structural equality stays exact either way.

Every value type of the package (``ParamPoly`` here, ``NCPoly`` in
:mod:`ncbinom.freealg`, ``Poly1`` and ``DiffOp`` in :mod:`ncbinom.diffop`) is
a finite linear combination of keys and shares the ring plumbing of
``_Sparse``; each type supplies only its key product, key text and term
order.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# A monomial in the parameters: sorted tuple of (name, power), powers > 0.
Monomial = tuple[tuple[str, int], ...]


class UnboundParameterError(ValueError):
    """Raised when evaluation meets a parameter with no binding."""

    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} is not bound")
        self.name = name


class ContextMismatchError(ValueError):
    """Arithmetic attempted between values from different algebra contexts."""


def binom(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k) as a Fraction; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binom requires non-negative arguments")
    return Fraction(math.comb(n, k))


def factorial(n: int) -> Fraction:
    """Exact n! as a Fraction."""
    if n < 0:
        raise ValueError("factorial requires a non-negative argument")
    return Fraction(math.factorial(n))


def pairings(n: int, k: int) -> Fraction:
    """n!/((n-2k)! k! 2^k): the ways to pick k disjoint pairs from n points.

    The coefficients of the Weyl closed form and of the Hermite polynomials.
    """
    return factorial(n) / (factorial(n - 2 * k) * factorial(k) * Fraction(2) ** k)


def _add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff for a nonzero coeff, dropping the entry if it cancels."""
    if key in terms:
        total = terms[key] + coeff
        if total:
            terms[key] = total
        else:
            del terms[key]
    else:
        terms[key] = coeff


def _coeff_text(coeff) -> tuple[bool, str]:
    """(negative, text of the magnitude) of one coefficient.

    A coefficient that is a sum of several terms has no sign of its own, so
    it is shown whole, in parentheses.
    """
    if isinstance(coeff, (int, Fraction)):
        return coeff < 0, str(abs(coeff))
    if len(coeff.terms) > 1:
        return False, f"({coeff.text()})"
    (value,) = coeff.terms.values()
    return value < 0, (-coeff if value < 0 else coeff).text()


class _Sparse:
    """A finite linear combination: ``terms`` maps keys to nonzero coefficients.

    No stored coefficient is zero, so structural equality of the term map is
    semantic equality.  Instances are immutable; treat ``terms`` as
    read-only.  Coefficients are ``ParamPoly`` values (``int`` or
    ``Fraction`` in ``ParamPoly`` itself), and the scalars ``int``,
    ``Fraction`` and ``ParamPoly`` lift onto the unit key.  A subclass
    supplies its key product ``_key_mul`` (or overrides ``_mul`` when one
    key pair yields several keys), its key text ``_key_text`` and its term
    order ``_order``, a sort key on keys.
    """

    __slots__ = ("terms",)

    _UNIT = ()  # the key of the multiplicative unit

    def __init__(self, terms: dict | None = None):
        """Build from a key -> scalar map, converting values, dropping zeros."""
        self.terms = {}
        for key, value in (terms or {}).items():
            coeff = self._coeff(value)
            if coeff:
                self.terms[self._key(key)] = coeff

    @staticmethod
    def _coeff(value) -> ParamPoly:
        """A scalar from outside as a coefficient."""
        return value if isinstance(value, ParamPoly) else ParamPoly.const(value)

    @staticmethod
    def _key(key):
        """A key from outside in stored form."""
        return key

    def _new(self, terms: dict):
        """An instance of this type and context over already pruned terms."""
        new = object.__new__(type(self))
        new.terms = terms
        return new

    def _same_context(self, other) -> bool:
        return True

    def _lift(self, other):
        """``other`` as this type (a scalar sits on the unit key), else None."""
        if isinstance(other, type(self)):
            if self._same_context(other):
                return other
            raise ContextMismatchError("operands belong to different algebra contexts")
        if isinstance(other, (int, Fraction, ParamPoly)):
            coeff = self._coeff(other)
            return self._new({self._UNIT: coeff} if coeff else {})
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.terms == other.terms and self._same_context(other)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(terms, key, coeff)
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _mul(self, other):
        """The product with ``other`` of this type, one key per key pair."""
        key_mul = self._key_mul
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _add_term(terms, key_mul(k1, k2), c1 * c2)
        return self._new(terms)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        # scalars commute with everything, so the left action is a product
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other * self

    def powers(self, n: int):
        """Yield self^0 .. self^n by repeated multiplication, one product each."""
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self._lift(1)
        yield result
        for _ in range(n):
            result = self * result
            yield result

    def __pow__(self, n: int):
        *_, result = self.powers(n)
        return result

    def substitute(self, bindings: dict):
        """Bind coefficient parameters (e.g. h -> 1), keeping the keys."""
        bound = ((key, coeff.substitute(bindings)) for key, coeff in self.terms.items())
        return self._new({key: coeff for key, coeff in bound if coeff})

    def canonical_terms(self) -> list:
        """(key, coefficient) pairs in this type's term order."""
        order = self._order
        return sorted(self.terms.items(), key=lambda item: order(item[0]))

    def text(self) -> str:
        """Canonical rendering in term order, e.g. ``1 + 3*h + 2*h^2``.

        A negative coefficient turns the joining ``+`` into ``-``, a unit
        coefficient is left out, and the unit key shows the coefficient
        alone.
        """
        pieces = []
        for key, coeff in self.canonical_terms():
            negative, body = _coeff_text(coeff)
            if key != self._UNIT:
                monomial = self._key_text(key)
                body = monomial if body == "1" else f"{body}*{monomial}"
            if pieces:
                pieces.append((" - " if negative else " + ") + body)
            else:
                pieces.append("-" + body if negative else body)
        return "".join(pieces) or "0"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"{type(self).__name__}({self.text()})"


def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    powers = dict(m1)
    for name, p in m2:
        powers[name] = powers.get(name, 0) + p
    return tuple(sorted(powers.items()))


def _monomial_text(mono: Monomial) -> str:
    return "*".join(name if power == 1 else f"{name}^{power}" for name, power in mono)


_TERM_SPLIT = re.compile(r" ([+-]) ")
_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]+))?$")
_NUMBER = re.compile(r"^[0-9]+(?:/[0-9]+)?$")


class ParamPoly(_Sparse):
    """Sparse multivariate polynomial in named parameters over the rationals.

    Terms map a monomial (sorted tuple of (name, power) pairs, no zero
    powers) to a nonzero rational, an ``int`` or a ``Fraction`` (a scalar
    from outside enters as an ``int`` when integral).  Rendered by total
    degree, then exponent vector.
    """

    __slots__ = ()

    @staticmethod
    def _coeff(value):
        """A scalar from outside as a stored rational."""
        if type(value) is int:
            return value
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    _key_mul = staticmethod(_mul_monomials)
    _key_text = staticmethod(_monomial_text)

    @staticmethod
    def _order(mono: Monomial):
        return (sum(p for _, p in mono), mono)

    # Bound here, not only inherited, so that per-class tracing
    # (perfbench/tracer.py) counts the scalar sums and products.
    __add__ = __radd__ = _Sparse.__add__
    __mul__ = __rmul__ = _Sparse.__mul__

    @classmethod
    def zero(cls) -> ParamPoly:
        return cls()

    @classmethod
    def one(cls) -> ParamPoly:
        return cls.const(1)

    @classmethod
    def const(cls, value) -> ParamPoly:
        return cls({(): value})

    @classmethod
    def param(cls, name: str, power: int = 1) -> ParamPoly:
        if power < 0:
            raise ValueError("parameter powers must be non-negative")
        if power == 0:
            return cls.one()
        return cls({((name, power),): 1})

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (error otherwise)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get((), 0))

    def parameters(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def degree(self) -> int:
        """Total degree; 0 for constants (including zero)."""
        return max((sum(p for _, p in mono) for mono in self.terms), default=0)

    def evaluate(self, bindings: dict) -> Fraction:
        """Substitute every parameter and return the exact value.

        Every parameter occurring in the polynomial must be bound.
        """
        result = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for name, power in mono:
                if name not in bindings:
                    raise UnboundParameterError(name)
                value *= Fraction(bindings[name]) ** power
            result += value
        return result

    def substitute(self, bindings: dict) -> ParamPoly:
        """Bind a subset of the parameters, keeping the rest symbolic."""
        out = ParamPoly.zero()
        for mono, coeff in self.terms.items():
            factor = ParamPoly.const(coeff)
            for name, power in mono:
                if name in bindings:
                    factor = factor * (Fraction(bindings[name]) ** power)
                else:
                    factor = factor * ParamPoly.param(name, power)
            out = out + factor
        return out

    @classmethod
    def from_text(cls, text: str) -> ParamPoly:
        """Parse the canonical text rendering back into a polynomial."""
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial text")
        if text == "0":
            return cls.zero()
        pieces = _TERM_SPLIT.split(text)
        terms: dict[Monomial, Fraction] = {}
        sign = Fraction(1)
        for i, piece in enumerate(pieces):
            if i % 2 == 1:
                sign = Fraction(-1) if piece == "-" else Fraction(1)
                continue
            mono, coeff = cls._parse_term(piece)
            terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
        return cls(terms)

    @staticmethod
    def _parse_term(piece: str) -> tuple[Monomial, Fraction]:
        piece = piece.strip()
        coeff = Fraction(1)
        if piece.startswith("-"):
            coeff = Fraction(-1)
            piece = piece[1:]
        powers: dict[str, int] = {}
        for factor in piece.split("*"):
            factor = factor.strip()
            if _NUMBER.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"cannot parse polynomial factor {factor!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            powers[name] = powers.get(name, 0) + power
        mono = tuple(sorted((n, p) for n, p in powers.items() if p > 0))
        return mono, coeff
