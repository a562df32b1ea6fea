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
``_Sparse``, its one constructor from outside (a map or pairs), term order
and ``substitute`` included, which check keys and bindings whatever the
coefficients; each type supplies only its key conversion, key product, key
text and term order ``_order``.  Only ``int`` and ``Fraction`` enter as
rationals: no float, no string.

A ``ParamPoly`` monomial is one ``int`` with a bit field per parameter, in
the order parameters are first used, so the monomial product is ``int``
addition (packed exponent vectors: Monagan and Pearce, CASC 2007).  Keys
are packed or decoded to sorted ``(name, power)`` tuples only at the
boundary, so the field order never shows.  ``ParamPoly`` has no context:
its sums and products with a ``ParamPoly``, ``int`` or ``Fraction`` skip the
lift of ``_Sparse``.

A coefficient of ``NCPoly``, ``Poly1`` or ``DiffOp`` is stored bare, as an
``int`` or ``Fraction``, when it is constant, and as a ``ParamPoly`` only when
it has a non-constant monomial.  Most coefficients the expansions produce are
plain rationals, so their products and sums run in C rather than through
``ParamPoly`` arithmetic.  The public ``coefficient`` accessors box a bare
value back into a ``ParamPoly``.

Products skip the general merge where they can.  A bare ``int`` or
``Fraction`` factor scales each coefficient (0 gives zero, 1 the value
itself), and a factor of one term, on either side, maps each term of the
other to one term (``DiffOp`` composes instead).  Neither needs
``_add_term``: the other key products (word concatenation, monomial
product, degree sum) are cancellative, so distinct keys stay distinct, and
Q[params] has no zero divisors, so no coefficient cancels.  For the same
reason the general product stores a new key directly and merges only a
repeated one.  A difference adds the negated terms in one pass, and an
operand of the same type and context skips ``_lift``.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from fractions import Fraction
from functools import reduce


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
    """terms[key] += coeff for a nonzero coeff, dropping the entry if it cancels.

    A sum of two ``ParamPoly`` coefficients that lands on a constant (as in
    ``h - h + 1``) is stored bare; a product of non-constant polynomials is
    never a nonzero constant, so products need no such check.
    """
    if key in terms:
        total = terms[key] + coeff
        if type(total) is ParamPoly:
            total = _demote(total)
        if total:
            terms[key] = total
        else:
            del terms[key]
    else:
        terms[key] = coeff


def _demote(value: ParamPoly):
    """A ``ParamPoly`` as a stored coefficient: its bare value when constant."""
    terms = value.terms
    if len(terms) > 1:
        return value
    if not terms:
        return 0
    return terms.get(0, value)


def _box(coeff) -> ParamPoly:
    """A stored coefficient as a ``ParamPoly``, for the public accessors."""
    return coeff if type(coeff) is ParamPoly else ParamPoly.const(coeff)


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
    read-only.  A coefficient is a bare ``int`` or ``Fraction`` when it is
    constant and a ``ParamPoly`` only when it has a non-constant monomial
    (in ``ParamPoly`` itself always a bare rational), and the scalars
    ``int``, ``Fraction`` and ``ParamPoly`` lift onto the unit key.  A subclass
    supplies its unit key ``_UNIT``, its key product ``_key_mul`` (or
    overrides ``_mul`` when one key pair yields several keys), its key text
    ``_key_text``, its term order ``_order`` (a sort key; ties go by key)
    and ``_key``, which puts a key from outside in stored form, checked
    whatever its coefficient, as the bindings of ``substitute`` are.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """Build from a key -> scalar map or (key, scalar) pairs, the one way in:
        keys go through ``_key``, keys that store alike are summed, zeros drop."""
        self.terms = {}
        for key, value in (terms.items() if hasattr(terms, "items") else terms):
            key = self._key(key)
            coeff = self._coeff(value)
            if coeff:
                _add_term(self.terms, key, coeff)

    @staticmethod
    def _coeff(value):
        """A scalar from outside (``int``, ``Fraction`` or ``ParamPoly``) as
        a coefficient, bare when constant."""
        if isinstance(value, ParamPoly):
            return _demote(value)
        return ParamPoly._coeff(value)

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
        if type(other) is not type(self) or not self._same_context(other):
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
        if type(other) is not type(self) or not self._same_context(other):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(terms, key, -coeff)
        return self._new(terms)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _mul(self, other):
        """The product with ``other`` of this type, one key per key pair.

        A one-term factor on either side maps distinct keys to distinct
        keys and nonzero coefficients to nonzero ones, so its product is
        built in one pass with no merge.
        """
        key_mul = self._key_mul
        if len(other.terms) == 1:
            ((k2, c2),) = other.terms.items()
            return self._new({key_mul(k1, k2): c1 * c2 for k1, c1 in self.terms.items()})
        if len(self.terms) == 1:
            ((k1, c1),) = self.terms.items()
            return self._new({key_mul(k1, k2): c1 * c2 for k2, c2 in other.terms.items()})
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = key_mul(k1, k2)
                if key in terms:
                    _add_term(terms, key, c1 * c2)
                else:
                    terms[key] = c1 * c2
        return self._new(terms)

    def _scale(self, value):
        """The product with a bare ``int`` or ``Fraction``, key by key."""
        value = ParamPoly._coeff(value)
        if not value:
            return self._new({})
        if value == 1:
            return self
        return self._new({key: coeff * value for key, coeff in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self) and self._same_context(other):
            return self._mul(other)
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        # scalars commute with everything, so the left action is a product
        if isinstance(other, (int, Fraction, ParamPoly)):
            return self * other
        return NotImplemented

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
        """Bind parameters (e.g. h -> 1), keeping the rest; each value is checked once, first."""
        values = {name: ParamPoly._coeff(value) for name, value in bindings.items()}
        return self._bind([(_FIELD * i, values[name])
                           for i, name in enumerate(_NAMES) if name in values])

    def _bind(self, fields: list):
        """``substitute`` over (field offset, value) pairs, coefficient by coefficient."""
        terms = {}
        for key, coeff in self.terms.items():
            if type(coeff) is ParamPoly:
                coeff = _demote(coeff._bind(fields))
            if coeff:
                terms[key] = coeff
        return self._new(terms)

    def canonical_terms(self) -> list:
        """(key, coefficient) pairs by ``_order``, ties by key (a stable sort)."""
        keys = sorted(self.terms)
        keys.sort(key=self._order)
        terms = self.terms
        return [(key, terms[key]) for key in keys]

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


# Field i, the bits from _FIELD*i up, holds the power of _NAMES[i].  Stored
# powers stay below each field's top (guard) bit, so the sum of two never
# carries into the next field, and it sets the guard when it does not fit.
_FIELD = 32
_MASK = (1 << _FIELD) - 1
_NAMES: list[str] = []  # in order of first use
_GUARD = 0  # the guard bit of every registered field
_REGISTRY = threading.Lock()


def _shift(name: str) -> int:
    """The offset of ``name``'s field, registering a name met the first time
    if ``from_text`` can read it back."""
    global _GUARD
    with _REGISTRY:
        if name not in _NAMES:
            if not (isinstance(name, str) and _PARAM_NAME.fullmatch(name)):
                raise ValueError(f"parameter name {name!r} does not match {_PARAM_NAME.pattern}")
            _GUARD |= 1 << (_FIELD * len(_NAMES) + _FIELD - 1)
            _NAMES.append(name)
        return _FIELD * _NAMES.index(name)


def _pack(mono) -> int:
    """A monomial from outside, (name, power) pairs in any order, as a key."""
    powers: dict = {}
    for name, power in mono:
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power {power!r} of parameter {name!r} is not a non-negative integer")
        powers[name] = powers.get(name, 0) + power
    key = 0
    for name, power in powers.items():
        if power >> (_FIELD - 1):
            raise ValueError(f"power {power} of parameter {name!r} is not below 2^{_FIELD - 1}")
        if power:
            key += power << _shift(name)
    return key


def _unpack(key: int) -> tuple:
    """A key as its monomial: sorted (name, power) pairs, powers > 0."""
    mono = []
    for name in _NAMES:
        if key & _MASK:
            mono.append((name, key & _MASK))
        key >>= _FIELD
    return tuple(sorted(mono))


def _monomial_text(key: int) -> str:
    return "*".join(name if power == 1 else f"{name}^{power}" for name, power in _unpack(key))


_TERM_SPLIT = re.compile(r" ([+-]) ")
_PARAM_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FACTOR = re.compile(rf"^({_PARAM_NAME.pattern})(?:\^([0-9]+))?$")
_NUMBER = re.compile(r"^[0-9]+(?:/[0-9]+)?$")


class ParamPoly(_Sparse):
    """Sparse multivariate polynomial in named parameters over the rationals.

    Terms map a packed monomial (see ``_pack``) to a nonzero rational, an
    ``int`` or a ``Fraction`` (a scalar from outside enters as an ``int``
    when integral; no other scalar type enters).  The constructor takes
    monomials as (name, power) pairs in any order, in a map or in
    (monomial, scalar) pairs; ``_pack`` merges repeated names, and monomials
    that pack alike are summed.  Rendered by total degree, then the sorted
    (name, power) tuple.
    """

    __slots__ = ()

    _UNIT = 0
    _key = staticmethod(_pack)
    _key_mul = staticmethod(operator.add)
    _key_text = staticmethod(_monomial_text)

    def __reduce__(self):
        # pickle decoded monomials: another process may order the fields otherwise
        return ParamPoly, ({_unpack(key): c for key, c in self.terms.items()},)

    @staticmethod
    def _coeff(value):
        """An ``int`` or ``Fraction`` from outside as a stored rational."""
        if type(value) is int:
            return value
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        if not isinstance(value, int):
            raise TypeError(f"a scalar must be an int or a Fraction, not {type(value).__name__}")
        return int(value)

    @staticmethod
    def _order(key: int):
        mono = _unpack(key)
        return (sum(p for _, p in mono), mono)

    def __add__(self, other):
        if type(other) is ParamPoly:
            items = other.terms.items()
        elif isinstance(other, (int, Fraction)):
            other = self._coeff(other)
            items = ((0, other),) if other else ()
        else:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in items:
            total = terms.get(key, 0) + coeff
            if total:
                terms[key] = total
            else:
                del terms[key]
        return self._new(terms)

    def __mul__(self, other):
        if type(other) is ParamPoly:
            product = self._mul(other)
            overflow = _GUARD & reduce(operator.or_, product.terms, 0)
            if overflow:
                name = _NAMES[(overflow.bit_length() - 1) // _FIELD]
                raise OverflowError(f"a power of parameter {name!r} reaches 2^{_FIELD - 1}")
            return product
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

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
        return cls({((name, power),): 1})

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (error otherwise)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.terms.get(0, 0))

    def parameters(self) -> set[str]:
        return {name for key in self.terms for name, _ in _unpack(key)}

    def degree(self) -> int:
        """Total degree; 0 for constants (including zero)."""
        return max((self._order(key)[0] for key in self.terms), default=0)

    def evaluate(self, bindings: dict) -> Fraction:
        """The exact value with every parameter bound; else names the smallest unbound."""
        unbound = self.parameters().difference(bindings)
        if unbound:
            raise UnboundParameterError(min(unbound))
        return self.substitute(bindings).constant_value()

    def _bind(self, fields: list) -> ParamPoly:
        """Clear each bound field in place, folding ``value ** power`` into the coefficient."""
        terms: dict = {}
        for key, coeff in self.terms.items():
            for shift, value in fields:
                power = key >> shift & _MASK
                if power:
                    coeff *= value ** power
                    key -= power << shift
            if coeff:
                _add_term(terms, key, coeff)
        return self._new(terms)

    @classmethod
    def from_text(cls, text: str) -> ParamPoly:
        """Parse the canonical text rendering back into a polynomial."""
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial text")
        pairs = []
        sign = 1
        for i, piece in enumerate(_TERM_SPLIT.split(text)):
            if i % 2 == 1:
                sign = -1 if piece == "-" else 1
                continue
            mono, coeff = cls._parse_term(piece)
            pairs.append((mono, sign * coeff))
        return cls(pairs)

    @staticmethod
    def _parse_term(piece: str) -> tuple[tuple, Fraction]:
        piece = piece.strip()
        coeff = Fraction(1)
        if piece.startswith("-"):
            coeff = Fraction(-1)
            piece = piece[1:]
        mono = []
        for factor in piece.split("*"):
            factor = factor.strip()
            if _NUMBER.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(
                        f"zero denominator in polynomial factor {factor!r}"
                    ) from None
                continue
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"cannot parse polynomial factor {factor!r}")
            mono.append((m.group(1), int(m.group(2) or 1)))
        return tuple(mono), coeff
