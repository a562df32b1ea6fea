"""The free associative algebra with identity over the parameter ring.

Polynomials are sparse maps word -> coefficient, a bare ``int`` or
``Fraction`` when constant and a ``ParamPoly`` otherwise (see
:mod:`ncbinom.scalars`).  A word is a tuple of generators at the API and a
packed ``str`` as a ``terms`` key, one character ``chr(generator.index)``
per letter, so ``(len(w), w)`` sorts keys in the canonical term order:
length, then alphabet position (central generators first, then the rest,
each in declaration order).  ``Algebra.pack`` and ``NCPoly.items``
convert between the two.  No relations are applied here:
``A*B`` and ``B*A`` stay distinct words, which is what makes structural
equality of term maps semantic equality.  Quotients by commutation relations
live in :mod:`ncbinom.rewrite`.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple

from .scalars import ContextMismatchError, ParamPoly, _box, _Sparse


class Generator(namedtuple("Generator", ("name", "central", "index"), defaults=(False, 0))):
    """One letter of the alphabet as the API shows it, packed to
    ``chr(index)`` in a ``terms`` key; ``central`` marks it as commuting
    with everything (only the rewrite layer acts on this flag); central
    letters take the first indices."""

    __slots__ = ()


# A word (monomial of the free algebra): possibly empty tuple of generators.
Word = tuple[Generator, ...]


def _run_length(word, name) -> str:
    """Run-length rendering of a word of any letter type, named by ``name``."""
    parts = []
    for letter, run in itertools.groupby(word):
        count = len(list(run))
        parts.append(name(letter) if count == 1 else f"{name(letter)}^{count}")
    return "*".join(parts) or "1"


class Algebra:
    """A generator context: an ordered alphabet with centrality flags.

    ``generators`` lists the central letters first, then the rest, each in
    declaration order.  Equality is structural (same names, flags, order),
    so algebras built independently from the same description interoperate.
    ``central`` is a collection of names; a bare string is refused.
    """

    __slots__ = ("generators", "_by_name", "_codes", "_names")

    def __init__(self, *names: str, central=()):
        if isinstance(central, str):
            raise TypeError(f"central must be a collection of names, not the string {central!r}")
        central = frozenset(central)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        unknown = central - set(names)
        if unknown:
            raise ValueError(f"central flags for unknown generators: {sorted(unknown)}")
        order = sorted(names, key=lambda name: name not in central)  # stable
        self.generators = tuple(
            Generator(name, name in central, i) for i, name in enumerate(order)
        )
        self._by_name = {g.name: g for g in self.generators}
        self._codes = {g: chr(g.index) for g in self.generators}
        self._names = {chr(g.index): g.name for g in self.generators}

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        names = ", ".join(
            f"{g.name}{'*' if g.central else ''}" for g in self.generators
        )
        return f"Algebra({names})"

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def has_generator(self, name: str) -> bool:
        return name in self._by_name

    def word(self, *names: str) -> Word:
        return tuple(self.generator(name) for name in names)

    def pack(self, word: Word) -> str:
        """A word of this algebra's generators as a packed ``terms`` key.

        A generator of another alphabet raises ``ValueError`` rather than
        being read as the letter at its index.  A bare generator is itself a
        tuple, so it is refused rather than read as a word of its fields.
        """
        if isinstance(word, Generator):
            raise TypeError(f"expected a word (a tuple of generators), got generator {word.name!r}")
        try:
            return "".join([self._codes[g] for g in word])
        except KeyError as exc:
            name = getattr(exc.args[0], "name", exc.args[0])
            raise ValueError(f"generator {name!r} is not in this algebra") from None

    def unpack(self, key: str) -> Word:
        """A packed ``terms`` key as a word of generators."""
        return tuple(map(self.generators.__getitem__, map(ord, key)))

    def _poly(self, terms: dict) -> NCPoly:
        """A polynomial over packed, already pruned terms."""
        new = object.__new__(NCPoly)
        new.algebra = self
        new.terms = terms
        return new

    def gen(self, name: str) -> NCPoly:
        """The generator as a polynomial atom."""
        return self._poly({chr(self.generator(name).index): 1})

    def zero(self) -> NCPoly:
        return self._poly({})

    def one(self) -> NCPoly:
        return self._poly({"": 1})


class NCPoly(_Sparse):
    """Finite sum of words weighted by scalars of the parameter ring; immutable.

    ``terms`` is keyed by packed words (see :meth:`Algebra.pack`);
    :meth:`items` reads them back as words of generators.

    A constant weight is stored as a bare ``int`` or ``Fraction``, any other
    as a ``ParamPoly``.

    Words multiply by concatenation, and only polynomials of one algebra
    context combine; mixing contexts raises ``ContextMismatchError``.
    """

    __slots__ = ("algebra",)

    _UNIT = ""
    _key_mul = staticmethod(operator.add)
    # Keys sort by code point, which is alphabet position, and the stable
    # sort by length keeps that order within each length.
    _order = staticmethod(len)

    def __init__(self, algebra: Algebra, terms):
        """Build from a word -> scalar map or (word, scalar) pairs; words are packed."""
        self.algebra = algebra
        super().__init__(terms)

    def _key(self, word: Word) -> str:
        return self.algebra.pack(word)

    def _new(self, terms: dict) -> NCPoly:
        return self.algebra._poly(terms)

    def _same_context(self, other: NCPoly) -> bool:
        return self.algebra is other.algebra or self.algebra == other.algebra

    def _key_text(self, key: str) -> str:
        return _run_length(key, self.algebra._names.__getitem__)

    # Bound here, not only inherited, so that per-class tracing
    # (perfbench/tracer.py) counts products and renders.
    __mul__ = _Sparse.__mul__
    text = _Sparse.text

    def items(self):
        """Yield (word of generators, stored coefficient) for each term."""
        unpack = self.algebra.unpack
        for key, coeff in self.terms.items():
            yield unpack(key), coeff

    def degree(self) -> int | None:
        """Maximal word length, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def truncate(self, max_degree: int) -> NCPoly:
        """Drop all words longer than ``max_degree``."""
        return self._new({w: c for w, c in self.terms.items() if len(w) <= max_degree})

    def coefficient(self, word: Word) -> ParamPoly:
        """The coefficient of ``word``, always as a ``ParamPoly``; 0 for a
        word with a letter from another alphabet."""
        try:
            return _box(self.terms.get(self.algebra.pack(word), 0))
        except ValueError:
            return _box(0)

    def to_json(self) -> dict:
        name = self.algebra._names.__getitem__
        return {
            "terms": [
                {"coeff": str(coeff), "word": list(map(name, key))}
                for key, coeff in self.canonical_terms()
            ]
        }

    @classmethod
    def from_json(cls, algebra: Algebra, doc: dict) -> NCPoly:
        pairs = []
        for entry in doc["terms"]:
            names = entry["word"]
            if not isinstance(names, list):
                raise TypeError(f"a word must be a list of names, got {names!r}")
            pairs.append((algebra.word(*names), ParamPoly.from_text(entry["coeff"])))
        return cls(algebra, pairs)


def commutator(x: NCPoly, p: NCPoly) -> NCPoly:
    """The inner derivation of x applied to p: x*p - p*x."""
    return x * p - p * x


def twisted_powers(a: NCPoly, b: NCPoly, k: int):
    """Yield T_0 .. T_k, where T_0 = 1 and T_{j+1} = a*T_j + [b, T_j].

    T_j is the twisted power (a + d_b)^j 1; each element costs one step of
    the map.  T_j is homogeneous of degree j when a and b are generators,
    since both left multiplication and the commutator raise degree by 1.
    """
    if a.algebra != b.algebra:
        raise ContextMismatchError("a and b must share an algebra context")
    if k < 0:
        raise ValueError("k must be non-negative")
    result = a.algebra.one()
    yield result
    for _ in range(k):
        result = a * result + commutator(b, result)
        yield result


def twisted_power(a: NCPoly, b: NCPoly, k: int) -> NCPoly:
    """Apply X -> a*X + [b, X] to the identity k times: T_k of
    :func:`twisted_powers`."""
    *_, result = twisted_powers(a, b, k)
    return result
