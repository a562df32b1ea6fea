"""The free associative algebra with identity over the parameter ring.

Words are tuples of generators, polynomials are sparse maps word -> ParamPoly.
No relations are applied here: ``A*B`` and ``B*A`` stay distinct words, which
is what makes structural equality of term maps semantic equality.  Quotients
by commutation relations live in :mod:`ncbinom.rewrite`.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from .scalars import ContextMismatchError, ParamPoly, _Sparse


class Generator(NamedTuple):
    """One symbol of the alphabet; ``central`` marks it as commuting with
    everything (only the rewrite layer acts on this flag).

    A tuple, so a word hashes and compares letter by letter in C.
    """

    name: str
    central: bool = False
    index: int = 0


# A word (monomial of the free algebra): possibly empty tuple of generators.
Word = tuple[Generator, ...]


def word_key(word: Word):
    """Canonical order: length first, then generator declaration order."""
    return (len(word), tuple(g.index for g in word))


def _as_word(word) -> Word:
    """A sequence of generators as a word.

    A bare generator is itself a tuple, so it is refused here rather than
    read as a word of its fields.
    """
    if isinstance(word, Generator):
        raise TypeError(f"expected a word (a tuple of generators), got generator {word.name!r}")
    return tuple(word)


def word_text(word: Word) -> str:
    """Run-length rendering, e.g. ``A^2*B``; the empty word is ``1``."""
    if not word:
        return "1"
    parts = []
    for name, run in itertools.groupby(g.name for g in word):
        count = sum(1 for _ in run)
        parts.append(name if count == 1 else f"{name}^{count}")
    return "*".join(parts)


class Algebra:
    """A generator context: an ordered alphabet with centrality flags.

    Equality is structural (same names, flags, order), so algebras built
    independently from the same description interoperate.
    """

    __slots__ = ("generators", "_by_name")

    def __init__(self, *names: str, central=()):
        central = frozenset(central)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        unknown = central - set(names)
        if unknown:
            raise ValueError(f"central flags for unknown generators: {sorted(unknown)}")
        self.generators = tuple(
            Generator(name, name in central, i) for i, name in enumerate(names)
        )
        self._by_name = {g.name: g for g in self.generators}

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

    def gen(self, name: str) -> NCPoly:
        """The generator as a polynomial atom."""
        return NCPoly(self, {(self.generator(name),): ParamPoly.one()})

    def zero(self) -> NCPoly:
        return NCPoly(self, {})

    def one(self) -> NCPoly:
        return NCPoly(self, {(): ParamPoly.one()})

    def from_terms(self, terms) -> NCPoly:
        """Build a polynomial from (word, coefficient) pairs, merging duplicates."""
        acc: dict[Word, ParamPoly] = {}
        for word, coeff in terms:
            word = _as_word(word)
            acc[word] = acc.get(word, ParamPoly.zero()) + coeff
        return NCPoly(self, acc)


class NCPoly(_Sparse):
    """Finite ParamPoly-weighted sum of words; immutable.

    Words multiply by concatenation, and only polynomials of one algebra
    context combine; mixing contexts raises ``ContextMismatchError``.
    """

    __slots__ = ("algebra",)

    _key_mul = staticmethod(operator.add)
    _key_text = staticmethod(word_text)
    _order = staticmethod(word_key)

    def __init__(self, algebra: Algebra, terms: dict[Word, ParamPoly]):
        self.algebra = algebra
        super().__init__(terms)

    def _new(self, terms: dict) -> NCPoly:
        new = object.__new__(NCPoly)
        new.algebra = self.algebra
        new.terms = terms
        return new

    def _same_context(self, other: NCPoly) -> bool:
        return self.algebra == other.algebra

    # Bound here, not only inherited, so that per-class tracing
    # (perfbench/tracer.py) counts products and renders.
    __mul__ = _Sparse.__mul__
    text = _Sparse.text

    def degree(self) -> int | None:
        """Maximal word length, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def truncate(self, max_degree: int) -> NCPoly:
        """Drop all words longer than ``max_degree``."""
        return self._new({w: c for w, c in self.terms.items() if len(w) <= max_degree})

    def coefficient(self, word: Word) -> ParamPoly:
        return self.terms.get(_as_word(word), ParamPoly.zero())

    def to_json(self) -> dict:
        return {
            "terms": [
                {"coeff": coeff.text(), "word": [g.name for g in word]}
                for word, coeff in self.canonical_terms()
            ]
        }

    @classmethod
    def from_json(cls, algebra: Algebra, doc: dict) -> NCPoly:
        terms = []
        for entry in doc["terms"]:
            word = algebra.word(*entry["word"])
            terms.append((word, ParamPoly.from_text(entry["coeff"])))
        return algebra.from_terms(terms)


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
