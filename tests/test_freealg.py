import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbinom.freealg import (
    Algebra,
    ContextMismatchError,
    NCPoly,
    commutator,
    twisted_power,
    twisted_powers,
)
from ncbinom.binomial import free_pair, weyl_triple
from ncbinom.rewrite import FAMILIES, load_system, make_family
from ncbinom.scalars import ParamPoly
from ncbinom.verify import random_ncpoly

ALG = Algebra("A", "B", "C")
A, B, C = ALG.gen("A"), ALG.gen("B"), ALG.gen("C")


def ncpolys(max_degree=3):
    words = st.lists(
        st.sampled_from(ALG.generators), min_size=0, max_size=max_degree
    ).map(tuple)
    terms = st.lists(st.tuples(words, st.integers(-3, 3)), min_size=1, max_size=4)
    return terms.map(lambda pairs: NCPoly(ALG, pairs))


def test_word_rendering():
    for names, text in [((), "1"), (("A", "A", "B"), "A^2*B"), (("B", "A", "B"), "B*A*B")]:
        assert NCPoly(ALG, {ALG.word(*names): 1}).text() == text


def test_basic_arithmetic():
    assert A + ALG.zero() == A
    assert A + B - B == A
    assert A * B + A * B == 2 * A * B
    assert A * B != B * A
    assert 1 * (A * B + C) == A * B + C
    assert (A + B) * ALG.one() == A + B


def test_pow_is_free_expansion():
    assert (A + B) ** 0 == ALG.one()
    assert (A + B) ** 2 == A * A + A * B + B * A + B * B
    cube = (A + B) ** 3
    assert len(cube.terms) == 8
    assert all(coeff == 1 for coeff in cube.terms.values())


def test_degree_additive_on_words():
    p = A * B * C
    q = B * B
    assert (p * q).degree() == p.degree() + q.degree()
    assert ALG.one().degree() == 0
    assert ALG.zero().degree() is None


@given(ncpolys(), ncpolys(), ncpolys())
@settings(deadline=None)
def test_multiplication_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(ncpolys(), ncpolys())
@settings(deadline=None)
def test_left_action_commutes_with_derivation(a, x):
    assert a * commutator(a, x) == commutator(a, a * x)


@given(ncpolys(), ncpolys(), ncpolys())
@settings(deadline=None)
def test_derivation_leibniz(a, x, y):
    assert commutator(a, x * y) == commutator(a, x) * y + x * commutator(a, y)


@given(ncpolys(), ncpolys())
@settings(deadline=None)
def test_right_action_difference(a, x):
    assert a * x - commutator(a, x) == x * a


@given(ncpolys(), ncpolys(), ncpolys())
@settings(deadline=None)
def test_jacobi_identity(a, b, c):
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert total.is_zero()


def test_commutator_examples():
    assert commutator(A, ALG.one()).is_zero()
    assert commutator(B, A) == B * A - A * B
    assert commutator(B, A * A) == B * A * A - A * A * B


def test_twisted_power_values():
    assert twisted_power(A, B, 0) == ALG.one()
    assert twisted_power(A, B, 1) == A
    assert twisted_power(A, B, 2) == A * A + B * A - A * B
    with pytest.raises(ValueError):
        twisted_power(A, B, -1)


def test_twisted_powers_match_single_powers():
    sequence = list(twisted_powers(A, B, 8))
    assert len(sequence) == 9
    for k, value in enumerate(sequence):
        assert value == twisted_power(A, B, k)
    with pytest.raises(ValueError):
        list(twisted_powers(A, B, -1))


def test_twisted_power_homogeneous():
    for k in range(6):
        value = twisted_power(A, B, k)
        assert all(len(word) == k for word in value.terms)


def test_context_mismatch_raises():
    other = Algebra("A", "B")
    with pytest.raises(ContextMismatchError):
        A + other.gen("A")
    with pytest.raises(ContextMismatchError):
        twisted_power(A, other.gen("B"), 2)


def test_structural_algebra_equality():
    assert Algebra("A", "B") == Algebra("A", "B")
    assert Algebra("A", "B") != Algebra("B", "A")
    assert Algebra("C", "A", central=("C",)) != Algebra("C", "A")
    # independently built contexts interoperate
    p = Algebra("A", "B").gen("A") + Algebra("A", "B").gen("B")
    assert p == Algebra("A", "B").gen("A") + Algebra("A", "B").gen("B")


def test_central_refuses_a_bare_string():
    with pytest.raises(TypeError, match="not the string 'Cx'"):
        Algebra("Cx", "A", central="Cx")
    assert Algebra("Cx", "A", central=("Cx",)).generator("Cx").central


def test_generators_compare_and_hash_by_value():
    first, second = Algebra("A", "B"), Algebra("A", "B")
    assert first.generator("A") == second.generator("A")
    assert hash(first.generator("A")) == hash(second.generator("A"))
    word = first.word("A", "B", "A")
    assert word == second.word("A", "B", "A")
    assert hash(word) == hash(second.word("A", "B", "A"))
    assert {word: 1}[second.word("A", "B", "A")] == 1
    flagged = Algebra("A", "B", central=("A",))
    assert flagged.generator("A") != first.generator("A")
    assert flagged.word("A", "B", "A") != word


def test_bare_generator_is_not_a_word():
    alg = Algebra("A", "B")
    p = alg.gen("A") + 2 * alg.gen("B")
    with pytest.raises(TypeError):
        p.coefficient(alg.generator("A"))
    with pytest.raises(TypeError):
        NCPoly(alg, [(alg.generator("A"), 1)])
    assert p.coefficient((alg.generator("B"),)) == ParamPoly.const(2)
    assert NCPoly(alg, [([alg.generator("A")], 1)]) == alg.gen("A")


def test_foreign_generators_are_refused():
    xy = Algebra("X", "Y")
    with pytest.raises(ValueError, match="generator 'X' is not in this algebra"):
        NCPoly(Algebra("A", "B"), [(xy.word("X", "Y"), 2)])
    # X has C's index under weyl; it must not be read as C
    weyl = make_family("weyl")
    with pytest.raises(ValueError, match="generator 'X' is not in this algebra"):
        weyl.normal_form(NCPoly(weyl.algebra, [(xy.word("X"), 1)]))
    with pytest.raises(ValueError, match="generator 'X' is not in this algebra"):
        NCPoly(ALG, {xy.word("X"): 1})
    p = 3 * A * B + C
    assert p.coefficient(xy.word("X", "Y")) == 0
    assert p.coefficient(xy.word("X")) == 0


@given(ncpolys(max_degree=5))
@settings(deadline=None)
def test_canonical_terms_follow_declaration_order(p):
    by_index = sorted(p.items(), key=lambda item: (len(item[0]), [g.index for g in item[0]]))
    assert [(ALG.unpack(key), c) for key, c in p.canonical_terms()] == by_index
    assert [ALG.pack(word) for word, _ in by_index] == [key for key, _ in p.canonical_terms()]


def test_powers_are_the_prefix_of_pow():
    p = A + B
    sequence = list(p.powers(4))
    assert sequence == [p ** k for k in range(5)]
    assert sequence[0] == A.algebra.one()
    with pytest.raises(ValueError):
        p ** -1


def test_text_rendering():
    h = ParamPoly.param("h")
    assert (A + B).text() == "A + B"
    assert (A * A - A * B).text() == "A^2 - A*B"
    assert ((1 + h) * A * A).text() == "(1 + h)*A^2"
    assert (-2 * A).text() == "-2*A"
    assert ALG.zero().text() == "0"
    assert ALG.one().text() == "1"
    assert (h * A).text() == "h*A"


def test_scalar_coefficient_arithmetic():
    h = ParamPoly.param("h")
    assert h * A + h * A == 2 * h * A
    assert (h * A).substitute({"h": 1}) == A
    assert (h * A).substitute({"h": 0}).is_zero()


def test_json_round_trip():
    h = ParamPoly.param("h")
    p = (1 + h) * A * A - 2 * A * B + ALG.one()
    doc = p.to_json()
    assert doc["terms"][0] == {"coeff": "1", "word": []}
    assert NCPoly.from_json(ALG, doc) == p


def test_coefficient_lookup():
    p = 3 * A * B + C
    assert p.coefficient(ALG.word("A", "B")) == 3
    assert p.coefficient(ALG.word("B", "A")).is_zero()


def test_truncate():
    p = (A + B) ** 3 + A * B + ALG.one()
    assert p.truncate(2) == A * B + ALG.one()
    assert p.truncate(3) == p


def _random_ncpoly_reference(rng, algebra, max_degree=3, max_terms=4):
    # Generator-tuple words summed by the constructor, drawing in the same order
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(
            rng.choice(algebra.generators)
            for _ in range(rng.randint(0, max_degree))
        )
        terms.append((word, rng.choice([-3, -2, -1, 1, 2, 3])))
    return NCPoly(algebra, terms)


def test_random_ncpoly_draws_the_reference_polynomials():
    central_last = load_system({
        "alphabet": [{"name": "A"}, {"name": "B"}, {"name": "C", "central": True}],
        "rules": [{"pair": ["B", "A"], "replacement": {"terms": [
            {"coeff": "1", "word": ["A", "B"]}, {"coeff": "1", "word": ["C"]}]}}],
    })
    algebras = [free_pair(), weyl_triple(), ALG, central_last.algebra]
    algebras += [make_family(family).algebra for family in FAMILIES]
    for algebra in algebras:
        for seed in range(8):
            for max_degree, max_terms in ((3, 4), (6, 8), (0, 3)):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for _ in range(20):
                    p = random_ncpoly(rng, algebra, max_degree, max_terms)
                    expected = _random_ncpoly_reference(ref_rng, algebra, max_degree, max_terms)
                    assert p == expected and list(p.terms) == list(expected.terms)
                    assert p.algebra is algebra
                assert rng.getstate() == ref_rng.getstate()
