from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbinom.diffop import DiffOp, Poly1
from ncbinom.freealg import Algebra
from ncbinom.scalars import ParamPoly, UnboundParameterError, binom, factorial


def monomials():
    # powers <= 3 in each of two names keeps total degree <= 6
    return st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda powers: tuple(
            (name, p) for name, p in zip(("h", "lam"), powers) if p
        )
    )


def coefficients():
    return st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys():
    return st.dictionaries(monomials(), coefficients(), max_size=4).map(ParamPoly)


@given(polys(), polys(), polys())
@settings(max_examples=1000, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + ParamPoly.zero() == p
    assert p * ParamPoly.one() == p
    assert p - p == ParamPoly.zero()


@given(polys(), polys(), coefficients(), coefficients())
@settings(deadline=None)
def test_evaluate_is_ring_homomorphism(p, q, hv, lv):
    bindings = {"h": hv, "lam": lv}
    assert (p + q).evaluate(bindings) == p.evaluate(bindings) + q.evaluate(bindings)
    assert (p * q).evaluate(bindings) == p.evaluate(bindings) * q.evaluate(bindings)


@given(polys())
def test_text_round_trip(p):
    assert ParamPoly.from_text(p.text()) == p


def test_pascal_identity():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert binom(n, k) + binom(n, k - 1) == binom(n + 1, k)


def test_binom_boundaries():
    assert binom(5, 2) == 10
    assert binom(7, 0) == 1
    assert binom(2, 3) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(4) / factorial(2) == 12
    assert isinstance(factorial(3), Fraction)


def test_product_expands():
    h = ParamPoly.param("h")
    assert (1 + h) * (1 + 2 * h) == 1 + 3 * h + 2 * h ** 2


def test_scale_and_zero_pruning():
    h = ParamPoly.param("h")
    assert 2 * (1 + h) == 2 + 2 * h
    assert ((1 + h) - (1 + h)).is_zero()
    assert not ParamPoly({(("h", 1),): Fraction(0)}).terms


def test_evaluate_examples():
    h = ParamPoly.param("h")
    assert (1 + 2 * h).evaluate({"h": 1}) == 3
    gamma3 = 1 + 3 * h + 2 * h ** 2
    assert gamma3.evaluate({"h": 0}) == 1
    assert gamma3.evaluate({"h": 1}) == 6
    assert gamma3.evaluate({"h": Fraction(1, 2)}) == Fraction(3)


def test_unbound_parameter_is_named():
    p = ParamPoly.param("h") + ParamPoly.param("lam")
    with pytest.raises(UnboundParameterError) as err:
        p.evaluate({"h": 1})
    assert err.value.name == "lam"


def test_substitute_partial():
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    p = 2 * h * lam + lam ** 2
    assert p.substitute({"h": 1}) == 2 * lam + lam ** 2
    assert p.substitute({"h": 1, "lam": 3}) == ParamPoly.const(15)


def test_canonical_text():
    h = ParamPoly.param("h")
    assert (1 + 3 * h + 2 * h ** 2).text() == "1 + 3*h + 2*h^2"
    assert (h - 1).text() == "-1 + h"
    assert (-h).text() == "-h"
    assert ParamPoly.zero().text() == "0"
    assert (Fraction(1, 2) * h).text() == "1/2*h"


def test_from_text_forms():
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    assert ParamPoly.from_text("1 + 3*h + 2*h^2") == 1 + 3 * h + 2 * h ** 2
    assert ParamPoly.from_text("-1 + h") == h - 1
    assert ParamPoly.from_text("1/2*h*lam") == Fraction(1, 2) * h * lam
    assert ParamPoly.from_text("0") == ParamPoly.zero()
    with pytest.raises(ValueError):
        ParamPoly.from_text("h + + h")


def test_integral_coefficients_are_ints():
    assert type(ParamPoly.const(Fraction(6, 3)).terms[()]) is int
    assert type(ParamPoly.const(Fraction(1, 2)).terms[()]) is Fraction
    assert type((ParamPoly.const(2) * ParamPoly.const(3)).terms[()]) is int
    assert ParamPoly.const(3) == ParamPoly.const(Fraction(3))
    assert ParamPoly.const(3).text() == ParamPoly.const(Fraction(3)).text() == "3"
    a = Algebra("A").gen("A")
    assert (a * ParamPoly.const(3)).to_json() == (a * ParamPoly.const(Fraction(3))).to_json()
    for value in (ParamPoly.const(3), ParamPoly.const(Fraction(1, 2)), ParamPoly.zero()):
        assert type(value.constant_value()) is Fraction
    assert ParamPoly.const(3).constant_value() == 3
    # a Fraction result that lands on an integer stays a Fraction, and still
    # compares and hashes as the int, so structural equality stays exact
    half = ParamPoly.const(Fraction(1, 2))
    for whole in (half * 2, half + half):
        assert whole == ParamPoly.const(1) and whole.text() == "1"
        assert hash(whole.terms[()]) == hash(1)


def test_degree_and_parameters():
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    p = h ** 2 * lam + 1
    assert p.degree() == 3
    assert p.parameters() == {"h", "lam"}
    assert ParamPoly.const(5).is_constant()
    assert ParamPoly.const(5).constant_value() == 5
    with pytest.raises(ValueError):
        p.constant_value()


def _plumbing_values():
    h = ParamPoly.param("h")
    alg = Algebra("A", "B")
    a, b = alg.gen("A"), alg.gen("B")
    x, d = DiffOp.x(), DiffOp.d()
    return [
        ("ParamPoly", ParamPoly.zero()),
        ("ParamPoly", 2 + h - Fraction(1, 3) * h ** 2),
        ("NCPoly", alg.zero()),
        ("NCPoly", a * b - 2 * b + h),
        ("Poly1", Poly1.zero()),
        ("Poly1", Poly1({2: 1, 0: -1}) + h * Poly1.x_power(1)),
        ("DiffOp", DiffOp.zero()),
        ("DiffOp", x - h * d + 3),
    ]


@pytest.mark.parametrize(
    "kind, p", _plumbing_values(),
    ids=lambda v: v if isinstance(v, str) else ("nonzero" if v else "zero"),
)
def test_shared_ring_plumbing(kind, p):
    # ParamPoly, NCPoly, Poly1 and DiffOp share one sparse-combination core
    assert type(p).__name__ == kind
    assert 3 - p == -(p - 3)
    assert 2 * p == p + p
    assert (p == 0) == (not p) == p.is_zero()
    difference = p - p
    assert difference == 0 and not difference.terms
    assert p ** 0 == 1
    assert p ** 2 == p * p
