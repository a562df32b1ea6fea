import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbinom.binomial import m_basis
from ncbinom.diffop import DiffOp, Poly1, hermite
from ncbinom.rewrite import make_family
from ncbinom.scalars import ParamPoly
from ncbinom.verify import (
    _hermite_explicit_sum,
    _hermite_recurrence,
    _lambda_expansion,
    _realize,
    lambda_power_apply,
    m_realization,
    random_ncpoly,
    weyl_realization_check,
    x2d_check,
)

X = DiffOp.x()
D = DiffOp.d()
LAM = ParamPoly.param("lam")


def diffops():
    keys = st.tuples(st.integers(0, 4), st.integers(0, 4))
    values = st.integers(-3, 3)
    return st.dictionaries(keys, values, min_size=1, max_size=5).map(DiffOp)


def poly1s():
    return st.dictionaries(st.integers(0, 6), st.integers(-3, 3), max_size=4).map(
        Poly1
    )


def test_poly1_arithmetic():
    p = Poly1({2: 1, 0: -1})
    q = Poly1({1: 2})
    assert p + q == Poly1({2: 1, 1: 2, 0: -1})
    assert p - p == Poly1.zero()
    assert p * q == Poly1({3: 2, 1: -2})
    assert 3 * q == Poly1({1: 6})
    assert Poly1.x_power(2) * Poly1.x_power(3) == Poly1.x_power(5)


def test_poly1_text():
    assert Poly1({3: 1, 1: -3}).text() == "x^3 - 3*x"
    assert Poly1({2: 1, 0: LAM}).text() == "x^2 + lam"
    assert Poly1({1: Fraction(-1, 2)}).text() == "-1/2*x"
    assert Poly1.zero().text() == "0"
    assert Poly1.one().text() == "1"
    assert Poly1({2: LAM - 1}).text() == "(-1 + lam)*x^2"


def test_poly1_json_round_trip():
    p = Poly1({3: 1, 1: -3})
    doc = p.to_json()
    assert doc == {"coeffs": {"3": "1", "1": "-3"}}
    assert Poly1.from_json(doc) == p

    q = Poly1({2: LAM ** 2, 0: Fraction(1, 2)})
    assert Poly1.from_json(q.to_json()) == q



def test_degrees_from_outside_are_checked():
    # An int or a string of decimal digits is a degree; anything else is
    # refused by name rather than read as x^-1 or truncated to x.
    assert Poly1({"03": 1}) == Poly1({3: 1}) == Poly1.from_json({"coeffs": {"3": "1"}})
    assert DiffOp({("2", 1): 1}) == DiffOp.term(2, 1)
    for degree in (-1, "-1", 1.5, 1.9, 1.0, "1.5", " 1", "x", "\u0663", Fraction(1, 2), None):
        for build in (lambda: Poly1({degree: 1}), lambda: DiffOp({(degree, 0): 1}),
                      lambda: DiffOp({(0, degree): 1})):
            with pytest.raises(ValueError, match=re.escape(f"degree {degree!r} is not")):
                build()
    # checked whatever the coefficient, zero included
    for build, degree in ((lambda: Poly1({-1: 0}), -1), (lambda: DiffOp({(1.5, 0): 0}), 1.5),
                          (lambda: Poly1.from_json({"coeffs": {"-1": "0"}}), "-1")):
        with pytest.raises(ValueError, match=re.escape(f"degree {degree!r} is not")):
            build()
    for doc in ({"coeffs": {"-1": "1"}}, {"coeffs": {"-1": "0"}}):
        with pytest.raises(ValueError, match="degree '-1'"):
            Poly1.from_json(doc)
    # the accessor reads a degree the same way; one it refuses reads 0
    p = Poly1({"3": 5, 0: 1})
    assert p.coefficient("3") == p.coefficient("03") == p.coefficient(3) == 5
    for degree in (-1, "-1", 1.5, "x", None, True):
        assert p.coefficient(degree) == 0 and type(p.coefficient(degree)) is ParamPoly
    with pytest.raises(ValueError, match="degree -2"):
        Poly1.x_power(-2)

def test_apply_examples():
    assert D.apply(Poly1.x_power(2)) == Poly1({1: 2})
    assert DiffOp.term(2, 1).apply(Poly1.x_power(1)) == Poly1.x_power(2)
    assert (X - D).apply(Poly1.x_power(1)) == Poly1({2: 1, 0: -1})
    assert D.apply(Poly1.one()).is_zero()


def test_compose_examples():
    assert D.compose(X) == DiffOp({(1, 1): 1, (0, 0): 1})
    x2d = DiffOp.term(2, 1)
    assert x2d.compose(X) - X.compose(x2d) == DiffOp.term(2, 0)
    lam_d = LAM * D
    assert lam_d.compose(X) - X.compose(lam_d) == LAM * DiffOp.identity()
    assert X.compose(D) == DiffOp({(1, 1): 1})


@given(diffops(), diffops(), poly1s())
@settings(deadline=None)
def test_compose_soundness(f, g, p):
    assert f.compose(g).apply(p) == f.apply(g.apply(p))


@given(diffops(), diffops(), diffops())
@settings(deadline=None)
def test_compose_associative(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_operator_power():
    assert (X - D) ** 0 == DiffOp.identity()
    assert (X - D) ** 2 == DiffOp({(2, 0): 1, (1, 1): -2, (0, 2): 1, (0, 0): -1})


def test_hermite_spot_values():
    assert hermite(0) == Poly1.one()
    assert hermite(1) == Poly1.x_power(1)
    assert hermite(2) == Poly1({2: 1, 0: -1})
    assert hermite(3) == Poly1({3: 1, 1: -3})
    assert hermite(4) == Poly1({4: 1, 2: -6, 0: 3})


def test_hermite_paths_agree():
    for n in range(13):
        operator = hermite(n)
        assert operator == _hermite_explicit_sum(n)
        assert operator == _hermite_recurrence(n)[-1]
    assert hermite(6, "explicit_sum") == hermite(6, "recurrence_oracle") == hermite(6)
    with pytest.raises(ValueError):
        hermite(2, "lookup_table")
    with pytest.raises(ValueError):
        hermite(-1)


def test_lambda_expansion_values():
    assert _lambda_expansion(0) == Poly1.one()
    assert _lambda_expansion(1) == Poly1.x_power(1)
    assert _lambda_expansion(2) == Poly1({2: 1, 0: LAM})
    assert _lambda_expansion(3) == Poly1({3: 1, 1: 3 * LAM})


def test_lambda_expansion_matches_operator_power():
    for n in range(9):
        assert _lambda_expansion(n) == lambda_power_apply(n)


def test_lambda_expansion_specializes_to_hermite():
    for n in range(11):
        assert _lambda_expansion(n).substitute({"lam": -1}) == _hermite_recurrence(n)[-1]


def test_m_realization_gives_x_power():
    for n in range(9):
        assert m_realization(n) == Poly1.x_power(n)


def test_realize_word_order():
    mapping = {"A": X, "B": LAM * D}
    p = m_basis(2)
    op = _realize(p, mapping)
    # x^2 + 2 x (lam D) + (lam D)^2, normal ordered
    assert op == DiffOp(
        {(2, 0): ParamPoly.one(), (1, 1): 2 * LAM, (0, 2): LAM ** 2}
    )


def test_x2d_realization():
    for n in range(6):
        for seed_degree in range(4):
            assert x2d_check(n, seed_degree)


def test_weyl_realization():
    for n in range(7):
        assert weyl_realization_check(n)


def test_compose_matches_weyl_quotient():
    # x and D satisfy D*x = x*D + 1, the weyl relation at C = 1, so realizing
    # a word by composition must agree with reading its normal form
    # C^k A^i B^j as x^i D^j.
    weyl = make_family("weyl")
    mapping = {"A": X, "B": D, "C": DiffOp.identity()}
    rng = random.Random(0)
    for _ in range(200):
        p = random_ncpoly(rng, weyl.algebra, max_degree=5)
        expected = DiffOp.zero()
        for word, coeff in weyl.normal_form(p).items():
            names = [g.name for g in word]
            key = (names.count("A"), names.count("B"))
            expected = expected + coeff * DiffOp.term(*key)
        assert _realize(p, mapping) == expected
