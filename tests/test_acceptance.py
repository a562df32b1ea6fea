"""Acceptance gate: every release-blocking property, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test asserts its criterion so the suite fails loudly.
"""

import random

from ncbinom.binomial import (
    closed_form_hsq,
    closed_form_weyl,
    essential_expand,
    exp_defect,
    free_pair,
    gamma_factors,
    m_basis,
    m_derivation_expand,
    twisted_expand,
    weyl_coefficient,
    weyl_triple,
)
from ncbinom.diffop import Poly1, hermite
from ncbinom.freealg import Algebra, commutator
from ncbinom.rewrite import make_family
from ncbinom.scalars import binom, factorial
from ncbinom.verify import (
    _hermite_explicit_sum,
    _hermite_recurrence,
    _lambda_expansion,
    _weyl_triangle,
    essential_part,
    lambda_power_apply,
    m_power_defect,
    m_product_defect,
    m_realization,
    random_ncpoly,
    strategy_agreement,
    x2d_check,
)


def _report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _brute(n):
    algebra = free_pair()
    return (algebra.gen("A") + algebra.gen("B")) ** n


def test_criterion_1_twisted_expansion():
    ok = all(twisted_expand(n) == _brute(n) for n in range(9))
    _report(1, "twisted expansion equals brute-force power, n <= 8", ok)


def test_criterion_2_m_basis_expansions():
    ok = all(
        m_derivation_expand(n) == _brute(n) and essential_expand(n) == _brute(n)
        for n in range(9)
    )
    ok = ok and all(
        m_product_defect(n).is_zero() and m_power_defect(n).is_zero()
        for n in range(9)
    )
    _report(
        2,
        "ordered-sum expansions equal brute force and both ordered-sum "
        "defects vanish, n <= 8",
        ok,
    )


def test_criterion_3_derivation_statements():
    algebra = Algebra("A", "B", "C")
    rng = random.Random(0)
    ok = True
    for _ in range(500):
        a = random_ncpoly(rng, algebra, max_degree=3)
        x = random_ncpoly(rng, algebra, max_degree=3)
        y = random_ncpoly(rng, algebra, max_degree=3)
        ok = ok and a * commutator(a, x) == commutator(a, a * x)
        ok = ok and commutator(a, x * y) == commutator(a, x) * y + x * commutator(a, y)
        ok = ok and a * x - commutator(a, x) == x * a
        ok = ok and (
            commutator(a, commutator(x, y))
            + commutator(x, commutator(y, a))
            + commutator(y, commutator(a, x))
        ).is_zero()
        if not ok:
            break
    _report(
        3,
        "inner-derivation identities hold on 500 random inputs, degree <= 3",
        ok,
    )


def test_criterion_4_commutative_collapse():
    system = make_family("commutative")
    ok = all(system.normal_form(essential_part(k)).is_zero() for k in range(9))
    _report(4, "essential parts vanish under the commutative relation, k <= 8", ok)


def test_criterion_5_hsq_closed_form():
    system = make_family("hsq")
    algebra = system.algebra
    a, b = algebra.gen("A"), algebra.gen("B")
    ok = all(
        system.quotient_eq(closed_form_hsq(n, algebra), (a + b) ** n)
        for n in range(9)
    )
    gammas = list(gamma_factors(12))
    for n in range(9):
        for k in range(n + 1):
            word = algebra.word(*(["A"] * k + ["B"] * (n - k)))
            coeff = closed_form_hsq(n, algebra).coefficient(word)
            ok = ok and coeff == binom(n, k) * gammas[k]
            ok = ok and coeff.evaluate({"h": 1}) == factorial(n) / factorial(n - k)
    ok = ok and all(
        gamma.evaluate({"h": 0}) == 1 and gamma.evaluate({"h": 1}) == factorial(n)
        for n, gamma in enumerate(gammas)
    )
    _report(
        5,
        "square-commutator closed form matches the quotient with the "
        "expected coefficient ladder, n <= 8 (ladder checkpoints to 12)",
        ok,
    )


def test_criterion_6_weyl_closed_form():
    system = make_family("weyl")
    algebra = system.algebra
    a, b, c = algebra.gen("A"), algebra.gen("B"), algebra.gen("C")
    ok = all(
        system.quotient_eq(closed_form_weyl(n, algebra), (a + b) ** n)
        for n in range(9)
    )
    ok = ok and all(
        _weyl_triangle(n, weyl_triple())[k] == weyl_coefficient(n, k)
        for n in range(21)
        for k in range(n // 2 + 1)
    )
    ok = ok and all(
        system.quotient_eq(
            commutator(b, m_basis(n, algebra)), n * c * m_basis(n - 1, algebra)
        )
        for n in range(1, 9)
    )
    _report(
        6,
        "central-commutator closed form, coefficient recurrence (n <= 20), "
        "and derivation transport all agree, n <= 8",
        ok,
    )


def test_criterion_7_exponential_defects():
    ok = exp_defect("factored", 6).is_zero() and exp_defect("split", 6).is_zero()
    _report(7, "both exponential factorizations are exact through degree 6", ok)


def test_criterion_8_hermite_paths():
    ok = all(
        hermite(n)
        == _hermite_explicit_sum(n)
        == _hermite_recurrence(n)[-1]
        for n in range(21)
    )
    ok = ok and hermite(2) == Poly1({2: 1, 0: -1})
    ok = ok and hermite(3) == Poly1({3: 1, 1: -3})
    _report(8, "three Hermite generation paths agree, n <= 20", ok)


def test_criterion_9_operator_realizations():
    ok = all(m_realization(n) == Poly1.x_power(n) for n in range(11))
    ok = ok and all(_lambda_expansion(n) == lambda_power_apply(n) for n in range(11))
    ok = ok and all(x2d_check(n) for n in range(7))
    _report(
        9,
        "operator realizations reproduce the closed forms (powers to 10, "
        "squaring realization to 6)",
        ok,
    )


def test_criterion_10_strategy_agreement():
    ok = all(
        strategy_agreement(family, cases=500, max_degree=6, seed=0).passed
        for family in ("commutative", "hsq", "weyl")
    )
    _report(
        10,
        "leftmost and rightmost reduction agree and are idempotent on 500 "
        "random inputs per relation family",
        ok,
    )
