from collections import Counter
from fractions import Fraction

import pytest

from ncbinom import binomial, freealg
from ncbinom.binomial import (
    _METHODS,
    ExpansionReport,
    IncompatibleRelationError,
    closed_form_hsq,
    closed_form_weyl,
    essential_expand,
    exp_defect,
    expansion_report,
    free_pair,
    gamma_factors,
    m_basis,
    m_derivation_expand,
    resolve_relation,
    twisted_expand,
    weyl_coefficient,
    weyl_m_text,
    weyl_triple,
)
from ncbinom.freealg import NCPoly, commutator, twisted_powers
from ncbinom.rewrite import RelationSystem, make_family
from ncbinom.scalars import ParamPoly, binom, factorial
from ncbinom.verify import (
    _essential_recurrence,
    _twisted_closed_form,
    _weyl_triangle,
    essential_part,
    m_power_defect,
    m_product_defect,
)

ALG = free_pair()
A, B = ALG.gen("A"), ALG.gen("B")
H = ParamPoly.param("h")


def brute(n):
    return (A + B) ** n


def test_m_basis_values():
    assert m_basis(0) == ALG.one()
    assert m_basis(1) == A + B
    assert m_basis(2) == A * A + 2 * A * B + B * B


def test_twisted_expand_values():
    assert twisted_expand(0) == ALG.one()
    assert twisted_expand(1) == A + B
    assert twisted_expand(2) == A * A + A * B + B * A + B * B


def test_twisted_expand_matches_brute():
    for n in range(7):
        assert twisted_expand(n) == brute(n)


def test_twisted_closed_form_matches_twisted_powers():
    for k, t_k in enumerate(twisted_powers(A, B, 14)):
        assert _twisted_closed_form(k, ALG) == t_k


def test_essential_part_values():
    assert essential_part(0).is_zero()
    assert essential_part(1).is_zero()
    assert essential_part(2) == B * A - A * B


def test_essential_part_paths_agree():
    for k in range(7):
        assert essential_part(k) == _essential_recurrence(k)


def test_running_essential_parts_match_recurrence():
    for k, t_k in enumerate(twisted_powers(A, B, 8)):
        assert t_k - A ** k == _essential_recurrence(k)


def test_essential_expand_matches_brute():
    assert essential_expand(1) == A + B
    assert essential_expand(2) == m_basis(2) + (B * A - A * B)
    for n in range(7):
        assert essential_expand(n) == brute(n)


def test_m_derivation_expand_matches_brute():
    assert m_derivation_expand(1) == A + B
    assert m_derivation_expand(2) == m_basis(2) + commutator(B, m_basis(1))
    for n in range(7):
        assert m_derivation_expand(n) == brute(n)


def test_m_defects_vanish():
    for n in range(7):
        assert m_product_defect(n).is_zero()
        assert m_power_defect(n).is_zero()


def test_gamma_values():
    assert list(gamma_factors(3)) == [ParamPoly.one(), ParamPoly.one(), 1 + H,
                                      1 + 3 * H + 2 * H ** 2]


def test_gamma_checkpoints():
    for n, gamma in enumerate(gamma_factors(12)):
        assert gamma.evaluate({"h": 0}) == 1
        assert gamma.evaluate({"h": 1}) == factorial(n)


def test_gamma_recurrence_step():
    gammas = list(gamma_factors(8))
    for k in range(8):
        assert gammas[k + 1] == (1 + k * H) * gammas[k]


def test_closed_form_hsq_values():
    assert closed_form_hsq(1) == A + B
    assert closed_form_hsq(2) == B * B + 2 * A * B + (1 + H) * A * A


def test_closed_form_hsq_quotient():
    hsq = make_family("hsq")
    a, b = hsq.algebra.gen("A"), hsq.algebra.gen("B")
    for n in range(7):
        assert hsq.quotient_eq(closed_form_hsq(n, hsq.algebra), (a + b) ** n)


def test_closed_form_hsq_coefficients():
    gammas = list(gamma_factors(6))
    for n in range(7):
        closed = closed_form_hsq(n)
        at_one = closed.substitute({"h": 1})
        for k in range(n + 1):
            word = ALG.word(*(["A"] * k + ["B"] * (n - k)))
            assert closed.coefficient(word) == binom(n, k) * gammas[k]
            assert at_one.coefficient(word) == factorial(n) / factorial(n - k)


def test_weyl_coefficient_values():
    weyl = weyl_triple()
    c = weyl.gen("C")
    assert weyl_coefficient(5, 0) == weyl.one()
    assert weyl_coefficient(2, 1) == c
    assert weyl_coefficient(4, 2) == 3 * c * c
    assert weyl_coefficient(3, 1) == 3 * c


def test_weyl_coefficient_paths_agree():
    for n in range(13):
        for k in range(n // 2 + 1):
            assert weyl_coefficient(n, k) == _weyl_triangle(n, weyl_triple())[k]


def test_weyl_coefficient_range_errors():
    with pytest.raises(ValueError):
        weyl_coefficient(3, 2)
    with pytest.raises(ValueError):
        weyl_coefficient(3, -1)
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        weyl_coefficient(-1, 0)


def test_closed_form_weyl_values():
    weyl = weyl_triple()
    c = weyl.gen("C")
    assert closed_form_weyl(0) == weyl.one()
    assert closed_form_weyl(2) == m_basis(2, weyl) + c
    assert closed_form_weyl(3) == m_basis(3, weyl) + 3 * m_basis(1, weyl) * c


def test_closed_form_weyl_quotient():
    system = make_family("weyl")
    a, b = system.algebra.gen("A"), system.algebra.gen("B")
    for n in range(7):
        assert system.quotient_eq(closed_form_weyl(n, system.algebra), (a + b) ** n)


def test_weyl_derivation_transport():
    system = make_family("weyl")
    alg = system.algebra
    b, c = alg.gen("B"), alg.gen("C")
    for n in range(1, 7):
        reduced = system.normal_form(commutator(b, m_basis(n, alg)))
        assert reduced == n * c * m_basis(n - 1, alg)


def test_weyl_m_text():
    assert weyl_m_text(0) == "M_0"
    assert weyl_m_text(1) == "M_1"
    assert weyl_m_text(2) == "M_2 + C"
    assert weyl_m_text(3) == "M_3 + 3*C*M_1"
    assert weyl_m_text(4) == "M_4 + 6*C*M_2 + 3*C^2"


def test_exp_defects_zero(monkeypatch):
    for which in ("factored", "split"):
        assert exp_defect(which, 0).is_zero()
        assert exp_defect(which, 3).is_zero()
        assert exp_defect(which, 5).is_zero()

    # an unknown identity is refused before any series is built
    def no_series(p, order):
        raise AssertionError("an exponential series was built")

    monkeypatch.setattr(binomial, "_exp_series", no_series)
    with pytest.raises(ValueError, match="unknown identity 'fused'"):
        exp_defect("fused", 3)


def test_expansion_report_free_method():
    report = expansion_report(2, "theorem1")
    assert isinstance(report, ExpansionReport)
    assert report.oracle_match
    assert report.relation is None
    assert report.result == brute(2)
    doc = report.to_json()
    assert doc["method"] == "theorem1" and doc["oracle_match"] is True
    assert NCPoly.from_json(ALG, doc["result"]) == brute(2)


def test_expansion_report_is_a_mutable_record():
    report = expansion_report(1, "brute")
    assert report == expansion_report(1, "brute") != expansion_report(2, "brute")
    assert report != (1, "brute", None, True, report.result)
    assert repr(report) == (
        f"ExpansionReport(n=1, method='brute', relation=None, oracle_match=True, "
        f"result={report.result!r})")
    report.oracle_match = False
    assert report.to_json()["oracle_match"] is False
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


def test_expansion_report_closed_defaults():
    report = expansion_report(3, "closed_weyl")
    assert report.relation == "weyl"
    assert report.oracle_match
    assert report.result == closed_form_weyl(3)

    report = expansion_report(3, "closed_hsq")
    assert report.relation == "hsq"
    assert report.oracle_match


def test_expansion_report_relation_quotient():
    report = expansion_report(3, "theorem1", "weyl")
    assert report.relation == "weyl"
    assert report.oracle_match
    assert report.result == twisted_expand(3, make_family("weyl").algebra)


def test_expansion_report_incompatibilities():
    with pytest.raises(IncompatibleRelationError):
        expansion_report(2, "closed_hsq", "commutative")
    with pytest.raises(IncompatibleRelationError):
        expansion_report(2, "closed_weyl", "hsq")
    with pytest.raises(ValueError):
        expansion_report(2, "telescope")
    with pytest.raises(ValueError):
        expansion_report(-1, "brute")


def test_resolve_relation_takes_a_system():
    weyl = make_family("weyl")
    assert resolve_relation(weyl) == (weyl, "weyl")
    unnamed = RelationSystem(ALG, {("B", "A"): A * B})
    assert resolve_relation(unnamed) == (unnamed, "user")
    report = expansion_report(3, "theorem1", unnamed)
    assert (report.relation, report.oracle_match) == ("user", True)
    for relation in (5, ALG, ("B", "A")):
        with pytest.raises(TypeError, match="cannot interpret"):
            resolve_relation(relation)


ENGINES = {method: engine for method, (engine, _) in _METHODS.items()}
ENGINES.update(m_basis=m_basis, weyl_m_text=weyl_m_text)


@pytest.mark.parametrize("name", ENGINES)
def test_negative_n_is_refused(name):
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        ENGINES[name](-1)


def test_free_brute_report_builds_the_power_once(monkeypatch):
    """A free ``brute`` result is its own oracle: (A+B)^n is built once."""
    calls = []
    powers = NCPoly.powers

    def counting_powers(self, n):
        calls.append((len(self.terms), n))
        return powers(self, n)

    monkeypatch.setattr(NCPoly, "powers", counting_powers)
    for n in (0, 3, 7):
        calls.clear()
        report = expansion_report(n, "brute")
        assert calls == [(2, n)]
        assert report.oracle_match and report.result == (A + B) ** n


def test_weyl_coefficient_value_type():
    value = weyl_coefficient(6, 2)
    ((word, coeff),) = value.items()
    assert all(g.name == "C" for g in word) and len(word) == 2
    assert coeff == Fraction(6 * 5 * 4 * 3, 8)


def test_engines_take_one_twisted_step_per_degree(monkeypatch):
    """Work-count guard: the twisted sequence is built once, not once per k.

    ``twisted_expand`` is left out: it calls ``twisted_power`` once per k.

    Every twisted step applies the commutator once; the NCPoly products of
    an engine grow by the same amount per step of n, not quadratically.
    """
    counts = Counter()
    mul = NCPoly.__mul__

    def counting_mul(self, other):
        counts["products"] += 1
        return mul(self, other)

    def counting_commutator(x, p):
        counts["steps"] += 1
        return commutator(x, p)

    monkeypatch.setattr(NCPoly, "__mul__", counting_mul)
    monkeypatch.setattr(freealg, "commutator", counting_commutator)
    engines = {
        "essential_expand": essential_expand,
        "exp_defect split": lambda n: exp_defect("split", n),
        "exp_defect factored": lambda n: exp_defect("factored", n),
    }
    for name, engine in engines.items():
        products = {}
        for n in (6, 8, 10):
            counts.clear()
            engine(n)
            assert counts["steps"] == n, (name, n, counts["steps"])
            products[n] = counts["products"]
        assert products[10] - products[8] == products[8] - products[6], (name, products)


def test_gamma_factors_walk_the_recurrence_once(monkeypatch):
    h = ParamPoly.param("h")
    expected = []
    for k in range(13):
        value = ParamPoly.one()
        for j in range(1, k):
            value = value * (1 + j * h)
        expected.append(value)
    assert list(gamma_factors(12)) == expected
    with pytest.raises(ValueError):
        list(gamma_factors(-1))

    # work-count guard: closed_form_hsq makes a fixed number of ParamPoly
    # products per degree, not one per (degree, factor) pair
    counts = Counter()
    for name in ("__mul__", "__rmul__"):
        original = getattr(ParamPoly, name)

        def counting(self, other, original=original):
            counts["products"] += 1
            return original(self, other)

        monkeypatch.setattr(ParamPoly, name, counting)
    products = {}
    for n in (10, 20, 30):
        counts.clear()
        closed_form_hsq(n)
        products[n] = counts["products"]
    assert products[30] - products[20] == products[20] - products[10], products
