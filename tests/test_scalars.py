import json
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbinom import scalars
from ncbinom.binomial import closed_form_hsq
from ncbinom.diffop import DiffOp, Poly1
from ncbinom.freealg import Algebra, NCPoly
from ncbinom.rewrite import load_system, make_family
from ncbinom.scalars import ParamPoly, UnboundParameterError, _unpack, binom, factorial
from ncbinom.verify import _lambda_expansion


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
    # the smallest unbound name, whatever the term order
    zeta, h, alpha = (ParamPoly.param(name) for name in ("zeta", "h", "alpha"))
    p = zeta * h + alpha + h
    for bindings, name in (({}, "alpha"), ({"alpha": 1}, "h"), ({"alpha": 1, "h": 2}, "zeta")):
        with pytest.raises(UnboundParameterError, match=f"parameter '{name}' is not bound") as err:
            p.evaluate(bindings)
        assert err.value.name == name
    value = p.evaluate({"alpha": 1, "h": 2, "zeta": Fraction(1, 2)})
    assert value == 4 and type(value) is Fraction


def test_substitute_partial(monkeypatch):
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    p = 2 * h * lam + lam ** 2
    cases = [
        (p, {"h": 1}, 2 * lam + lam ** 2),
        (p, {"h": 1, "lam": 3}, ParamPoly.const(15)),
        (p, {"lam": 0}, ParamPoly.zero()),
        # keys that meet once bound are summed, and a sum that cancels drops
        (h * lam - lam, {"h": 1}, ParamPoly.zero()),
        (h * lam + 2 * lam - h, {"h": -2, "never_bound": 1}, ParamPoly.const(2)),
        (2 * h ** 3 * lam + 3 * h + 1, {"h": 2}, 16 * lam + 7),
    ]
    # bound fields are read and cleared in place: no key is decoded or packed
    monkeypatch.setattr(scalars, "_unpack", None)
    monkeypatch.setattr(scalars, "_pack", None)
    monkeypatch.setattr(ParamPoly, "_key", None)
    results = [value.substitute(bindings) for value, bindings, _ in cases]
    monkeypatch.undo()
    for result, (_, _, expected) in zip(results, cases):
        assert result.terms == expected.terms
        # bare coefficients bound to ints stay ints
        assert all(type(c) is int for c in result.terms.values())
    assert "never_bound" not in scalars._NAMES


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
    # a term's factors go to the constructor as parsed, which merges them
    for text, value in [
        ("h*lam + lam*h", "2*h*lam"),
        ("h*h + h^0", "1 + h^2"),
        ("2*h - h*2", "0"),
        ("h^0*lam^0", "1"),
        ("h*2*3*lam^2*h", "6*h^2*lam^2"),
        ("-h*h^0*lam - lam*h", "-2*h*lam"),
    ]:
        assert ParamPoly.from_text(text).text() == value
    for text, message in [
        ("h + + h", "cannot parse polynomial factor '+ h'"),
        ("", "empty polynomial text"),
        ("h^x", "cannot parse polynomial factor 'h^x'"),
        ("1/0*h", "zero denominator in polynomial factor '1/0'"),
        ("3*", "cannot parse polynomial factor ''"),
        ("h^2147483647*h", "power 2147483648 of parameter 'h' is not below 2^31"),
    ]:
        with pytest.raises(ValueError) as info:
            ParamPoly.from_text(text)
        assert str(info.value) == message


def test_integral_coefficients_are_ints():
    assert type(ParamPoly.const(Fraction(6, 3)).terms[ParamPoly._UNIT]) is int
    assert type(ParamPoly.const(Fraction(1, 2)).terms[ParamPoly._UNIT]) is Fraction
    assert type((ParamPoly.const(2) * ParamPoly.const(3)).terms[ParamPoly._UNIT]) is int
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
        assert hash(whole.terms[ParamPoly._UNIT]) == hash(1)


def _assert_stored_bare(value):
    # the coefficient rule of NCPoly, Poly1 and DiffOp
    for coeff in value.terms.values():
        if isinstance(coeff, ParamPoly):
            assert not coeff.is_constant(), f"constant ParamPoly stored in {value!r}"
        else:
            assert type(coeff) in (int, Fraction)


def test_constant_coefficients_are_stored_bare():
    rng = random.Random(6)
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    scalars = [1, -2, Fraction(1, 2), Fraction(3), ParamPoly.const(3),
               ParamPoly.const(Fraction(-1, 3)), h, -h, 1 + h, h * lam]
    alg = Algebra("A", "B", "C")
    a = alg.gen("A")
    pools = {
        "NCPoly": [alg.gen("A"), alg.gen("B"), alg.gen("C"), alg.one()],
        "DiffOp": [DiffOp.x(), DiffOp.d(), DiffOp.identity(), DiffOp.term(2, 1)],
        "Poly1": [Poly1.one(), Poly1.x_power(1), Poly1.x_power(3)],
    }
    values = [h * a - h * a + a, (1 + h) * a - h * a, a * h + a * (1 - h),
              closed_form_hsq(4).substitute({"h": 1}), _lambda_expansion(5)]
    for pool in pools.values():
        for _ in range(150):
            p = rng.choice(pool)
            for _ in range(rng.randint(1, 4)):
                s, q = rng.choice(scalars), rng.choice(pool)
                p = rng.choice([p + s * q, p - s * q, p * q, s * p * q, q * p - s])
            s = rng.choice(scalars)
            values += [p, p - s * p + s * p, p + h * p - h * p,
                       p.substitute({"h": 1}), p.substitute({"h": 0, "lam": 2})]
    for p in values[:]:
        if isinstance(p, NCPoly):
            values.append(NCPoly.from_json(alg, p.to_json()))
        elif isinstance(p, Poly1):
            values.append(Poly1.from_json(p.to_json()))
            values.append((DiffOp.x() - h * DiffOp.d()).apply(p))
    system = load_system({
        "alphabet": [{"name": "A"}, {"name": "B"}],
        "rules": [{"pair": ["B", "A"], "replacement": {"terms": [
            {"coeff": "1", "word": ["A", "B"]},
            {"coeff": "-1 + h + 1", "word": ["A"]},
            {"coeff": "1/2", "word": []}]}}],
    })
    sa, sb = system.gen("A"), system.gen("B")
    values += list(system.rules.values())
    values += [system.normal_form((sa + h * sb - h * sb + sb) ** 4),
               system.power(sa + sb, 4), make_family("hsq").power(sa + sb, 4)]
    for p in values:
        _assert_stored_bare(p)

    # the public accessors box a bare coefficient
    p = 3 * a + h * alg.gen("B")
    assert type(p.coefficient(alg.word("A"))) is ParamPoly
    assert type(p.coefficient(alg.word("C"))) is ParamPoly
    assert type(Poly1.one().coefficient(0)) is ParamPoly
    assert p.coefficient(alg.word("A")) == 3 and 3 == p.coefficient(alg.word("A"))
    assert 3 == ParamPoly.const(3) and ParamPoly.const(3) == 3
    # a coefficient stored as the Fraction 3 renders like the int 3
    as_fraction = a * Fraction(3, 2) * 2
    assert type(dict(as_fraction.items())[alg.word("A")]) is Fraction
    assert type(dict((3 * a).items())[alg.word("A")]) is int
    assert as_fraction == 3 * a
    assert as_fraction.text() == (3 * a).text() == "3*A"
    assert as_fraction.to_json() == (3 * a).to_json()
    poly = Poly1.x_power(2) * Fraction(3, 2) * 2
    assert poly.text() == (3 * Poly1.x_power(2)).text()
    assert poly.to_json() == (3 * Poly1.x_power(2)).to_json()

    # a bare scalar factor: 0 gives zero, 1 the value, Fraction(6, 3) the int 2
    for p in (h * a + a - 2, Poly1.x_power(2) + h, DiffOp.d() - lam * DiffOp.x(), 1 + h):
        assert not (0 * p).terms and not (p * 0).terms
        assert (1 * p).terms == p.terms and (p * 1).terms == p.terms
        doubled = Fraction(6, 3) * p
        assert doubled == p + p == p * Fraction(6, 3)
        _assert_stored_bare(doubled)
    doubled = Fraction(6, 3) * a
    assert type(dict(doubled.items())[alg.word("A")]) is int
    assert type((Fraction(6, 3) * ParamPoly.const(1)).terms[ParamPoly._UNIT]) is int


def test_degree_and_parameters():
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    p = h ** 2 * lam + 1
    assert p.degree() == 3
    assert p.parameters() == {"h", "lam"}
    assert ParamPoly.const(5).is_constant()
    assert ParamPoly.const(5).constant_value() == 5
    with pytest.raises(ValueError):
        p.constant_value()


def test_constructor_packs_monomials_canonically():
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    unit = ParamPoly({(("h", 0),): 1})
    assert unit == 1 and unit.text() == "1"
    # a zero power takes no field, whether built or parsed
    assert ParamPoly({(("never_used", 0),): 1}) == ParamPoly.from_text("never_parsed^0") == 1
    assert {"never_used", "never_parsed"}.isdisjoint(scalars._NAMES)
    swapped = ParamPoly({(("lam", 1), ("h", 1)): 1})
    assert swapped == h * lam
    assert (swapped + h * lam).text() == "2*h*lam"
    assert ParamPoly({(("h", 1), ("h", 1)): 1}) == h ** 2
    assert ParamPoly({(("h", 1),): 1, (("h", 0), ("h", 1)): 2}).text() == "3*h"
    for power in (-1, Fraction(1, 2), 1.5, "2"):
        with pytest.raises(ValueError, match="'h'"):
            ParamPoly({(("h", power),): 1})
        with pytest.raises(ValueError, match="'h'"):
            ParamPoly.param("h", power)
    # a name is registered only if from_text can read it back
    alg = Algebra("A")
    for name in ("h*lam", "h^2", "2h", "", "h lam", "h\n", "\u00e9", 3, None, ("h",)):
        for make in (lambda: ParamPoly.param(name), lambda: ParamPoly({((name, 2),): 1})):
            with pytest.raises(ValueError, match=re.escape(f"parameter name {name!r}")):
                make()
        assert name not in scalars._NAMES
    assert NCPoly.from_json(alg, (ParamPoly.param("h_2") * alg.gen("A")).to_json()).text() == "h_2*A"
    too_big = 2 ** (scalars._FIELD - 1)
    for make in (lambda: ParamPoly.param("h", too_big),
                 lambda: ParamPoly({(("h", too_big - 1), ("h", 1)): 1}),
                 lambda: ParamPoly.from_text(f"1 + h^{too_big}"),
                 lambda: ParamPoly.from_text(f"h^{too_big} - h^{too_big}"),
                 lambda: ParamPoly.from_text(f"0*h^{too_big}"),
                 lambda: ParamPoly({(("h", too_big),): 0})):
        with pytest.raises(ValueError, match="'h'"):
            make()


def test_constructors_sum_keys_that_store_alike():
    # Every value type is built from outside by one constructor, which puts
    # each key in stored form and sums the keys that land on one.
    assert "__init__" not in vars(ParamPoly) and "_key" not in vars(scalars._Sparse)
    assert Poly1({1: 1, "1": -1}).is_zero()
    assert DiffOp({(1, 2): 1, ("1", "2"): 2}) == DiffOp({(1, 2): 3})
    assert DiffOp({(1, 2): 1, ("1", "2"): 2}).text() == "3*x*D^2"
    doc = {"coeffs": {"3": "1", "03": "2"}}
    assert Poly1.from_json(doc) == Poly1({3: 3}) and Poly1.from_json(doc).text() == "3*x^3"
    h = ParamPoly.param("h")
    assert Poly1({2: h, "2": 1 - h}).terms == {2: 1}
    assert type(Poly1({2: h, "2": 1 - h}).terms[2]) is int



def test_pairs_sum_like_a_map():
    # The constructor also takes (key, scalar) pairs: a repeated key sums,
    # and pairs that cancel give zero, for every value type.
    h = ParamPoly.param("h")
    alg = Algebra("A", "B")
    cases = [
        (ParamPoly, (("h", 1), ("lam", 1)), (("lam", 1), ("h", 1)), ()),
        (lambda terms: NCPoly(alg, terms), alg.word("A", "B"), list(alg.word("A", "B")), ()),
        (Poly1, 3, "03", 0),
        (DiffOp, (1, 2), ("1", "2"), (0, 0)),
    ]
    for make, key, alias, other in cases:
        summed = make([(key, 2), (other, 1), (alias, Fraction(1, 2))])
        assert summed == make({key: Fraction(5, 2), other: 1})
        assert make((pair for pair in [(key, 1), (alias, 1)])) == make({key: 2})
        assert make([(key, 3), (alias, -3)]).is_zero()
        assert make([(key, 1), (other, 1), (alias, -1)]) == make({other: 1})
        if make is not ParamPoly:
            assert make([(key, h), (alias, 1 - h)]) == make({key: 1})
            assert make([(key, h), (alias, -h)]).is_zero()


def test_inexact_scalars_are_refused():
    # Only int and Fraction enter as rationals; a float is not read as the
    # binary fraction it holds, nor a string as the number it spells.
    h = ParamPoly.param("h")
    alg = Algebra("A")
    builders = [
        ParamPoly.const,
        lambda value: ParamPoly({(("h", 1),): value}),
        lambda value: h.evaluate({"h": value}),
        lambda value: h.substitute({"h": value}),
        lambda value: (h * alg.gen("A")).substitute({"h": value}),
        # bindings are checked whatever the coefficients, constant or none
        lambda value: (3 * alg.gen("A")).substitute({"h": value}),
        lambda value: alg.zero().substitute({"h": value}),
        lambda value: Poly1({2: 1}).substitute({"h": value}),
        lambda value: DiffOp.x().substitute({"h": value}),
        lambda value: ParamPoly.const(2).substitute({"h": value}),
        lambda value: NCPoly(alg, {(): value}),
        lambda value: Poly1({0: value}),
        lambda value: DiffOp({(0, 0): value}),
    ]
    for value in (0.1, 1.0, "3", None):
        for build in builders:
            with pytest.raises(TypeError, match=type(value).__name__):
                build(value)
    with pytest.raises(TypeError, match="ParamPoly"):
        ParamPoly.const(h)
    assert NCPoly(alg, {(): h}).terms == {"": h}
    assert h.evaluate({"h": True}) == 1 and ParamPoly.const(Fraction(4, 2)).terms == {0: 2}


def test_product_past_the_field_raises():
    field = scalars._FIELD
    h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
    p = ParamPoly.param("h", 2 ** (field - 2))
    with pytest.raises(OverflowError, match="'h'"):
        for _ in range(field):
            p = p * p
    assert p == ParamPoly.param("h", 2 ** (field - 2))
    # the largest power that fits is reached, and never spills into lam
    top = ParamPoly.param("h", 2 ** (field - 2) - 1) * ParamPoly.param("h", 2 ** (field - 2))
    assert top.degree() == 2 ** (field - 1) - 1 and top.parameters() == {"h"}
    assert (top * lam).parameters() == {"h", "lam"}
    with pytest.raises(OverflowError, match="'h'"):
        top * (1 + lam * h)
    q = ParamPoly.param("lam", 2 ** (field - 2)) * h
    with pytest.raises(OverflowError, match="'lam'"):
        q * q


# Registers the parameters named on the command line first, then prints
# what the package shows of a polynomial in h and lam.
_ORDER_SCRIPT = """
import json, pickle, sys
from fractions import Fraction
from ncbinom import scalars
from ncbinom.freealg import Algebra, NCPoly
from ncbinom.scalars import ParamPoly
for name in sys.argv[1:]:
    ParamPoly.param(name)
h, lam = ParamPoly.param("h"), ParamPoly.param("lam")
p = 3 * h ** 2 * lam - lam ** 3 + h * lam ** 2 + Fraction(1, 2) * h - 1
alg = Algebra("A", "B")
x = p * alg.gen("A") * alg.gen("B") - lam * h * alg.gen("B") + h ** 2
print(json.dumps({
    "registry": scalars._NAMES,
    "text": p.text(),
    "parameters": sorted(p.parameters()),
    "json": x.to_json(),
    "round trip": [ParamPoly.from_text(p.text()).text(),
                   NCPoly.from_json(alg, x.to_json()).to_json()],
    "substitute": p.substitute({"h": 2}).text(),
    "pickle": pickle.dumps(p).hex(),
}))
"""


def test_registry_order_never_shows():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _ORDER_SCRIPT, *order],
        capture_output=True, text=True, check=True, env=env).stdout)
        for order in (("h", "lam"), ("lam", "h"))]
    assert [run.pop("registry") for run in runs] == [["h", "lam"], ["lam", "h"]]
    assert runs[0] == runs[1]
    assert runs[0]["text"] == "-1 + 1/2*h + h*lam^2 + 3*h^2*lam - lam^3"


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


def _monomial_product(m1, m2):
    return tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))


_ALG = Algebra("A", "B", "C")
_words = st.lists(st.sampled_from(_ALG.generators), max_size=3).map(tuple)
_coeffs = st.one_of(coefficients(), polys())
# kind -> (keys, coefficients, constructor, key product written here, not
# the package's, stored key -> the key the product reads): monomials add
# their (name, power) pairs, words concatenate, degrees add
_PRODUCT_KINDS = {
    "ParamPoly": (monomials(), coefficients(), ParamPoly, _monomial_product, _unpack),
    "NCPoly": (_words, coefficients(), lambda t: NCPoly(_ALG, t), operator.add, str),
    "NCPoly over Q[h, lam]": (_words, _coeffs, lambda t: NCPoly(_ALG, t), operator.add, str),
    "Poly1": (st.integers(0, 5), _coeffs, Poly1, operator.add, int),
}


def _double_loop(left, right, key_mul, decode):
    terms = {}
    for k1, c1 in left.terms.items():
        for k2, c2 in right.terms.items():
            key = key_mul(decode(k1), decode(k2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return {key: coeff for key, coeff in terms.items() if coeff}


@given(st.data())
@settings(deadline=None)
def test_one_term_products_match_the_double_loop(data):
    kind = data.draw(st.sampled_from(sorted(_PRODUCT_KINDS)))
    keys, coeffs, build, key_mul, decode = _PRODUCT_KINDS[kind]
    p = data.draw(st.dictionaries(keys, coeffs, max_size=5).map(build))
    key, coeff = data.draw(st.tuples(keys, coeffs.filter(bool)))
    single = build({key: coeff})
    for left, right in ((single, p), (p, single)):
        product = left * right
        decoded = {decode(k): c for k, c in product.terms.items()}
        assert decoded == _double_loop(left, right, key_mul, decode), kind
        _assert_stored_bare(product)
