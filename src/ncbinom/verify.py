"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite is a list of independent named checks over the expansion engines:
exact identities on deterministic ranges, plus randomized identity checks
driven by a seeded generator so runs are reproducible.  Checks report the
first counterexample as JSON-ready data instead of raising.
The library's second paths live here, unexported: the D_k recurrence, the
Weyl coefficient triangle, the Hermite recurrence and explicit sum, and the
worklist reducer against ``RelationSystem.normal_form``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .binomial import (
    _ab,
    closed_form_hsq,
    closed_form_weyl,
    essential_expand,
    essential_part,
    exp_defect,
    gamma_factor,
    m_basis,
    m_derivation_expand,
    twisted_expand,
    weyl_coefficient,
)
from .diffop import DiffOp, Poly1, hermite, hermite_sequence, lambda_expansion, realize
from .freealg import Algebra, NCPoly, commutator
from .rewrite import DEFAULT_BUDGET, BudgetExceededError, RelationSystem, make_family
from .scalars import ParamPoly, _add_term, binom, factorial, pairings

SUITES = ("statements", "theorem1", "theorem2", "hsq", "weyl", "exp", "hermite")

RANDOM_CASES = 500
_RANDOM_COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None


def _essential_recurrence(k: int, algebra: Algebra | None = None) -> NCPoly:
    """D_k by D_{j+1} = d_B(A^j) + (A + d_B) D_j from D_0 = 0."""
    algebra, a, b = _ab(algebra)
    d = algebra.zero()
    for j in range(k):
        d = commutator(b, a ** j) + a * d + commutator(b, d)
    return d


def _weyl_triangle(n: int, algebra: Algebra) -> list[NCPoly]:
    """The Weyl coefficients of row n, k = 0..n//2, built row by row from 1."""
    c = algebra.gen("C")
    row = [algebra.one()]
    for m in range(n):
        prev = row + [algebra.zero()]
        row = [algebra.one()] + [prev[j] + (m + 2 - 2 * j) * c * prev[j - 1]
                                 for j in range(1, (m + 1) // 2 + 1)]
    return row


def _hermite_recurrence(n: int) -> list[Poly1]:
    """He_0 .. He_n by He_{m+1} = x*He_m - m*He_{m-1}."""
    x = Poly1.x_power(1)
    prev, cur = Poly1.zero(), Poly1.one()
    values = [cur]
    for m in range(n):
        prev, cur = cur, x * cur - m * prev
        values.append(cur)
    return values


def _hermite_explicit_sum(n: int) -> Poly1:
    """He_n = n! sum_k (-1)^k x^(n-2k)/((n-2k)! k! 2^k)."""
    coeffs = {}
    for k in range(n // 2 + 1):
        value = pairings(n, k)
        coeffs[n - 2 * k] = -value if k % 2 else value
    return Poly1(coeffs)


def _hermite_oracle(n: int, via: str) -> Poly1:
    """He_n by the check path named "explicit_sum" or "recurrence_oracle"."""
    if via == "explicit_sum":
        return _hermite_explicit_sum(n)
    if via == "recurrence_oracle":
        return _hermite_recurrence(n)[-1]
    raise ValueError(f"unknown via {via!r}")


def hermite_paths(n: int) -> tuple[list[Poly1], dict | None]:
    """He_0 .. He_n and None, or the first degree where the paths disagree.

    Walks the operator sequence (x - D)^j 1 and the recurrence once each,
    comparing every degree with the explicit sum.  A disagreement returns
    the values below it and a counterexample with all three values.
    """
    values = []
    for k, (operator, recurrence) in enumerate(
            zip(hermite_sequence(n), _hermite_recurrence(n))):
        explicit = _hermite_explicit_sum(k)
        if operator != explicit or explicit != recurrence:
            return values, {"n": k, "operator": operator.to_json(),
                            "explicit_sum": explicit.to_json(),
                            "recurrence_oracle": recurrence.to_json()}
        values.append(operator)
    return values, None


def random_ncpoly(rng: random.Random, algebra: Algebra,
                  max_degree: int = 3, max_terms: int = 4) -> NCPoly:
    """A small random element: words up to max_degree, integer coefficients."""
    letters = [chr(g.index) for g in algebra.generators]
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        key = "".join([rng.choice(letters) for _ in range(rng.randint(0, max_degree))])
        terms[key] = terms.get(key, 0) + rng.choice(_RANDOM_COEFFS)
    return algebra._poly({key: coeff for key, coeff in terms.items() if coeff})


def m_product_defect(n: int, algebra: Algebra | None = None) -> NCPoly:
    """M_1 * M_n - M_{n+1} - d_B(M_n); identically zero."""
    algebra, a, b = _ab(algebra)
    m_n = m_basis(n, algebra)
    return m_basis(1, algebra) * m_n - m_basis(n + 1, algebra) - commutator(b, m_n)


def m_power_defect(n: int, algebra: Algebra | None = None) -> NCPoly:
    """M_1^n - M_n - sum_{k<=n-2} M_1^k d_B(M_{n-1-k}); identically zero."""
    algebra, a, b = _ab(algebra)
    m_1 = m_basis(1, algebra)
    total = m_1 ** n - m_basis(n, algebra)
    for k in range(n - 1):
        total = total - m_1 ** k * commutator(b, m_basis(n - 1 - k, algebra))
    return total


def lambda_power_apply(n: int, seed: Poly1 | None = None) -> Poly1:
    """(x + lam*D)^n applied directly, term by term; the oracle path."""
    op = DiffOp.x() + ParamPoly.param("lam") * DiffOp.d()
    result = Poly1.one() if seed is None else seed
    for _ in range(n):
        result = op.apply(result)
    return result


def x2d_check(n: int, seed_degree: int = 0) -> bool:
    """Check the operator realization A = x, B = x^2*D of the h=1 closed form.

    [x^2*D, x] = x^2 makes the commutator square the first operator, so the
    gamma closed form at h=1 must reproduce the direct power application.
    """
    x_op = DiffOp.x()
    x2d = DiffOp.term(2, 1)
    seed = Poly1.x_power(seed_degree)
    direct = seed
    for _ in range(n):
        direct = (x_op + x2d).apply(direct)
    closed = realize(closed_form_hsq(n).substitute({"h": 1}), {"A": x_op, "B": x2d})
    return direct == closed.apply(seed)


def m_realization(n: int) -> Poly1:
    """The ordered binomial sum realized as x and lam*D, applied to 1.

    Every term with a derivative factor kills the constant seed, so the
    result is exactly x^n.
    """
    lam = ParamPoly.param("lam")
    mapping = {"A": DiffOp.x(), "B": lam * DiffOp.d()}
    return realize(m_basis(n), mapping).apply(Poly1.one())


def weyl_realization_check(n: int) -> bool:
    """Check the Weyl closed form against the lam*D realization.

    Realizing A = x, B = lam*D, C = lam (central) in the closed form and
    applying to 1 must agree with both the closed lambda expansion and the
    direct operator-power application.
    """
    lam = ParamPoly.param("lam")
    mapping = {
        "A": DiffOp.x(),
        "B": lam * DiffOp.d(),
        "C": lam * DiffOp.identity(),
    }
    realized = realize(closed_form_weyl(n), mapping).apply(Poly1.one())
    expected = lambda_expansion(n)
    return realized == expected and lambda_power_apply(n) == expected


def _find_redex(word: str, leftmost: bool, start: int) -> int | None:
    """The leftmost redex at or after ``start``, or the rightmost before it."""
    if leftmost:
        positions = range(start, len(word) - 1)
    else:
        positions = reversed(range(min(start, len(word) - 1)))
    for i in positions:
        if word[i] > word[i + 1]:
            return i
    return None


def _worklist_normal_form(system: RelationSystem, p: NCPoly, leftmost: bool,
                          budget: int = DEFAULT_BUDGET) -> NCPoly:
    """The normal form by rewriting whole words, the leftmost or the
    rightmost redex of each word per step: the oracle of ``normal_form``.

    The rule table is built here from ``system.rules``, so a fault in the
    reducer's compiled table shows as a disagreement.  ``budget`` counts
    every step, central swaps included.
    """
    system._check_input(p)
    letter = {g.name: chr(g.index) for g in system.alphabet}
    rules = {(letter[later], letter[earlier]): replacement.canonical_terms()
             for (later, earlier), replacement in system.rules.items()}

    # Each work item carries where its next redex search starts: the
    # prefix before a leftmost redex is normal, and so is the suffix
    # after a rightmost one, so only the seam around the rewritten pair
    # needs scanning again.
    central = chr(system.n_central)
    acc: dict = {}
    work = [(word, coeff, 0 if leftmost else len(word)) for word, coeff in p.terms.items()]
    steps = 0
    while work:
        word, coeff, start = work.pop()
        i = _find_redex(word, leftmost, start)
        if i is None:
            _add_term(acc, word, coeff)
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceededError(budget, steps, system.algebra._poly({word: 1}).text())
        left, right = word[:i], word[i + 2:]
        x, y = word[i], word[i + 1]
        if y < central:
            # a central letter in a redex is always its y: a plain swap
            rewritten = [(y + x, coeff)]
        else:
            rewritten = [(w, coeff * c) for w, c in rules[(x, y)]]
        for rword, rcoeff in rewritten:
            start = max(i - 1, 0) if leftmost else i + len(rword)
            work.append((left + rword + right, rcoeff, start))
    return system.algebra._poly(acc)


def strategy_agreement(family: str, cases: int = RANDOM_CASES,
                       max_degree: int = 6, seed: int = 0) -> CheckResult:
    """Reducer independence plus idempotence on random inputs.

    The memoized reducer must agree with the leftmost and the rightmost
    worklist reduction, and a normal form must reduce to itself.
    """
    rng = random.Random(seed)
    system = make_family(family)
    for _ in range(cases):
        p = random_ncpoly(rng, system.algebra, max_degree=max_degree)
        memo = system.normal_form(p)
        left = _worklist_normal_form(system, p, leftmost=True)
        right = _worklist_normal_form(system, p, leftmost=False)
        if memo != left or left != right or system.normal_form(left) != left:
            return CheckResult(
                f"{family}-strategy-agreement", False,
                f"{cases} random polynomials, degree <= {max_degree}",
                {"family": family, "input": p.to_json()},
            )
    return CheckResult(
        f"{family}-strategy-agreement", True,
        f"{cases} random polynomials, degree <= {max_degree}",
    )


def _differs(value, expected, label: str, **where) -> dict | None:
    """None if value == expected, else the counterexample ``where`` plus ``label``."""
    return None if value == expected else {**where, label: value.to_json()}


def _range_check(name: str, upper: int, detail: str, body) -> CheckResult:
    """Run body(n) for n = 0..upper; body returns None or a counterexample."""
    for n in range(upper + 1):
        failure = body(n)
        if failure is not None:
            return CheckResult(name, False, detail, failure)
    return CheckResult(name, True, detail)


def _suite_statements(bound, seed: int) -> list[CheckResult]:
    algebra = Algebra("A", "B", "C")
    rng = random.Random(seed)
    cases = RANDOM_CASES
    detail = f"{cases} random instances, degree <= 3"

    def triple():
        return (
            random_ncpoly(rng, algebra),
            random_ncpoly(rng, algebra),
            random_ncpoly(rng, algebra),
        )

    def ce(**polys):
        return {name: value.to_json() for name, value in polys.items()}

    results = []
    checks = [
        ("left-action-commutes",
         lambda a, x, y: a * commutator(a, x) == commutator(a, a * x)),
        ("derivation-leibniz",
         lambda a, x, y: commutator(a, x * y)
         == commutator(a, x) * y + x * commutator(a, y)),
        ("right-action-difference",
         lambda a, x, y: a * x - commutator(a, x) == x * a),
        ("jacobi",
         lambda a, x, y: (commutator(a, commutator(x, y))
                          + commutator(x, commutator(y, a))
                          + commutator(y, commutator(a, x))).is_zero()),
    ]
    for name, predicate in checks:
        failure = None
        for _ in range(cases):
            a, x, y = triple()
            if not predicate(a, x, y):
                failure = ce(a=a, x=x, y=y)
                break
        results.append(CheckResult(name, failure is None, detail, failure))
    results.append(strategy_agreement("commutative", seed=seed))
    return results


def _suite_theorem1(bound, seed: int) -> list[CheckResult]:
    algebra = Algebra("A", "B")
    brute = (algebra.gen("A") + algebra.gen("B"))
    n_max = bound(8)
    commutative = make_family("commutative")

    def oracle(n):
        return _differs(twisted_expand(n, algebra), brute ** n, "expansion", n=n)

    def paths(k):
        diff = essential_part(k, algebra)
        rec = _essential_recurrence(k, algebra)
        if diff != rec:
            return {"k": k, "difference": diff.to_json(), "recurrence": rec.to_json()}
        return None

    def collapse(k):
        reduced = commutative.normal_form(essential_part(k, commutative.algebra))
        return _differs(reduced, 0, "normal_form", k=k)

    return [
        _range_check("twisted-expansion-oracle", n_max,
                     f"free equality with brute power, n <= {n_max}", oracle),
        _range_check("essential-part-paths", n_max,
                     f"difference vs recurrence, k <= {n_max}", paths),
        _range_check("commutative-collapse", n_max,
                     f"normal form vanishes, k <= {n_max}", collapse),
    ]


def _suite_theorem2(bound, seed: int) -> list[CheckResult]:
    algebra = Algebra("A", "B")
    brute = algebra.gen("A") + algebra.gen("B")
    n_max = bound(8)

    def derivation_oracle(n):
        return _differs(m_derivation_expand(n, algebra), brute ** n, "expansion", n=n)

    def essential_oracle(n):
        return _differs(essential_expand(n, algebra), brute ** n, "expansion", n=n)

    def product_defect(n):
        return _differs(m_product_defect(n, algebra), 0, "defect", n=n)

    def power_defect(n):
        return _differs(m_power_defect(n, algebra), 0, "defect", n=n)

    return [
        _range_check("derivation-expansion-oracle", n_max,
                     f"free equality with brute power, n <= {n_max}",
                     derivation_oracle),
        _range_check("essential-expansion-oracle", n_max,
                     f"free equality with brute power, n <= {n_max}",
                     essential_oracle),
        _range_check("m-product-defect-zero", n_max,
                     f"n <= {n_max}", product_defect),
        _range_check("m-power-defect-zero", n_max,
                     f"n <= {n_max}", power_defect),
    ]


def _suite_hsq(bound, seed: int) -> list[CheckResult]:
    system = make_family("hsq")
    algebra = system.algebra
    a, b = algebra.gen("A"), algebra.gen("B")
    h = ParamPoly.param("h")
    n_max = bound(8)
    gamma_max = bound(12)

    def quotient(n):
        if not system.quotient_eq(closed_form_hsq(n, algebra), (a + b) ** n):
            return {"n": n, "closed_form": closed_form_hsq(n, algebra).to_json()}
        return None

    def coefficients(n):
        closed = closed_form_hsq(n, algebra)
        for k in range(n + 1):
            word = algebra.word(*(["A"] * k + ["B"] * (n - k)))
            expected = binom(n, k) * gamma_factor(k)
            if closed.coefficient(word) != expected:
                return {"n": n, "k": k, "closed_form": closed.to_json()}
        return None

    def h_one(n):
        closed = closed_form_hsq(n, algebra).substitute({"h": 1})
        for k in range(n + 1):
            word = algebra.word(*(["A"] * k + ["B"] * (n - k)))
            if closed.coefficient(word) != factorial(n) / factorial(n - k):
                return {"n": n, "k": k, "closed_form": closed.to_json()}
        return None

    def gamma_checkpoints(n):
        value = gamma_factor(n)
        if value.evaluate({"h": 0}) != 1 or value.evaluate({"h": 1}) != factorial(n):
            return {"n": n, "gamma": value.text()}
        return None

    def essential_collapse(k):
        reduced = system.normal_form(essential_part(k, algebra))
        expected = (gamma_factor(k) - 1) * a ** k
        return _differs(reduced, expected, "normal_form", k=k)

    def transport(k):
        reduced = system.normal_form(commutator(b, a ** (k + 1)))
        expected = (k + 1) * h * a ** (k + 2)
        return _differs(reduced, expected, "normal_form", k=k + 1)

    return [
        _range_check("closed-form-quotient", n_max,
                     f"quotient equality with brute power, n <= {n_max}", quotient),
        _range_check("coefficient-structure", n_max,
                     f"binomial times gamma, n <= {n_max}", coefficients),
        _range_check("h1-coefficients", n_max,
                     f"falling factorials at h=1, n <= {n_max}", h_one),
        _range_check("gamma-checkpoints", gamma_max,
                     f"values at h=0 and h=1, n <= {gamma_max}", gamma_checkpoints),
        _range_check("essential-collapse", n_max,
                     f"(gamma_k - 1) A^k, k <= {n_max}", essential_collapse),
        _range_check("derivation-transport", max(n_max - 1, 0),
                     f"k h A^(k+1), k <= {n_max}", transport),
        strategy_agreement("hsq", seed=seed),
    ]


def _suite_weyl(bound, seed: int) -> list[CheckResult]:
    system = make_family("weyl")
    algebra = system.algebra
    a, b, c = algebra.gen("A"), algebra.gen("B"), algebra.gen("C")
    rng = random.Random(seed)
    n_max = bound(8)
    coeff_max = bound(20)

    def quotient(n):
        if not system.quotient_eq(closed_form_weyl(n, algebra), (a + b) ** n):
            return {"n": n, "closed_form": closed_form_weyl(n, algebra).to_json()}
        return None

    def coefficient_paths(n):
        for k, rec in enumerate(_weyl_triangle(n, algebra)):
            closed = weyl_coefficient(n, k, algebra)
            if closed != rec:
                return {"n": n, "k": k, "closed": closed.to_json(),
                        "recurrence": rec.to_json()}
        return None

    def m_transport(n):
        reduced = system.normal_form(commutator(b, m_basis(n, algebra)))
        expected = algebra.zero() if n == 0 else n * c * m_basis(n - 1, algebra)
        return _differs(reduced, expected, "normal_form", n=n)

    def power_transport(k):
        reduced = system.normal_form(commutator(b, a ** (k + 1)))
        expected = (k + 1) * c * a ** k
        return _differs(reduced, expected, "normal_form", k=k + 1)

    centrality = CheckResult("centrality", True, "100 random polynomials")
    for _ in range(100):
        x = random_ncpoly(rng, algebra, max_degree=4)
        if not system.normal_form(c * x - x * c).is_zero():
            centrality = CheckResult("centrality", False,
                                     "100 random polynomials",
                                     {"input": x.to_json()})
            break

    return [
        _range_check("closed-form-quotient", n_max,
                     f"quotient equality with brute power, n <= {n_max}", quotient),
        _range_check("coefficient-paths", coeff_max,
                     f"recurrence vs closed form, n <= {coeff_max}",
                     coefficient_paths),
        _range_check("m-derivation-transport", n_max,
                     f"n C M_(n-1), n <= {n_max}", m_transport),
        _range_check("power-derivation-transport", max(n_max - 1, 0),
                     f"k C A^(k-1), k <= {n_max}", power_transport),
        centrality,
        strategy_agreement("weyl", seed=seed),
    ]


def _suite_exp(bound, seed: int) -> list[CheckResult]:
    order = bound(6)
    results = []
    for which in ("factored", "split"):
        defect = exp_defect(which, order)
        results.append(CheckResult(
            f"{which}-defect-zero", defect.is_zero(),
            f"truncated to total degree <= {order}",
            None if defect.is_zero() else {"order": order,
                                           "defect": defect.to_json()},
        ))
    return results


def _suite_hermite(bound, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    n_max = bound(20)
    real_max = bound(10)
    x2d_max = bound(6)
    weyl_max = bound(8)

    def spot(_):
        expected = {2: Poly1({2: 1, 0: -1}), 3: Poly1({3: 1, 1: -3})}
        for n, value in expected.items():
            if hermite(n) != value:
                return {"n": n, "operator": hermite(n).to_json()}
        return None

    def realization(n):
        return _differs(m_realization(n), Poly1.x_power(n), "result", n=n)

    def lambda_paths(n):
        closed = lambda_expansion(n)
        if closed != lambda_power_apply(n):
            return {"n": n, "closed": closed.to_json()}
        if closed.substitute({"lam": -1}) != _hermite_recurrence(n)[-1]:
            return {"n": n, "at_minus_one": closed.substitute({"lam": -1}).to_json()}
        return None

    def x2d(n):
        for seed_degree in range(4):
            if not x2d_check(n, seed_degree):
                return {"n": n, "seed_degree": seed_degree}
        return None

    def weyl_realized(n):
        return None if weyl_realization_check(n) else {"n": n}

    _, disagreement = hermite_paths(n_max)
    agreement = CheckResult("path-agreement", disagreement is None,
                            f"three generation paths, n <= {n_max}", disagreement)

    compose = CheckResult("compose-soundness", True,
                          "200 random operator pairs")
    for _ in range(200):
        f = _random_diffop(rng)
        g = _random_diffop(rng)
        p = _random_poly1(rng)
        if f.compose(g).apply(p) != f.apply(g.apply(p)):
            compose = CheckResult(
                "compose-soundness", False, "200 random operator pairs",
                {"f": repr(f), "g": repr(g), "p": p.to_json()},
            )
            break

    return [
        agreement,
        _range_check("spot-checks", 0, "frozen values at n = 2, 3", spot),
        _range_check("m-realization", real_max,
                     f"ordered sum applied to 1 gives x^n, n <= {real_max}",
                     realization),
        _range_check("lambda-paths", real_max,
                     f"closed form vs direct application, n <= {real_max}",
                     lambda_paths),
        _range_check("x2d-realization", x2d_max,
                     f"seed degrees <= 3, n <= {x2d_max}", x2d),
        _range_check("weyl-correspondence", weyl_max,
                     f"closed form realized at C = lam, n <= {weyl_max}",
                     weyl_realized),
        compose,
    ]


def _random_diffop(rng: random.Random) -> DiffOp:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(0, 4), rng.randint(0, 4))
        terms[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return DiffOp(terms)


def _random_poly1(rng: random.Random) -> Poly1:
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[rng.randint(0, 6)] = rng.choice([-3, -1, 1, 2])
    return Poly1(coeffs)


_SUITE_FUNCS = {
    "statements": _suite_statements,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "hsq": _suite_hsq,
    "weyl": _suite_weyl,
    "exp": _suite_exp,
    "hermite": _suite_hermite,
}


def run_suite(suite: str, max_n: int | None = None,
              seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or "all"); check names come back prefixed.

    max_n = None keeps each check's documented default range; an explicit
    value replaces every range cap in the suite.
    """
    if suite == "all":
        names = SUITES
    elif suite in _SUITE_FUNCS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    if max_n is not None and max_n < 0:
        raise ValueError("max_n must be non-negative")

    def bound(default: int) -> int:
        return default if max_n is None else max_n

    results = []
    for name in names:
        for result in _SUITE_FUNCS[name](bound, seed):
            results.append(CheckResult(
                f"{name}/{result.name}", result.passed,
                result.detail, result.counterexample,
            ))
    return results
