"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite is a list of independent named checks over the expansion engines:
exact identities on deterministic ranges, plus randomized identity checks
driven by a seeded generator so runs are reproducible.  Every check scans
its cases through ``_check``, which stops at the first counterexample and
reports it as JSON-ready data instead of raising; a check over random draws
takes them from a generator, so a failing check draws no further.
The library's second paths live here, unexported: the D_k recurrence, the
Weyl coefficient triangle, the Hermite recurrence and explicit sum, the
worklist reducer against ``RelationSystem.normal_form`` (equal words
merge, and the largest goes first), the twisted powers in closed form, and
the closed form of (A + B)^n under BA = q*AB + h*A^2, an oracle for the
rewrite path with two parameters.  So do the one-shot helpers that only the
checks call (the realization of free-algebra elements, (x + lam*D)^n 1 in
closed form, ``essential_part``) and the check-only ``random_ncpoly`` and
``strategy_agreement``, none of which ``ncbinom`` exports.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import namedtuple

from . import SUITES
from .binomial import (
    _ab,
    _ordered_sum,
    closed_form_hsq,
    closed_form_weyl,
    essential_expand,
    exp_defect,
    gamma_factors,
    m_basis,
    m_derivation_expand,
    twisted_expand,
    weyl_coefficient,
)
from .diffop import DiffOp, Poly1, hermite, hermite_sequence
from .freealg import Algebra, NCPoly, commutator, twisted_power
from .rewrite import DEFAULT_BUDGET, BudgetExceededError, RelationSystem, make_family
from .scalars import ParamPoly, _add_term, binom, factorial, pairings

RANDOM_CASES = 500
_RANDOM_COEFFS = (-3, -2, -1, 1, 2, 3)


CheckResult = namedtuple("CheckResult", ("name", "passed", "detail", "counterexample"),
                         defaults=(None,))


# Public, unlike the other one-shot helpers here, because perfbench/tracer.py
# hooks it by this name in any layer module to count its twisted steps.
def essential_part(k: int, algebra: Algebra | None = None) -> NCPoly:
    """D_k = (A+d_B)^k 1 - A^k, the deviation from the commutative power.

    D_0 = D_1 = 0, and D_k vanishes identically whenever A and B commute.
    """
    algebra, a, b = _ab(algebra)
    return twisted_power(a, b, k) - a ** k


def _essential_recurrence(k: int, algebra: Algebra | None = None) -> NCPoly:
    """D_k by D_{j+1} = d_B(A^j) + (A + d_B) D_j from D_0 = 0."""
    algebra, a, b = _ab(algebra)
    d = algebra.zero()
    for j in range(k):
        d = commutator(b, a ** j) + a * d + commutator(b, d)
    return d


def _twisted_closed_form(k: int, algebra: Algebra | None = None) -> NCPoly:
    """T_k term by term, with no products.

    L_(A+B) and R_B commute and A + d_B = L_(A+B) - R_B, so in every
    associative algebra T_k = sum_j (-1)^j C(k, j) (A + B)^(k-j) B^j.  In
    the free algebra a word of length k >= 1 whose trailing run of B's has
    length t < k therefore has coefficient (-1)^t C(k-1, t), and B^k has 0.
    """
    algebra, _, _ = _ab(algebra)
    if k == 0:
        return algebra.one()
    a, b = (chr(algebra.generator(name).index) for name in "AB")
    terms = {}
    for t in range(k):
        coeff = (-1) ** t * math.comb(k - 1, t)
        tail = a + b * t
        for head in itertools.product((a, b), repeat=k - 1 - t):
            terms["".join(head) + tail] = coeff
    return algebra._poly(terms)


def _closed_form_qh(n: int, algebra: Algebra | None = None) -> NCPoly:
    """(A + B)^n under BA = q*AB + h*A^2, ordered: sum_k [n k]_q
    prod_{0<j<k} (1 + [j]_q h) A^k B^(n-k) (Benaoum, J. Phys. A 32 (1999) 2037).

    [j]_q = 1 + q + ... + q^(j-1), and the Gaussian binomials [n k]_q come
    row by row from [m i] = [m-1 i-1] + q^i [m-1 i].
    """
    q, h = ParamPoly.param("q"), ParamPoly.param("h")
    row, gammas, bracket = [1], [1], 0  # bracket is [m-1]_q
    for m in range(1, n + 1):
        row = [1] + [row[i - 1] + q ** i * row[i] for i in range(1, m)] + [1]
        gammas.append(gammas[-1] * (1 + bracket * h))
        bracket = 1 + q * bracket
    return _ordered_sum([c * gamma for c, gamma in zip(row, gammas)], algebra)


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


def _realize(p: NCPoly, mapping: dict[str, DiffOp]) -> DiffOp:
    """Interpret a free-algebra element as an operator, word by word."""
    total = DiffOp.zero()
    for word, coeff in p.items():
        op = DiffOp.identity()
        for g in word:
            op = op.compose(mapping[g.name])
        total = total + coeff * op
    return total


def _lambda_expansion(n: int) -> Poly1:
    """(x + lam*D)^n applied to 1, in closed form: sum_k x^(n-2k) *
    n!/((n-2k)! k! 2^k) * lam^k; at lam = -1 this is He_n."""
    lam = ParamPoly.param("lam")
    return Poly1({n - 2 * k: pairings(n, k) * lam ** k for k in range(n // 2 + 1)})


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
        _add_term(terms, key, rng.choice(_RANDOM_COEFFS))
    return algebra._poly(terms)


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


def lambda_power_apply(n: int) -> Poly1:
    """(x + lam*D)^n applied to 1 directly, term by term; the oracle path."""
    op = DiffOp.x() + ParamPoly.param("lam") * DiffOp.d()
    result = Poly1.one()
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
    closed = _realize(closed_form_hsq(n).substitute({"h": 1}), {"A": x_op, "B": x2d})
    return direct == closed.apply(seed)


def m_realization(n: int) -> Poly1:
    """The ordered binomial sum realized as x and lam*D, applied to 1.

    Every term with a derivative factor kills the constant seed, so the
    result is exactly x^n.
    """
    lam = ParamPoly.param("lam")
    mapping = {"A": DiffOp.x(), "B": lam * DiffOp.d()}
    return _realize(m_basis(n), mapping).apply(Poly1.one())


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
    realized = _realize(closed_form_weyl(n), mapping).apply(Poly1.one())
    expected = _lambda_expansion(n)
    return realized == expected and lambda_power_apply(n) == expected


def _worklist_normal_form(system: RelationSystem, p: NCPoly, leftmost: bool,
                          budget: int = DEFAULT_BUDGET) -> NCPoly:
    """The normal form by rewriting whole words, the leftmost or the
    rightmost redex of each word per step: the oracle of ``normal_form``.

    The rule table is built here from ``system.rules``, so a fault in the
    reducer's compiled table shows as a disagreement.  Equal pending words
    merge, a word whose total cancels is dropped, and the largest pending
    word in packed order is rewritten first.  The built-in and README rules
    all yield earlier words, so there each word is rewritten once, after
    every word that leads to it.  ``budget`` counts every rewrite.
    """
    system._check_input(p)
    letter = {g.name: chr(g.index) for g in system.alphabet}
    rules = {(letter[later], letter[earlier]): replacement.canonical_terms()
             for (later, earlier), replacement in system.rules.items()}

    # A heap entry's key mirrors each letter and ends above every letter,
    # so the least key is the largest word.  Only words with a redex enter
    # the heap, each with the position of its redex.  A redex search starts
    # at the seam around the rewritten pair: the prefix before a leftmost
    # redex is normal, and so is the suffix after a rightmost one.
    size, central = len(letter), chr(system.n_central)
    mirror, end = {i: size - i for i in range(size)}, chr(size + 1)
    acc, pending, heap, steps = {}, {}, [], 0

    def push(word, coeff, start):
        if word in pending:
            return _add_term(pending, word, coeff)
        # the leftmost redex at or after start, or the rightmost before it
        if leftmost:
            positions = range(start, len(word) - 1)
        else:
            positions = reversed(range(min(start, len(word) - 1)))
        for i in positions:
            if word[i] > word[i + 1]:
                pending[word] = coeff
                return heapq.heappush(heap, (word.translate(mirror) + end, word, i))
        _add_term(acc, word, coeff)

    for word, coeff in p.terms.items():
        push(word, coeff, 0 if leftmost else len(word))
    while heap:
        _, word, i = heapq.heappop(heap)
        if word not in pending:  # cancelled, or already rewritten
            continue
        coeff = pending.pop(word)
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
            push(left + rword + right, rcoeff, max(i - 1, 0) if leftmost else i + len(rword))
    return system.algebra._poly(acc)


def strategy_agreement(family: str, cases: int = RANDOM_CASES,
                       max_degree: int = 6, seed: int = 0) -> CheckResult:
    """Reducer independence plus idempotence on random inputs.

    The memoized reducer must agree with the leftmost and the rightmost
    worklist reduction, and a normal form must reduce to itself.
    """
    rng = random.Random(seed)
    system = make_family(family)

    def agree(p):
        memo = system.normal_form(p)
        left = _worklist_normal_form(system, p, leftmost=True)
        right = _worklist_normal_form(system, p, leftmost=False)
        if memo != left or left != right or system.normal_form(left) != left:
            return {"family": family, "input": p.to_json()}
        return None

    draws = (random_ncpoly(rng, system.algebra, max_degree=max_degree)
             for _ in range(cases))
    return _check(f"{family}-strategy-agreement",
                  f"{cases} random polynomials, degree <= {max_degree}", draws, agree)


def _differs(value, expected, label: str, **where) -> dict | None:
    """None if value == expected, else the counterexample ``where`` plus ``label``."""
    return None if value == expected else {**where, label: value.to_json()}


def _check(name: str, detail: str, cases, body) -> CheckResult:
    """Run body(case) for each case in turn; body returns None or a counterexample.

    The scan stops at the first counterexample, so when ``cases`` is a
    generator of random draws, a failing check draws no further.
    """
    for case in cases:
        failure = body(case)
        if failure is not None:
            return CheckResult(name, False, detail, failure)
    return CheckResult(name, True, detail)


def _quotient_check(system: RelationSystem, closed_form, n_max: int) -> CheckResult:
    """closed_form(n) equals (A + B)^n in the quotient, n = 0..n_max."""
    algebra = system.algebra
    a, b = algebra.gen("A"), algebra.gen("B")

    def quotient(n):
        closed = closed_form(n, algebra)
        if not system.quotient_eq(closed, (a + b) ** n):
            return {"n": n, "closed_form": closed.to_json()}
        return None

    return _check("closed-form-quotient",
                  f"quotient equality with brute power, n <= {n_max}",
                  range(n_max + 1), quotient)


def _suite_statements(bound, seed: int) -> list[CheckResult]:
    algebra = Algebra("A", "B", "C")
    rng = random.Random(seed)
    detail = f"{RANDOM_CASES} random instances, degree <= 3"

    def triples():
        return ({name: random_ncpoly(rng, algebra) for name in "axy"}
                for _ in range(RANDOM_CASES))

    def holds(predicate):
        def body(triple):
            if predicate(**triple):
                return None
            return {name: value.to_json() for name, value in triple.items()}
        return body

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
    # Each check draws from the shared rng where the one before it stopped.
    return [_check(name, detail, triples(), holds(predicate))
            for name, predicate in checks] + [strategy_agreement("commutative", seed=seed)]


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

    sizes = range(n_max + 1)
    return [
        _check("twisted-expansion-oracle",
               f"free equality with brute power, n <= {n_max}", sizes, oracle),
        _check("essential-part-paths",
               f"difference vs recurrence, k <= {n_max}", sizes, paths),
        _check("commutative-collapse",
               f"normal form vanishes, k <= {n_max}", sizes, collapse),
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

    sizes = range(n_max + 1)
    return [
        _check("derivation-expansion-oracle",
               f"free equality with brute power, n <= {n_max}", sizes,
               derivation_oracle),
        _check("essential-expansion-oracle",
               f"free equality with brute power, n <= {n_max}", sizes,
               essential_oracle),
        _check("m-product-defect-zero", f"n <= {n_max}", sizes, product_defect),
        _check("m-power-defect-zero", f"n <= {n_max}", sizes, power_defect),
    ]


def _suite_hsq(bound, seed: int) -> list[CheckResult]:
    system = make_family("hsq")
    algebra = system.algebra
    a, b = algebra.gen("A"), algebra.gen("B")
    h = ParamPoly.param("h")
    n_max = bound(8)
    gamma_max = bound(12)  # >= n_max, as both come from one bound
    gammas = list(gamma_factors(gamma_max))

    def coefficients(n):
        closed = closed_form_hsq(n, algebra)
        for k in range(n + 1):
            word = algebra.word(*(["A"] * k + ["B"] * (n - k)))
            expected = binom(n, k) * gammas[k]
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
        value = gammas[n]
        if value.evaluate({"h": 0}) != 1 or value.evaluate({"h": 1}) != factorial(n):
            return {"n": n, "gamma": value.text()}
        return None

    def essential_collapse(k):
        reduced = system.normal_form(essential_part(k, algebra))
        expected = (gammas[k] - 1) * a ** k
        return _differs(reduced, expected, "normal_form", k=k)

    def transport(k):
        reduced = system.normal_form(commutator(b, a ** k))
        return _differs(reduced, k * h * a ** (k + 1), "normal_form", k=k)

    sizes = range(n_max + 1)
    return [
        _quotient_check(system, closed_form_hsq, n_max),
        _check("coefficient-structure",
               f"binomial times gamma, n <= {n_max}", sizes, coefficients),
        _check("h1-coefficients",
               f"falling factorials at h=1, n <= {n_max}", sizes, h_one),
        _check("gamma-checkpoints", f"values at h=0 and h=1, n <= {gamma_max}",
               range(gamma_max + 1), gamma_checkpoints),
        _check("essential-collapse",
               f"(gamma_k - 1) A^k, k <= {n_max}", sizes, essential_collapse),
        _check("derivation-transport", f"k h A^(k+1), k <= {n_max}",
               range(1, max(n_max, 1) + 1), transport),
        strategy_agreement("hsq", seed=seed),
    ]


def _suite_weyl(bound, seed: int) -> list[CheckResult]:
    system = make_family("weyl")
    algebra = system.algebra
    a, b, c = algebra.gen("A"), algebra.gen("B"), algebra.gen("C")
    rng = random.Random(seed)
    n_max = bound(8)
    coeff_max = bound(20)

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
        reduced = system.normal_form(commutator(b, a ** k))
        return _differs(reduced, k * c * a ** (k - 1), "normal_form", k=k)

    def central(x):
        if system.normal_form(c * x - x * c).is_zero():
            return None
        return {"input": x.to_json()}

    draws = (random_ncpoly(rng, algebra, max_degree=4) for _ in range(100))
    return [
        _quotient_check(system, closed_form_weyl, n_max),
        _check("coefficient-paths", f"recurrence vs closed form, n <= {coeff_max}",
               range(coeff_max + 1), coefficient_paths),
        _check("m-derivation-transport", f"n C M_(n-1), n <= {n_max}",
               range(n_max + 1), m_transport),
        _check("power-derivation-transport", f"k C A^(k-1), k <= {n_max}",
               range(1, max(n_max, 1) + 1), power_transport),
        _check("centrality", "100 random polynomials", draws, central),
        strategy_agreement("weyl", seed=seed),
    ]


def _suite_exp(bound, seed: int) -> list[CheckResult]:
    order = bound(6)

    def defect_zero(which):
        return _differs(exp_defect(which, order), 0, "defect", order=order)

    return [_check(f"{which}-defect-zero", f"truncated to total degree <= {order}",
                   (which,), defect_zero)
            for which in ("factored", "split")]


def _suite_hermite(bound, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    n_max = bound(20)
    real_max = bound(10)
    x2d_max = bound(6)
    weyl_max = bound(8)

    def spot(n):
        expected = {2: Poly1({2: 1, 0: -1}), 3: Poly1({3: 1, 1: -3})}[n]
        return _differs(hermite(n), expected, "operator", n=n)

    def realization(n):
        return _differs(m_realization(n), Poly1.x_power(n), "result", n=n)

    def lambda_paths(n):
        closed = _lambda_expansion(n)
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

    def sound(case):
        f, g, p = case
        if f.compose(g).apply(p) == f.apply(g.apply(p)):
            return None
        return {"f": repr(f), "g": repr(g), "p": p.to_json()}

    draws = ((_random_diffop(rng), _random_diffop(rng), _random_poly1(rng))
             for _ in range(200))
    return [
        _check("path-agreement", f"three generation paths, n <= {n_max}",
               (n_max,), lambda n: hermite_paths(n)[1]),
        _check("spot-checks", "frozen values at n = 2, 3", (2, 3), spot),
        _check("m-realization", f"ordered sum applied to 1 gives x^n, n <= {real_max}",
               range(real_max + 1), realization),
        _check("lambda-paths", f"closed form vs direct application, n <= {real_max}",
               range(real_max + 1), lambda_paths),
        _check("x2d-realization", f"seed degrees <= 3, n <= {x2d_max}",
               range(x2d_max + 1), x2d),
        _check("weyl-correspondence", f"closed form realized at C = lam, n <= {weyl_max}",
               range(weyl_max + 1), weyl_realized),
        _check("compose-soundness", "200 random operator pairs", draws, sound),
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


# Keyed and ordered as ``SUITES`` (tests/test_imports.py checks it).
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

    return [result._replace(name=f"{name}/{result.name}")
            for name in names for result in _SUITE_FUNCS[name](bound, seed)]
