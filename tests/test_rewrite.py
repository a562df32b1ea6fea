import functools
import json
import math
import random

import pytest

from ncbinom.freealg import Algebra, ContextMismatchError
from ncbinom.binomial import closed_form_hsq, closed_form_weyl
from ncbinom.rewrite import (
    BudgetExceededError,
    InvalidSystemError,
    MalformedSystemError,
    RelationSystem,
    load_system,
    make_family,
)
from ncbinom.scalars import ParamPoly
from ncbinom.verify import (
    _closed_form_qh,
    _twisted_closed_form,
    _worklist_normal_form,
    random_ncpoly,
    strategy_agreement,
)

H = ParamPoly.param("h")


def _worklists(system):
    """The leftmost and the rightmost worklist oracle of ``system``."""
    return [functools.partial(_worklist_normal_form, system, leftmost=flag)
            for flag in (True, False)]


def test_family_construction():
    commutative = make_family("commutative")
    alg = commutative.algebra
    assert len(commutative.rules) == 1
    assert commutative.rules[("B", "A")] == alg.gen("A") * alg.gen("B")

    hsq = make_family("hsq")
    a, b = hsq.algebra.gen("A"), hsq.algebra.gen("B")
    assert hsq.rules[("B", "A")] == a * b + H * a * a

    weyl = make_family("weyl")
    wa, wb, wc = (weyl.algebra.gen(name) for name in "ABC")
    assert weyl.rules[("B", "A")] == wa * wb + wc
    assert weyl.alphabet[0].name == "C" and weyl.alphabet[0].central

    with pytest.raises(ValueError):
        make_family("nope")


def test_builtin_families_validate():
    for family in ("commutative", "hsq", "weyl"):
        report = make_family(family).validate()
        assert report.ok, report.violations


def test_degree_raising_rule_rejected():
    alg = Algebra("A", "B")
    b = alg.gen("B")
    system = RelationSystem(alg, {("B", "A"): b * b})
    report = system.validate()
    assert not report.ok
    assert any("decreases neither" in v for v in report.violations)
    with pytest.raises(InvalidSystemError):
        system.normal_form(b)


def test_shorter_but_later_term_rejected():
    # BA -> AB + C shortens the word but trades both letters for a later
    # one; with these rules C*B*A*A rewrites forever
    alg = Algebra("A", "B", "C")
    a, b, c = (alg.gen(name) for name in "ABC")
    rules = {("B", "A"): a * b + c, ("C", "A"): a * c + b * b,
             ("C", "B"): b * c + a ** 5}
    system = RelationSystem(alg, rules)
    assert system.validate().violations == [
        "rule BA: replacement term 'C' decreases neither the inversion count "
        "nor the non-central letter multiset"
    ]
    with pytest.raises(InvalidSystemError):
        system.normal_form(c * b * a * a)


def test_missing_rule_reported():
    alg = Algebra("A", "B")
    report = RelationSystem(alg, {}).validate()
    assert not report.ok
    assert any("missing rule" in v for v in report.violations)


def test_central_rule_rejected():
    alg = Algebra("C", "A", "B", central=("C",))
    a, b = alg.gen("A"), alg.gen("B")
    rules = {("B", "A"): a * b, ("B", "C"): alg.gen("C") * b}
    report = RelationSystem(alg, rules).validate()
    assert not report.ok
    assert any("central" in v for v in report.violations)


def test_malformed_rule_pairs_reported():
    alg = Algebra("A", "B")
    a, b = alg.gen("A"), alg.gen("B")
    wider = Algebra("A", "B", "C")
    cases = [
        ({("X", "A"): a * b}, "rule XA: unknown generator in pair"),
        ({("A", "B"): a * b}, "rule AB: pair is not out of order"),
    ]
    for extra, message in cases:
        system = RelationSystem(alg, {("B", "A"): a * b, **extra})
        assert system.validate().violations == [message]
        with pytest.raises(InvalidSystemError):
            system.normal_form(b * a)
    foreign = wider.gen("A") * wider.gen("B")
    assert RelationSystem(alg, {("B", "A"): foreign}).validate().violations == [
        "rule BA: replacement from a different context"
    ]


def test_non_normal_replacement_reported():
    alg = Algebra("A", "B")
    a, b = alg.gen("A"), alg.gen("B")
    report = RelationSystem(alg, {("B", "A"): a * b + b * a * a}).validate()
    assert not report.ok
    assert any("not in normal form" in v for v in report.violations)


def test_normal_form_frozen_values():
    hsq = make_family("hsq")
    a, b = hsq.algebra.gen("A"), hsq.algebra.gen("B")
    assert hsq.normal_form(b * a) == a * b + H * a * a
    assert hsq.normal_form(b * a * a) == a * a * b + 2 * H * a ** 3

    weyl = make_family("weyl")
    wa, wb, wc = (weyl.algebra.gen(name) for name in "ABC")
    assert weyl.normal_form(wb * wa) == wa * wb + wc
    assert weyl.normal_form(wb * wb * wa) == wa * wb * wb + 2 * wc * wb
    # central letters drift to the front without corrections
    assert weyl.normal_form(wa * wc) == wc * wa


def test_quotient_eq_examples():
    commutative = make_family("commutative")
    a, b = commutative.algebra.gen("A"), commutative.algebra.gen("B")
    assert commutative.quotient_eq(a * b, b * a)
    assert not commutative.quotient_eq(a * b, a * a)

    weyl = make_family("weyl")
    wa, wb, wc = (weyl.algebra.gen(name) for name in "ABC")
    lhs = (wa + wb) ** 2
    assert weyl.quotient_eq(lhs, wa ** 2 + 2 * wa * wb + wb ** 2 + wc)


def test_normal_form_sorted_and_idempotent():
    rng = random.Random(3)
    for family in ("commutative", "hsq", "weyl"):
        system = make_family(family)
        position = {g: i for i, g in enumerate(system.alphabet)}
        for _ in range(40):
            p = random_ncpoly(rng, system.algebra, max_degree=5)
            nf = system.normal_form(p)
            for word, _ in nf.items():
                ranks = [position[g] for g in word]
                assert ranks == sorted(ranks)
            assert system.normal_form(nf) == nf


def test_strategies_agree_on_random_inputs():
    for family in ("commutative", "hsq", "weyl"):
        result = strategy_agreement(family, cases=120, max_degree=5, seed=11)
        assert result.passed, result.counterexample


def test_congruence_soundness():
    rng = random.Random(5)
    hsq = make_family("hsq")
    for _ in range(60):
        p = random_ncpoly(rng, hsq.algebra, max_degree=3)
        q = random_ncpoly(rng, hsq.algebra, max_degree=3)
        direct = hsq.normal_form(p * q)
        staged = hsq.normal_form(hsq.normal_form(p) * hsq.normal_form(q))
        assert direct == staged


def test_centrality_under_weyl():
    rng = random.Random(7)
    weyl = make_family("weyl")
    c = weyl.algebra.gen("C")
    for _ in range(60):
        x = random_ncpoly(rng, weyl.algebra, max_degree=4)
        assert weyl.normal_form(c * x - x * c).is_zero()


def test_budget_exhaustion():
    hsq = make_family("hsq")
    a, b = hsq.algebra.gen("A"), hsq.algebra.gen("B")
    with pytest.raises(BudgetExceededError):
        hsq.normal_form(b ** 3 * a ** 3, budget=2)


def test_context_and_strategy_errors():
    # the reducer and the worklist oracle refuse the same inputs
    hsq = make_family("hsq")
    other = Algebra("A", "B", "C")
    for reduce in (hsq.normal_form, *_worklists(hsq)):
        with pytest.raises(ContextMismatchError):
            reduce(other.gen("A"))
    invalid = RelationSystem(Algebra("A", "B"), {})
    for reduce in (invalid.normal_form, *_worklists(invalid)):
        with pytest.raises(InvalidSystemError, match="missing rule for out-of-order pair BA"):
            reduce(invalid.gen("A"))


def test_load_system_from_dict_and_file(tmp_path):
    doc = {
        "alphabet": [
            {"name": "C", "central": True},
            {"name": "A"},
            {"name": "B"},
        ],
        "rules": [
            {
                "pair": ["B", "A"],
                "replacement": {
                    "terms": [
                        {"coeff": "1", "word": ["A", "B"]},
                        {"coeff": "2", "word": ["C"]},
                    ]
                },
            }
        ],
    }
    system = load_system(doc)
    report = system.validate()
    assert report.ok

    a, b, c = (system.algebra.gen(name) for name in "ABC")
    assert system.normal_form(b * a) == a * b + 2 * c

    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    from_file = load_system(str(path))
    assert from_file.normal_form(from_file.algebra.gen("B") * from_file.algebra.gen("A")) \
        == system.normal_form(b * a)


# The README example system (BA -> AB + 2C, C central), inlined.
USER_SYSTEM = {
    "alphabet": [
        {"name": "A"},
        {"name": "B"},
        {"name": "C", "central": True},
    ],
    "rules": [
        {
            "pair": ["B", "A"],
            "replacement": {
                "terms": [
                    {"coeff": "1", "word": ["A", "B"]},
                    {"coeff": "2", "word": ["C"]},
                ]
            },
        }
    ],
}



def test_repeated_replacement_words_sum():
    doc = json.loads(json.dumps(USER_SYSTEM))
    doc["rules"][0]["replacement"]["terms"] = [
        {"coeff": "1", "word": ["A", "B"]},
        {"coeff": "1", "word": ["C"]},
        {"coeff": "3", "word": ["B"]},
        {"coeff": "1", "word": ["C"]},
        {"coeff": "-3", "word": ["B"]},
    ]
    system, user = load_system(doc), load_system(USER_SYSTEM)
    assert system.validate().ok
    b_a = system.algebra.gen("B") * system.algebra.gen("A")
    assert system.normal_form(b_a) == user.normal_form(b_a)
    assert system.normal_form(b_a).text() == "2*C + A*B"

def _systems():
    return [make_family(f) for f in ("commutative", "hsq", "weyl")] + [
        load_system(USER_SYSTEM)
    ]


def _sl2():
    """U(sl2) in the order F < H < E: [E, F] = H, [H, E] = 2E, [H, F] = -2F."""
    alg = Algebra("F", "H", "E")
    f, h, e = (alg.gen(name) for name in "FHE")
    return RelationSystem(alg, {
        ("H", "F"): f * h - 2 * f,
        ("E", "F"): f * e + h,
        ("E", "H"): h * e - 2 * e,
    })


def test_overlaps_are_checked_for_confluence():
    sl2 = _sl2()
    assert sl2.validate().ok
    f, h, e = (sl2.gen(name) for name in "FHE")
    # U(sl2) with [H, E] = 3E: the overlap E*H*F reduces to -2*H one way
    # and to -3*H the other
    wrong = RelationSystem(sl2.algebra, {**sl2.rules, ("E", "H"): h * e - 3 * e})
    assert wrong.validate().violations == ["overlap EHF does not resolve: defect H"]
    with pytest.raises(InvalidSystemError, match="^overlap EHF does not resolve: defect H$"):
        wrong.normal_form(e * h * f)

    q = ParamPoly.param("q")
    alg = Algebra("A", "B", "C")
    a, b, c = (alg.gen(name) for name in "ABC")
    q_commuting = RelationSystem(alg, {("B", "A"): q * a * b, ("C", "A"): q * a * c,
                                       ("C", "B"): q * b * c})
    assert q_commuting.validate().ok
    assert q_commuting.normal_form(c * b * a) == q ** 3 * a * b * c
    for family in ("hsq", "weyl"):
        assert make_family(family).validate().ok


def test_worklist_oracle_reads_its_own_rules():
    # a fault in the reducer's compiled table must show as a disagreement
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    assert hsq.normal_form(b * a) == _worklist_normal_form(hsq, b * a, leftmost=True)
    (pair,) = hsq._compiled  # the rule BA -> AB + h*A^2
    a_squared = hsq.algebra.pack(hsq.algebra.word("A", "A"))
    hsq._compiled[pair] = [(w, 2 * c if w == a_squared else c) for w, c in hsq._compiled[pair]]
    assert hsq.normal_form(b * a) == a * b + 2 * H * a * a
    for reduce in _worklists(hsq):
        assert reduce(b * a) == a * b + H * a * a


def test_worklist_merges_pending_words_before_rewriting():
    # B*A*A rewrites to A*B*A + h*A^3, and that A*B*A cancels the input's
    # before it is rewritten.  In the second input B^2*A rewrites to
    # B*A*B + h*B*A^2: B*A*B cancels, and the h terms of B*A^2 cancel to a
    # bare 1, which A*B*A and then A^2*B inherit.
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    cancelling = b * b * a - b * a * b + (1 - H) * b * a * a
    for p, steps in ((b * a * a - a * b * a, 1), (cancelling, 3)):
        for reduce in _worklists(hsq):
            result = reduce(p)
            assert result == hsq.normal_form(p)
            assert 0 not in result.terms.values()
            assert not any(type(c) is ParamPoly and c.is_constant()
                           for c in result.terms.values())
            assert _smallest_budget(lambda budget: reduce(p, budget=budget)) == steps
    assert hsq.normal_form(b * a * a - a * b * a) == H * a * a * a
    assert hsq.normal_form(cancelling) == a * a * b + 2 * H * a * a * a


def test_worklist_reaches_the_twelfth_power():
    # Under hsq each word of the free power but the n + 1 normal ones is
    # rewritten exactly once, so the count is 2^n - n - 1 (4083 at n = 12).
    hsq = make_family("hsq")
    s = hsq.gen("A") + hsq.gen("B")
    for n in range(4, 13):
        free, power, count = s ** n, hsq.power(s, n), 2 ** n - n - 1
        for reduce in _worklists(hsq):
            assert reduce(free, budget=count) == power
            with pytest.raises(BudgetExceededError):
                reduce(free, budget=count - 1)
    for system in (make_family("weyl"), load_system(USER_SYSTEM)):
        s = system.gen("A") + system.gen("B")
        free, power = s ** 12, system.power(s, 12)
        for reduce in _worklists(system):
            assert reduce(free) == power


def _three_centrals():
    """Three central letters, the rule producing two: BA -> AB + 2D - C."""
    alg = Algebra("C", "D", "E", "A", "B", central=("C", "D", "E"))
    a, b, c, d = (alg.gen(name) for name in "ABCD")
    return RelationSystem(alg, {("B", "A"): a * b + 2 * d - c})


def test_packed_letters_under_a_reordered_alphabet():
    # The README system declares its central letter last.  Its algebra
    # still indexes C first, so a packed letter is its alphabet position.
    system = load_system(USER_SYSTEM)
    assert [g.name for g in system.alphabet] == ["C", "A", "B"]
    assert system.alphabet == system.algebra.generators
    assert [system.position(g) for g in system.alphabet] == [0, 1, 2]
    with pytest.raises(KeyError):
        system.position(Algebra("X").generator("X"))
    with pytest.raises(KeyError):
        system.position(chr(3))
    rng = random.Random(23)
    for _ in range(60):
        p = random_ncpoly(rng, system.algebra, max_degree=6, max_terms=5)
        nf = system.normal_form(p)
        assert nf == _worklist_normal_form(system, p, leftmost=True)
        assert nf == _worklist_normal_form(system, p, leftmost=False)
        for value in (p, nf):
            for key, (word, _) in zip(value.terms, value.items()):
                positions = [system.position(letter) for letter in key]
                assert positions == [system.position(g) for g in word]
                if value is nf:
                    assert positions == sorted(positions)


def _three_letter_systems():
    """Two systems over A < B < C whose rule CB makes a term that lowers a
    letter (A^2) or keeps the later one (AC)."""
    alg = Algebra("A", "B", "C")
    a, b, c = (alg.gen(name) for name in "ABC")
    return [RelationSystem(alg, {("B", "A"): a * b + a, ("C", "A"): a * c,
                                 ("C", "B"): b * c + a * a}),
            RelationSystem(alg, {("B", "A"): a * b, ("C", "A"): a * c,
                                 ("C", "B"): b * c + a * c})]


def test_memo_reducer_matches_worklist_on_random_inputs():
    # The memo holds nf(g * u) for the letters u below g only, and the rest
    # of the word is appended to it: rules over three non-central letters,
    # or with central letters in their terms, must not change a normal form.
    rng = random.Random(17)
    for system in _systems() + [_sl2(), _three_centrals()] + _three_letter_systems():
        assert system.validate().ok
        leftmost, rightmost = _worklists(system)
        for _ in range(80):
            p = random_ncpoly(rng, system.algebra, max_degree=6, max_terms=5)
            memo = system.normal_form(p)
            assert memo == leftmost(p)
            assert memo == rightmost(p)
        s = sum((system.gen(g.name) for g in system.alphabet[-3:]), system.algebra.zero())
        for n in range(7):
            assert system.power(s, n) == rightmost(s ** n)


def test_power_matches_normal_form_of_free_power():
    for system in _systems():
        a, b = system.gen("A"), system.gen("B")
        for n in range(9):
            quotient = system.power(a + b, n)
            assert quotient == system.normal_form((a + b) ** n)
            if n <= 6:
                leftmost = _worklist_normal_form(system, (a + b) ** n, leftmost=True)
                assert quotient == leftmost


def test_power_of_non_normal_polynomial():
    weyl = make_family("weyl")
    a, b, c = (weyl.gen(name) for name in "ABC")
    p = b * a - 2 * c * b + a
    for n in range(5):
        assert weyl.power(p, n) == _worklist_normal_form(weyl, p ** n, leftmost=False)
    with pytest.raises(ValueError):
        weyl.power(p, -1)


# BA -> AB + 1: the rule's constant term is an empty replacement word.
UNIT_RULE_SYSTEM = {
    "alphabet": [{"name": "A"}, {"name": "B"}],
    "rules": [{"pair": ["B", "A"], "replacement": {"terms": [
        {"coeff": "1", "word": ["A", "B"]}, {"coeff": "1", "word": []},
    ]}}],
}


def test_power_of_factors_with_constants_centrals_and_long_words():
    # power folds each factor word into the running result, so a constant
    # word, a central letter and a word of several letters each take their
    # own path through the fold.
    weyl = make_family("weyl")
    a, b, c = (weyl.gen(name) for name in "ABC")
    cases = [(weyl, [1 + a + b, a + b + c, 2 * c * b - a * b + b * a + 3])]
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    cases.append((hsq, [1 + a + b, a + 2 * b + a * b]))
    unit = load_system(UNIT_RULE_SYSTEM)
    assert unit.validate().ok
    a, b = unit.gen("A"), unit.gen("B")
    cases.append((unit, [a + b, 1 + a + b]))
    for system, factors in cases:
        for p in factors:
            for n in range(6):
                power = system.power(p, n)
                assert power == system.normal_form(p ** n)
                assert power == _worklist_normal_form(system, p ** n, leftmost=False)


def test_closed_forms_match_power_at_24():
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    assert hsq.normal_form(closed_form_hsq(24, hsq.algebra)) == hsq.power(a + b, 24)

    weyl = make_family("weyl")
    wa, wb = weyl.gen("A"), weyl.gen("B")
    closed = weyl.normal_form(closed_form_weyl(24, weyl.algebra))
    assert closed == weyl.power(wa + wb, 24)


def test_qh_closed_form_and_its_specializations():
    # BA = q*AB + h*A^2 is hsq at q = 1 and the q-commuting plane at h = 0,
    # whose (A+B)^n has the Gaussian binomials as coefficients.
    q = ParamPoly.param("q")
    alg = Algebra("A", "B")
    a, b = alg.gen("A"), alg.gen("B")
    qh = RelationSystem(alg, {("B", "A"): q * a * b + H * a * a})
    q_plane = RelationSystem(alg, {("B", "A"): q * a * b})
    hsq = make_family("hsq")
    for n in range(17):
        closed = _closed_form_qh(n, alg)
        if n <= 12:
            assert closed == qh.power(a + b, n)
        assert closed.substitute({"q": 1}) == hsq.power(hsq.gen("A") + hsq.gen("B"), n)
        gauss = closed.substitute({"h": 0})
        assert gauss == q_plane.power(a + b, n)
        # [n k]_q by the other Pascal rule, [m i] = q^(m-i) [m-1 i-1] + [m-1 i]
        row = [1]
        for m in range(1, n + 1):
            row = [1] + [q ** (m - i) * row[i - 1] + row[i] for i in range(1, m)] + [1]
        assert gauss == sum((g * a ** k * b ** (n - k) for k, g in enumerate(row)), alg.zero())
    gauss = _closed_form_qh(4, alg).substitute({"h": 0})
    assert gauss.coefficient(alg.word("A", "A", "B", "B")) == 1 + q + 2 * q ** 2 + q ** 3 + q ** 4


def test_twisted_closed_form_in_quotients():
    # T_k = sum_j (-1)^j C(k, j) (A + B)^(k-j) B^j in every associative
    # algebra, and T_(k+1) = A*T_k + [B, T_k] may be reduced at every step.
    for system in _systems():
        algebra = system.algebra
        a, b = algebra.gen("A"), algebra.gen("B")
        step = algebra.one()
        for k in range(11):
            closed = system.normal_form(_twisted_closed_form(k, algebra))
            sum_form = algebra.zero()
            for j in range(k + 1):
                sum_form = sum_form + (-1) ** j * math.comb(k, j) * system.power(a + b, k - j) * b ** j
            assert system.normal_form(sum_form) == closed
            assert step == closed
            step = system.normal_form(a * step + b * step - step * b)


def test_long_word_does_not_deepen_the_stack():
    # B*A^1000 leaves 1000 pushes pending at once, deeper than Python's
    # default recursion limit.  Under weyl the worklist needs about 5*10^5
    # central swaps here (seconds), so that result is checked against
    # [B, A^n] = n*C*A^(n-1), and the worklist checks a shorter word; under
    # hsq the worklist is quick enough to serve as the oracle itself.
    weyl = make_family("weyl")
    a, b, c = (weyl.gen(name) for name in "ABC")
    assert weyl.normal_form(b * a ** 1000) == a ** 1000 * b + 1000 * c * a ** 999
    word = b * a ** 300
    assert weyl.normal_form(word) == _worklist_normal_form(weyl, word, leftmost=True)

    # power folds the word into the unit result on the same explicit stack
    assert weyl.power(b * a ** 1000, 1) == a ** 1000 * b + 1000 * c * a ** 999

    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    word = b * a ** 1000
    assert hsq.normal_form(word) == _worklist_normal_form(hsq, word, leftmost=True)
    assert hsq.power(word, 1) == hsq.normal_form(word)


def test_budget_message_names_the_budget():
    hsq = make_family("hsq")
    a, b = hsq.algebra.gen("A"), hsq.algebra.gen("B")
    for reduce in (hsq.normal_form, *_worklists(hsq)):
        with pytest.raises(BudgetExceededError) as info:
            reduce(b ** 3 * a ** 3, budget=2)
        assert str(info.value) == (
            "budget of 2 rule applications too small for this input"
        )
    with pytest.raises(BudgetExceededError):
        hsq.power(a + b, 6, budget=3)


def test_budget_error_carries_its_facts():
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    # the memo reducer stops inside the push of B into A, the worklist at
    # the word it would rewrite next: the largest pending one
    leftmost, rightmost = _worklists(hsq)
    for reduce, word in ((hsq.normal_form, "B*A"), (leftmost, "B^2*A^4"),
                         (rightmost, "B^2*A^2*B*A")):
        with pytest.raises(BudgetExceededError) as info:
            reduce(b ** 3 * a ** 3, budget=2)
        assert (info.value.budget, info.value.steps, info.value.word) == (2, 3, word)
    # with its central letter declared last the word is still rendered by name
    user = load_system(USER_SYSTEM)
    a, b, c = (user.gen(name) for name in "ABC")
    with pytest.raises(BudgetExceededError) as info:
        _worklist_normal_form(user, b * b * a * a * c, leftmost=True, budget=1)
    assert (info.value.budget, info.value.steps, info.value.word) == (1, 2, "B*A*B*A*C")


# Rule applications to reduce (A+B)^n, per reducer, for n = 4, 5, ...  The
# worklists rewrite each word once; under hsq that is every word but the
# n + 1 normal ones, 2^n - n - 1.
WORKLIST_COUNTS = {
    "leftmost": {"hsq": [11, 26, 57, 120], "weyl": [19, 50, 117, 258]},
    "rightmost": {"hsq": [11, 26, 57, 120], "weyl": [20, 57, 143, 336]},
}
MEMO_COUNTS = {"hsq": [3, 4, 5, 6, 7], "weyl": [3, 4, 5, 6]}


def test_rule_application_counts():
    # The count is the smallest budget that succeeds.  The README user
    # system declares its central C last and counts like weyl.
    systems = [("hsq", make_family("hsq")), ("weyl", make_family("weyl")),
               ("weyl", load_system(USER_SYSTEM))]
    for family, system in systems:
        s = system.gen("A") + system.gen("B")
        leftmost, rightmost = _worklists(system)
        for reduce, counts in ((leftmost, WORKLIST_COUNTS["leftmost"]),
                               (rightmost, WORKLIST_COUNTS["rightmost"]),
                               (system.normal_form, MEMO_COUNTS)):
            for n, count in enumerate(counts[family], start=4):
                p = s ** n
                reduce(p, budget=count)
                with pytest.raises(BudgetExceededError):
                    reduce(p, budget=count - 1)


def _smallest_budget(call):
    """The smallest budget under which ``call(budget)`` succeeds."""
    budget = 0
    while True:
        try:
            call(budget)
            return budget
        except BudgetExceededError:
            budget += 1


def test_power_rule_application_counts():
    # power counts as normal_form of the free power does (MEMO_COUNTS).  The
    # memo is keyed by the letters that move, so pushing B into A^i B^j reads
    # the entry of B*A^i, and (A+B)^n takes n - 1 rule applications.  The
    # facts of a refused budget pin the order of its pushes.
    for system in _systems():
        s = system.gen("A") + system.gen("B")
        counts = [_smallest_budget(functools.partial(system.power, s, n)) for n in range(4, 9)]
        assert counts == [3, 4, 5, 6, 7]
        for n in (16, 40):
            system.power(s, n, budget=n - 1)
            with pytest.raises(BudgetExceededError) as info:
                system.power(s, n, budget=n - 2)
            assert info.value.word == f"B*A^{n - 1}"
        system.normal_form(s ** 10, budget=9)
        with pytest.raises(BudgetExceededError):
            system.normal_form(s ** 10, budget=8)
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    assert _smallest_budget(functools.partial(hsq.power, a + 2 * b + a * b, 6)) == 9
    for budget, steps, word in ((0, 1, "B*A"), (1, 2, "B*A^2"), (3, 4, "B*A^4"),
                                (4, 5, "B*A^5")):
        with pytest.raises(BudgetExceededError) as info:
            hsq.power(a + b, 6, budget=budget)
        assert (info.value.budget, info.value.steps, info.value.word) == (budget, steps, word)


def test_malformed_system_names_the_missing_key():
    cases = [
        ({"rules": []}, 'missing "alphabet"'),
        ({"alphabet": [{"central": True}]}, 'alphabet entry 0 missing "name"'),
        ({"alphabet": [{"name": "A"}], "rules": [{"replacement": {}}]},
         'rules entry 0 missing "pair"'),
        ({"alphabet": [{"name": "A"}, {"name": "B"}],
          "rules": [{"pair": ["B", "A"], "replacement": {}}]},
         'rules entry 0 replacement missing "terms"'),
        ({"alphabet": [{"name": "A"}], "rules": [{"pair": "BA", "replacement": {}}]},
         'rules entry 0 "pair" must name two generators'),
        ({"alphabet": [{"name": "A"}, {"name": "B"}],
          "rules": [{"pair": [["B"], "A"], "replacement": {"terms": []}}]},
         'rules entry 0 "pair" must name two generators'),
        ({"alphabet": 5}, '"alphabet" must be a list'),
        ({"alphabet": [{"name": "A"}], "rules": 5}, '"rules" must be a list'),
    ]
    shape = 'must be {"terms": [{"coeff": "<text>", "word": [...]}, ...]}'
    numeric = json.loads(json.dumps(USER_SYSTEM))
    numeric["rules"][0]["replacement"]["terms"][0]["coeff"] = 1
    listed = json.loads(json.dumps(USER_SYSTEM))
    listed["rules"][0]["replacement"] = [1]
    unknown = json.loads(json.dumps(USER_SYSTEM))
    unknown["rules"][0]["replacement"]["terms"][0]["word"] = ["X"]
    unparsable = json.loads(json.dumps(USER_SYSTEM))
    unparsable["rules"][0]["replacement"]["terms"][0]["coeff"] = "1 +* h"
    zero_denominator = json.loads(json.dumps(USER_SYSTEM))
    zero_denominator["rules"][0]["replacement"]["terms"][0]["coeff"] = "1/0"
    spelled = json.loads(json.dumps(USER_SYSTEM))
    spelled["rules"][0]["replacement"]["terms"][0]["word"] = "AB"
    repeated = json.loads(json.dumps(USER_SYSTEM))
    repeated["rules"].append(repeated["rules"][0])
    cases += [(numeric, f"rules entry 0 replacement {shape}"),
              (listed, f"rules entry 0 replacement {shape}"),
              (unknown, "rules entry 0 replacement: unknown generator 'X'"),
              (unparsable, "rules entry 0 replacement: cannot parse polynomial factor '1 +'"),
              (zero_denominator,
               "rules entry 0 replacement: zero denominator in polynomial factor '1/0'"),
              (spelled, f"rules entry 0 replacement {shape}"),
              (repeated, "rules entry 1 repeats pair BA")]
    for doc, message in cases:
        with pytest.raises(MalformedSystemError) as info:
            load_system(doc)
        assert str(info.value) == f"malformed system file: {message}"


def test_malformed_alphabet_entry_types():
    cases = [
        ([{"name": 5}, {"name": "B"}], 'alphabet entry 0 "name" must be a string'),
        ([{"name": "A"}, {"name": ["B"]}], 'alphabet entry 1 "name" must be a string'),
        ([{"name": ""}], 'alphabet entry 0 "name" must not be empty'),
        ([{"name": "A"}, {"name": "C", "central": "yes"}],
         'alphabet entry 1 "central" must be a bool'),
        ([{"name": "C", "central": 1}], 'alphabet entry 0 "central" must be a bool'),
        ([{"name": "A"}, {"name": "B"}, {"name": "A", "central": True}],
         "alphabet entry 2 repeats name A"),
    ]
    for alphabet, message in cases:
        with pytest.raises(MalformedSystemError) as info:
            load_system({"alphabet": alphabet, "rules": []})
        assert str(info.value) == f"malformed system file: {message}"
