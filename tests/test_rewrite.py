import json
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
from ncbinom.verify import random_ncpoly, strategy_agreement

H = ParamPoly.param("h")


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
        assert not report.warnings


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
    hsq = make_family("hsq")
    other = Algebra("A", "B", "C")
    with pytest.raises(ContextMismatchError):
        hsq.normal_form(other.gen("A"))
    with pytest.raises(ValueError):
        hsq.normal_form(hsq.algebra.gen("A"), strategy="middle")


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
    assert report.warnings  # user systems carry the statistical-confluence note

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


def _three_centrals():
    """Three central letters, the rule producing two: BA -> AB + 2D - C."""
    alg = Algebra("C", "D", "E", "A", "B", central=("C", "D", "E"))
    a, b, c, d = (alg.gen(name) for name in "ABCD")
    return RelationSystem(alg, {("B", "A"): a * b + 2 * d - c})


def test_packed_letters_under_a_reordered_alphabet():
    # The README system declares its central letter last, so its packed
    # letters are translated to alphabet positions and back.
    system = load_system(USER_SYSTEM)
    assert [g.name for g in system.alphabet] == ["C", "A", "B"]
    rng = random.Random(23)
    for _ in range(60):
        p = random_ncpoly(rng, system.algebra, max_degree=6, max_terms=5)
        nf = system.normal_form(p)
        assert nf == system.normal_form(p, strategy="leftmost")
        assert nf == system.normal_form(p, strategy="rightmost")
        for value in (p, nf):
            for key, (word, _) in zip(value.terms, value.items()):
                positions = [system.position(letter) for letter in key]
                assert positions == [system.position(g) for g in word]
                if value is nf:
                    assert positions == sorted(positions)


def test_memo_reducer_matches_worklist_on_random_inputs():
    rng = random.Random(17)
    for system in _systems() + [_sl2(), _three_centrals()]:
        for _ in range(80):
            p = random_ncpoly(rng, system.algebra, max_degree=6, max_terms=5)
            memo = system.normal_form(p)
            assert memo == system.normal_form(p, strategy="leftmost")
            assert memo == system.normal_form(p, strategy="rightmost")


def test_power_matches_normal_form_of_free_power():
    for system in _systems():
        a, b = system.gen("A"), system.gen("B")
        for n in range(9):
            quotient = system.power(a + b, n)
            assert quotient == system.normal_form((a + b) ** n)
            if n <= 6:
                leftmost = system.normal_form((a + b) ** n, strategy="leftmost")
                assert quotient == leftmost


def test_power_of_non_normal_polynomial():
    weyl = make_family("weyl")
    a, b, c = (weyl.gen(name) for name in "ABC")
    p = b * a - 2 * c * b + a
    for n in range(5):
        assert weyl.power(p, n) == weyl.normal_form(p ** n, strategy="rightmost")
    with pytest.raises(ValueError):
        weyl.power(p, -1)


def test_closed_forms_match_power_at_24():
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    assert hsq.normal_form(closed_form_hsq(24, hsq.algebra)) == hsq.power(a + b, 24)

    weyl = make_family("weyl")
    wa, wb = weyl.gen("A"), weyl.gen("B")
    closed = weyl.normal_form(closed_form_weyl(24, weyl.algebra))
    assert closed == weyl.power(wa + wb, 24)


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
    assert weyl.normal_form(word) == weyl.normal_form(word, strategy="leftmost")

    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    word = b * a ** 1000
    assert hsq.normal_form(word) == hsq.normal_form(word, strategy="leftmost")


def test_budget_message_names_the_budget():
    hsq = make_family("hsq")
    a, b = hsq.algebra.gen("A"), hsq.algebra.gen("B")
    for strategy in ("memo", "leftmost", "rightmost"):
        with pytest.raises(BudgetExceededError) as info:
            hsq.normal_form(b ** 3 * a ** 3, budget=2, strategy=strategy)
        assert str(info.value) == (
            "budget of 2 rule applications too small for this input"
        )
    with pytest.raises(BudgetExceededError):
        hsq.power(a + b, 6, budget=3)


def test_budget_error_carries_its_facts():
    hsq = make_family("hsq")
    a, b = hsq.gen("A"), hsq.gen("B")
    # the memo reducer stops inside the push of B into A, the worklist at
    # the word it would rewrite next
    for strategy, word in (("memo", "B*A"), ("leftmost", "B*A*B^2*A^2"),
                           ("rightmost", "B^2*A^2*B*A")):
        with pytest.raises(BudgetExceededError) as info:
            hsq.normal_form(b ** 3 * a ** 3, budget=2, strategy=strategy)
        assert (info.value.budget, info.value.steps, info.value.word) == (2, 3, word)
    # under a reordered alphabet the word is still rendered by generator name
    user = load_system(USER_SYSTEM)
    a, b, c = (user.gen(name) for name in "ABC")
    with pytest.raises(BudgetExceededError) as info:
        user.normal_form(b * b * a * a * c, budget=1, strategy="leftmost")
    assert (info.value.budget, info.value.steps, info.value.word) == (1, 2, "B*A*B*A*C")


# Rule applications to reduce (A+B)^n, per reducer, for n = 4, 5, ...
WORKLIST_COUNTS = {"hsq": [49, 294, 1893, 13572], "weyl": [51, 248, 1131, 5049]}
MEMO_COUNTS = {"hsq": [6, 10, 15, 21, 28], "weyl": [6, 10, 15, 21]}


def test_rule_application_counts():
    # The count is the smallest budget that succeeds.  The README user
    # system declares its central C last and counts like weyl.
    systems = [("hsq", make_family("hsq")), ("weyl", make_family("weyl")),
               ("weyl", load_system(USER_SYSTEM))]
    for family, system in systems:
        s = system.gen("A") + system.gen("B")
        for strategy in ("leftmost", "rightmost", "memo"):
            counts = (MEMO_COUNTS if strategy == "memo" else WORKLIST_COUNTS)[family]
            for n, count in enumerate(counts, start=4):
                p = s ** n
                system.normal_form(p, budget=count, strategy=strategy)
                with pytest.raises(BudgetExceededError):
                    system.normal_form(p, budget=count - 1, strategy=strategy)


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
