"""The check runner of ``ncbinom.verify`` and what its checks report on failure."""

import hashlib
import json
import random

import pytest

import ncbinom
from ncbinom import verify
from ncbinom.binomial import free_pair
from ncbinom.diffop import DiffOp, Poly1
from ncbinom.rewrite import RelationSystem


@pytest.mark.parametrize("fail_at", [1, 7, 40])
def test_check_draws_no_further_than_the_first_counterexample(fail_at):
    rng = random.Random(5)
    draws = (rng.random() for _ in range(100))
    seen = []

    def body(value):
        seen.append(value)
        return {"draw": len(seen)} if len(seen) == fail_at else None

    result = verify._check("stub", "100 draws", draws, body)
    assert result == verify.CheckResult("stub", False, "100 draws", {"draw": fail_at})
    reference = random.Random(5)
    for _ in range(fail_at):
        reference.random()
    assert rng.getstate() == reference.getstate()


def _random_diffop_reference(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(0, 4), rng.randint(0, 4))
        terms[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return DiffOp(terms)


def _random_poly1_reference(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[rng.randint(0, 6)] = rng.choice([-3, -1, 1, 2])
    return Poly1(coeffs)


def test_hermite_draws_follow_the_reference_stream():
    # the compose-soundness draws, one _randbelow call per value
    for seed in range(8):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(30):
            for draw, reference in ((verify._random_diffop, _random_diffop_reference),
                                    (verify._random_poly1, _random_poly1_reference)):
                value, expected = draw(rng), reference(ref_rng)
                assert value == expected and list(value.terms) == list(expected.terms)
            assert rng.getstate() == ref_rng.getstate()


def test_check_passes_after_every_case():
    cases = []
    result = verify._check("stub", "n <= 3", range(4), lambda n: cases.append(n))
    assert result == verify.CheckResult("stub", True, "n <= 3")
    assert cases == [0, 1, 2, 3]


def _digest(counterexample):
    """The start of the sha256 of the JSON line ``verify`` prints for it."""
    text = json.dumps(counterexample, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# Each case patches one thing the checks call so that some of them fail,
# runs them, and lists every failing check as (name, detail, digest of the
# counterexample).  The digests pin which case fails first, and so the draw
# order of the sampled checks: the statements identities share one rng, and
# a later identity starts drawing where the one before it stopped.
FORCED_FAILURES = {
    "statements-commutator": (
        verify, "commutator",
        lambda real: lambda x, p: real(x, p) + (1 if len(x.terms) + len(p.terms) >= 7 else 0),
        lambda: verify.run_suite("statements"),
        [("statements/left-action-commutes", "500 random instances, degree <= 3",
          "e0ef7904565dcf30"),
         ("statements/derivation-leibniz", "500 random instances, degree <= 3",
          "cab7fe2199641f2a"),
         ("statements/right-action-difference", "500 random instances, degree <= 3",
          "1865bc617fd48de7"),
         ("statements/jacobi", "500 random instances, degree <= 3", "e9dce933d3273544")]),
    "strategy-worklist": (
        verify, "_worklist_reducer",
        lambda real: lambda system: (lambda reduce: lambda p, leftmost: (
            p if not leftmost and sum(map(len, p.terms)) >= 18
            else reduce(p, leftmost)))(real(system)),
        lambda: [verify.strategy_agreement(family) for family in ("commutative", "hsq", "weyl")],
        [("commutative-strategy-agreement", "500 random polynomials, degree <= 6",
          "239068a51441894d"),
         ("hsq-strategy-agreement", "500 random polynomials, degree <= 6",
          "e31a99beea400df2"),
         ("weyl-strategy-agreement", "500 random polynomials, degree <= 6",
          "027ca4c27f9ea1b4")]),
    "weyl-centrality": (
        RelationSystem, "normal_form",
        lambda real: lambda system, p, *budget: (
            lambda nf: p if nf.is_zero() and len(p.terms) >= 8 else nf)(real(system, p, *budget)),
        lambda: verify.run_suite("weyl"),
        [("weyl/centrality", "100 random polynomials", "f665e044f7765af2")]),
    "transport": (
        verify, "commutator",
        lambda real: lambda x, p: real(x, p) + (x if p.degree() >= 4 else 0),
        lambda: verify.run_suite("hsq") + verify.run_suite("weyl"),
        [("hsq/derivation-transport", "k h A^(k+1), k <= 8", "5b755a01aff32bdb"),
         ("weyl/m-derivation-transport", "n C M_(n-1), n <= 8", "1d642d96668ff332"),
         ("weyl/power-derivation-transport", "k C A^(k-1), k <= 8", "b05a8c521376d84b")]),
    "transport-max-n-0": (
        verify, "commutator",
        lambda real: lambda x, p: real(x, p) + x,
        lambda: verify.run_suite("hsq", max_n=0) + verify.run_suite("weyl", max_n=0),
        [("hsq/derivation-transport", "k h A^(k+1), k <= 0", "70f9ea3a1205a867"),
         ("weyl/m-derivation-transport", "n C M_(n-1), n <= 0", "ab934cbf20651b30"),
         ("weyl/power-derivation-transport", "k C A^(k-1), k <= 0", "340aec24bd1f9c84")]),
    "weyl-closed-form": (
        verify, "closed_form_weyl",
        lambda real: lambda n, algebra: real(n, algebra) + (algebra.gen("C") if n == 4 else 0),
        lambda: verify.run_suite("weyl"),
        [("weyl/closed-form-quotient", "quotient equality with brute power, n <= 8",
          "67a04a2e9ae10498")]),
    "hsq-closed-form": (
        verify, "closed_form_hsq",
        lambda real: lambda n, algebra: real(n, algebra) + (algebra.gen("A") if n == 3 else 0),
        lambda: verify.run_suite("hsq"),
        [("hsq/closed-form-quotient", "quotient equality with brute power, n <= 8",
          "87c83b28094269cd")]),
    "essential-part": (
        verify, "essential_part",
        lambda real: lambda k, algebra: real(k, algebra) + (algebra.gen("A") if k >= 3 else 0),
        lambda: verify.run_suite("theorem1"),
        [("theorem1/essential-part-paths", "difference vs recurrence, k <= 8",
          "6ff8b1157e2a1f06"),
         ("theorem1/commutative-collapse", "normal form vanishes, k <= 8",
          "1bc541ff96d5043f")]),
    "m-basis": (
        verify, "m_basis",
        lambda real: lambda n, algebra=None: real(n, algebra) * (2 if n >= 4 else 1),
        lambda: verify.run_suite("theorem2"),
        [("theorem2/m-product-defect-zero", "n <= 8", "e009ebfbe5477a90"),
         ("theorem2/m-power-defect-zero", "n <= 8", "65eeb23631d12b03")]),
    "exp-defect": (
        verify, "exp_defect",
        lambda real: lambda which, order: free_pair().gen("A") * (2 if which == "split" else 1),
        lambda: verify.run_suite("exp") + verify.run_suite("exp", max_n=3),
        [("exp/factored-defect-zero", "truncated to total degree <= 6", "07103c7818a31e84"),
         ("exp/split-defect-zero", "truncated to total degree <= 6", "8ab72bea84335e50"),
         ("exp/factored-defect-zero", "truncated to total degree <= 3", "795b63a7909e4297"),
         ("exp/split-defect-zero", "truncated to total degree <= 3", "6c27c3e8a5e7686d")]),
    "compose": (
        DiffOp, "compose",
        lambda real: lambda f, g: real(f, g) + (
            DiffOp.identity() if len(f.terms) >= 4 and len(g.terms) >= 4 else 0),
        lambda: verify.run_suite("hermite"),
        [("hermite/compose-soundness", "200 random operator pairs", "8d46d152df95a9d5")]),
    "hermite-paths": (
        verify, "_hermite_explicit_sum",
        lambda real: lambda n: real(n) + (Poly1.one() if n == 5 else 0),
        lambda: verify.run_suite("hermite"),
        [("hermite/path-agreement", "three generation paths, n <= 20", "5ca7a98930af4365")]),
    "spot-checks": (
        verify, "hermite",
        lambda real: lambda n: real(n) + (Poly1.one() if n == 3 else 0),
        lambda: verify.run_suite("hermite"),
        [("hermite/spot-checks", "frozen values at n = 2, 3", "6494e60ea6659917")]),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_forced_failures_report_the_same_counterexamples(monkeypatch, case):
    owner, name, make, run, expected = FORCED_FAILURES[case]
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    failures = [(r.name, r.detail, _digest(r.counterexample)) for r in run() if not r.passed]
    assert failures == expected


def test_check_only_names_are_not_exported():
    for name in ("random_ncpoly", "strategy_agreement"):
        assert name not in ncbinom.__all__
        assert not hasattr(ncbinom, name)
        assert callable(getattr(verify, name))
    assert len(ncbinom.__all__) == 44
    assert all(hasattr(ncbinom, name) for name in ncbinom.__all__)
