#!/usr/bin/env python3
"""Layer benchmark of the quotient reducer (``power``, ``normal_form`` and
the worklist oracle) and of the small operations of the verify checks.

    python3 tools/bench_reducer.py parent=../parent/src change=src

Each ``LABEL=DIR`` argument names a directory that holds an ``ncbinom``
package (default: ``change=src`` of this checkout).  Every copy is imported
into this one interpreter, apart from the others.  For the hsq, weyl and
commutative families the benchmark runs ``power(A+B, n)`` at n = 8, 32 and
128 and ``normal_form((A+B)^n)`` at n = 8 and 12.  For hsq and weyl the
``worklist`` op reduces ``(A+B)^n`` at n = 6 and 8 with the leftmost and
the rightmost worklist oracle, one row per strategy.  The ``small_ops`` op
times the 1-4-term operations of the verify gate: the four identities of
the ``statements`` suite on 500 seeded triples of ``random_ncpoly`` (case
``identities``), 6,000 ``random_ncpoly`` draws (case ``draws``) and
``strategy_agreement(family, seed=0)`` for the commutative, hsq and weyl
families (case ``agreement``).  Each case runs 5 times per copy, the
copies taking turns and alternating which goes first, so that a host that
slows down for a while slows every copy alike.

Each row holds the median and the least wall seconds of the 5 runs and a
work counter.  A reducer row counts the rule applications (the smallest
``budget=`` under which the call succeeds, found by bisection) and the
terms out.  A ``small_ops`` row counts ``products`` (the ``NCPoly``
products of one run, counted in an extra untimed run), ``draws`` or
``checks`` (the random inputs that ``strategy_agreement`` checks).  The
rows go under their label into ``--out`` (default ``BENCH_reducer.json``);
rows under other labels are kept.  Uses the standard library and the
public API of ``ncbinom``, plus the check-only names of ``ncbinom.verify``:
``_worklist_normal_form``, ``random_ncpoly``, ``strategy_agreement`` and
``RANDOM_CASES``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = [(op, family, n, None)
         for family in ("hsq", "weyl", "commutative")
         for op, sizes in (("power", (8, 32, 128)), ("normal_form", (8, 12)))
         for n in sizes]
CASES += [("worklist", family, n, strategy)
          for family in ("hsq", "weyl") for n in (6, 8)
          for strategy in ("leftmost", "rightmost")]
CASES += [("small_ops", "free", 500, "identities"), ("small_ops", "free", 6000, "draws")]
CASES += [("small_ops", family, None, "agreement") for family in ("commutative", "hsq", "weyl")]
REPEATS = 5


def load(src: str):
    """The ``ncbinom`` package under ``src``, imported apart from any other copy."""
    for name in [name for name in sys.modules if name.partition(".")[0] == "ncbinom"]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        package = importlib.import_module("ncbinom")
        # the worklist op reads verify, so it loads with its own copy
        importlib.import_module("ncbinom.verify")
        return package
    finally:
        del sys.path[0]


def case_call(package, op: str, family: str, n: int | None, strategy: str | None):
    """(``run()``, ``work(result)``): one timed case under ``package`` and
    its work counters."""
    if op == "small_ops":
        return small_call(package, family, n, strategy)
    call = reducer_call(package, op, family, n, strategy)

    def work(result):
        return {"rule_applications": smallest_budget(call, package.BudgetExceededError),
                "terms_out": len(list(result.items()))}

    return (lambda: call(package.DEFAULT_BUDGET)), work


def reducer_call(package, op: str, family: str, n: int, strategy: str | None):
    """``call(budget)`` running one reducer case under ``package``."""
    system = package.make_family(family)
    s = system.gen("A") + system.gen("B")
    if op == "power":
        return lambda budget: system.power(s, n, budget)
    free = s ** n
    if op == "worklist":
        worklist = package.verify._worklist_normal_form
        return lambda budget: worklist(system, free, strategy == "leftmost", budget)
    return lambda budget: system.normal_form(free, budget)


def small_call(package, family: str, n: int | None, case: str):
    """``case_call`` for the ``small_ops`` cases, drawn from seed 0."""
    verify = package.verify
    if case == "agreement":
        def work(result):
            if not result.passed:
                raise RuntimeError(f"{family} strategy agreement failed: {result}")
            return {"checks": verify.RANDOM_CASES}

        return (lambda: verify.strategy_agreement(family, seed=0)), work
    algebra = package.Algebra("A", "B", "C")
    if case == "draws":
        def run():
            rng = random.Random(0)
            return [verify.random_ncpoly(rng, algebra) for _ in range(n)]
        return run, lambda result: {"draws": len(result)}
    rng = random.Random(0)
    triples = [[verify.random_ncpoly(rng, algebra) for _ in "axy"] for _ in range(n)]
    commutator = package.commutator

    def run():
        # the four identities of the statements suite, as it writes them
        return [(a * commutator(a, x) == commutator(a, a * x),
                 commutator(a, x * y) == commutator(a, x) * y + x * commutator(a, y),
                 a * x - commutator(a, x) == x * a,
                 (commutator(a, commutator(x, y)) + commutator(x, commutator(y, a))
                  + commutator(y, commutator(a, x))).is_zero())
                for a, x, y in triples]

    def work(result):
        if not all(all(held) for held in result):
            raise RuntimeError("a statements identity failed")
        cls, counted = package.NCPoly, [0]
        mul = cls.__mul__

        def counting(self, other):
            counted[0] += 1
            return mul(self, other)

        cls.__mul__ = counting
        try:
            run()
        finally:
            cls.__mul__ = mul
        return {"products": counted[0]}

    return run, work


def smallest_budget(call, error) -> int:
    """The smallest budget under which ``call(budget)`` succeeds."""

    def succeeds(budget):
        try:
            call(budget)
        except error:
            return False
        return True

    if succeeds(0):
        return 0
    low, high = 0, 1  # call(low) fails
    while not succeeds(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if succeeds(mid) else (mid, high)
    return high


def rows(packages: dict) -> dict:
    """{label: [row per case]} for the packages under their labels."""
    table = {label: [] for label in packages}
    for op, family, n, strategy in CASES:
        calls = {label: case_call(package, op, family, n, strategy)
                 for label, package in packages.items()}
        seconds = {label: [] for label in packages}
        results = {}
        for repeat in range(REPEATS):
            order = list(packages) if repeat % 2 == 0 else list(packages)[::-1]
            for label in order:
                start = time.perf_counter()
                results[label] = calls[label][0]()
                seconds[label].append(time.perf_counter() - start)
        for label in packages:
            table[label].append({
                "op": op, "family": family,
                **({"n": n} if n is not None else {}),
                **({"strategy": strategy} if strategy else {}),
                "median_s": round(statistics.median(seconds[label]), 6),
                "min_s": round(min(seconds[label]), 6),
                **calls[label][1](results[label]),
            })
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="*", metavar="LABEL=DIR",
                        default=[f"change={os.path.join(ROOT, 'src')}"],
                        help="a label and the directory that holds its ncbinom package")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_reducer.json"))
    args = parser.parse_args(argv)
    packages = {}
    for side in args.sides:
        label, sep, src = side.partition("=")
        if not (label and sep and src):
            parser.error(f"expected LABEL=DIR, got {side!r}")
        packages[label] = load(src)
    table = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            table = json.load(fh)
    env = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "sides": list(packages)}
    for label, label_rows in rows(packages).items():
        table[label] = {**env, "rows": label_rows}
        for row in label_rows:
            op = "/".join(filter(None, (row["op"], row.get("strategy"))))
            work = "  ".join(f"{value} {key}" for key, value in row.items()
                             if key not in ("op", "strategy", "family", "n", "median_s", "min_s"))
            print(f"{label:8} {op:20} {row['family']:11} n={row.get('n', '-')!s:<5}"
                  f"{row['median_s']:9.4f} s (min {row['min_s']:.4f})  {work}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
