#!/usr/bin/env python3
"""Layer benchmark of the quotient reducer: ``power``, ``normal_form`` and
the worklist oracle.

    python3 tools/bench_reducer.py parent=../parent/src change=src

Each ``LABEL=DIR`` argument names a directory that holds an ``ncbinom``
package (default: ``change=src`` of this checkout).  Every copy is imported
into this one interpreter, apart from the others.  For the hsq, weyl and
commutative families the benchmark runs ``power(A+B, n)`` at n = 8, 32 and
128 and ``normal_form((A+B)^n)`` at n = 8 and 12.  For hsq and weyl the
``worklist`` op reduces ``(A+B)^n`` at n = 6 and 8 with the leftmost and
the rightmost worklist oracle, one row per strategy.  Each case runs 5
times per copy, the copies taking turns and alternating which goes first,
so that a host that slows down for a while slows every copy alike.

Each row holds the median and the least wall seconds of the 5 runs, the
rule applications (the smallest ``budget=`` under which the call succeeds,
found by bisection) and the number of terms out.  The rows go under their
label into ``--out`` (default ``BENCH_reducer.json``); rows under other
labels are kept.  Uses the standard library and the public API of
``ncbinom``, plus one private name for the ``worklist`` op:
``ncbinom.verify._worklist_normal_form``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
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


def case_call(package, op: str, family: str, n: int, strategy: str | None):
    """``call(budget)`` running one case under ``package``."""
    system = package.make_family(family)
    s = system.gen("A") + system.gen("B")
    if op == "power":
        return lambda budget: system.power(s, n, budget)
    free = s ** n
    if op == "worklist":
        worklist = package.verify._worklist_normal_form
        return lambda budget: worklist(system, free, strategy == "leftmost", budget)
    return lambda budget: system.normal_form(free, budget)


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
                results[label] = calls[label](packages[label].DEFAULT_BUDGET)
                seconds[label].append(time.perf_counter() - start)
        for label, package in packages.items():
            table[label].append({
                "op": op, "family": family, "n": n,
                **({"strategy": strategy} if strategy else {}),
                "median_s": round(statistics.median(seconds[label]), 6),
                "min_s": round(min(seconds[label]), 6),
                "rule_applications": smallest_budget(calls[label],
                                                     package.BudgetExceededError),
                "terms_out": len(list(results[label].items())),
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
            print(f"{label:8} {op:18} {row['family']:11} n={row['n']:<4} "
                  f"{row['median_s']:9.4f} s (min {row['min_s']:.4f})  "
                  f"{row['rule_applications']:6} rule apps  {row['terms_out']:5} terms")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
