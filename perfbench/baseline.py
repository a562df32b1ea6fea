#!/usr/bin/env python3
"""Reprint the ROADMAP Baseline rows, measured from outside the package.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Not a gate: it prints each row as
the median wall time of REPEATS in-process calls of the public API, and
writes the rows with the environment stamp to
``perfbench/results/baseline.json``.  Rows:

- the free expansion methods at n = 14;
- ``hermite(60)`` per generation path;
- ``exp_defect`` at order 10, both identities;
- the hsq reduction of (A+B)^n for n = 4..8, with ``rewrite.terms_in`` and
  ``rewrite.inversions_in`` of its input and the terms it returns.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run as bench
from tracer import inversions

REPEATS = 3


def timed(fn):
    """Median seconds of REPEATS calls, and the last result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from ncbinom import (essential_expand, exp_defect, free_pair, hermite,
                         make_family, m_derivation_expand, twisted_expand)

    rows = []

    def row(label, seconds, **counts):
        rows.append({"row": label, "seconds": seconds, **counts})
        extra = "".join(f"  {k}={v}" for k, v in counts.items())
        print(f"{label:40s} {seconds:8.3f} s{extra}", flush=True)

    alg = free_pair()
    s = alg.gen("A") + alg.gen("B")
    for label, fn in (("brute power", lambda: s ** 14),
                      ("m_derivation_expand (theorem2)", lambda: m_derivation_expand(14)),
                      ("twisted_expand (theorem1)", lambda: twisted_expand(14)),
                      ("essential_expand (corollary1)", lambda: essential_expand(14))):
        row(f"free n=14 {label}", timed(fn)[0])
    for via in ("operator", "explicit_sum", "recurrence_oracle"):
        row(f"hermite(60) {via}", timed(lambda: hermite(60, via))[0])
    for which in ("factored", "split"):
        row(f"exp_defect({which}, 10)", timed(lambda: exp_defect(which, 10))[0])
    hsq = make_family("hsq")
    hs = hsq.gen("A") + hsq.gen("B")
    for n in range(4, 9):
        p = hs ** n
        seconds, normal = timed(lambda: hsq.normal_form(p))
        row(f"hsq normal_form (A+B)^{n}", seconds,
            terms_in=len(p.terms),
            inversions_in=sum(inversions(hsq, w) for w in p.terms),
            terms_out=len(normal.terms))

    bench.RESULTS_DIR.mkdir(exist_ok=True)
    out = bench.RESULTS_DIR / "baseline.json"
    doc = {"environment": bench.environment(None, False), "repeats": REPEATS,
           "rows": rows}
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    print(f"rows written to {out.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
