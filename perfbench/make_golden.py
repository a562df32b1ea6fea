#!/usr/bin/env python3
"""Record the sha256 of every benchmark op's stdout into golden.json.

    python3 perfbench/make_golden.py

Run from the root of a source checkout at the commit whose output is the
reference.  Covers the timed ops of every workload at full and tiny sizes,
and the ladder rungs up to GOLDEN_RUNGS.  Refuses to record an op that
fails, reports ``oracle_match: false``, or whose output depends on the
seed (the ``verify`` ops are recorded once for every seed).
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import run as bench

# Highest rung recorded per ladder: every rung that finishes within a few
# seconds at the reference commit.
GOLDEN_RUNGS = {"free_expand": 13, "quotient_expand": 8, "verify_gate": 10}


def main() -> int:
    os.chdir(bench.ROOT)
    sys.path.insert(0, str(bench.ROOT / "src"))
    cli = importlib.import_module("ncbinom.cli")
    goldens = {}

    def record(key, argvs):
        digests = set()
        for argv in argvs:
            code, stdout, _ = bench.call_cli(cli, argv.split())
            problem = bench.check_output(code, stdout, None, need_golden=False)
            if problem:
                raise SystemExit(f"{argv}: {problem}")
            digests.add(bench.digest(stdout))
        if len(digests) != 1:
            raise SystemExit(f"{key}: output depends on the seed")
        goldens[key] = digests.pop()
        print(f"{goldens[key][:12]} {key}", flush=True)

    for name, workload in bench.WORKLOADS.items():
        for template in workload.ops + workload.tiny_ops:
            record(template, {template.format(seed=seed) for seed in (0, 1)})
        for n in range(1, GOLDEN_RUNGS[name] + 1):
            argv = workload.ladder.format(n=n)
            record(argv, [argv])
    with open(bench.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
