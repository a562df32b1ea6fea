#!/usr/bin/env python3
"""Benchmark harness for the ncbinom command line.

    python3 perfbench/run.py --workload free_expand --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one closed-loop client: an op is one in-process
call of ``ncbinom.cli.main(argv)`` with stdout captured, and the next op
starts only after the previous one returned.  A pass runs every op of the
workload once, in an order the seed permutes; the seed is also passed as
``verify --seed``.  The timed phase runs at least MIN_PASSES whole passes,
and starts another while it is expected to end within ``--seconds``.

Every op is checked: it fails on a non-zero exit, an exception,
``oracle_match: false``, or a stdout whose sha256 differs from the digest
recorded in ``golden.json`` (regenerate it with ``make_golden.py``).

``--trace 0`` reports the end-to-end metrics: op throughput and latency
percentiles (Harrell-Davis estimates) from the timed phase, ``n_reach``
from a ladder of child processes, and ``setup_s`` from fresh interpreters.

Times are scaled to a fixed machine speed.  A shared host runs the same
pure-Python code up to 1.7x slower for minutes at a time, when its
neighbours are busy, so raw wall-clock times of runs of the same code
differ by more than a regression worth catching.  The harness therefore
times a fixed pure-Python reference kernel, which is not part of the
package, between consecutive ops and around every set-up interpreter and
ladder rung.  Each op's wall time is multiplied by ``REF_S`` over the mean
of the kernel times just before and just after it: the time the op would
take on a machine where the kernel takes ``REF_S``; a long op also counts
the kernel runs within its own duration before and after it.  Ladder rung
limits are stretched by the same factor.  The raw wall-clock figures and
the speed factor are printed and kept in the result file as well.

``--trace 1`` runs untraced passes for ``--seconds``, then one pass under
``tracer.Tracer``, and reports the per-layer metrics plus
``trace.overhead``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a result file with the
environment stamp goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_FILE = BENCH_DIR / "golden.json"
RESULTS_DIR = BENCH_DIR / "results"
USER_SYSTEM = "perfbench/data/user_system.json"

MIN_PASSES = 3
SETUP_REPEATS = 15
LADDER_MAX_N = 18
TINY_LADDER_MAX_N = 3
# op_ms_tail is read at the highest multiple of this percentile step that
# leaves at least TAIL_BEYOND samples above its nearest rank in MIN_PASSES
# passes, so the percentile is fixed per workload and more passes only add
# samples.
TAIL_STEP = 5
TAIL_BEYOND = 10
# Duration of reference_kernel() at the reference speed: its typical time on
# an otherwise idle 2-core Xeon (Python 3.11).  Only ratios to it are used.
REF_S = 0.012
LADDER_REF_SAMPLES = 5
LADDER_KILL_FACTOR = 1.25


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[str, ...]            # argv templates; {seed} is the run seed
    tiny_ops: tuple[str, ...]       # the same kinds of op at tiny sizes
    ladder: str                     # argv template of one rung; {n} is the rung
    rung_limit_s: float             # limit of one rung's child process, scaled to REF_S
    systems: tuple[str, ...] = ()   # relation systems the set-up builds


def _free_ops(sizes):
    return tuple(
        f"expand --method {method} --n {n} --format {fmt}"
        for method in ("brute", "theorem1", "corollary1", "theorem2")
        for n in sizes
        for fmt in ("text", "json")
    )


def _quotient_ops(hsq, weyl, user):
    """Closed forms at every size in ``hsq``/``weyl``, free methods at the first two."""
    ops = [f"expand --method closed_hsq --n {n}" for n in hsq]
    ops += [f"expand --method closed_weyl --n {n}" for n in weyl]
    for method in ("theorem1", "corollary1", "theorem2"):
        ops += [f"expand --method {method} --relation hsq --n {n}" for n in hsq[:2]]
        ops += [f"expand --method {method} --relation weyl --n {n}" for n in weyl[:2]]
    ops += [
        f"expand --method theorem2 --relation {USER_SYSTEM} --n {user}",
        f"expand --method brute --relation {USER_SYSTEM} --n {user + 1}",
    ]
    return tuple(ops)


def _verify_ops(max_n, hermite_n, order):
    suites = ("statements", "theorem1", "theorem2", "hsq", "weyl", "exp", "hermite")
    return tuple(
        f"verify --suite {suite} --max-n {max_n} --seed {{seed}}" for suite in suites
    ) + (f"hermite --n {hermite_n}", f"exp-check --order {order}")


# Rung limits sit near the geometric middle between the last rung that
# finishes at this commit and the next one, so that noise does not move
# n_reach (theorem1 n=11/12: 0.63-0.68/1.01-1.32 s; closed_hsq n=7/8:
# 0.63-0.72/4.9-5.6 s; weyl suite max-n 9/10: 1.6-2.4/5.1-10 s; child
# process times scaled to REF_S, on a 2-core Xeon).
# verify_gate climbs the weyl suite rather than exp-check, whose rungs grow
# only 2x and moved n_reach in 4 of 10 runs.
WORKLOADS = {
    w.name: w for w in (
        Workload("free_expand", _free_ops((9, 10, 11)), _free_ops((2, 3)),
                 "expand --method theorem1 --n {n}", 0.85),
        Workload("quotient_expand", _quotient_ops((5, 6, 7), (6, 7, 8), 7),
                 _quotient_ops((2, 3, 4), (2, 3, 4), 3),
                 "expand --method closed_hsq --n {n}", 1.8,
                 ("hsq", "weyl", USER_SYSTEM)),
        Workload("verify_gate", _verify_ops(6, 20, 7), _verify_ops(2, 4, 2),
                 "verify --suite weyl --max-n {n}", 3.3, ("commutative", "hsq", "weyl")),
    )
}

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "n_reach": "n",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import ncbinom.cli
from ncbinom.binomial import resolve_relation
for spec in sys.argv[1:]:
    resolve_relation(spec)[0].validate()
print(time.perf_counter() - start)
"""


# A product of two sparse noncommutative polynomials over Q, the same kind
# of work as the package does (tuple words, dict merges, Fraction
# arithmetic), written here so that no change to the package changes it.
_REF_TERMS = [(w, Fraction(len(w) + 1, 1 + sum(w)))
              for k in range(5) for w in itertools.product((0, 1, 2), repeat=k)]


def reference_kernel() -> dict:
    out = {}
    for u, a in _REF_TERMS:
        for v, b in _REF_TERMS[:30]:
            word = u + v
            c = out.get(word, 0) + a * b
            if c:
                out[word] = c
            else:
                del out[word]
    return out


def time_reference() -> float:
    """Seconds of one reference_kernel() call, with the garbage collector off
    so that the heap the ops left behind does not slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_median() -> float:
    return statistics.median(time_reference() for _ in range(LADDER_REF_SAMPLES))


def load_goldens() -> dict[str, str]:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(code, stdout: str, golden: str | None, need_golden: bool = True):
    """The reason an op failed, or None when its output is correct."""
    if code != 0:
        return f"exit {code}"
    if "oracle_match: false" in stdout or '"oracle_match":false' in stdout:
        return "oracle_match: false"
    if golden is None:
        return "no golden digest" if need_golden else None
    if digest(stdout) != golden:
        return "stdout digest differs from golden"
    return None


def call_cli(cli, argv: list[str]):
    """One in-process CLI call: (exit code or error text, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


@dataclass
class Phase:
    ops: list[str] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)        # as measured
    spans: list[tuple[float, float]] = field(default_factory=list)   # op start, end
    refs: list[tuple[float, float]] = field(default_factory=list)    # kernel midpoint, s
    latencies: list[float] = field(default_factory=list)   # scaled to REF_S
    pass_busy: list[float] = field(default_factory=list)   # scaled
    failures: list[dict] = field(default_factory=list)


def reference_sample() -> tuple[float, float]:
    """One time_reference() run: its midpoint on the perf_counter clock, and seconds."""
    began = time.perf_counter()
    seconds = time_reference()
    return began + seconds / 2, seconds


def scale_to_reference(phase: Phase, ops_per_pass: int) -> None:
    """Fill ``latencies`` and ``pass_busy`` with the op times scaled to REF_S.

    An op's slowness is the mean of the kernel times from the runs just
    before and just after it, and from every run within one op duration
    of its start or end: a long op lives through several changes in the
    machine's speed, which the two runs beside it alone would miss.
    """
    for i, ((start, end), wall) in enumerate(zip(phase.spans, phase.wall)):
        reach = end - start
        near = [seconds for j, (mid, seconds) in enumerate(phase.refs)
                if j in (i, i + 1) or start - reach <= mid <= end + reach]
        phase.latencies.append(wall * REF_S / statistics.fmean(near))
    phase.pass_busy = [sum(phase.latencies[k:k + ops_per_pass])
                       for k in range(0, len(phase.latencies), ops_per_pass)]


def run_passes(cli, templates, seed, goldens, seconds, tracer=None,
               min_passes=MIN_PASSES) -> Phase:
    """Whole passes over ``templates``, with a reference kernel run between ops."""
    rng = random.Random(seed)
    phase = Phase()
    start = time.perf_counter()
    phase.refs.append(reference_sample())
    while True:
        done, elapsed = len(phase.wall) // len(templates), time.perf_counter() - start
        if done >= min_passes and elapsed + elapsed / done > seconds:
            break
        order = list(templates)
        rng.shuffle(order)
        for op_id, template in enumerate(order):
            if tracer is not None:
                tracer.op = op_id
            began = time.perf_counter()
            code, stdout, wall = call_cli(cli, template.format(seed=seed).split())
            if tracer is not None:
                tracer.add_output(len(stdout.encode("utf-8")))
            phase.refs.append(reference_sample())
            phase.ops.append(template)
            phase.wall.append(wall)
            phase.spans.append((began, began + wall))
            problem = check_output(code, stdout, goldens.get(template))
            if problem:
                phase.failures.append({"op": template, "problem": problem})
    scale_to_reference(phase, len(templates))
    return phase


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_ladder(workload: Workload, goldens, max_n: int) -> dict:
    """Rungs n = 1, 2, ... as child processes until one fails or runs out of time.

    A rung is in time when its wall time, scaled like an op's by the
    reference kernel timed just before and after it, is within
    ``rung_limit_s``.  The child is killed once it runs LADDER_KILL_FACTOR
    times longer than the limit stretched by the slowness seen before it.
    """
    rungs, reach, failures = [], 0, []
    after = reference_median()
    for n in range(1, max_n + 1):
        argv = workload.ladder.format(n=n)
        before = after
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ncbinom.cli", *argv.split()], cwd=ROOT,
                env=child_env(), capture_output=True, text=True,
                timeout=LADDER_KILL_FACTOR * workload.rung_limit_s * before / REF_S,
            )
        except subprocess.TimeoutExpired:
            rungs.append({"n": n, "seconds": None, "problem": "time limit"})
            break
        wall = time.perf_counter() - start
        after = reference_median()
        seconds = wall * 2 * REF_S / (before + after)
        rungs.append({"n": n, "seconds": seconds, "wall_s": wall, "problem": None})
        if seconds > workload.rung_limit_s:
            rungs[-1]["problem"] = "time limit"
            break
        problem = check_output(proc.returncode, proc.stdout, goldens.get(argv),
                               need_golden=False)
        if problem:
            rungs[-1]["problem"] = problem
            failures.append({"op": argv, "problem": problem,
                             "stderr": proc.stderr.strip()[-500:]})
            break
        reach = n
    return {"reach": reach, "rungs": rungs, "failures": failures}


def measure_setup(systems, repeats=SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Import plus relation-system build time in fresh interpreters.

    Returns the times scaled to REF_S, by the reference kernel timed just
    before and after each interpreter, and the wall-clock times.  The first
    interpreter is a warm-up that compiles bytecode; it is not counted.
    """
    scaled, wall = [], []
    before = time_reference()
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *systems], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=120,
            check=True,
        )
        after = time_reference()
        if i:
            wall.append(float(proc.stdout))
            scaled.append(wall[-1] * 2 * REF_S / (before + after))
        before = after
    return scaled, wall


def tail_percentile(ops_per_pass: int) -> int:
    samples = ops_per_pass * MIN_PASSES
    step = TAIL_STEP
    best = step
    for p in range(step, 100, step):
        if samples - math.ceil(samples * p / 100) >= TAIL_BEYOND:
            best = p
    return best


def nearest_rank(sorted_values, p):
    rank = max(1, math.ceil(len(sorted_values) * p / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _beta_fraction(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a, b, x):
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(sorted_values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A beta-weighted mean of the order statistics around rank p*n.  A pass
    mixes op kinds of very different cost, and a single order statistic
    jumps when the percentile falls between two kinds; this estimate moves
    smoothly instead.
    """
    n = len(sorted_values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one workload; returns the result document (metrics as (value, unit)).

    The working directory must be the checkout root: ops name the user
    system file by a relative path.
    """
    workload = WORKLOADS[name]
    templates = workload.tiny_ops if tiny else workload.ops
    goldens = load_goldens()
    result = {"workload": name, "seed": seed, "seconds": seconds, "traced": trace,
              "tiny": tiny}
    if trace:
        cli = importlib.import_module("ncbinom.cli")
        plain = run_passes(cli, templates, seed, goldens, seconds, min_passes=1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, templates, seed, goldens, 0.0, tracer=tracer,
                                min_passes=1)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (
            traced.pass_busy[0] / statistics.median(plain.pass_busy), "ratio")
        failures = plain.failures + traced.failures
        attempted = len(plain.latencies) + len(traced.latencies)
        result["trace"] = tracer.dump()
    else:
        setup, setup_wall = measure_setup(workload.systems)
        ladder = run_ladder(workload, goldens, TINY_LADDER_MAX_N if tiny else LADDER_MAX_N)
        cli = importlib.import_module("ncbinom.cli")
        phase = run_passes(cli, templates, seed, goldens, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies, wall = sorted(phase.latencies), sorted(phase.wall)
        p = tail_percentile(len(templates))
        _, beyond = nearest_rank(latencies, p)
        metrics = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_ms_p50": harrell_davis(latencies, 50) * 1000,
            "op_ms_tail": harrell_davis(latencies, p) * 1000,
            "n_reach": ladder["reach"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        failures = phase.failures + ladder["failures"]
        attempted = len(latencies) + len(ladder["rungs"])
        result.update(
            tail={"percentile": p, "samples": len(latencies), "beyond": beyond},
            passes=len(phase.pass_busy), pass_busy_s=phase.pass_busy,
            ladder=ladder, setup_runs_s=setup, setup_wall_s=setup_wall,
            wall={"ops_per_s": len(wall) / sum(wall),
                  "op_ms_p50": harrell_davis(wall, 50) * 1000,
                  "op_ms_tail": harrell_davis(wall, p) * 1000,
                  "setup_s": statistics.median(setup_wall)},
            slowness=statistics.median(seconds for _, seconds in phase.refs) / REF_S,
            samples=list(zip(phase.ops, phase.latencies, phase.wall)),
            refs_s=[seconds for _, seconds in phase.refs],
        )
    result.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  failures=failures, error_rate=len(failures) / attempted)
    return result


def git_commit() -> str:
    """HEAD of the checkout, read from .git without calling git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int | None, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "traced": traced,
    }


def report(result: dict) -> None:
    """Human-readable lines; the JSON summary is printed after them."""
    print(f"workload {result['workload']} seed {result['seed']} "
          f"traced {int(result['traced'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    if "tail" in result:
        tail = result["tail"]
        print(f"  op_ms_tail is p{tail['percentile']} of {tail['samples']} samples "
              f"({tail['beyond']} beyond it); {result['passes']} passes")
        rungs = ", ".join(
            f"{r['n']}:{'killed' if r['seconds'] is None else format(r['seconds'], '.2f')}"
            f"{'' if r['problem'] is None else ' ' + r['problem']}"
            for r in result["ladder"]["rungs"])
        print(f"  ladder rungs (n:scaled s) {rungs}")
        wall = ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items())
        print(f"  unscaled wall clock: {wall}; reference kernel ran "
              f"{result['slowness']:.3g}x REF_S (median)")
    print(f"  error_rate = {result['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure['op']}: {failure['problem']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncbinom" / "cli.py").is_file():
        print(f"error: no ncbinom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["environment"] = environment(args.seed, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    report(result)
    print(f"  result file {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
