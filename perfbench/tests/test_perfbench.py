"""Tests of the benchmark harness (separate from the package's own suite).

    python3 -m pytest perfbench/tests -q

Workloads run at their tiny sizes, so the whole file takes well under a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def at_root():
    previous = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(previous)


@pytest.fixture(scope="module")
def tiny(at_root):
    return {name: bench.run_workload(name, seed=3, seconds=0, trace=False, tiny=True)
            for name in bench.WORKLOADS}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == dict(tracer.LAYER_METRICS) | {"trace.overhead": "ratio"}


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_run_is_correct_and_complete(tiny, name):
    result = tiny[name]
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= bench.MIN_PASSES * len(bench.WORKLOADS[name].tiny_ops)
    assert result["ladder"]["reach"] == bench.TINY_LADDER_MAX_N
    for metric in SPEC["end_to_end"]:
        value, unit = result["metrics"][metric["name"]]
        assert unit == metric["unit"]
        assert value > 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tail_has_ten_samples_beyond(tiny, name):
    result = tiny[name]
    assert result["tail"]["beyond"] >= bench.TAIL_BEYOND
    assert result["metrics"]["op_ms_tail"][0] >= result["metrics"]["op_ms_p50"][0]


@pytest.mark.parametrize("ops_per_pass", range(7, 60))
def test_tail_percentile_leaves_ten_beyond(ops_per_pass):
    samples = sorted(range(ops_per_pass * bench.MIN_PASSES))
    value, beyond = bench.nearest_rank(samples, bench.tail_percentile(ops_per_pass))
    assert beyond >= bench.TAIL_BEYOND
    assert sum(1 for s in samples if s > value) == beyond


def test_harrell_davis_estimates():
    assert bench.beta_cdf(2, 3, 0.4) == pytest.approx(1 - 0.6 ** 4 - 4 * 0.4 * 0.6 ** 3)
    assert bench.beta_cdf(7.5, 2.5, 0.9) == pytest.approx(1 - bench.beta_cdf(2.5, 7.5, 0.1))
    values = [float(v) for v in range(1, 102)]
    assert bench.harrell_davis(values, 50) == pytest.approx(51)
    assert bench.harrell_davis([0.25] * 40, 85) == pytest.approx(0.25)
    estimates = [bench.harrell_davis(values, p) for p in (10, 50, 85, 95)]
    assert estimates == sorted(estimates)


def test_corrupted_golden_fails_the_op(at_root, monkeypatch):
    template = bench.WORKLOADS["free_expand"].tiny_ops[0]
    goldens = bench.load_goldens()
    goldens[template] = "0" * 64
    monkeypatch.setattr(bench, "load_goldens", lambda: goldens)
    result = bench.run_workload("free_expand", seed=1, seconds=0, trace=False, tiny=True)
    assert result["failed"] == bench.MIN_PASSES
    assert {f["op"] for f in result["failures"]} == {template}
    assert result["failures"][0]["problem"] == "stdout digest differs from golden"


def test_forced_oracle_mismatch_fails_the_op(at_root, monkeypatch):
    import ncbinom.cli

    real = ncbinom.cli.expansion_report

    def mismatched(*args, **kwargs):
        report = real(*args, **kwargs)
        report.oracle_match = False
        return report

    monkeypatch.setattr(ncbinom.cli, "expansion_report", mismatched)
    cli = ncbinom.cli
    templates = bench.WORKLOADS["free_expand"].tiny_ops
    phase = bench.run_passes(cli, templates, 1, bench.load_goldens(), 0, min_passes=1)
    assert len(phase.failures) == len(templates)


def test_run_passes_times_the_reference_kernel_between_ops(at_root):
    import ncbinom.cli

    templates = bench.WORKLOADS["free_expand"].tiny_ops
    phase = bench.run_passes(ncbinom.cli, templates, 1, bench.load_goldens(), 0,
                             min_passes=1)
    assert len(phase.refs) == len(phase.wall) + 1 == len(templates) + 1
    mids = [mid for mid, _ in phase.refs]
    assert all(mids[i] < start < end < mids[i + 1]
               for i, (start, end) in enumerate(phase.spans))
    assert len(phase.latencies) == len(templates)
    assert phase.pass_busy == [pytest.approx(sum(phase.latencies))]


def test_long_ops_are_scaled_by_the_kernel_runs_around_them():
    phase = bench.Phase(ops=["a", "b", "c"], wall=[1.0, 0.1, 4.0],
                        spans=[(0.0, 1.0), (1.1, 1.2), (1.3, 5.3)],
                        refs=[(-0.05, 0.01), (1.05, 0.02), (1.25, 0.03), (5.35, 0.04)])
    bench.scale_to_reference(phase, 3)
    ref = bench.REF_S
    assert phase.latencies == [
        pytest.approx(1.0 * ref / 0.02),    # kernels within 1 s: the first three
        pytest.approx(0.1 * ref / 0.025),   # a short op: the two beside it
        pytest.approx(4.0 * ref / 0.025),   # within 4 s: all four
    ]
    assert phase.pass_busy == [pytest.approx(sum(phase.latencies))]


def test_reference_kernel_is_fixed_and_restores_gc():
    import gc

    assert bench.reference_kernel() == bench.reference_kernel()
    assert gc.isenabled()
    assert bench.time_reference() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        bench.time_reference()
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("stdout", [
    "A + B | oracle_match: false\n",
    '{"n":1,"method":"brute","relation":null,"oracle_match":false,"result":{}}\n',
])
def test_oracle_mismatch_fails_even_with_exit_zero(stdout):
    assert bench.check_output(0, stdout, bench.digest(stdout)) == "oracle_match: false"


def test_missing_golden_and_exit_code_fail():
    assert bench.check_output(0, "x\n", None) == "no golden digest"
    assert bench.check_output(0, "x\n", None, need_golden=False) is None
    assert bench.check_output(1, "x\n", bench.digest("x\n")) == "exit 1"


COUNTS = """
import json, os, sys
sys.path[:0] = [{bench!r}, {src!r}]
os.chdir({root!r})
import run
result = run.run_workload({name!r}, 5, 0, True, tiny=True)
assert result["failed"] == 0, result["failures"]
print(json.dumps({{k: v for k, (v, unit) in result["metrics"].items()
                  if unit != "s" and k != "trace.overhead"}}))
"""


def traced_counts(name: str, hash_seed: str) -> dict:
    code = COUNTS.format(bench=str(BENCH), src=str(ROOT / "src"), root=str(ROOT), name=name)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["free_expand", "quotient_expand"])
def test_traced_counts_repeat_exactly(name):
    first = traced_counts(name, "1")
    assert first == traced_counts(name, "2")
    assert first["diffop.calls"] == 0
    assert first["scalars.calls"] > 0 and first["freealg.calls"] > 0
    if name == "free_expand":
        assert first["rewrite.calls"] == 0
    else:
        assert first["rewrite.calls"] > 0


def test_tracer_uninstall_restores_the_package(at_root):
    import ncbinom.binomial
    import ncbinom.scalars

    mul = ncbinom.scalars.ParamPoly.__mul__
    power = ncbinom.binomial.twisted_power
    t = tracer.Tracer()
    t.install()
    try:
        assert ncbinom.binomial.twisted_power is not power
        ncbinom.binomial.twisted_expand(3)
    finally:
        t.uninstall()
    assert ncbinom.scalars.ParamPoly.__mul__ is mul
    assert ncbinom.binomial.twisted_power is power
    assert t.counts["binomial.twisted_steps"] == 0 + 1 + 2 + 3
    (name, _, start, end, parent, own), = [s for s in t.spans if s[0] == "twisted_expand"]
    assert parent is None and 0 <= own <= end - start


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "free_expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
