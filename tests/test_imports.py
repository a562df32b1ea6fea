"""What importing the package loads, and the exports it serves on first use.

The scripts run in fresh interpreters started with ``-S``: ``site`` may load
``typing`` or ``random`` on its own, which would hide an import the package
added.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncbinom
from ncbinom import diffop, verify

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CLI_IMPORT = """
import sys
before = set(sys.modules)
import ncbinom.cli
from ncbinom.binomial import resolve_relation
print(*sorted(set(sys.modules) - before))
"""

_STAR_IMPORT = """
import ncbinom
print(*dir(ncbinom))
namespace = {}
exec("from ncbinom import *", namespace)
print(*namespace)
"""


def _fresh(script: str) -> list[list[str]]:
    """The words of each line that ``script`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, check=True, env=env).stdout
    return [line.split() for line in out.splitlines()]


def test_cli_import_loads_only_what_expand_runs():
    (loaded,) = _fresh(_CLI_IMPORT)
    assert {"ncbinom.cli", "ncbinom.binomial", "ncbinom.rewrite"} <= set(loaded)
    unwanted = {"dataclasses", "typing", "inspect", "random", "ncbinom.verify",
                "ncbinom.diffop"}
    assert unwanted & set(loaded) == set()


def test_deferred_exports_are_listed_and_bound():
    listed, bound = _fresh(_STAR_IMPORT)
    assert set(ncbinom.__all__) <= set(listed)
    assert set(ncbinom.__all__) <= set(bound)
    assert ncbinom.DiffOp is diffop.DiffOp
    assert ncbinom.run_suite is verify.run_suite
    assert ncbinom.CheckResult is verify.CheckResult
    assert ncbinom.SUITES is verify.SUITES
    assert "DiffOp" in vars(ncbinom)  # cached by the first lookup
    with pytest.raises(AttributeError, match="has no attribute 'hermite_paths'"):
        ncbinom.hermite_paths


def test_suite_table_follows_the_package_names():
    assert tuple(verify._SUITE_FUNCS) == ncbinom.SUITES
