"""CLI output stays byte-identical to the recorded benchmark digests.

``perfbench/golden.json`` maps each benchmark command (with ``{seed}`` for
the seeded ones) to the sha256 of its stdout.  Every command runs through
``ncbinom.cli.main`` in process, from the repository root so that relative
system-file paths resolve, once with seed 0 and once with seed 1.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ncbinom.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_output_matches_golden_digest(command, at_root):
    for seed in (0, 1):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(command.format(seed=seed).split())
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GOLDENS[command]
