"""Every module of the package parses under the oldest supported Python.

``pyproject.toml`` declares ``requires-python = ">=3.10"``.  Parsing with
``feature_version=(3, 10)`` rejects the later syntax that ``ast`` checks
for, such as ``except*``, whichever interpreter runs the tests; it is a
best-effort check, not a 3.10 interpreter.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncbinom").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
