"""Static checks on every module of the package.

Each module parses under the oldest supported Python: ``pyproject.toml``
declares ``requires-python = ">=3.10"``, and parsing with
``feature_version=(3, 10)`` rejects the later syntax that ``ast`` checks
for, such as ``except*``, whichever interpreter runs the tests; it is a
best-effort check, not a 3.10 interpreter.

No module uses a ``float``, as a literal or by name: the engine is exact.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ncbinom").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    floats = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Name) and node.id == "float"
    ]
    assert not floats, f"float at lines {floats}"
