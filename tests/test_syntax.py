"""Static checks on every module of the package.

Each module parses under the oldest supported Python: ``pyproject.toml``
declares ``requires-python = ">=3.10"``, and parsing with
``feature_version=(3, 10)`` rejects the later syntax that ``ast`` checks
for, such as ``except*``, whichever interpreter runs the tests; it is a
best-effort check, not a 3.10 interpreter.

No module uses a ``float``, as a literal or by name: the engine is exact.

Every function the package exports is called by the library itself: code
that exists only for checking lives in ``verify.py``, out of ``__all__``.
"""

import ast
import inspect
from pathlib import Path

import pytest

import ncbinom

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


# Exported functions that no library module calls.  ``hermite`` stays
# exported because ``perfbench/baseline.py`` times it by name, with its
# ``via`` option; ROADMAP item 1 deletes that script.
UNCALLED_EXPORTS = {"hermite"}


def test_every_exported_function_is_called_by_the_library():
    referenced = set()
    for path in SOURCES:
        if path.name in ("verify.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    functions = {name for name in ncbinom.__all__
                 if inspect.isfunction(getattr(ncbinom, name))}
    assert functions - referenced == UNCALLED_EXPORTS
