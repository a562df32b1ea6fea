"""Every counter hook of the per-layer tracer still names a wrappable callable.

``perfbench/tracer.py`` attaches a counter to a traced callable by name.  A
name that no longer resolves to what the tracer wraps leaves its counter at
zero without an error, so this test resolves each name the way
``Tracer.install`` does.  The tracer is loaded from its file; nothing under
``perfbench/`` changes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
LAYER_MODULES = {layer: importlib.import_module(f"ncbinom.{layer}") for layer in tracer.LAYERS}


def _defined_in_a_layer(name):
    """The public object ``name`` of the layer module that defines it, if any."""
    for module in LAYER_MODULES.values():
        obj = vars(module).get(name)
        if obj is not None and getattr(obj, "__module__", None) == module.__name__:
            return obj
    return None


@pytest.mark.parametrize("name", sorted(tracer.HOOKS))
def test_hook_names_a_traced_callable(name):
    if "." not in name:
        assert inspect.isfunction(_defined_in_a_layer(name)), name
        return
    class_name, attribute = name.split(".")
    cls = _defined_in_a_layer(class_name)
    assert inspect.isclass(cls), name
    assert not attribute.startswith("_") or attribute in tracer.ARITHMETIC, name
    raw = vars(cls).get(attribute)
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw), name
