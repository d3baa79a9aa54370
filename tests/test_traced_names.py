"""Every function the benchmark's tracer names still exists in primeavg.

perfbench/spans.py groups per-layer metrics by (layer, name) and stops a
traced run when a named function is gone.  This test reads that file's
three tables and resolves each name here, so a deleted or renamed
function fails at once instead of in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _spans()
_FUNCTIONS = sorted({*_TABLES.FUNCTION_GROUP, *_TABLES.POINTS_ARG})
_METHODS = sorted((layer, cls, meth) for layer, pairs in _TABLES.METHODS.items()
                  for cls, meth in pairs)


@pytest.mark.parametrize("layer,name", _FUNCTIONS)
def test_traced_function_is_a_public_function_of_its_layer(layer, name):
    # the tracer wraps public callables defined in the layer's own module
    module = importlib.import_module(f"primeavg.{layer}")
    fn = getattr(module, name, None)
    assert callable(fn) and not isinstance(fn, type), f"{layer}.{name}"
    assert fn.__module__ == module.__name__, f"{layer}.{name}"


@pytest.mark.parametrize("layer,cls,meth", _METHODS)
def test_traced_method_is_defined_on_its_class(layer, cls, meth):
    owner = getattr(importlib.import_module(f"primeavg.{layer}"), cls, None)
    assert owner is not None, f"{layer}.{cls}"
    assert inspect.isfunction(vars(owner).get(meth)), f"{layer}.{cls}.{meth}"
