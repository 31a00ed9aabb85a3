import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oriented_hypergraphs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

MODULES = ["oriented_hypergraphs"] + [
    f"oriented_hypergraphs.{m.name}" for m in pkgutil.iter_modules(oriented_hypergraphs.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from oriented_hypergraphs import *", namespace)
    assert set(oriented_hypergraphs.__all__) <= set(namespace)


def _tracer_layers():
    # Read the tuple from the source, so nothing under perfbench/ runs.
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


@pytest.mark.parametrize("layer", _tracer_layers())
def test_benchmark_tracer_layers_import(layer):
    # The benchmark tracer wraps every module it names; a module moved
    # out of the package would break the traced run.
    importlib.import_module(f"oriented_hypergraphs.{layer}")
