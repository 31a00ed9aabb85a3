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


def test_benchmark_tracer_reads_resolve():
    # perfbench/tracer.py wraps ``MultivariatePolynomial.terms.fget`` and
    # reads the tail and head incidence of every step of every catalog
    # family; without these its traced run breaks.
    from oriented_hypergraphs.contributors import minor_catalog
    from oriented_hypergraphs.core import IncidenceHypergraph
    from oriented_hypergraphs.polynomial import MultivariatePolynomial

    assert callable(MultivariatePolynomial.terms.fget)
    g = IncidenceHypergraph.build(["a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e")])
    families = minor_catalog(g).families
    assert any(fam.steps for fam in families)
    for fam in families:
        for step in fam.steps:
            assert {step.tail_incidence, step.head_incidence} <= {"i", "j"}
