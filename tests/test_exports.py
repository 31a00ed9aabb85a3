import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oriented_hypergraphs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PACKAGE_DIR = Path(oriented_hypergraphs.__file__).resolve().parent

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


def _raises_resource_limit(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ResourceLimitError"


def test_resource_limits_raise_only_from_the_one_guard():
    # Every cap is enforced by ``limits.check``; the homomorphism search
    # bound in ``HomSet`` is the one other raise.
    raising = {
        (path.name, top.name)
        for path in PACKAGE_DIR.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_resource_limit(node)
    }
    assert raising == {("core.py", "HomSet"), ("limits.py", "check")}
