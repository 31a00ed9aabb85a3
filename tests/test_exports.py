import importlib
import pkgutil

import pytest

import oriented_hypergraphs

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
