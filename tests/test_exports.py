import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oriented_hypergraphs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
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
    assert callable(MultivariatePolynomial.coefficient)
    g = IncidenceHypergraph.build(["a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e")])
    families = minor_catalog(g).families
    assert any(fam.steps for fam in families)
    for fam in families:
        for step in fam.steps:
            assert {step.tail_incidence, step.head_incidence} <= {"i", "j"}


def _perfbench_reads():
    # (file, module, name) for every name perfbench/ imports from the
    # package and every ``alias.name`` read through a module alias; the
    # sources are parsed, so nothing under perfbench/ runs.
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in MODULES:
                for a in node.names:
                    if f"{node.module}.{a.name}" in MODULES:
                        aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                    else:
                        reads.add((path.name, node.module, a.name))
        reads.update(
            (path.name, aliases[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        )
    return reads


def test_benchmark_reads_resolve():
    # Deleting a function that perfbench/ calls would break the benchmark.
    reads = _perfbench_reads()
    missing = [r for r in reads if not hasattr(importlib.import_module(r[1]), r[2])]
    assert {path for path, _, _ in reads} >= {"gate.py", "inputs.py", "workloads.py"}
    assert missing == []


def test_no_unused_imports():
    # Every name a module imports is read in it; ``__init__.py`` only
    # re-exports, and ``from __future__`` binds nothing.
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.name, node.lineno, name) for name in names if name not in read]
    assert unused == []


def test_no_module_imports_gc():
    # The library keeps its figures few in objects rather than pausing
    # the cyclic collector.
    importing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            importing += [(path.name, node.lineno) for name in names if name == "gc"]
    assert importing == []


def _raises_resource_limit(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ResourceLimitError"


def test_resource_limits_raise_only_from_the_one_guard():
    # Every cap, the homomorphism search bound among them, is enforced
    # by ``limits.check``.
    raising = {
        (path.name, top.name)
        for path in PACKAGE_DIR.glob("*.py")
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, ast.Raise) and node.exc is not None and _raises_resource_limit(node)
    }
    assert raising == {("limits.py", "check")}


def _is_cap(default):
    return (
        isinstance(default, ast.Attribute)
        and isinstance(default.value, ast.Name)
        and default.value.id == "limits"
        and default.attr.startswith("MAX_")
    )


def _owner(func, parents):
    # The name a caller uses: the class for ``__init__``.
    parent = parents[func]
    if func.name == "__init__" and isinstance(parent, ast.ClassDef):
        return parent.name
    return func.name


def _keywords(call, scope):
    # (keyword, value) for every keyword of the call; ``**name`` spreads
    # the literal keys of a dict that ``scope`` assigns to ``name``.
    for kw in call.keywords:
        if kw.arg is not None:
            yield kw.arg, kw.value
        elif isinstance(kw.value, ast.Name) and scope is not None:
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == [kw.value.id]
                    and isinstance(node.value, ast.Dict)
                ):
                    yield from (
                        (k.value, v) for k, v in zip(node.value.keys, node.value.values)
                        if isinstance(k, ast.Constant)
                    )


def _cap_parameters_and_passes():
    # caps: (callable, keyword) for every parameter defaulting to a
    # ``limits.MAX_*`` constant.  passes: (callable, keyword, source) for
    # every call passing that keyword, where source is the caller's own
    # cap parameter when the call only forwards it, else None.
    caps, passes = set(), []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                pairs = [*zip(positional[len(positional) - len(a.defaults) :], a.defaults)]
                pairs += zip(a.kwonlyargs, a.kw_defaults)
                caps.update((_owner(node, parents), p.arg) for p, d in pairs if _is_cap(d))
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                scope = parents[node]
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                scope = scope if isinstance(scope, ast.FunctionDef) else None
                for kw, value in _keywords(node, scope):
                    source = None
                    if scope is not None and isinstance(value, ast.Name):
                        source = (_owner(scope, parents), value.id)
                    passes.append((callee, kw, source))
    return caps, passes


def test_every_cap_keyword_is_passed_in_the_package():
    # A cap is a keyword only where a caller sets it (the ``ohg`` guard
    # flags); a keyword that only forwards another unset keyword does not
    # count.  Every other guard reads its ``limits.MAX_*`` constant.
    caps, passes = _cap_parameters_and_passes()
    assert caps
    live: set = set()
    grown = True
    while grown:
        grown = False
        for callee, kw, source in passes:
            if (callee, kw) in caps - live and (source not in caps or source in live):
                live.add((callee, kw))
                grown = True
    assert sorted(caps - live) == []


def _base_names(cls):
    # ``Sequence[T]`` and ``abc.Sequence`` both read as ``Sequence``.
    for base in cls.bases:
        base = base.value if isinstance(base, ast.Subscript) else base
        yield base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)


def test_sequences_go_through_the_one_lazy_sequence():
    # ``core.LazySequence`` is the one read-only sequence protocol: every
    # other sequence in the package subclasses it, and only it indexes.
    sequences, indexing = set(), set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            if "Sequence" in set(_base_names(node)):
                sequences.add((path.name, node.name))
            if any(isinstance(f, ast.FunctionDef) and f.name == "__getitem__" for f in node.body):
                indexing.add((path.name, node.name))
    assert sequences == indexing == {("core.py", "LazySequence")}


def test_bidirected_signs_are_read_only_by_the_wrapper():
    # ``as_bidirected`` checks that every sign is +1 or -1; past it, the
    # bidirected layer works on the shape alone.
    tree = ast.parse((PACKAGE_DIR / "bidirected.py").read_text(encoding="utf-8"))
    reading = {
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("sigma", "signs")
    }
    assert reading == {"as_bidirected"}


# The figure route's walk, blocks and stamping, which must stay a route of
# their own beside the Leibniz oracle.
FIGURE_ROUTE = {
    "_family_sums",
    "_counted_rows",
    "_open_block",
    "_open_blocks",
    "_stamp",
    "_one_pass",
    "minor_catalog",
    "minor_polys_from_catalog",
}


def _contributors_functions(names):
    # The top-level functions ``names`` of contributors.py, and every name
    # it imports from ``.matrices``.
    tree = ast.parse((PACKAGE_DIR / "contributors.py").read_text(encoding="utf-8"))
    from_matrices = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "matrices" and node.level == 1
        for a in node.names
    }
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert set(functions) == set(names)
    return functions, from_matrices


def test_the_figure_route_reads_no_matrix():
    # Of ``.matrices`` it reads only ``permutation_sign`` (a sign of a
    # permutation, no matrix entry), and it never groups the steps by
    # (tail, head), as ``_steps_between`` does for the counts.
    functions, from_matrices = _contributors_functions(FIGURE_ROUTE)
    assert "permutation_sign" in from_matrices
    reads = {
        (name, node.id)
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Name)
        and (node.id in from_matrices - {"permutation_sign"} or node.id == "_steps_between")
    }
    assert reads == set()


def test_the_circle_route_reads_no_matrix():
    # The circle sums and their covers weigh the steps themselves; the
    # matrix is built only for the final check in
    # ``univariate_from_contributors``.
    functions, from_matrices = _contributors_functions({"_circles", "_cover_sums"})
    assert {"adjacency_matrix", "laplacian_matrix", "char_poly_univariate"} <= from_matrices
    reads = {
        (name, node.id)
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id in from_matrices
    }
    assert reads == set()


def test_every_printed_polynomial_goes_through_both_routes():
    # ``ohg`` reads no Leibniz expansion on its own: every polynomial it
    # prints comes from a function that checks one route against the other.
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names
    }
    assert imported & {"symbolic_minor_poly", "char_poly_univariate"} == set()
