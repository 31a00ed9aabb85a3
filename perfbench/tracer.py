"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every public function of every package
module with a timing wrapper, at every module namespace where the
function is bound: ``from .matrices import permutation_sign`` makes a
second binding in ``contributors``, and calls made through it must be
seen too.  Spans nest on one stack; a span's self time is its duration
minus the time covered by its child spans.  Counts that show how much
work a layer did are derived from each call's arguments and result.

Install it only in a worker process that exits afterwards: nothing is
restored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "oriented_hypergraphs"
LAYERS = ("core", "topos", "matrices", "polynomial", "contributors", "bidirected", "jsonio", "cli", "corpus")
# cli and corpus are wrapped like every layer, but no measured pass calls
# them: the command line is checked by replay outside the measurement and
# the inputs are generated by the benchmark itself.
REPORTED_LAYERS = ("core", "topos", "matrices", "polynomial", "contributors", "bidirected", "jsonio")

# Functions whose self time is reported, and those whose call count is too.
TIMED = (
    "contributors.minor_polys_from_catalog",
    "matrices.permutation_sign",
    "contributors.minor_catalog",
    "matrices.symbolic_minor_poly",
    "matrices.char_poly_univariate",
    "matrices.laplacian_matrix",
    "matrices.adjacency_matrix",
    "polynomial.compare",
    "polynomial.terms",
    "contributors.univariate_from_contributors",
    "contributors.enumerate_contributors",
    "topos.zero_loading",
    "topos.loading",
    "contributors.oracle_equivalence",
    "contributors.total_minor_poly",
    "jsonio.loads_oriented",
    "polynomial.render_multivariate",
    "matrices.integer_determinant",
    "matrices.matrix_tree_cofactor",
    "matrices.sachs_char_poly",
    "matrices.spanning_tree_count",
    "bidirected.activation_classes",
    "bidirected.single_element_classes",
    "bidirected.k_arborescences",
    "topos.classify",
    "topos.subobject_from_map",
    "topos.represent_partial",
    "topos.partial_square_is_pullback",
    "topos.tilde",
    "topos.subobject_classifier",
    "topos.enumerate_subhypergraphs",
    "topos.power",
    "core.enumerate_homomorphisms",
    "core.product",
    "core.generated_subhypergraph",
)
CALLED = (
    "contributors.minor_polys_from_catalog",
    "matrices.permutation_sign",
    "contributors.minor_catalog",
    "topos.tilde",
    "topos.subobject_classifier",
    "topos.power",
    "core.enumerate_homomorphisms",
)
COUNTS = (
    "contributors.completions",
    "contributors.families",
    "contributors.contributors",
    "matrices.leibniz_terms",
    "bidirected.classes",
    "bidirected.arborescences",
    "topos.subobjects",
    "core.homs",
    "core.structures_built",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in print order."""
    out = [(f"{name}.self_s", "s") for name in TIMED]
    out += [(f"{name}.calls", "count") for name in CALLED]
    out += [(name, "count") for name in COUNTS]
    out.append(("core.hom_yield", "ratio"))
    for layer in REPORTED_LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"), (f"{layer}.raised", "count")]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def _hom_bound(g, h) -> int:
    # The library's naive search-space bound, restated here.
    return (
        len(h.vertices) ** len(g.vertices)
        * len(h.edges) ** len(g.edges)
        * len(h.incidences) ** len(g.incidences)
    )


def _completions(result, args) -> int:
    catalog, signs = args
    n = len(catalog.structure.vertices)
    total = 0
    for fam in catalog.families:
        if all(signs.get(s.tail_incidence, 0) * signs.get(s.head_incidence, 0) for s in fam.steps):
            total += math.factorial(n - len(fam.steps))
    return total


def _leibniz(result, args) -> int:
    return math.factorial(len(args[0].row_labels))


def _length(result, args) -> int:
    return len(result)


# Counts derived from a call's arguments and result: {function: [(count, measure)]}.
HOOKS = {
    "contributors.minor_polys_from_catalog": [("contributors.completions", _completions)],
    "contributors.minor_catalog": [("contributors.families", lambda result, args: len(result.families))],
    "contributors.enumerate_contributors": [("contributors.contributors", _length)],
    "matrices.symbolic_minor_poly": [("matrices.leibniz_terms", _leibniz)],
    "matrices.char_poly_univariate": [("matrices.leibniz_terms", _leibniz)],
    "matrices.integer_determinant": [("matrices.leibniz_terms", _leibniz)],
    "core.enumerate_homomorphisms": [
        ("core.homs", _length),
        ("core.hom_candidates", lambda result, args: _hom_bound(*args[:2])),
    ],
    "topos.enumerate_subhypergraphs": [("topos.subobjects", _length)],
    "bidirected.activation_classes": [("bidirected.classes", _length)],
    "bidirected.k_arborescences": [("bidirected.arborescences", _length)],
}


class Tracer:
    """Aggregated spans: per function calls and self time, per layer
    the library exceptions that leave it, and work counts."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: dict[str, list] = {}
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []

    def install(self) -> None:
        """Wrap the package, the ``terms`` property, the benchmark's timed
        polynomial ``==`` and count structure constructions."""
        errors = importlib.import_module(f"{PACKAGE}.errors")
        self._library_errors = (errors.DomainError, errors.ResourceLimitError, errors.InvariantError)
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        import workloads

        workloads.compare = self._wrap("polynomial.compare", workloads.compare)

        polynomial = importlib.import_module(f"{PACKAGE}.polynomial")
        cls = polynomial.MultivariatePolynomial
        cls.terms = property(self._wrap("polynomial.terms", cls.terms.fget))

        core = importlib.import_module(f"{PACKAGE}.core")
        built = core.IncidenceHypergraph.__init__
        counts = self.counts

        def counting_init(obj, *args, **kwargs):
            counts["core.structures_built"] += 1
            built(obj, *args, **kwargs)

        core.IncidenceHypergraph.__init__ = counting_init

    def _wrap(self, name: str, fn):
        record = self.spans.setdefault(name, [0, 0.0])
        layer = name.split(".", 1)[0]
        stack = self._stack
        hooks = HOOKS.get(name, ())
        signature = inspect.signature(fn) if hooks else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._library_errors:
                if len(stack) < 2 or stack[-2][1] != layer:
                    tracer.raised[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hooks:
                # Counting is tracing cost: keep it out of every self time.
                mark = perf_counter()
                # Arguments in parameter order, however the caller passed them.
                ordered = tuple(signature.bind(*args, **kwargs).arguments.values())
                for key, measure in hooks:
                    tracer.counts[key] += measure(result, ordered)
                if stack:
                    stack[-1][0] += perf_counter() - mark
            return result

        return traced

    def snapshot(self) -> dict:
        return {"spans": self.spans, "raised": dict(self.raised), "counts": dict(self.counts)}


def merge(total: dict, part: dict) -> None:
    """Add one worker's snapshot into a running total."""
    spans = total.setdefault("spans", {})
    for name, (calls, self_s) in part["spans"].items():
        acc = spans.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
    for key in ("raised", "counts"):
        acc = total.setdefault(key, {})
        for name, value in part[key].items():
            acc[name] = acc.get(name, 0) + value


def layer_metrics(total: dict, overhead_frac: float) -> dict:
    """The traced run's metrics, every one of ``per_layer_metrics``."""
    spans = total.get("spans", {})
    counts = total.get("counts", {})
    raised = total.get("raised", {})
    values: dict[str, float] = {}
    for name in TIMED:
        values[f"{name}.self_s"] = spans.get(name, [0, 0.0])[1]
    for name in CALLED:
        values[f"{name}.calls"] = spans.get(name, [0, 0.0])[0]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    candidates = counts.get("core.hom_candidates", 0)
    values["core.hom_yield"] = counts.get("core.homs", 0) / candidates if candidates else 0.0
    for layer in REPORTED_LAYERS:
        mine = [v for k, v in spans.items() if k.split(".", 1)[0] == layer]
        values[f"{layer}.self_s"] = sum(v[1] for v in mine)
        values[f"{layer}.calls"] = sum(v[0] for v in mine)
        values[f"{layer}.raised"] = raised.get(layer, 0)
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}
