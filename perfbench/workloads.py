"""The three workloads: their items, the checks on each item's output,
and the text each item's output digest is taken of.

An item's ``run`` raises ``Wrong`` when an output fails a check; its
``summary`` turns the returned value into the canonical text that the
frozen digests are computed from.  Library calls go through module
attributes (``C.minor_catalog``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

from oriented_hypergraphs import bidirected as B
from oriented_hypergraphs import contributors as C
from oriented_hypergraphs import core
from oriented_hypergraphs import jsonio as J
from oriented_hypergraphs import matrices as M
from oriented_hypergraphs import polynomial as P
from oriented_hypergraphs import topos as T

import inputs


class Wrong(Exception):
    """An output failed its check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def compare(a, b) -> bool:
    """Polynomial equality; the tracer times it as ``polynomial.compare``."""
    return a == b


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    summary: Callable[[Any], str] = repr
    # The ladder rule's chain: a failure skips the later items of the chain.
    chain: str | None = None
    limit_ok: bool = False
    # Run untimed first in the item's fresh worker, so that the worker's
    # first-touch costs (about 2 ms) do not count as the item's.
    warmup: Callable[[], Any] | None = None


# ---------------------------------------------------------------- corpus_oracle


def _matrix(og, target: str):
    return M.adjacency_matrix(og) if target == "adjacency" else M.laplacian_matrix(og)


def _oracle_item(g, signings):
    """Criterion 3 on one structure: one catalog, every signing evaluated
    from it and compared with the Leibniz oracle for all four pairs."""

    def run():
        catalog = C.minor_catalog(g)
        out = []
        for signs in signings:
            og = core.OrientedHypergraph.build(g, signs)
            polys = C.minor_polys_from_catalog(catalog, og.signs)
            for target, mode in C.COMBOS:
                oracle = M.symbolic_minor_poly(_matrix(og, target), mode)
                check(compare(polys[(target, mode)], oracle), f"{target}/{mode} diverges with {signs}")
            out.append((og.vertices, polys))
        return out

    def summary(out) -> str:
        return "\n".join(
            P.render_multivariate(polys[combo], vertices) for vertices, polys in out for combo in C.COMBOS
        )

    return run, summary


def corpus_oracle_items(seed: int) -> list[Item]:
    items = []
    for k, (g, signings) in enumerate(inputs.corpus_oracle_inputs(seed)):
        run, summary = _oracle_item(g, signings)
        items.append(Item(f"s{k:03d}", run, summary))
    return items


# ---------------------------------------------------------------- topos_laws


def _hom_signature(phi) -> tuple:
    return (
        tuple(sorted(phi.vertex_map.items())),
        tuple(sorted(phi.edge_map.items())),
        tuple(sorted(phi.incidence_map.items())),
    )


def _bang(sub, point):
    return core.Homomorphism(
        sub,
        point,
        {v: "v" for v in sub.vertices},
        {e: "e" for e in sub.edges},
        {i.id: "i" for i in sub.incidences},
    )


def _laws_item(g, ctx):
    """Criterion 5 on one structure: classifier round trips, pullbacks,
    and hom counts into the truth-value object and from the point."""

    def run():
        omega, point = ctx["omega"], ctx["point"]
        subs = T.enumerate_subhypergraphs(g)
        check(len(subs) == T.count_subhypergraphs(g), "subobject count differs from enumeration")
        seen = set()
        for k in subs:
            chi = T.classify(k)
            seen.add(_hom_signature(chi))
            back = T.subobject_from_map(chi)
            check(
                (back.vertex_ids, back.edge_ids, back.incidence_ids)
                == (k.vertex_ids, k.edge_ids, k.incidence_ids),
                "classify / subobject_from_map round trip",
            )
            bang = _bang(k.materialize(), point)
            chi_again = T.represent_partial(k.inclusion(), bang)
            check(T.partial_square_is_pullback(k.inclusion(), bang, chi_again), "pullback square")
        check(len(seen) == len(subs), "characteristic maps repeat")
        into = len(core.enumerate_homomorphisms(g, omega))
        check(into == len(subs), "homs into omega differ from subobjects")
        points = len(core.enumerate_homomorphisms(point, g))
        check(points == len(g.incidences), "homs from the point differ from incidences")
        return (len(subs), into, points)

    return run


def _transpose_item(g, block, ctx):
    """Criterion 5's transpose bijection for one g over the whole block."""

    def run():
        omega = ctx["omega"]
        pwr = T.power(g)
        sizes = []
        for k in block:
            prod = core.product(g, k)
            lhs = len(core.enumerate_homomorphisms(prod.hypergraph, omega))
            rhs = len(core.enumerate_homomorphisms(k, pwr.hypergraph))
            check(lhs == rhs, "transpose bijection")
            sizes.append(lhs)
        return sizes

    return run


def _envelope_item(g):
    """Criterion 6 on one structure: loading and tilde envelopes."""

    def run():
        res = T.loading(g)
        check(T.is_injective(res.hypergraph), "loading is not injective")
        check(T.is_essential_mono(res.j), "loading inclusion is not essential")
        ext = T.tilde(g)
        empty = not (g.vertices or g.edges or g.incidences)
        check(T.is_essential_mono(ext.eta) == empty, "tilde essential-mono law")
        expected = len(g.incidences) + (len(g.vertices) + 1) * (len(g.edges) + 1)
        check(len(ext.hypergraph.incidences) == expected, "tilde incidence count")
        return (len(res.hypergraph.incidences), len(ext.hypergraph.incidences))

    return run


def topos_laws_items(seed: int) -> tuple[Callable[[], dict], list[Item]]:
    """A prelude building the shared classifier and point, and the items."""
    data = inputs.topos_laws_inputs(seed)
    ctx: dict = {}

    def prelude() -> dict:
        ctx["omega"] = T.subobject_classifier().omega
        ctx["point"] = T.terminal()
        return ctx

    items = [Item(f"laws{k:03d}", _laws_item(g, ctx)) for k, g in enumerate(data["laws"])]
    items += [
        Item(f"transpose{k:02d}", _transpose_item(g, data["block"], ctx))
        for k, g in enumerate(data["block"])
    ]
    items += [Item(f"envelope{k:02d}", _envelope_item(g)) for k, g in enumerate(data["envelopes"])]
    return prelude, items


# ---------------------------------------------------------------- size_ladder


def _verify(text):
    def run():
        og = J.loads_oriented(text)
        results = C.oracle_equivalence(og)
        check(all(results.values()), f"oracle equivalence fails: {results}")
        poly = M.symbolic_minor_poly(M.laplacian_matrix(og), "det")
        return P.render_multivariate(poly, og.vertices)

    return run


def _charpoly(text):
    def run():
        og = J.loads_oriented(text)
        return [C.univariate_from_contributors(og, t, m).coeffs for t, m in C.COMBOS]

    return run


def _contributors(text, expected):
    def run():
        count = len(C.enumerate_contributors(J.loads_oriented(text)))
        check(count == expected, f"{count} contributors, expected {expected}")
        return count

    return run


def _graph(text):
    # The theorems hold for the plain graph: the orientation that makes
    # every two-incidence step positive, not the rung's random signs.
    g = J.loads_oriented(text).structure
    return g, M.graph_orientation(g)


def _cofactors(text, family, n):
    def run():
        g, og = _graph(text)
        tau = M.spanning_tree_count(g)
        expected = n ** (n - 2) if family == "K" else n
        check(tau == expected, f"{tau} spanning trees, expected {expected}")
        for u in g.vertices:
            for w in g.vertices:
                sign = (-1) ** (g.vertex_pos[u] + g.vertex_pos[w])
                check(M.matrix_tree_cofactor(og, u, w) == sign * tau, f"cofactor {u},{w}")
        return tau

    return run


def _sachs(text):
    def run():
        g, og = _graph(text)
        poly = M.sachs_char_poly(g)
        check(poly == M.char_poly_univariate(M.adjacency_matrix(og), "det"), "Sachs cover expansion")
        return poly.coeffs

    return run


def _minors(text):
    def run():
        g, og = _graph(text)
        lap = M.laplacian_matrix(og)
        oracle = M.symbolic_minor_poly(lap, "det")
        minors = []
        for r in range(len(g.vertices) + 1):
            for chosen in itertools.combinations(g.vertices, r):
                rest = [v for v in g.vertices if v not in chosen]
                minor = M.integer_determinant(lap.restrict(rest))
                coeff = oracle.coefficient([(u, u) for u in chosen])
                check(coeff == (-1) ** len(rest) * minor, f"principal minor off {chosen}")
                minors.append(minor)
        return minors

    return run


def _activation(text, family, n):
    def run():
        og = J.loads_oriented(text)
        classes = B.activation_classes(B.as_bidirected(og))
        check(all(2 ** len(a.generators) == len(a.members) for a in classes), "class is not Boolean")
        members = sum(len(a.members) for a in classes)
        expected = inputs.expected_contributors(family, n)
        check(members == expected, f"classes hold {members} contributors, expected {expected}")
        if family == "K":
            check(len(classes) == (n - 1) ** n, f"{len(classes)} classes, expected {(n - 1) ** n}")
        return sorted(len(a.members) for a in classes)

    return run


def _arborescences(text, family, n, roots):
    # Rooted spanning forests: K_n has k * n^(n-k-1) for k roots; the
    # cycle has n for one root and n - 1 for two adjacent roots.
    k = len(roots)
    expected = k * n ** (n - k - 1) if family == "K" else n - k + 1

    def run():
        og = J.loads_oriented(text)
        bg = B.as_bidirected(og)
        cls = C.MinorClass.build(og, roots, roots)
        survivors = {arb for _, arb in B.single_element_classes(bg, cls)}
        forests = B.k_arborescences(bg, roots)
        check(survivors == set(forests), "single-element classes differ from arborescences")
        check(len(forests) == expected, f"{len(forests)} forests, expected {expected}")
        return sorted((a.edges, a.assignment) for a in forests)

    return run


def size_ladder_items(seed: int) -> list[Item]:
    """Rungs in increasing n within each family; per rung the six kinds,
    ``theorems`` and ``arborescences`` split into one item per check.
    Each item warms up on its kind's smallest rung of the family."""
    items = []
    smallest: dict = {}
    for family, n in inputs.ladder_rungs():
        text = inputs.rung_text(family, n, seed)
        rung = f"{family}{n}"
        kinds = [
            ("verify", _verify(text)),
            ("charpoly", _charpoly(text)),
            ("contributors", _contributors(text, inputs.expected_contributors(family, n))),
        ]
        if family != "B":
            kinds += [
                ("theorems.cofactors", _cofactors(text, family, n)),
                ("theorems.sachs", _sachs(text)),
                ("theorems.minors", _minors(text)),
                ("activation", _activation(text, family, n)),
                ("arborescences.r1", _arborescences(text, family, n, ("v1",))),
                ("arborescences.r2", _arborescences(text, family, n, ("v1", "v2"))),
            ]
        for kind, run in kinds:
            chain = f"{family}.{kind}"
            smallest.setdefault(chain, run)
            items.append(Item(f"{rung}.{kind}", run, chain=chain, warmup=smallest[chain]))
    k9 = _contributors(inputs.rung_text("K", 9, seed), inputs.COMPLETE_CONTRIBUTORS[9])
    items.append(Item("K9.contributors", k9, limit_ok=True, warmup=smallest["K.contributors"]))
    return items


def _interleave(items: list[Item], seed: int) -> list[Item]:
    """A seed-drawn order that keeps every chain's own order.

    The host's speed drifts over seconds, so items of similar size must
    not run back to back: spread over the pass, they see the same mix of
    fast and slow moments in every run, and the percentiles stay steady.
    """
    chains: dict = {}
    for k, item in enumerate(items):
        chains.setdefault(item.chain or k, []).append(item)
    queues = [list(reversed(chain)) for chain in chains.values()]
    rng = random.Random(f"order:{seed}")
    out = []
    while queues:
        queue = rng.choice(queues)
        out.append(queue.pop())
        if not queue:
            queues.remove(queue)
    return out


def items_for(workload: str, seed: int) -> tuple[Callable[[], dict] | None, list[Item]]:
    """The prelude (or None) and the items of one pass, in run order."""
    prelude = None
    if workload == "corpus_oracle":
        items = corpus_oracle_items(seed)
    elif workload == "topos_laws":
        prelude, items = topos_laws_items(seed)
    else:
        items = size_ladder_items(seed)
    return prelude, _interleave(items, seed)


WORKLOADS = ("corpus_oracle", "size_ladder", "topos_laws")
