"""Bidirected graphs: unpacking, activation lattices, and arborescence counts.

A bidirected graph is an orientation whose every edge holds exactly two
incidences.  Backsteps can then be unpacked in exactly one way, which
turns contributor sets into Boolean lattices under circle activation,
each built from its all-backstep bottom, and ties single-survivor
classes to rooted spanning forests.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import limits
from .core import IncidenceHypergraph, OrientedHypergraph
from .errors import DomainError, InvariantError
from .contributors import (
    MinorClass,
    OneStep,
    Steps,
    _family_counts,
    _map_cycles,
    contributor_sign,
    vertex_steps,
)
from .matrices import edge_endpoints, graph_orientation, integer_determinant, laplacian_matrix


@dataclass(frozen=True)
class BidirectedGraph:
    """Two incidences per edge; completion edges carry 0 signs."""

    og: OrientedHypergraph
    completion_edges: frozenset[str] = frozenset()


def as_bidirected(og: OrientedHypergraph) -> BidirectedGraph:
    """Wrap ``og``, checking the two-incidence shape and nonzero signs."""
    g = og.structure
    for e in g.edges:
        k = len(g.incidences_on_edge[e])
        if k != 2:
            raise DomainError(f"edge {e!r} has {k} incidences, a bidirected edge needs 2")
    for i in g.incidences:
        if og.sigma(i.id) == 0:
            raise DomainError(f"incidence {i.id!r} has sign 0; only completion edges may")
    return BidirectedGraph(og)


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name = name + "_"
    taken.add(name)
    return name


def complete(bg: BidirectedGraph) -> BidirectedGraph:
    """Join every non-adjacent vertex pair by a fresh 0-signed edge."""
    g = bg.og.structure
    adjacent: set[frozenset[str]] = set()
    for e in g.edges:
        adjacent.add(frozenset(edge_endpoints(g, e)))
    taken_edges = set(g.edge_pos)
    taken_incs = set(g.incidence_pos)
    edges = list(g.edges)
    incidences = [(i.id, i.vertex, i.edge) for i in g.incidences]
    signs = dict(bg.og.signs)
    added_edges = []
    for a, b in itertools.combinations(range(len(g.vertices)), 2):
        va, vb = g.vertices[a], g.vertices[b]
        if frozenset((va, vb)) in adjacent:
            continue
        eid = _fresh(f"0:{a},{b}", taken_edges)
        ia = _fresh(f"0:{a},{b}:{a}", taken_incs)
        ib = _fresh(f"0:{a},{b}:{b}", taken_incs)
        edges.append(eid)
        incidences.append((ia, va, eid))
        incidences.append((ib, vb, eid))
        signs[ia] = 0
        signs[ib] = 0
        added_edges.append(eid)
    if not added_edges:
        return bg
    padded = IncidenceHypergraph.build(g.vertices, edges, incidences)
    og = OrientedHypergraph.build(padded, signs, loaded=bg.og.loaded)
    return BidirectedGraph(og, bg.completion_edges | frozenset(added_edges))


def _opened(g: IncidenceHypergraph, s: OneStep) -> OneStep:
    # The backstep ``s`` unpacked toward its edge's other incidence.
    on_edge = g.incidences_on_edge[s.edge]
    if len(on_edge) != 2:
        raise DomainError(f"edge {s.edge!r} has {len(on_edge)} incidences, cannot unpack")
    j = on_edge[0] if on_edge[1] == s.tail_incidence else on_edge[1]
    return OneStep(s.tail, s.tail_incidence, s.edge, j, g.vertex_of(j))


def unpack(bg: BidirectedGraph, pre: Steps, vertex: str) -> Steps:
    """Open the backstep at ``vertex`` toward the edge's other incidence."""
    for idx, s in enumerate(pre):
        if s.tail == vertex:
            break
    else:
        raise DomainError(f"no step tailed at {vertex!r}")
    if not s.is_backstep:
        raise DomainError(f"step at {vertex!r} is not a backstep")
    return pre[:idx] + (_opened(bg.og.structure, s),) + pre[idx + 1 :]


@dataclass(frozen=True, slots=True)
class ActivationClass:
    """A Boolean lattice of contributors under circle activation.

    ``bottom`` is the all-backstep member and ``opened`` the same row
    with every backstep unpacked; each generator is a cycle of the
    unpacked head map, a tuple of tail vertices.  ``members`` builds the
    members on demand.
    """

    bottom: Steps
    opened: Steps
    generators: tuple[tuple[str, ...], ...]

    @property
    def members(self) -> "ActivationMembers":
        return ActivationMembers(self)


class ActivationMembers(Sequence[Steps]):
    """The members of one activation class as an exact, read-only sequence.

    The member opening the generators at positions S sits at index
    sum(2^i for i in S): item 0 is the bottom, and each generator doubles
    the members before it.  The length is 2^(number of generators); a
    member is built only when it is read.  Equal to any sequence of the
    same members in the same order, a tuple included.
    """

    def __init__(self, cls: ActivationClass) -> None:
        self._cls = cls

    def __len__(self) -> int:
        return 1 << len(self._cls.generators)

    def _cycles(self) -> list[tuple[int, ...]]:
        # Each generator as the row positions of its tails.
        at = {s.tail: j for j, s in enumerate(self._cls.bottom)}
        return [tuple(at[v] for v in cycle) for cycle in self._cls.generators]

    def _member(self, k: int, cycles: list[tuple[int, ...]]) -> Steps:
        member = list(self._cls.bottom)
        opened = self._cls.opened
        for i, cycle in enumerate(cycles):
            if k >> i & 1:
                for j in cycle:
                    member[j] = opened[j]
        return tuple(member)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("activation member index out of range")
        return self._member(k, self._cycles())

    def __iter__(self) -> Iterator[Steps]:
        cycles = self._cycles()
        return (self._member(k, cycles) for k in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ActivationMembers({list(self)!r})"


def _classes(
    bg: BidirectedGraph, options: dict[str, Steps], max_count: int
) -> list[ActivationClass]:
    # Every spanning family of ``options`` packs down to one backstep per
    # tail, so each choice of backsteps, in options order, is the bottom
    # of one class, and its members open any set of the cycles of the
    # would-be-head map.  The exact family count is held to
    # ``max_count`` before the build and then checks that the classes hold
    # every family once.  A member's heads are a permutation of the tails
    # because the bottom's are and each generator's opened steps head
    # round the generator's own tails, which both are checked.
    count = _family_counts(options)[-1]
    limits.check(count, max_count, "activation classes", "members")
    g = bg.og.structure
    tails = tuple(options)
    # Each backstep with its unpacked step and that step's head; one
    # triple per tail, in options order, gives a class bottom, its fully
    # unpacked row and the would-be-head map.
    triples = [
        [(s, o, o.head) for s in steps if s.is_backstep for o in (_opened(g, s),)]
        for steps in options.values()
    ]
    if any(b.head != b.tail for row in triples for b, _, _ in row):
        raise InvariantError("a class bottom's heads are not its tails")
    bottom_of, opened_of, head_of = (operator.itemgetter(k) for k in range(3))
    out = []
    built = 0
    for choice in itertools.product(*triples):
        f = dict(zip(tails, map(head_of, choice)))
        generators = tuple(_map_cycles(f))
        for cycle in generators:
            if tuple(map(f.__getitem__, cycle)) != cycle[1:] + cycle[:1]:
                raise InvariantError("activation class member heads are not a permutation")
        built += 1 << len(generators)
        out.append(
            ActivationClass(tuple(map(bottom_of, choice)), tuple(map(opened_of, choice)), generators)
        )
    if built != count:
        raise InvariantError(f"activation classes hold {built} families, expected {count}")
    return out


def activation_classes(
    bg: BidirectedGraph,
    *,
    max_vertices: int = limits.MAX_CONTRIBUTOR_VERTICES,
    max_count: int = limits.MAX_CONTRIBUTORS,
) -> list[ActivationClass]:
    """All contributors as Boolean activation classes, in bottom order.

    The exact contributor count is computed first, so more than
    ``max_count`` members raise :class:`ResourceLimitError` before any
    class is built.
    """
    g = bg.og.structure
    limits.check(len(g.vertices), max_vertices, "contributor enumeration", "vertices")
    return _classes(bg, {v: vertex_steps(g, v) for v in g.vertices}, max_count)


@dataclass(frozen=True)
class Arborescence:
    """A spanning forest with one designated sink per component."""

    roots: tuple[str, ...]
    edges: tuple[str, ...]
    assignment: tuple[tuple[str, str], ...]


def total_unpack(bg: BidirectedGraph, roots: tuple[str, ...], reduced: Steps) -> Arborescence:
    """Unfold an all-backstep survivor off the rows ``roots`` into its rooted forest.

    Every chain of would-be heads must drain into the class rows without
    closing a circle; a circle here falsifies the correspondence and is
    reported as an invariant violation, not skipped.
    """
    g = bg.og.structure
    for s in reduced:
        if not s.is_backstep:
            raise InvariantError(f"total unpacking hit a non-backstep at {s.tail!r}")
    f = {s.tail: _opened(g, s).head for s in reduced}
    if _map_cycles(f):
        raise InvariantError("total unpacking encountered a circle")
    assignment = []
    for v in g.vertices:
        w = v
        while w in f:
            w = f[w]
        if w not in roots and v in f:
            raise InvariantError(f"chain from {v!r} drains to non-root {w!r}")
        if v in roots or v in f:
            assignment.append((v, w if v in f else v))
    edge_ids = sorted((s.edge for s in reduced), key=g.edge_pos.__getitem__)
    return Arborescence(roots, tuple(edge_ids), tuple(assignment))


def single_element_classes(
    bg: BidirectedGraph,
    cls: MinorClass,
    *,
    max_vertices: int = limits.MAX_MINOR_VERTICES,
) -> list[tuple[Steps, Arborescence]]:
    """Restricted activation classes with one nonzero member, unfolded.

    Only diagonal classes (the same row and column vertices) are covered;
    their survivors biject with the k-arborescences rooted at the rows.
    The graph is completed first, so reduced families never miss a step
    option for structural reasons; completion members score zero and can
    only pad classes, never create survivors.
    """
    limits.check(len(bg.og.vertices), max_vertices, "single-element class search", "vertices")
    mc = MinorClass.build(bg.og, cls.u, cls.w)
    if set(mc.u) != set(mc.w):
        raise DomainError("single-element classes need the same row and column vertices")
    completed = complete(bg)
    og = completed.og
    # The reduced elements are the spanning step families on the non-row
    # vertices whose heads avoid the class columns: the direct form of
    # reducing every class member and de-duplicating.
    g = og.structure
    options = {
        v: tuple(s for s in vertex_steps(g, v) if s.head not in mc.w)
        for v in g.vertices
        if v not in mc.u
    }
    out = []
    for a in _classes(completed, options, limits.MAX_CONTRIBUTORS):
        nonzero = [m for m in a.members if contributor_sign(og, m)]
        if len(nonzero) == 1:
            out.append((nonzero[0], total_unpack(completed, mc.u, nonzero[0])))
    return out


def _forest_count(bg: BidirectedGraph, others: list[str]) -> int:
    # All-minors matrix-tree theorem: the spanning forests with one root
    # per component number the principal minor of the graph Laplacian of
    # the real edges off the roots.  Loops cancel in that Laplacian.
    g = bg.og.structure
    real = IncidenceHypergraph.build(
        g.vertices,
        [e for e in g.edges if e not in bg.completion_edges],
        [(i.id, i.vertex, i.edge) for i in g.incidences if i.edge not in bg.completion_edges],
    )
    return integer_determinant(laplacian_matrix(graph_orientation(real)).restrict(others))


def k_arborescences(
    bg: BidirectedGraph,
    roots: Iterable[str],
    *,
    max_vertices: int = limits.MAX_ARBORESCENCE_VERTICES,
    max_count: int = limits.MAX_CONTRIBUTORS,
) -> list[Arborescence]:
    """Spanning forests, one designated root per component, grown depth-first.

    Runs on the real (non-completion) edges.  Every non-root vertex, in
    vertex order, picks a parent edge in edge order, skipping any choice
    whose parent chain would loop back to it.  The exact forest count
    (matrix-tree theorem) is computed first, so more than ``max_count``
    forests raise :class:`ResourceLimitError` before the search, and the
    search must find exactly that many.
    """
    g = bg.og.structure
    limits.check(len(g.vertices), max_vertices, "arborescence enumeration", "vertices")
    root_list = tuple(roots)
    root_set = set(root_list)
    if len(root_set) != len(root_list):
        raise DomainError("roots repeat")
    unknown = root_set - set(g.vertices)
    if unknown:
        raise DomainError(f"unknown roots: {sorted(unknown)}")
    others = [v for v in g.vertices if v not in root_set]
    count = _forest_count(bg, others)
    limits.check(count, max_count, "arborescence enumeration", "forests")
    choices = []
    for v in others:
        opts = []
        for e in g.edges:
            if e in bg.completion_edges or not g.inc(v, e):
                continue
            a, b = edge_endpoints(g, e)
            other = a if b == v else b
            if other != v:
                opts.append((e, other))
        choices.append(opts)
    parent: dict[str, str] = {}
    edges: list[str] = []
    out = []

    def end(v: str) -> str:
        # The parent chain from v stops at a root or an unplaced vertex.
        while v in parent:
            v = parent[v]
        return v

    def grow(k: int) -> None:
        if k == len(others):
            edge_ids = sorted(edges, key=g.edge_pos.__getitem__)
            assignment = tuple((v, end(v)) for v in g.vertices)
            out.append(Arborescence(root_list, tuple(edge_ids), assignment))
            return
        v = others[k]
        for e, w in choices[k]:
            if end(w) == v:
                continue
            parent[v] = w
            edges.append(e)
            grow(k + 1)
            edges.pop()
            del parent[v]

    grow(0)
    if len(out) != count:
        raise InvariantError(f"arborescence search found {len(out)} forests, expected {count}")
    return out
