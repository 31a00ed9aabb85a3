"""Bidirected graphs: unpacking, activation lattices, and arborescence counts.

A bidirected graph is an orientation whose every edge holds exactly two
incidences.  Backsteps can then be unpacked in exactly one way, which
turns contributor sets into Boolean lattices under circle activation,
each built from its all-backstep bottom, and ties single-survivor
classes to rooted spanning forests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from . import limits
from .core import IncidenceHypergraph, LazySequence, OrientedHypergraph
from .errors import DomainError, InvariantError
from .contributors import (
    MinorClass,
    OneStep,
    Steps,
    _family_counts,
    _map_cycles,
    vertex_steps,
)
from .matrices import edge_endpoints, graph_orientation, integer_determinant, laplacian_matrix


@dataclass(frozen=True)
class BidirectedGraph:
    """An orientation with two incidences per edge and every sign +1 or -1."""

    og: OrientedHypergraph


def as_bidirected(og: OrientedHypergraph) -> BidirectedGraph:
    """Wrap ``og``, checking the two-incidence shape and nonzero signs."""
    g = og.structure
    for e in g.edges:
        k = len(g.incidences_on_edge[e])
        if k != 2:
            raise DomainError(f"edge {e!r} has {k} incidences, a bidirected edge needs 2")
    for i in g.incidences:
        if og.sigma(i.id) == 0:
            raise DomainError(f"incidence {i.id!r} has sign 0")
    return BidirectedGraph(og)


def _opened(g: IncidenceHypergraph, s: OneStep) -> OneStep:
    # The backstep ``s`` unpacked toward its edge's other incidence.
    on_edge = g.incidences_on_edge[s.edge]
    if len(on_edge) != 2:
        raise DomainError(f"edge {s.edge!r} has {len(on_edge)} incidences, cannot unpack")
    j = on_edge[0] if on_edge[1] == s.tail_incidence else on_edge[1]
    return OneStep(s.tail, s.tail_incidence, s.edge, j, g.vertex_of(j))


@dataclass(frozen=True, slots=True)
class ActivationClass:
    """A Boolean lattice of contributors under circle activation.

    ``steps`` holds per row its backsteps and, in the same order, their
    unpacked steps (one pair of tuples per row, shared by the classes of
    one build); ``choice`` picks the class's backstep in each row.
    ``bottom`` is the all-backstep member and ``opened`` the same row
    with every backstep unpacked, both built when read.  Each cycle of
    the unpacked head map is kept as its row positions; ``generators``
    gives the same cycles as tuples of tail vertices.  ``members`` builds
    the members on demand.
    """

    steps: tuple[tuple[Steps, Steps], ...]
    choice: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def bottom(self) -> Steps:
        return tuple([backsteps[k] for (backsteps, _), k in zip(self.steps, self.choice)])

    @property
    def opened(self) -> Steps:
        return tuple([unpacked[k] for (_, unpacked), k in zip(self.steps, self.choice)])

    @property
    def generators(self) -> tuple[tuple[str, ...], ...]:
        steps = self.steps  # every backstep of row k leaves the row's tail
        return tuple(tuple([steps[k][0][0].tail for k in c]) for c in self.cycles)

    @property
    def members(self) -> "ActivationMembers":
        return ActivationMembers(self)


class ActivationMembers(LazySequence):
    """The members of one activation class as an exact, read-only sequence.

    The member opening the generators at positions S sits at index
    sum(2^i for i in S): item 0 is the bottom, and each generator doubles
    the members before it.  The length is 2^(number of generators); a
    member is built only when it is read.
    """

    def __init__(self, cls: ActivationClass) -> None:
        self._cls = cls

    def __len__(self) -> int:
        return 1 << len(self._cls.cycles)

    def _item(self, k: int) -> Steps:
        cls = self._cls
        member = list(cls.bottom)
        for i, cycle in enumerate(cls.cycles):
            if k >> i & 1:
                for j in cycle:
                    member[j] = cls.steps[j][1][cls.choice[j]]
        return tuple(member)


def _bottoms(bg: BidirectedGraph, options: Mapping[str, Steps], max_count: int) -> tuple:
    # Every spanning family of ``options`` packs down to one backstep per
    # tail, so each choice of backsteps, in options order, is the bottom
    # of one class, and its members open any set of the cycles of the
    # would-be-head map.  Returns the rows of backstep options and an
    # iterator over the classes, each as its choice of one option per
    # row and its cycles as row positions.  The exact family count is
    # held to ``max_count`` before the build and then checks that the
    # classes hold every family once.  A member's heads are a permutation
    # of the tails because the bottom's are and each generator's opened
    # steps head round the generator's own tails, which both are checked.
    count = _family_counts(options)[-1]
    limits.check(count, max_count, "activation classes", "members")
    g = bg.og.structure
    row_of = {v: k for k, v in enumerate(options)}

    def option(s: OneStep) -> tuple[int, OneStep, OneStep]:
        # The unpacked step's head as a row position (-1 off the rows),
        # the backstep and the unpacked step.
        if s.head != s.tail:
            raise InvariantError("a class bottom's heads are not its tails")
        o = _opened(g, s)
        return row_of.get(o.head, -1), s, o

    rows = [[option(s) for s in steps if s.is_backstep] for steps in options.values()]

    def classes() -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
        built = 0
        heads = itertools.product(*[[o[0] for o in row] for row in rows])
        for f, choice in zip(heads, itertools.product(*[range(len(row)) for row in rows])):
            cycles = _map_cycles(f)
            for cycle in cycles:
                if [f[k] for k in cycle] != [*cycle[1:], cycle[0]]:
                    raise InvariantError("activation class member heads are not a permutation")
            built += 1 << len(cycles)
            yield choice, cycles
        if built != count:
            raise InvariantError(f"activation classes hold {built} families, expected {count}")

    return rows, classes()


def _classes(
    bg: BidirectedGraph, options: Mapping[str, Steps], max_count: int
) -> list[ActivationClass]:
    rows, classes = _bottoms(bg, options, max_count)
    steps = tuple((tuple([o[1] for o in row]), tuple([o[2] for o in row])) for row in rows)
    # Each distinct cycle and cycle set once (K7: 3,906 and 8,898 in 279,936 classes).
    held: dict = {}
    out = []
    for choice, cycles in classes:
        key = tuple([held.setdefault(c, c) for c in cycles])
        out.append(ActivationClass(steps, choice, held.setdefault(key, key)))
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
    pos = g.vertex_pos
    f = [-1] * len(g.vertices)
    for s in reduced:
        a, b = edge_endpoints(g, s.edge)
        f[pos[s.tail]] = pos[b if a == s.tail else a]
    if _map_cycles(f):
        raise InvariantError("total unpacking encountered a circle")
    assignment = []
    for k, v in enumerate(g.vertices):
        w = k
        while f[w] >= 0:
            w = f[w]
        root = g.vertices[w]
        if root not in roots and f[k] >= 0:
            raise InvariantError(f"chain from {v!r} drains to non-root {root!r}")
        if v in roots or f[k] >= 0:
            assignment.append((v, root))
    edge_ids = sorted((s.edge for s in reduced), key=g.edge_pos.__getitem__)
    return Arborescence(roots, tuple(edge_ids), tuple(assignment))


def single_element_classes(
    bg: BidirectedGraph, cls: MinorClass
) -> list[tuple[Steps, Arborescence]]:
    """Restricted activation classes with one member, unfolded.

    Only diagonal classes (the same row and column vertices) are covered;
    their survivors biject with the k-arborescences rooted at the rows.
    Every sign is +1 or -1, so every member weighs nonzero and a class
    has one member exactly when it has no generator; its bottom is the
    survivor.
    """
    n = len(bg.og.vertices)
    limits.check(n, limits.MAX_MINOR_VERTICES, "single-element class search", "vertices")
    mc = MinorClass.build(bg.og, cls.u, cls.w)
    if set(mc.u) != set(mc.w):
        raise DomainError("single-element classes need the same row and column vertices")
    # The reduced elements are the spanning step families on the non-row
    # vertices whose heads avoid the class columns: the direct form of
    # reducing every class member and de-duplicating.
    g = bg.og.structure
    options = {
        v: tuple(s for s in vertex_steps(g, v) if s.head not in mc.w)
        for v in g.vertices
        if v not in mc.u
    }
    rows, classes = _bottoms(bg, options, limits.MAX_CONTRIBUTORS)
    out = []
    for choice, cycles in classes:
        if not cycles:
            survivor = tuple([row[k][1] for row, k in zip(rows, choice)])
            out.append((survivor, total_unpack(bg, mc.u, survivor)))
    return out


def _forest_count(bg: BidirectedGraph, others: list[str]) -> int:
    # All-minors matrix-tree theorem: the spanning forests with one root
    # per component number the principal minor of the graph Laplacian
    # off the roots.  Loops cancel in that Laplacian.
    lap = laplacian_matrix(graph_orientation(bg.og.structure))
    return integer_determinant(lap.restrict(others))


def k_arborescences(
    bg: BidirectedGraph,
    roots: Iterable[str],
    *,
    max_vertices: int = limits.MAX_ARBORESCENCE_VERTICES,
    max_count: int = limits.MAX_CONTRIBUTORS,
) -> list[Arborescence]:
    """Spanning forests, one designated root per component, grown depth-first.

    Every non-root vertex, in vertex order, picks a parent edge in edge
    order, skipping any choice whose parent chain would loop back to it.
    The exact forest count (matrix-tree theorem) is computed first, so
    more than ``max_count`` forests raise :class:`ResourceLimitError`
    before the search, and the search must find exactly that many.
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
            if not g.inc(v, e):
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
