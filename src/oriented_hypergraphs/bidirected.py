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
from typing import Iterable, Iterator, Mapping, Sequence

from . import limits
from .core import IncidenceHypergraph, OrientedHypergraph
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

    ``steps`` holds per row its backsteps and, in the same order, their
    unpacked steps (one pair of tuples per row, shared by the classes of
    one build); ``choice`` picks the class's backstep in each row.
    ``bottom`` is the all-backstep member and ``opened`` the same row
    with every backstep unpacked, both built when read.  Each generator
    is a cycle of the unpacked head map, a tuple of tail vertices.
    ``members`` builds the members on demand.
    """

    steps: tuple[tuple[Steps, Steps], ...]
    choice: tuple[int, ...]
    generators: tuple[tuple[str, ...], ...]

    @property
    def bottom(self) -> Steps:
        return tuple([backsteps[k] for (backsteps, _), k in zip(self.steps, self.choice)])

    @property
    def opened(self) -> Steps:
        return tuple([unpacked[k] for (_, unpacked), k in zip(self.steps, self.choice)])

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

    def _parts(self) -> tuple[Steps, Steps, list[tuple[int, ...]]]:
        # The bottom, its unpacked row, and each generator as the row
        # positions of its tails.
        bottom = self._cls.bottom
        at = {s.tail: j for j, s in enumerate(bottom)}
        return bottom, self._cls.opened, [tuple(at[v] for v in c) for c in self._cls.generators]

    def _member(self, k: int, parts: tuple[Steps, Steps, list[tuple[int, ...]]]) -> Steps:
        bottom, opened, cycles = parts
        member = list(bottom)
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
        return self._member(k, self._parts())

    def __iter__(self) -> Iterator[Steps]:
        parts = self._parts()
        return (self._member(k, parts) for k in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ActivationMembers({list(self)!r})"


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
    g, sigma = bg.og.structure, bg.og.sigma
    row_of = {v: k for k, v in enumerate(options)}

    def option(s: OneStep) -> tuple[int, OneStep, OneStep, bool, bool]:
        # The unpacked step's head as a row position (-1 off the rows),
        # the backstep, the unpacked step, and whether each weighs nonzero.
        if s.head != s.tail:
            raise InvariantError("a class bottom's heads are not its tails")
        o = _opened(g, s)
        weight = sigma(o.tail_incidence) * sigma(o.head_incidence)
        return row_of.get(o.head, -1), s, o, sigma(s.tail_incidence) != 0, weight != 0

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
    tails = tuple(options)
    return [
        ActivationClass(steps, choice, tuple(tuple([tails[k] for k in c]) for c in cycles))
        for choice, cycles in classes
    ]


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
    # The reduced elements are the spanning step families on the non-row
    # vertices whose heads avoid the class columns: the direct form of
    # reducing every class member and de-duplicating.
    g = completed.og.structure
    options = {
        v: tuple(s for s in vertex_steps(g, v) if s.head not in mc.w)
        for v in g.vertices
        if v not in mc.u
    }
    rows, classes = _bottoms(completed, options, limits.MAX_CONTRIBUTORS)
    out = []
    for choice, cycles in classes:
        # A member is nonzero when its steps are: off the cycles it keeps
        # the bottom's, and on each cycle all backsteps or all opened.
        picked = [row[k] for row, k in zip(rows, choice)]
        member = [o[1] for o in picked]
        alive = [o[3] for o in picked]
        for cycle in cycles:
            closed = all(alive[k] for k in cycle)
            if closed == all(picked[k][4] for k in cycle):
                break
            if not closed:
                for k in cycle:
                    member[k] = picked[k][2]
                    alive[k] = True
        else:
            if all(alive):
                survivor = tuple(member)
                out.append((survivor, total_unpack(completed, mc.u, survivor)))
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
