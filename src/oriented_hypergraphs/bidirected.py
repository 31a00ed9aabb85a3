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
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import limits
from .core import IncidenceHypergraph, LazySequence, OrientedHypergraph
from .errors import DomainError, InvariantError
from .jsonio import dumps_oriented
from .contributors import (
    MinorClass,
    OneStep,
    Steps,
    _all_steps,
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


def _replay(bg: BidirectedGraph, roots: Iterable[str]) -> dict:
    # The reproducer of a failed class or forest check: the graph as JSON
    # and the roots its survivor search was given.
    return {"input": dumps_oriented(bg.og), "roots": list(roots)}


def _opened(g: IncidenceHypergraph, s: OneStep) -> OneStep:
    # The backstep ``s`` unpacked toward its edge's other incidence.
    on_edge = g.incidences_on_edge[s.edge]
    if len(on_edge) != 2:
        raise DomainError(f"edge {s.edge!r} has {len(on_edge)} incidences, cannot unpack")
    j = on_edge[0] if on_edge[1] == s.tail_incidence else on_edge[1]
    return OneStep(s.tail, s.tail_incidence, s.edge, j, g.vertex_of(j))


# Per class row, each backstep option as (its unpacked head as a row
# position, -1 off the rows; the backstep; the unpacked step).
ClassRows = tuple[tuple[tuple[int, OneStep, OneStep], ...], ...]


class ActivationClass(NamedTuple):
    """A Boolean lattice of contributors under circle activation.

    ``rows`` holds per row its backstep options (see :data:`ClassRows`),
    shared by the classes of one build; ``position`` is the class's place
    in the product order of the options, the last row's digit fastest,
    and ``choice`` decodes it into the backstep picked in each row.
    ``bottom`` is the all-backstep member and ``opened`` the same row
    with every backstep unpacked, both built when read.  Each cycle of
    the unpacked head map is kept as its row positions; ``generators``
    holds the same cycles as tuples of tail vertices, computed once per
    distinct cycle set of a build and shared by its classes.  ``members``
    builds the members on demand.
    """

    rows: ClassRows
    position: int
    cycles: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[str, ...], ...]

    @property
    def choice(self) -> tuple[int, ...]:
        k = self.position
        digits = []
        for row in reversed(self.rows):
            k, d = divmod(k, len(row))
            digits.append(d)
        return tuple(reversed(digits))

    @property
    def bottom(self) -> Steps:
        return tuple([row[k][1] for row, k in zip(self.rows, self.choice)])

    @property
    def opened(self) -> Steps:
        return tuple([row[k][2] for row, k in zip(self.rows, self.choice)])

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
        picked = [row[c] for row, c in zip(cls.rows, cls.choice)]
        member = [p[1] for p in picked]
        for i, cycle in enumerate(cls.cycles):
            if k >> i & 1:
                for j in cycle:
                    member[j] = picked[j][2]
        return tuple(member)


def _classes(
    bg: BidirectedGraph, options: Mapping[str, Steps], max_count: int
) -> list[ActivationClass]:
    # Every spanning family of ``options`` packs down to one backstep per
    # tail, so each choice of backsteps, in options order, is the bottom
    # of one class, and its members open any set of the cycles of the
    # would-be-head map.  The exact family count is held to ``max_count``
    # before the build and then checks that the classes hold every family
    # once.  A member's heads are a permutation of the tails because the
    # bottom's are and each generator's opened steps head round the
    # generator's own tails, which both are checked.  A failed check
    # raises with the graph as JSON and the vertices off ``options``,
    # the roots of a survivor search.
    count = _family_counts(options)[-1]
    limits.check(count, max_count, "activation classes", "members")
    g = bg.og.structure
    tails = tuple(options)
    row_of = {v: k for k, v in enumerate(tails)}

    def failed(message: str) -> InvariantError:
        roots = [v for v in g.vertices if v not in row_of]
        return InvariantError(message, reproducer=_replay(bg, roots))

    rows = []
    for steps in options.values():
        row = []
        for s in steps:
            if s.is_backstep:
                if s.head != s.tail:
                    raise failed("a class bottom's heads are not its tails")
                o = _opened(g, s)
                row.append((row_of.get(o.head, -1), s, o))
        rows.append(tuple(row))
    shared = tuple(rows)
    # Each distinct cycle and cycle set once (K7: 3,906 and 8,898 in
    # 279,936 classes), a set with its generators, a getter of the heads
    # at its cycles' positions and what a permutation has there: each
    # position's successor on its cycle.
    held: dict = {}
    sets: dict = {}
    built = 0
    out = []
    new = tuple.__new__  # the class's own __new__ is one more Python call per class
    heads = itertools.product(*[[o[0] for o in row] for row in rows])
    for position, f in enumerate(heads):
        found = tuple(_map_cycles(f))
        entry = sets.get(found)
        if entry is None:
            cycles = tuple([held.setdefault(c, c) for c in found])
            at = [k for c in cycles for k in c]
            succ = {k: c[(i + 1) % len(c)] for c in cycles for i, k in enumerate(c)}
            get = itemgetter(*at) if at else None
            entry = sets[found] = (
                cycles,
                tuple([tuple([tails[k] for k in c]) for c in cycles]),
                get,
                get and get(succ),
            )
        cycles, generators, get, want = entry
        if get and get(f) != want:
            raise failed("activation class member heads are not a permutation")
        built += 1 << len(cycles)
        out.append(new(ActivationClass, (shared, position, cycles, generators)))
    if built != count:
        raise failed(f"activation classes hold {built} families, expected {count}")
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
    return _classes(bg, _all_steps(g), max_count)


@dataclass(frozen=True)
class Arborescence:
    """A spanning forest with one designated sink per component."""

    roots: tuple[str, ...]
    edges: tuple[str, ...]
    assignment: tuple[tuple[str, str], ...]


def _forest(
    bg: BidirectedGraph,
    roots: tuple[str, ...],
    at: Mapping[str, int],
    opened: Steps,
    f: Sequence[int],
) -> Arborescence:
    # The forest of the unpacked steps ``opened``, one per tail (``at``
    # maps each tail to its position), whose heads are ``f`` as tail
    # positions (-1 off the tails) and close no cycle: each tail's parent
    # chain ends at the head of the last step on it, off the tails, which
    # must be a root.
    g = bg.og.structure
    assignment = []
    for v in g.vertices:
        k = at.get(v)
        if k is None:
            if v in roots:
                assignment.append((v, v))
            continue
        while f[k] >= 0:
            k = f[k]
        root = opened[k].head
        if root not in roots:
            raise InvariantError(
                f"chain from {v!r} drains to non-root {root!r}", reproducer=_replay(bg, roots)
            )
        assignment.append((v, root))
    edge_ids = sorted((s.edge for s in opened), key=g.edge_pos.__getitem__)
    return Arborescence(roots, tuple(edge_ids), tuple(assignment))


def total_unpack(bg: BidirectedGraph, roots: tuple[str, ...], reduced: Steps) -> Arborescence:
    """Unfold an all-backstep survivor off the rows ``roots`` into its rooted forest.

    Every chain of would-be heads must drain into the class rows without
    closing a circle; a circle here falsifies the correspondence and is
    reported as an invariant violation, not skipped.
    """
    g = bg.og.structure
    for s in reduced:
        if not s.is_backstep:
            raise InvariantError(
                f"total unpacking hit a non-backstep at {s.tail!r}", reproducer=_replay(bg, roots)
            )
    opened = tuple([_opened(g, s) for s in reduced])
    at = {s.tail: k for k, s in enumerate(reduced)}
    f = [at.get(o.head, -1) for o in opened]
    if _map_cycles(f):
        raise InvariantError("total unpacking encountered a circle", reproducer=_replay(bg, roots))
    return _forest(bg, roots, at, opened, f)


def single_element_classes(
    bg: BidirectedGraph, cls: MinorClass
) -> list[tuple[Steps, Arborescence]]:
    """Restricted activation classes with one member, unfolded.

    Only diagonal classes (the same row and column vertices) are covered;
    their survivors biject with the k-arborescences rooted at the rows.
    Every sign is +1 or -1, so every member weighs nonzero and a class
    has one member exactly when it has no generator; its bottom is the
    survivor, unfolded (as :func:`total_unpack` does) from the class's
    unpacked steps and head map, whose cycles the class build has found.
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
    at = {v: k for k, v in enumerate(options)}
    out = []
    for a in _classes(bg, options, limits.MAX_CONTRIBUTORS):
        if not a.cycles:
            picked = [row[k] for row, k in zip(a.rows, a.choice)]
            opened = tuple([p[2] for p in picked])
            forest = _forest(bg, mc.u, at, opened, [p[0] for p in picked])
            out.append((tuple([p[1] for p in picked]), forest))
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
        raise InvariantError(
            f"arborescence search found {len(out)} forests, expected {count}",
            reproducer=_replay(bg, root_list),
        )
    return out
