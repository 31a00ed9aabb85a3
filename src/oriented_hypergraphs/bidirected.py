"""Bidirected graphs: packing, activation lattices, and arborescence counts.

A bidirected graph is an orientation whose every edge holds exactly two
incidences.  Backsteps can then be unpacked in exactly one way, which
turns contributor sets into Boolean lattices under circle activation and
ties single-survivor classes to rooted spanning forests.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import limits
from .core import IncidenceHypergraph, OrientedHypergraph
from .errors import DomainError, InvariantError, ResourceLimitError
from .contributors import (
    Contributor,
    MinorClass,
    OneStep,
    ReducedContributor,
    contributor_sign,
    enumerate_contributors,
    step_families,
    vertex_steps,
)

Steps = tuple[OneStep, ...]


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
        ends = [g.vertex_of(i) for i in g.incidences_on_edge[e]]
        adjacent.add(frozenset(ends))
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


def _partner(g: IncidenceHypergraph, edge: str, incidence: str) -> str:
    on_edge = g.incidences_on_edge[edge]
    if len(on_edge) != 2:
        raise DomainError(f"edge {edge!r} has {len(on_edge)} incidences, cannot unpack")
    return on_edge[0] if on_edge[1] == incidence else on_edge[1]


def _step_index(pre: Steps, vertex: str) -> int:
    for idx, s in enumerate(pre):
        if s.tail == vertex:
            return idx
    raise DomainError(f"no step tailed at {vertex!r}")


def pack(bg: BidirectedGraph, pre: Steps, vertex: str) -> Steps:
    """Collapse the adjacency step at ``vertex`` onto its tail incidence."""
    idx = _step_index(pre, vertex)
    s = pre[idx]
    if s.is_backstep:
        raise DomainError(f"step at {vertex!r} is already a backstep")
    packed = OneStep(s.tail, s.tail_incidence, s.edge, s.tail_incidence, s.tail)
    return pre[:idx] + (packed,) + pre[idx + 1 :]


def unpack(bg: BidirectedGraph, pre: Steps, vertex: str) -> Steps:
    """Open the backstep at ``vertex`` toward the edge's other incidence."""
    idx = _step_index(pre, vertex)
    s = pre[idx]
    if not s.is_backstep:
        raise DomainError(f"step at {vertex!r} is not a backstep")
    g = bg.og.structure
    j = _partner(g, s.edge, s.tail_incidence)
    opened = OneStep(s.tail, s.tail_incidence, s.edge, j, g.vertex_of(j))
    return pre[:idx] + (opened,) + pre[idx + 1 :]


def _backstep_targets(g: IncidenceHypergraph, steps: Steps) -> dict[str, str]:
    # Where each backstep would head if unpacked.
    out = {}
    for s in steps:
        if s.is_backstep:
            out[s.tail] = g.vertex_of(_partner(g, s.edge, s.tail_incidence))
    return out


def _unpack_cycles(g: IncidenceHypergraph, steps: Steps) -> list[tuple[str, ...]]:
    """Vertex cycles of the would-be-head function, i.e. activatable sets."""
    f = _backstep_targets(g, steps)
    color: dict[str, int] = {}
    cycles: list[tuple[str, ...]] = []
    for start in (s.tail for s in steps if s.is_backstep):
        if start in color:
            continue
        path = []
        v = start
        while v in f and v not in color:
            color[v] = 1
            path.append(v)
            v = f[v]
        if v in f and color.get(v) == 1:
            cycles.append(tuple(path[path.index(v) :]))
        for p in path:
            color[p] = 2
    return cycles


def _closed_circles(steps: Steps) -> list[tuple[str, ...]]:
    """Vertex cycles traced by the non-backstep steps, complete ones only."""
    by_tail = {s.tail: s for s in steps}
    circles = []
    seen: set[str] = set()
    for s in steps:
        if s.is_backstep or s.tail in seen:
            continue
        path = []
        v = s.tail
        ok = True
        while True:
            if v in seen or v not in by_tail or by_tail[v].is_backstep:
                ok = False
                break
            seen.add(v)
            path.append(v)
            v = by_tail[v].head
            if v == s.tail:
                break
        if ok:
            circles.append(tuple(path))
        # a broken walk marks its vertices visited, so it is skipped once
    return circles


def _activate(bg: BidirectedGraph, steps: Steps, cycle: Iterable[str]) -> Steps:
    for v in cycle:
        steps = unpack(bg, steps, v)
    return steps


def _deactivate(bg: BidirectedGraph, steps: Steps, circle: Iterable[str]) -> Steps:
    for v in circle:
        steps = pack(bg, steps, v)
    return steps


def _neighbors(bg: BidirectedGraph, steps: Steps) -> list[Steps]:
    g = bg.og.structure
    out = [_deactivate(bg, steps, circle) for circle in _closed_circles(steps)]
    out.extend(_activate(bg, steps, cycle) for cycle in _unpack_cycles(g, steps))
    return out


def _step_key(steps: Steps) -> tuple:
    return tuple((s.tail, s.tail_incidence, s.edge, s.head_incidence, s.head) for s in steps)


def _activation_partition(bg: BidirectedGraph, states: Sequence[Steps]) -> list[list[Steps]]:
    universe = set(states)
    assigned: set[Steps] = set()
    classes: list[list[Steps]] = []
    for seed in states:
        if seed in assigned:
            continue
        members = []
        queue = deque([seed])
        assigned.add(seed)
        while queue:
            cur = queue.popleft()
            members.append(cur)
            for nxt in _neighbors(bg, cur):
                if nxt not in universe:
                    raise InvariantError("activation move left the enumerated universe")
                if nxt not in assigned:
                    assigned.add(nxt)
                    queue.append(nxt)
        classes.append(sorted(members, key=_step_key))
    return classes


@dataclass(frozen=True)
class ActivationClass:
    """A Boolean lattice of contributors under circle activation."""

    members: tuple[Contributor, ...]
    bottom: Contributor
    generators: tuple[tuple[str, ...], ...]


def _verify_boolean(bg: BidirectedGraph, members: list[Steps]) -> tuple[Steps, tuple[tuple[str, ...], ...]]:
    g = bg.og.structure
    top_count = max(sum(1 for s in m if s.is_backstep) for m in members)
    bottoms = [m for m in members if sum(1 for s in m if s.is_backstep) == top_count]
    if len(bottoms) != 1:
        raise InvariantError(
            f"activation class has {len(bottoms)} maximal-backstep members, expected 1"
        )
    bottom = bottoms[0]
    generators = _unpack_cycles(g, bottom)
    if 2 ** len(generators) != len(members):
        raise InvariantError(
            f"activation class of size {len(members)} is not a Boolean lattice "
            f"over {len(generators)} generators"
        )
    span = set()
    for r in range(len(generators) + 1):
        for subset in itertools.combinations(generators, r):
            state = bottom
            for cycle in subset:
                state = _activate(bg, state, cycle)
            span.add(state)
    if span != set(members):
        raise InvariantError("activation class members are not the generator span")
    return bottom, tuple(generators)


def activation_classes(
    bg: BidirectedGraph, *, max_vertices: int = limits.MAX_CONTRIBUTOR_VERTICES
) -> list[ActivationClass]:
    """Partition all contributors by activation, verifying lattice shape."""
    cs = enumerate_contributors(bg.og, max_vertices=max_vertices)
    classes = _activation_partition(bg, [c.steps for c in cs])
    out = []
    for members in classes:
        bottom, generators = _verify_boolean(bg, members)
        out.append(
            ActivationClass(
                tuple(Contributor(m) for m in members), Contributor(bottom), generators
            )
        )
    return out


@dataclass(frozen=True)
class Arborescence:
    """A spanning forest with one designated sink per component."""

    roots: tuple[str, ...]
    edges: tuple[str, ...]
    assignment: tuple[tuple[str, str], ...]


def total_unpack(bg: BidirectedGraph, reduced: ReducedContributor) -> Arborescence:
    """Unfold an all-backstep survivor into its rooted forest.

    Every chain of would-be heads must drain into the class rows without
    closing a circle; a circle here falsifies the correspondence and is
    reported as an invariant violation, not skipped.
    """
    g = bg.og.structure
    roots = reduced.minor_class.u
    for s in reduced.steps:
        if not s.is_backstep:
            raise InvariantError(f"total unpacking hit a non-backstep at {s.tail!r}")
    f = _backstep_targets(g, reduced.steps)
    if _unpack_cycles(g, reduced.steps):
        raise InvariantError("total unpacking encountered a circle")
    assignment = []
    for v in g.vertices:
        w = v
        hops = 0
        while w in f:
            w = f[w]
            hops += 1
            if hops > len(g.vertices):
                raise InvariantError("total unpacking encountered a circle")
        if w not in roots and v in f:
            raise InvariantError(f"chain from {v!r} drains to non-root {w!r}")
        if v in roots or v in f:
            assignment.append((v, w if v in f else v))
    edge_ids = sorted((s.edge for s in reduced.steps), key=g.edge_pos.__getitem__)
    return Arborescence(roots, tuple(edge_ids), tuple(assignment))


def single_element_classes(
    bg: BidirectedGraph,
    cls: MinorClass,
    *,
    max_vertices: int = limits.MAX_MINOR_VERTICES,
) -> list[tuple[ReducedContributor, Arborescence]]:
    """Restricted activation classes with one nonzero member, unfolded.

    The graph is completed first, so reduced families never miss a step
    option for structural reasons; completion members score zero and can
    only pad classes, never create survivors.
    """
    completed = complete(bg)
    og = completed.og
    n = len(og.vertices)
    if n > max_vertices:
        raise ResourceLimitError(
            f"single-element class search limited to {max_vertices} vertices, got {n}"
        )
    mc = MinorClass.build(og, cls.u, cls.w)
    # The reduced elements are the spanning step families on the non-row
    # vertices whose heads avoid the class columns: the direct form of
    # reducing every class member and de-duplicating.
    g = og.structure
    options = {
        v: [s for s in vertex_steps(g, v) if s.head not in mc.w]
        for v in g.vertices
        if v not in mc.u
    }
    classes = _activation_partition(completed, list(step_families(options, spanning=True)))
    out = []
    for members in classes:
        nonzero = [m for m in members if contributor_sign(og, Contributor(m))]
        if len(nonzero) != 1:
            continue
        reduced = ReducedContributor(mc, nonzero[0])
        out.append((reduced, total_unpack(completed, reduced)))
    return out


def k_arborescences(
    bg: BidirectedGraph,
    roots: Iterable[str],
    *,
    max_vertices: int = limits.MAX_ARBORESCENCE_VERTICES,
) -> list[Arborescence]:
    """Brute-force spanning forests, one designated root per component.

    Runs on the real (non-completion) edges.  Every non-root vertex picks
    a parent edge; choices whose parent chains loop are discarded.
    """
    g = bg.og.structure
    n = len(g.vertices)
    if n > max_vertices:
        raise ResourceLimitError(
            f"arborescence enumeration limited to {max_vertices} vertices, got {n}"
        )
    root_list = tuple(roots)
    root_set = set(root_list)
    if len(root_set) != len(root_list):
        raise DomainError("roots repeat")
    unknown = root_set - set(g.vertices)
    if unknown:
        raise DomainError(f"unknown roots: {sorted(unknown)}")
    others = [v for v in g.vertices if v not in root_set]
    choices = []
    for v in others:
        opts = []
        for e in g.edges:
            if e in bg.completion_edges or not g.inc(v, e):
                continue
            ends = [g.vertex_of(i) for i in g.incidences_on_edge[e]]
            other = ends[0] if ends[1] == v else ends[1]
            if other == v:
                continue
            opts.append((e, other))
        choices.append(opts)
    out = []
    for combo in itertools.product(*choices):
        parent = dict(zip(others, combo))
        ok = True
        for v in others:
            w = v
            hops = 0
            while w in parent:
                w = parent[w][1]
                hops += 1
                if hops > n:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        assignment = []
        for v in g.vertices:
            w = v
            while w in parent:
                w = parent[w][1]
            assignment.append((v, w))
        edge_ids = sorted((e for e, _ in combo), key=g.edge_pos.__getitem__)
        out.append(Arborescence(root_list, tuple(edge_ids), tuple(assignment)))
    return out
