"""Finite incidence hypergraphs and their structure-preserving maps.

An incidence hypergraph is a triple of finite sets (vertices, edges,
incidences) where every incidence is attached to exactly one vertex and
one edge. Incidences are first-class: two incidences may join the same
vertex/edge pair and are never merged. An oriented hypergraph adds a
sign in {-1, 0, +1} to every incidence.

All element identifiers are opaque strings. Insertion order is the
canonical order and every enumeration in the package iterates in it, so
repeated runs produce identical output.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import DomainError
from . import limits

__all__ = [
    "Incidence",
    "IncidenceHypergraph",
    "OrientedHypergraph",
    "ValidationReport",
    "Homomorphism",
    "LazySequence",
    "HomSet",
    "Subhypergraph",
    "ProductResult",
    "SORTS",
    "validate",
    "validate_homomorphism",
    "identity_homomorphism",
    "inclusion",
    "is_monic",
    "subhypergraph",
    "generated_subhypergraph",
    "product",
    "enumerate_homomorphisms",
    "pair_id",
]


# The three sorts of the span V <- I -> E, in the order every per-sort
# tuple below uses: ``IncidenceHypergraph.ids`` and ``Homomorphism.maps``.
SORTS = ("vertex", "edge", "incidence")


@dataclass(frozen=True)
class Incidence:
    """One attachment of a vertex to an edge."""

    id: str
    vertex: str
    edge: str

    @property
    def feet(self) -> tuple[str, str]:
        """Where the incidence attaches: its vertex, then its edge."""
        return (self.vertex, self.edge)


@dataclass(frozen=True)
class IncidenceHypergraph:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    incidences: tuple[Incidence, ...]

    @staticmethod
    def build(
        vertices: Iterable[str],
        edges: Iterable[str],
        incidences: Iterable[tuple[str, str, str]],
    ) -> "IncidenceHypergraph":
        """Construct from plain (id, vertex, edge) triples."""
        return IncidenceHypergraph(
            tuple(vertices),
            tuple(edges),
            tuple(Incidence(i, v, e) for i, v, e in incidences),
        )

    @cached_property
    def ids(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """The vertex, edge and incidence ids, one tuple per sort."""
        return (self.vertices, self.edges, tuple(i.id for i in self.incidences))

    # Lookup tables are cached per instance; they assume the structure is
    # valid (see validate).  OrientedHypergraph.build and minor_catalog
    # check that; the functions taking a bare structure do not.

    @cached_property
    def vertex_pos(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def edge_pos(self) -> dict[str, int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def incidence_pos(self) -> dict[str, int]:
        return {i.id: k for k, i in enumerate(self.incidences)}

    @cached_property
    def incidence_by_id(self) -> dict[str, Incidence]:
        return {i.id: i for i in self.incidences}

    @cached_property
    def _inc_table(self) -> dict[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for i in self.incidences:
            table.setdefault((i.vertex, i.edge), []).append(i.id)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def incidences_at_vertex(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {v: [] for v in self.vertices}
        for i in self.incidences:
            table[i.vertex].append(i.id)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def incidences_on_edge(self) -> dict[str, tuple[str, ...]]:
        table: dict[str, list[str]] = {e: [] for e in self.edges}
        for i in self.incidences:
            table[i.edge].append(i.id)
        return {k: tuple(v) for k, v in table.items()}

    def inc(self, vertex: str, edge: str) -> tuple[str, ...]:
        """Ids of the incidences joining vertex and edge (possibly empty)."""
        if vertex not in self.vertex_pos:
            raise DomainError(f"unknown vertex {vertex!r}")
        if edge not in self.edge_pos:
            raise DomainError(f"unknown edge {edge!r}")
        return self._inc_table.get((vertex, edge), ())

    def vertex_of(self, incidence_id: str) -> str:
        return self.incidence_by_id[incidence_id].vertex

    def edge_of(self, incidence_id: str) -> str:
        return self.incidence_by_id[incidence_id].edge


@dataclass(frozen=True)
class OrientedHypergraph:
    """An incidence hypergraph plus a sign per incidence.

    ``loaded`` records which incidences were introduced by zero-loading
    (as opposed to supplied by the user); the algebra treats a 0 sign the
    same way either way, the flag is provenance only.
    """

    structure: IncidenceHypergraph
    signs: Mapping[str, int]
    loaded: frozenset[str] = frozenset()

    @staticmethod
    def build(
        structure: IncidenceHypergraph,
        signs: Mapping[str, int] | None = None,
        loaded: Iterable[str] = (),
    ) -> "OrientedHypergraph":
        """Validate ``structure`` and its signs; unsigned incidences get +1."""
        require_valid(structure)
        sign_map = {} if signs is None else dict(signs)
        for i in structure.incidences:
            s = sign_map.setdefault(i.id, 1)
            if s not in (-1, 0, 1):
                raise DomainError(f"sign of incidence {i.id!r} must be -1, 0, or +1, got {s!r}")
        unknown = set(sign_map) - set(structure.incidence_pos)
        if unknown:
            raise DomainError(f"signs given for unknown incidences: {sorted(unknown)}")
        return OrientedHypergraph(structure, sign_map, frozenset(loaded))

    def sigma(self, incidence_id: str) -> int:
        return self.signs[incidence_id]

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.structure.vertices

    @property
    def edges(self) -> tuple[str, ...]:
        return self.structure.edges

    @property
    def incidences(self) -> tuple[Incidence, ...]:
        return self.structure.incidences


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first(self) -> str | None:
        return self.violations[0] if self.violations else None


def _duplicates(items: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    dups: list[str] = []
    for x in items:
        if x in seen and x not in dups:
            dups.append(x)
        seen.add(x)
    return dups


def validate(g: IncidenceHypergraph) -> ValidationReport:
    """Check the structural invariants, reporting every violation found."""
    problems: list[str] = []
    for v in _duplicates(g.vertices):
        problems.append(f"duplicate vertex id {v!r}")
    for e in _duplicates(g.edges):
        problems.append(f"duplicate edge id {e!r}")
    for i in _duplicates([i.id for i in g.incidences]):
        problems.append(f"duplicate incidence id {i!r}")
    vset, eset = set(g.vertices), set(g.edges)
    for i in g.incidences:
        if i.vertex not in vset:
            problems.append(f"incidence {i.id!r} references unknown vertex {i.vertex!r}")
        if i.edge not in eset:
            problems.append(f"incidence {i.id!r} references unknown edge {i.edge!r}")
    return ValidationReport(tuple(problems))


def require_valid(g: IncidenceHypergraph) -> None:
    report = validate(g)
    if not report.ok:
        raise DomainError(report.first)


@dataclass(frozen=True)
class Homomorphism:
    """A triple of componentwise maps commuting with both attachments."""

    source: IncidenceHypergraph
    target: IncidenceHypergraph
    vertex_map: dict[str, str]
    edge_map: dict[str, str]
    incidence_map: dict[str, str]

    @property
    def maps(self) -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
        """The vertex, edge and incidence maps, one per sort."""
        return (self.vertex_map, self.edge_map, self.incidence_map)


def validate_homomorphism(h: Homomorphism) -> ValidationReport:
    problems: list[str] = []
    src, dst = h.source, h.target
    target_pos = (dst.vertex_pos, dst.edge_pos, dst.incidence_pos)
    for sort, ids, m, targets in zip(SORTS, src.ids, h.maps, target_pos):
        for k, x in enumerate(ids):
            if x not in m:
                problems.append(f"{sort} map undefined on {x!r}")
            elif m[x] not in targets:
                problems.append(f"{sort} map sends {x!r} outside the target")
            elif sort == "incidence":
                image = dst.incidence_by_id[m[x]]
                for side, foot, image_foot, foot_map in zip(
                    SORTS, src.incidences[k].feet, image.feet, h.maps
                ):
                    if foot in foot_map and image_foot != foot_map[foot]:
                        problems.append(f"incidence {x!r} breaks the {side} attachment square")
    return ValidationReport(tuple(problems))


def require_valid_homomorphism(h: Homomorphism) -> None:
    """Raise :class:`DomainError` with the first violation of ``h``."""
    report = validate_homomorphism(h)
    if not report.ok:
        raise DomainError(report.first)


def inclusion(sub: IncidenceHypergraph, parent: IncidenceHypergraph) -> Homomorphism:
    """The map sending every element of ``sub`` to the same id in ``parent``."""
    return Homomorphism(
        sub,
        parent,
        {v: v for v in sub.vertices},
        {e: e for e in sub.edges},
        {i.id: i.id for i in sub.incidences},
    )


def identity_homomorphism(g: IncidenceHypergraph) -> Homomorphism:
    return inclusion(g, g)


def is_monic(h: Homomorphism) -> bool:
    """True when all three component maps are injective."""
    for m in (h.vertex_map, h.edge_map, h.incidence_map):
        if len(set(m.values())) != len(m):
            return False
    return True


@dataclass(frozen=True)
class Subhypergraph:
    """A view onto a parent hypergraph given by three subsets.

    The incidence subset must be closed: attachments of every chosen
    incidence belong to the chosen vertex/edge subsets.
    """

    parent: IncidenceHypergraph
    vertex_ids: frozenset[str]
    edge_ids: frozenset[str]
    incidence_ids: frozenset[str]

    @cached_property
    def _materialized(self) -> IncidenceHypergraph:
        p = self.parent
        return IncidenceHypergraph(
            tuple(v for v in p.vertices if v in self.vertex_ids),
            tuple(e for e in p.edges if e in self.edge_ids),
            tuple(i for i in p.incidences if i.id in self.incidence_ids),
        )

    def materialize(self) -> IncidenceHypergraph:
        """A standalone hypergraph in the parent's canonical order, built
        once per instance."""
        return self._materialized

    def inclusion(self) -> Homomorphism:
        return inclusion(self.materialize(), self.parent)


def subhypergraph(
    parent: IncidenceHypergraph,
    vertex_ids: Iterable[str],
    edge_ids: Iterable[str],
    incidence_ids: Iterable[str],
) -> Subhypergraph:
    vs, es, is_ = frozenset(vertex_ids), frozenset(edge_ids), frozenset(incidence_ids)
    for v in vs:
        if v not in parent.vertex_pos:
            raise DomainError(f"unknown vertex {v!r}")
    for e in es:
        if e not in parent.edge_pos:
            raise DomainError(f"unknown edge {e!r}")
    for i in is_:
        if i not in parent.incidence_pos:
            raise DomainError(f"unknown incidence {i!r}")
        inc = parent.incidence_by_id[i]
        if inc.vertex not in vs:
            raise DomainError(f"incidence {i!r} attaches to vertex {inc.vertex!r} outside the subset")
        if inc.edge not in es:
            raise DomainError(f"incidence {i!r} attaches to edge {inc.edge!r} outside the subset")
    return Subhypergraph(parent, vs, es, is_)


def generated_subhypergraph(
    parent: IncidenceHypergraph,
    vertex_ids: Iterable[str],
    edge_ids: Iterable[str],
    incidence_ids: Iterable[str],
) -> Subhypergraph:
    """Smallest subhypergraph containing the three seed subsets.

    The vertex and edge subsets grow by the attachments of the seeded
    incidences; the incidence subset is taken as given.
    """
    vs, es, is_ = set(vertex_ids), set(edge_ids), frozenset(incidence_ids)
    for i in is_:
        inc = parent.incidence_by_id.get(i)
        if inc is not None:  # subhypergraph refuses an unknown id
            vs.add(inc.vertex)
            es.add(inc.edge)
    return subhypergraph(parent, vs, es, is_)


def pair_id(a: str, b: str) -> str:
    """Unambiguous id for an ordered pair of existing ids."""
    return f"({a!r},{b!r})"


@dataclass(frozen=True)
class ProductResult:
    hypergraph: IncidenceHypergraph
    left: IncidenceHypergraph
    right: IncidenceHypergraph
    projection_left: Homomorphism
    projection_right: Homomorphism
    vertex_pairs: dict[tuple[str, str], str]
    edge_pairs: dict[tuple[str, str], str]
    incidence_pairs: dict[tuple[str, str], str]


def product(g: IncidenceHypergraph, h: IncidenceHypergraph) -> ProductResult:
    """Categorical product: everything is built coordinatewise.

    Incidence pairs attach to the pair of their coordinate attachments,
    so |I| of the product is |I(g)| * |I(h)|. Both factors are validated
    first.
    """
    require_valid(g)
    require_valid(h)
    pairs = [
        {(a, b): pair_id(a, b) for a in g_ids for b in h_ids}
        for g_ids, h_ids in zip(g.ids, h.ids)
    ]
    vertex_pairs, edge_pairs, incidence_pairs = pairs
    incidences = tuple(
        Incidence(
            incidence_pairs[(i.id, j.id)],
            vertex_pairs[(i.vertex, j.vertex)],
            edge_pairs[(i.edge, j.edge)],
        )
        for i in g.incidences
        for j in h.incidences
    )
    prod = IncidenceHypergraph(
        tuple(vertex_pairs.values()), tuple(edge_pairs.values()), incidences
    )
    projections = []
    for side, factor in enumerate((g, h)):
        maps = [{pid: pair[side] for pair, pid in table.items()} for table in pairs]
        projections.append(Homomorphism(prod, factor, *maps))
    return ProductResult(prod, g, h, *projections, *pairs)


def _hom_search_bound(g: IncidenceHypergraph, h: IncidenceHypergraph) -> int:
    return (
        len(h.vertices) ** len(g.vertices)
        * len(h.edges) ** len(g.edges)
        * len(h.incidences) ** len(g.incidences)
    )


class LazySequence(Sequence):
    """An exact, read-only sequence whose items are built when read.

    A subclass gives ``__len__`` and ``_item(k)`` for 0 <= k < len; two
    reads of one index give equal items, but not the same object. Equal
    to any sequence of the same items in the same order, a list included.
    """

    def _item(self, k: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(k) for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(k)

    def __iter__(self) -> Iterator:
        return map(self._item, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class HomSet(LazySequence):
    """The homomorphisms g -> h as an exact, read-only sequence.

    The constructor validates both ends, refuses a search whose naive
    product bound exceeds ``limits.MAX_HOM_CANDIDATES``, and then runs
    the incidence search. A leaf is one assignment of g's incidences
    (a tuple of h's incidences, in g's incidence order). It pins the
    image of every vertex and edge that carries an incidence, so each
    leaf stands for the same number of maps: one per choice of images for
    g's isolated vertices and edges. Item k is leaf k // per_leaf; the
    rest of k, read as mixed-radix digits (free vertices first, then free
    edges, the last digit fastest), picks those images.
    """

    def __init__(self, source: IncidenceHypergraph, target: IncidenceHypergraph) -> None:
        require_valid(source)
        require_valid(target)
        bound = _hom_search_bound(source, target)
        limits.check(bound, limits.MAX_HOM_CANDIDATES, "homomorphism search", "candidates")
        self.source = source
        self.target = target
        # Every vertex and edge that carries an incidence, with the index
        # of its first incidence: that incidence's image pins its image.
        pinned: tuple[dict[str, int], dict[str, int]] = ({}, {})
        for k, i in enumerate(source.incidences):
            for table, foot in zip(pinned, i.feet):
                table.setdefault(foot, k)
        self._pinned_vertices, self._pinned_edges = pinned
        self._free = [
            [x for x in ids if x not in table] for ids, table in zip(source.ids, pinned)
        ]
        self._per_leaf = math.prod(
            len(images) ** len(free) for images, free in zip(target.ids, self._free)
        )
        self._leaves = self._search()

    def _search(self) -> list[tuple[Incidence, ...]]:
        """Every leaf, depth first, candidates in the target's order."""
        g, h = self.source, self.target
        if not g.incidences:
            return [()]
        # For each incidence, the incidences whose images pin its vertex
        # and its edge (itself when nothing earlier does).
        plan = [
            (self._pinned_vertices[i.vertex], self._pinned_edges[i.edge]) for i in g.incidences
        ]
        by_id = h.incidence_by_id
        chosen: list[Incidence] = []

        def options(k: int) -> Iterator[Incidence]:
            kv, ke = plan[k]
            if kv < k and ke < k:
                ids = h._inc_table.get((chosen[kv].vertex, chosen[ke].edge), ())
            elif kv < k:
                ids = h.incidences_at_vertex[chosen[kv].vertex]
            elif ke < k:
                ids = h.incidences_on_edge[chosen[ke].edge]
            else:
                return iter(h.incidences)
            return (by_id[j] for j in ids)

        leaves: list[tuple[Incidence, ...]] = []
        pending = [options(0)]
        while pending:
            j = next(pending[-1], None)
            if j is None:
                pending.pop()
                if chosen:
                    chosen.pop()
            elif len(chosen) + 1 == len(plan):
                leaves.append((*chosen, j))
            else:
                chosen.append(j)
                pending.append(options(len(chosen)))
        return leaves

    def __len__(self) -> int:
        return len(self._leaves) * self._per_leaf

    def _item(self, k: int) -> Homomorphism:
        leaf_k, rest = divmod(k, self._per_leaf)
        leaf = self._leaves[leaf_k]
        h = self.target
        pinned = (self._pinned_vertices, self._pinned_edges)
        maps = [
            {x: leaf[at].feet[side] for x, at in table.items()} for side, table in enumerate(pinned)
        ]
        # Digits from the last (fastest) one back: free edges, then free
        # vertices.
        for side in (1, 0):
            images = h.ids[side]
            digits = []
            for _ in self._free[side]:
                rest, d = divmod(rest, len(images))
                digits.append(images[d])
            maps[side].update(zip(self._free[side], reversed(digits)))
        incidence_map = {i.id: j.id for i, j in zip(self.source.incidences, leaf)}
        return Homomorphism(self.source, h, *maps, incidence_map)


def enumerate_homomorphisms(g: IncidenceHypergraph, h: IncidenceHypergraph) -> HomSet:
    """All homomorphisms g -> h in deterministic lexicographic order.

    The search assigns g's incidences in order, each to an incidence of
    h on the images already pinned for its vertex and edge. Its leaves
    and the count are computed here; a map is built only when an item is
    read, so ``len()`` builds none. Two reads of one index give equal
    maps, but not the same object. A naive product bound over
    ``limits.MAX_HOM_CANDIDATES`` raises :class:`ResourceLimitError`
    before the search starts.
    """
    return HomSet(g, h)
