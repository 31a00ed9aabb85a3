"""Injectivity machinery for incidence hypergraphs.

Everything here extends a hypergraph by explicitly tagged "false"
elements. The extension ``tilde`` adds one false vertex, one false edge
and a false incidence for every (vertex, edge) pair of the extension;
applying it to the one-incidence terminal object yields the truth-value
object used by ``classify``. ``loading`` is the thrifty variant that
only fills the gaps, producing the minimal fully-incident extension.

Id scheme: a surviving original element x becomes "1:x", the false
vertex and false edge are both named "0", and false incidences are
"0:k" with k the row-major index of their (vertex, edge) pair in the
extended hypergraph. ``loading`` keeps original ids untouched and names
the filler incidences "0:a,b" by coordinate positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import limits
from .core import (
    Homomorphism,
    IncidenceHypergraph,
    OrientedHypergraph,
    ProductResult,
    Subhypergraph,
    generated_subhypergraph,
    inclusion,
    is_monic,
    product,
    require_valid,
    require_valid_homomorphism,
)
from .errors import DomainError

__all__ = [
    "TildeResult",
    "SubobjectClassifier",
    "PowerResult",
    "LoadingResult",
    "initial",
    "terminal",
    "tilde",
    "tilde_map",
    "represent_partial",
    "partial_square_is_pullback",
    "subobject_classifier",
    "classify",
    "subobject_from_map",
    "count_subhypergraphs",
    "enumerate_subhypergraphs",
    "power",
    "elem_map",
    "power_transpose",
    "power_map",
    "is_injective",
    "is_essential_mono",
    "loading",
    "zero_loading",
]

TRUE_PREFIX = "1:"
FALSE_ID = "0"


def true_id(original: str) -> str:
    return TRUE_PREFIX + original


def initial() -> IncidenceHypergraph:
    return IncidenceHypergraph.build([], [], [])


_POINT = IncidenceHypergraph.build(["v"], ["e"], [("i", "v", "e")])


def terminal() -> IncidenceHypergraph:
    """The one-incidence point; every call returns the same object."""
    return _POINT


@dataclass(frozen=True)
class TildeResult:
    """Extension of a hypergraph by one false vertex/edge and a false
    incidence on every (vertex, edge) pair of the extension."""

    hypergraph: IncidenceHypergraph
    eta: Homomorphism
    false_incidence: dict[tuple[str, str], str]


def tilde(g: IncidenceHypergraph) -> TildeResult:
    require_valid(g)
    vertices = [true_id(v) for v in g.vertices] + [FALSE_ID]
    edges = [true_id(e) for e in g.edges] + [FALSE_ID]
    incidences: list[tuple[str, str, str]] = []
    for i in g.incidences:
        incidences.append((true_id(i.id), true_id(i.vertex), true_id(i.edge)))
    false_incidence: dict[tuple[str, str], str] = {}
    k = 0
    for v in vertices:
        for e in edges:
            iid = f"0:{k}"
            false_incidence[(v, e)] = iid
            incidences.append((iid, v, e))
            k += 1
    ext = IncidenceHypergraph.build(vertices, edges, incidences)
    eta = Homomorphism(g, ext, *[{x: true_id(x) for x in ids} for ids in g.ids])
    return TildeResult(ext, eta, false_incidence)


# The truth-value object tilde(point), built once: every characteristic
# map lands in it, and maps out of the shared point reuse it.
_POINT_TILDE = tilde(_POINT)


def tilde_map(phi: Homomorphism) -> Homomorphism:
    """Extension of phi acting on the extended hypergraphs.

    True elements travel through phi; false vertices and edges stay
    false; a false incidence lands on the false incidence over the
    images of its attachments.  That is the partial map (eta, phi)
    represented by :func:`represent_partial`.
    """
    require_valid_homomorphism(phi)
    return represent_partial(tilde(phi.source).eta, phi)


def represent_partial(phi: Homomorphism, psi: Homomorphism) -> Homomorphism:
    """Total extension of the partial map (phi, psi) into the target.

    ``phi`` must be monic into the ambient hypergraph K; ``psi`` maps
    the shared source into G. The result sends elements of K inside the
    image of phi through psi as true elements and everything else to
    false elements, landing in tilde(G).
    """
    if phi.source is not psi.source and phi.source != psi.source:
        raise DomainError("phi and psi must share a source")
    if not is_monic(phi):
        raise DomainError("phi must be monic")
    k = phi.target
    dst = _POINT_TILDE if psi.target is _POINT else tilde(psi.target)
    v_pre = {phi.vertex_map[w]: w for w in phi.source.vertices}
    e_pre = {phi.edge_map[f]: f for f in phi.source.edges}
    i_pre = {phi.incidence_map[j.id]: j.id for j in phi.source.incidences}
    vmap = {
        v: true_id(psi.vertex_map[v_pre[v]]) if v in v_pre else FALSE_ID for v in k.vertices
    }
    emap = {e: true_id(psi.edge_map[e_pre[e]]) if e in e_pre else FALSE_ID for e in k.edges}
    imap: dict[str, str] = {}
    for i in k.incidences:
        if i.id in i_pre:
            imap[i.id] = true_id(psi.incidence_map[i_pre[i.id]])
        else:
            imap[i.id] = dst.false_incidence[(vmap[i.vertex], emap[i.edge])]
    return Homomorphism(k, dst.hypergraph, vmap, emap, imap)


def partial_square_is_pullback(
    phi: Homomorphism, psi: Homomorphism, psihat: Homomorphism
) -> bool:
    """Element chase: (K <- H -> G) is a pullback of (K -> ext <- G).

    The concrete pullback of psihat against the true-part embedding is
    the preimage of the true elements, each paired with the stripped
    image. The square commutes and is a pullback exactly when phi hits
    that preimage bijectively and psi matches the stripped image.
    """
    k = phi.target
    true_v = {v for v in k.vertices if psihat.vertex_map[v] != FALSE_ID}
    true_e = {e for e in k.edges if psihat.edge_map[e] != FALSE_ID}
    true_i = {
        i.id for i in k.incidences if psihat.incidence_map[i.id].startswith(TRUE_PREFIX)
    }
    if {phi.vertex_map[w] for w in phi.source.vertices} != true_v:
        return False
    if {phi.edge_map[f] for f in phi.source.edges} != true_e:
        return False
    if {phi.incidence_map[j.id] for j in phi.source.incidences} != true_i:
        return False
    strip = len(TRUE_PREFIX)
    for w in phi.source.vertices:
        if psihat.vertex_map[phi.vertex_map[w]][strip:] != psi.vertex_map[w]:
            return False
    for f in phi.source.edges:
        if psihat.edge_map[phi.edge_map[f]][strip:] != psi.edge_map[f]:
            return False
    for j in phi.source.incidences:
        if psihat.incidence_map[phi.incidence_map[j.id]][strip:] != psi.incidence_map[j.id]:
            return False
    return True


@dataclass(frozen=True)
class SubobjectClassifier:
    """Truth-value hypergraph: one true incidence, four false ones."""

    omega: IncidenceHypergraph
    truth_map: Homomorphism
    false_incidence: dict[tuple[str, str], str]

    @property
    def true_vertex(self) -> str:
        return self.truth_map.vertex_map["v"]

    @property
    def true_edge(self) -> str:
        return self.truth_map.edge_map["e"]

    @property
    def true_incidence(self) -> str:
        return self.truth_map.incidence_map["i"]


_CLASSIFIER = SubobjectClassifier(
    _POINT_TILDE.hypergraph, _POINT_TILDE.eta, _POINT_TILDE.false_incidence
)


def subobject_classifier() -> SubobjectClassifier:
    """The truth-value object; every call returns the same object."""
    return _CLASSIFIER


def classify(k: Subhypergraph) -> Homomorphism:
    """Characteristic map of a subhypergraph into the truth-value object.

    Members map to true elements; everything else lands on the false
    element matching the truth of its attachments.
    """
    sub = k.materialize()
    bang = Homomorphism(
        sub,
        terminal(),
        {v: "v" for v in sub.vertices},
        {e: "e" for e in sub.edges},
        {i.id: "i" for i in sub.incidences},
    )
    return represent_partial(k.inclusion(), bang)


def subobject_from_map(chi: Homomorphism) -> Subhypergraph:
    """Subhypergraph generated by the preimages of the true elements."""
    omega = subobject_classifier()
    if chi.target != omega.omega:
        raise DomainError("map must land in the truth-value hypergraph")
    g = chi.source
    return generated_subhypergraph(
        g,
        [v for v in g.vertices if chi.vertex_map[v] == omega.true_vertex],
        [e for e in g.edges if chi.edge_map[e] == omega.true_edge],
        [i.id for i in g.incidences if chi.incidence_map[i.id] == omega.true_incidence],
    )


def _mask_subsets(items: tuple[str, ...]) -> list[tuple[str, ...]]:
    out = []
    for mask in range(1 << len(items)):
        out.append(tuple(x for k, x in enumerate(items) if mask >> k & 1))
    return out


def count_subhypergraphs(g: IncidenceHypergraph) -> int:
    """Number of subhypergraphs, computed without materializing them.

    A subhypergraph picks a vertex set V', an edge set E' and any of the
    incidences between the two.  For a fixed V', each edge is left out
    or taken with any subset of its incidences at V', so the count is
    the sum over V' of the product over edges of 1 + 2^(incidences at
    V'); by symmetry it is also the sum over E' of the product over
    vertices of 1 + 2^(incidences on E').  The sum runs over the side
    with fewer members that carry an incidence, and only those are
    chosen; each other member of that side doubles the count.
    """
    require_valid(g)
    pairs = [(i.vertex, i.edge) for i in g.incidences]
    sides = [(g.vertices, g.edges, pairs), (g.edges, g.vertices, [(e, v) for v, e in pairs])]
    side, other, pairs = min(sides, key=lambda s: len({a for a, _ in s[2]}))
    bit = {a: 1 << k for k, a in enumerate(dict.fromkeys(a for a, _ in pairs))}
    on_other: dict[str, list[int]] = {b: [] for b in other}
    for a, b in pairs:
        on_other[b].append(bit[a])
    total = 0
    for chosen in range(1 << len(bit)):
        term = 1
        for bits in on_other.values():
            term *= 1 + (1 << sum(1 for b in bits if chosen & b))
        total += term
    return total << (len(side) - len(bit))


def enumerate_subhypergraphs(g: IncidenceHypergraph) -> list[Subhypergraph]:
    """All subhypergraphs: incidence subsets first, then free choices of
    extra vertices and edges. Deterministic bitmask order throughout.
    More than ``limits.MAX_SUBHYPERGRAPHS`` raise before any is built."""
    count = count_subhypergraphs(g)
    limits.check(count, limits.MAX_SUBHYPERGRAPHS, "subhypergraph enumeration", "subhypergraphs")
    out: list[Subhypergraph] = []
    for mask in range(1 << len(g.incidences)):
        chosen = [g.incidences[k] for k in range(len(g.incidences)) if mask >> k & 1]
        base_v = {i.vertex for i in chosen}
        base_e = {i.edge for i in chosen}
        free_v = tuple(v for v in g.vertices if v not in base_v)
        free_e = tuple(e for e in g.edges if e not in base_e)
        iids = frozenset(i.id for i in chosen)
        for extra_v in _mask_subsets(free_v):
            vs = frozenset(base_v) | frozenset(extra_v)
            for extra_e in _mask_subsets(free_e):
                out.append(
                    Subhypergraph(g, vs, frozenset(base_e) | frozenset(extra_e), iids)
                )
    return out


def subset_id(g_order: tuple[str, ...], chosen: Iterable[str]) -> str:
    """Canonical set id: members in the ambient order, repr-quoted."""
    members = set(chosen)
    return "{" + ",".join(repr(x) for x in g_order if x in members) + "}"


def member_id(k: Subhypergraph) -> str:
    chosen = (k.vertex_ids, k.edge_ids, k.incidence_ids)
    return "".join(subset_id(ids, c) for ids, c in zip(k.parent.ids, chosen))


@dataclass(frozen=True)
class PowerResult:
    """Hypergraph of all subsets and subhypergraphs of a parent.

    Vertices are vertex subsets, edges are edge subsets, and incidences
    are whole subhypergraphs attached to their own vertex and edge sets.
    """

    hypergraph: IncidenceHypergraph
    parent: IncidenceHypergraph
    vertex_subset_ids: dict[frozenset, str]
    edge_subset_ids: dict[frozenset, str]
    members: dict[str, Subhypergraph]

    def member_id_of(self, k: Subhypergraph) -> str:
        mid = member_id(k)
        if mid not in self.members:
            raise DomainError("not a subhypergraph of the parent")
        return mid


def power(g: IncidenceHypergraph) -> PowerResult:
    # Enumerated first: its guard also bounds the 2^|V| and 2^|E| subsets.
    subhypergraphs = enumerate_subhypergraphs(g)
    vertex_subset_ids = {
        frozenset(s): subset_id(g.vertices, s) for s in _mask_subsets(g.vertices)
    }
    edge_subset_ids = {frozenset(s): subset_id(g.edges, s) for s in _mask_subsets(g.edges)}
    members: dict[str, Subhypergraph] = {}
    incidences: list[tuple[str, str, str]] = []
    for k in subhypergraphs:
        mid = member_id(k)
        members[mid] = k
        incidences.append(
            (mid, vertex_subset_ids[k.vertex_ids], edge_subset_ids[k.edge_ids])
        )
    ext = IncidenceHypergraph.build(
        vertex_subset_ids.values(), edge_subset_ids.values(), incidences
    )
    return PowerResult(ext, g, vertex_subset_ids, edge_subset_ids, members)


def elem_map(g: IncidenceHypergraph) -> tuple[ProductResult, Homomorphism]:
    """Membership map from the product of g with its power hypergraph:
    the characteristic map of the membership subhypergraph, whose
    elements are the pairs (element, collection) with the element in the
    collection.
    """
    pwr = power(g)
    prod = product(g, pwr.hypergraph)
    membership = Subhypergraph(
        prod.hypergraph,
        frozenset(prod.vertex_pairs[v, sid] for s, sid in pwr.vertex_subset_ids.items() for v in s),
        frozenset(prod.edge_pairs[e, tid] for t, tid in pwr.edge_subset_ids.items() for e in t),
        frozenset(
            prod.incidence_pairs[i, mid] for mid, k in pwr.members.items() for i in k.incidence_ids
        ),
    )
    return prod, classify(membership)


def power_transpose(prod: ProductResult, phi: Homomorphism) -> Homomorphism:
    """The unique map into the power hypergraph matching a truth-valued
    map off the product: each element collects its true partners."""
    require_valid_homomorphism(phi)
    omega = subobject_classifier()
    if phi.target != omega.omega:
        raise DomainError("transpose needs a map into the truth-value hypergraph")
    if phi.source != prod.hypergraph:
        raise DomainError("phi must be defined on the given product")
    g, k = prod.left, prod.right
    pwr = power(g)
    pair_ids = (prod.vertex_pairs, prod.edge_pairs, prod.incidence_pairs)
    truths = (omega.true_vertex, omega.true_edge, omega.true_incidence)
    # Per sort, each element of k -> the elements of g it pairs with truly.
    partners = []
    for g_ids, k_ids, pairs, m, truth in zip(g.ids, k.ids, pair_ids, phi.maps, truths):
        partners.append(
            {y: frozenset(x for x in g_ids if m[pairs[x, y]] == truth) for y in k_ids}
        )
    v_true, e_true, i_true = partners
    maps = []
    for chosen, subset_ids in zip(partners, (pwr.vertex_subset_ids, pwr.edge_subset_ids)):
        maps.append({y: subset_ids[s] for y, s in chosen.items()})
    imap = {}
    for i in k.incidences:
        gen = generated_subhypergraph(g, v_true[i.vertex], e_true[i.edge], i_true[i.id])
        imap[i.id] = pwr.member_id_of(gen)
    return Homomorphism(k, pwr.hypergraph, *maps, imap)


def power_map(phi: Homomorphism) -> Homomorphism:
    """Contravariant action on power hypergraphs by preimages."""
    require_valid_homomorphism(phi)
    g, h = phi.source, phi.target
    pwr_h = power(h)
    pwr_g = power(g)
    subsets_h = (pwr_h.vertex_subset_ids, pwr_h.edge_subset_ids)
    subsets_g = (pwr_g.vertex_subset_ids, pwr_g.edge_subset_ids)
    maps = []
    for ids, m, subset_ids_h, subset_ids_g in zip(g.ids, phi.maps, subsets_h, subsets_g):
        table = {}
        for s, sid in subset_ids_h.items():
            table[sid] = subset_ids_g[frozenset(x for x in ids if m[x] in s)]
        maps.append(table)
    imap = {}
    for mid, k in pwr_h.members.items():
        chosen = (k.vertex_ids, k.edge_ids, k.incidence_ids)
        pre = [[x for x in ids if m[x] in c] for ids, m, c in zip(g.ids, phi.maps, chosen)]
        imap[mid] = pwr_g.member_id_of(generated_subhypergraph(g, *pre))
    return Homomorphism(pwr_h.hypergraph, pwr_g.hypergraph, *maps, imap)


def is_injective(g: IncidenceHypergraph) -> bool:
    """Nonempty on both sides and every (vertex, edge) pair incident."""
    if not g.vertices or not g.edges:
        return False
    return all(g.inc(v, e) for v in g.vertices for e in g.edges)


def is_essential_mono(phi: Homomorphism) -> bool:
    """Monomorphism that appends an element only where none existed.

    Checks the six characterizing conditions one by one: bijectivity on
    vertices (or a target with at most one vertex when the source has
    none), the same for edges, exact incidence images over source
    pairs, and at-most-one incidences over unreached target pairs.
    """
    require_valid_homomorphism(phi)
    if not is_monic(phi):
        raise DomainError("essential monomorphism test needs a monic map")
    g, h = phi.source, phi.target
    # The vertex and edge sorts; incidences are checked pair by pair below.
    for ids, images, m in zip(g.ids[:2], h.ids[:2], phi.maps):
        if ids:
            if set(m.values()) != set(images):
                return False
        elif len(images) > 1:
            return False
    for v in g.vertices:
        for e in g.edges:
            source_inc = g.inc(v, e)
            if not source_inc:
                continue
            image = {phi.incidence_map[i] for i in source_inc}
            target_inc = set(h.inc(phi.vertex_map[v], phi.edge_map[e]))
            if image != target_inc:
                return False
    reached = {h.incidence_by_id[phi.incidence_map[i.id]].feet for i in g.incidences}
    for x in h.vertices:
        for y in h.edges:
            if (x, y) not in reached and len(h.inc(x, y)) > 1:
                return False
    return True


@dataclass(frozen=True)
class LoadingResult:
    """Original hypergraph padded to full incidence, with the inclusion."""

    hypergraph: IncidenceHypergraph
    j: Homomorphism
    added_incidences: frozenset[str]


def loading(g: IncidenceHypergraph) -> LoadingResult:
    """Pad with one incidence per vacant (vertex, edge) pair.

    A vertex or edge named "0" is added only when the respective set is
    empty. Original ids are kept, so an already fully-incident input
    comes back equal, with the identity map.
    """
    require_valid(g)
    vertices = g.vertices if g.vertices else (FALSE_ID,)
    edges = g.edges if g.edges else (FALSE_ID,)
    taken = set(g.incidence_pos)
    incidences = [(i.id, i.vertex, i.edge) for i in g.incidences]
    added = []
    for a, v in enumerate(vertices):
        for b, e in enumerate(edges):
            if v in g.vertex_pos and e in g.edge_pos and g.inc(v, e):
                continue
            iid = f"0:{a},{b}"
            while iid in taken:
                iid = "_" + iid
            taken.add(iid)
            incidences.append((iid, v, e))
            added.append(iid)
    ext = IncidenceHypergraph.build(vertices, edges, incidences)
    return LoadingResult(ext, inclusion(g, ext), frozenset(added))


def zero_loading(og: OrientedHypergraph) -> OrientedHypergraph:
    """Load the structure and sign every filler incidence with 0."""
    padded = loading(og.structure)
    signs = {i.id: og.sigma(i.id) for i in og.structure.incidences}
    for iid in padded.added_incidences:
        signs[iid] = 0
    return OrientedHypergraph.build(
        padded.hypergraph, signs, loaded=og.loaded | padded.added_incidences
    )
