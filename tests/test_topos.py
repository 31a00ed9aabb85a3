import re
import time
from functools import partial

import pytest
from hypothesis import given, settings

from conftest import MALFORMED_STRUCTURES, small_oriented, triangle
from oriented_hypergraphs.core import (
    Homomorphism,
    IncidenceHypergraph,
    Subhypergraph,
    enumerate_homomorphisms,
    identity_homomorphism,
    product,
    validate,
    validate_homomorphism,
)
from oriented_hypergraphs.corpus import all_hypergraphs
from oriented_hypergraphs.errors import DomainError, ResourceLimitError
from oriented_hypergraphs.topos import (
    FALSE_ID,
    classify,
    count_subhypergraphs,
    elem_map,
    enumerate_subhypergraphs,
    initial,
    is_essential_mono,
    is_injective,
    loading,
    member_id,
    partial_square_is_pullback,
    power,
    power_map,
    power_transpose,
    represent_partial,
    subobject_classifier,
    subobject_from_map,
    terminal,
    tilde,
    tilde_map,
    zero_loading,
)


def test_terminal_and_initial_shapes():
    one = terminal()
    assert (len(one.vertices), len(one.edges), len(one.incidences)) == (1, 1, 1)
    zero = initial()
    assert (len(zero.vertices), len(zero.edges), len(zero.incidences)) == (0, 0, 0)


def test_classifier_shape():
    sc = subobject_classifier()
    om = sc.omega
    assert (len(om.vertices), len(om.edges), len(om.incidences)) == (2, 2, 5)
    assert validate(om).ok
    assert om.inc(sc.true_vertex, sc.true_edge) != ()
    # exactly one incidence is the designated true one
    truths = [i.id for i in om.incidences if i.id == sc.true_incidence]
    assert len(truths) == 1


def test_tilde_counts():
    g = triangle().structure
    ext = tilde(g)
    assert len(ext.hypergraph.vertices) == len(g.vertices) + 1
    assert len(ext.hypergraph.edges) == len(g.edges) + 1
    expected = len(g.incidences) + (len(g.vertices) + 1) * (len(g.edges) + 1)
    assert len(ext.hypergraph.incidences) == expected
    assert validate(ext.hypergraph).ok
    assert validate_homomorphism(ext.eta).ok


def test_tilde_map_extends_along_eta():
    g = triangle().structure
    ident = Homomorphism(
        g,
        g,
        {v: v for v in g.vertices},
        {e: e for e in g.edges},
        {i.id: i.id for i in g.incidences},
    )
    ext = tilde_map(ident)
    assert validate_homomorphism(ext).ok
    src = tilde(g)
    for v in g.vertices:
        assert ext.vertex_map[src.eta.vertex_map[v]] == src.eta.vertex_map[v]


def test_point_and_classifier_are_shared():
    assert terminal() is terminal()
    assert subobject_classifier() is subobject_classifier()
    k = enumerate_subhypergraphs(triangle().structure)[0]
    assert classify(k).target is subobject_classifier().omega


def test_represent_partial_from_an_equal_point_matches_the_shared_one():
    # A separately built point takes the fresh tilde path; the shared
    # point takes the prebuilt truth-value object.
    other = IncidenceHypergraph.build(["v"], ["e"], [("i", "v", "e")])
    assert other == terminal() and other is not terminal()
    for k in enumerate_subhypergraphs(triangle().structure):
        sub = k.materialize()
        maps = [
            represent_partial(
                k.inclusion(),
                Homomorphism(
                    sub,
                    point,
                    {v: "v" for v in sub.vertices},
                    {e: "e" for e in sub.edges},
                    {i.id: "i" for i in sub.incidences},
                ),
            )
            for point in (other, terminal())
        ]
        assert maps[0] == maps[1]


def test_materialize_builds_once():
    g = triangle().structure
    for k in enumerate_subhypergraphs(g):
        sub = k.materialize()
        assert k.materialize() is sub
        assert k.inclusion().source is sub
        fresh = Subhypergraph(g, k.vertex_ids, k.edge_ids, k.incidence_ids).materialize()
        assert fresh == sub and fresh is not sub


def test_classify_and_recover_subobject():
    g = triangle().structure
    for k in enumerate_subhypergraphs(g):
        chi = classify(k)
        assert validate_homomorphism(chi).ok
        back = subobject_from_map(chi)
        assert back.vertex_ids == k.vertex_ids
        assert back.edge_ids == k.edge_ids
        assert back.incidence_ids == k.incidence_ids


def test_subobject_count_matches_map_count():
    g = IncidenceHypergraph.build(
        ["a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e")]
    )
    subs = enumerate_subhypergraphs(g)
    assert len(subs) == count_subhypergraphs(g)
    omega = subobject_classifier().omega
    assert len(enumerate_homomorphisms(g, omega)) == len(subs)
    assert len({member_id(k) for k in subs}) == len(subs)


def _count_by_masks(g):
    # The count as it was first written, the reference for
    # ``count_subhypergraphs``: every incidence subset fixes the vertices
    # and edges it touches, and each other vertex and edge is free.
    n, m = len(g.vertices), len(g.edges)
    total = 0
    for mask in range(1 << len(g.incidences)):
        chosen = [i for k, i in enumerate(g.incidences) if mask >> k & 1]
        total += 2 ** (n - len({i.vertex for i in chosen})) * 2 ** (m - len({i.edge for i in chosen}))
    return total


@settings(max_examples=80, deadline=None)
@given(small_oriented(max_vertices=4, max_edges=3, max_incidences=8))
def test_subhypergraph_count_matches_the_mask_walk(og):
    assert count_subhypergraphs(og.structure) == _count_by_masks(og.structure)


def test_subhypergraph_guard_refuses_thirty_parallel_incidences_at_once():
    # 2^30 + 3 subhypergraphs: the count takes one pass per subset of the
    # one vertex, where the mask walk would take 2^30 steps.
    g = IncidenceHypergraph.build(["a"], ["e"], [(f"i{k}", "a", "e") for k in range(30)])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="limited to 100000 subhypergraphs, got 1073741827"):
        enumerate_subhypergraphs(g)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mirror", [False, True])
def test_subhypergraph_guard_refuses_twenty_single_incidences_at_once(mirror):
    # 20 vertices with one incidence each on one edge, or one vertex with
    # one incidence on each of 20 edges: 2^20 + 3^20 subhypergraphs,
    # summed over the side with one member that carries an incidence.
    many = [f"x{k}" for k in range(20)]
    if mirror:
        g = IncidenceHypergraph.build(["a"], many, [(f"i{k}", "a", e) for k, e in enumerate(many)])
    else:
        g = IncidenceHypergraph.build(many, ["e"], [(f"i{k}", v, "e") for k, v in enumerate(many)])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="limited to 100000 subhypergraphs, got 3487832977"):
        enumerate_subhypergraphs(g)
    assert time.perf_counter() - start < 0.05


def test_represent_partial_square_is_pullback():
    g = triangle().structure
    for k in enumerate_subhypergraphs(g):
        sub = k.materialize()
        bang = Homomorphism(
            sub,
            terminal(),
            {v: "v" for v in sub.vertices},
            {e: "e" for e in sub.edges},
            {i.id: "i" for i in sub.incidences},
        )
        chi = represent_partial(k.inclusion(), bang)
        assert partial_square_is_pullback(k.inclusion(), bang, chi)


def _bang(sub):
    return Homomorphism(
        sub,
        terminal(),
        {v: "v" for v in sub.vertices},
        {e: "e" for e in sub.edges},
        {i.id: "i" for i in sub.incidences},
    )


def _square_of_other_subobject(small, large):
    # phi and psi from one subobject of K; psihat classifies a larger one.
    # Ids are one letter, so each string lists a set of them.
    k = IncidenceHypergraph.build(["a", "b"], ["e", "f"], [("i", "a", "e")])
    small, large = (Subhypergraph(k, *map(frozenset, ids)) for ids in (small, large))
    return small.inclusion(), _bang(small.materialize()), classify(large)


def _square_of_swapped_images(vertices, edges, incidences, vmap, emap, imap):
    # The whole of K against the identity, psihat built from a swap of K.
    k = IncidenceHypergraph.build(vertices, edges, incidences)
    ident = identity_homomorphism(k)
    return ident, ident, represent_partial(ident, Homomorphism(k, k, vmap, emap, imap))


@pytest.mark.parametrize(
    "square",
    [
        pytest.param(
            lambda: _square_of_other_subobject(("a", "", ""), ("ab", "", "")),
            id="true-vertices",
        ),
        pytest.param(
            lambda: _square_of_other_subobject(("a", "e", ""), ("a", "ef", "")),
            id="true-edges",
        ),
        pytest.param(
            lambda: _square_of_other_subobject(("a", "e", ""), ("a", "e", "i")),
            id="true-incidences",
        ),
        pytest.param(
            lambda: _square_of_swapped_images(["a", "b"], [], [], {"a": "b", "b": "a"}, {}, {}),
            id="vertex-images",
        ),
        pytest.param(
            lambda: _square_of_swapped_images([], ["e", "f"], [], {}, {"e": "f", "f": "e"}, {}),
            id="edge-images",
        ),
        pytest.param(
            lambda: _square_of_swapped_images(
                ["a"],
                ["e"],
                [("i", "a", "e"), ("j", "a", "e")],
                {"a": "a"},
                {"e": "e"},
                {"i": "j", "j": "i"},
            ),
            id="incidence-images",
        ),
    ],
)
def test_partial_square_that_is_no_pullback(square):
    phi, psi, psihat = square()
    assert validate_homomorphism(psihat).ok
    assert not partial_square_is_pullback(phi, psi, psihat)


_POINT_SQUARED = product(terminal(), terminal())


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: represent_partial(
                identity_homomorphism(triangle().structure), identity_homomorphism(terminal())
            ),
            "must share a source",
            id="represent-partial-sources",
        ),
        pytest.param(
            lambda: subobject_from_map(identity_homomorphism(terminal())),
            "truth-value hypergraph",
            id="subobject-from-map-target",
        ),
        pytest.param(
            lambda: power(terminal()).member_id_of(
                Subhypergraph(triangle().structure, frozenset({"v1"}), frozenset(), frozenset())
            ),
            "not a subhypergraph of the parent",
            id="member-of-another-parent",
        ),
        pytest.param(
            lambda: power_transpose(
                _POINT_SQUARED, identity_homomorphism(_POINT_SQUARED.hypergraph)
            ),
            "truth-value hypergraph",
            id="transpose-target",
        ),
        pytest.param(
            lambda: power_transpose(
                _POINT_SQUARED, classify(enumerate_subhypergraphs(triangle().structure)[0])
            ),
            "defined on the given product",
            id="transpose-source",
        ),
        pytest.param(
            lambda: is_essential_mono(
                Homomorphism(
                    IncidenceHypergraph.build(["a", "b"], [], []),
                    terminal(),
                    {"a": "v", "b": "v"},
                    {},
                    {},
                )
            ),
            "needs a monic map",
            id="essential-not-monic",
        ),
    ],
)
def test_bad_input_raises_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


_ONE = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
_ONE_ELEM_PRODUCT, _ONE_MEMBERSHIP = elem_map(_ONE)


def _broken(phi: Homomorphism, case: str) -> Homomorphism:
    """``phi`` with its first vertex or incidence entry dropped, or its
    first vertex sent outside the target."""
    vertex_map, incidence_map = dict(phi.vertex_map), dict(phi.incidence_map)
    first_vertex, first_incidence = phi.source.vertices[0], phi.source.incidences[0].id
    if case == "vertex-undefined":
        del vertex_map[first_vertex]
    elif case == "vertex-outside":
        vertex_map[first_vertex] = "ghost"
    else:
        del incidence_map[first_incidence]
    return Homomorphism(phi.source, phi.target, vertex_map, dict(phi.edge_map), incidence_map)


@pytest.mark.parametrize("case", ["vertex-undefined", "vertex-outside", "incidence-undefined"])
@pytest.mark.parametrize(
    "call, phi",
    [
        pytest.param(tilde_map, identity_homomorphism(_ONE), id="tilde_map"),
        pytest.param(power_map, identity_homomorphism(_ONE), id="power_map"),
        pytest.param(is_essential_mono, identity_homomorphism(_ONE), id="is_essential_mono"),
        pytest.param(
            partial(power_transpose, _ONE_ELEM_PRODUCT), _ONE_MEMBERSHIP, id="power_transpose"
        ),
    ],
)
def test_map_taking_functions_reject_invalid_maps(call, phi, case):
    bad = _broken(phi, case)
    with pytest.raises(DomainError, match=re.escape(validate_homomorphism(bad).first)):
        call(bad)


def test_represent_partial_demands_monic():
    g = IncidenceHypergraph.build(["a", "b"], [], [])
    squash = Homomorphism(g, terminal(), {"a": "v", "b": "v"}, {}, {})
    with pytest.raises(DomainError):
        represent_partial(squash, squash)


def test_power_object_membership():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    pwr = power(g)
    # subsets: 2 vertex subsets, 2 edge subsets, 5 subhypergraphs
    assert len(pwr.hypergraph.vertices) == 2
    assert len(pwr.hypergraph.edges) == 2
    assert len(pwr.hypergraph.incidences) == count_subhypergraphs(g)
    assert validate(pwr.hypergraph).ok


def test_power_guard_runs_before_the_subsets_are_built(monkeypatch):
    # 17 isolated vertices: 131,072 subhypergraphs, over the cap.
    import oriented_hypergraphs.topos as topos

    def unguarded(items):
        raise AssertionError(f"{len(items)} items subset before the guard")

    monkeypatch.setattr(topos, "_mask_subsets", unguarded)
    g = IncidenceHypergraph.build([f"v{k}" for k in range(17)], [], [])
    with pytest.raises(ResourceLimitError, match="limited to 100000 subhypergraphs, got 131072"):
        power(g)


def test_power_transpose_round_trip():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    k = terminal()
    prod, membership = elem_map(g)
    assert validate_homomorphism(membership).ok
    omega = subobject_classifier().omega
    pwr = power(g)
    lhs = enumerate_homomorphisms(product(g, k).hypergraph, omega)
    rhs = enumerate_homomorphisms(k, pwr.hypergraph)
    assert len(lhs) == len(rhs)
    for phi in lhs:
        prod_gk = product(g, k)
        transposed = power_transpose(prod_gk, phi)
        assert validate_homomorphism(transposed).ok


def _signature(phi: Homomorphism) -> tuple:
    return (
        tuple(sorted(phi.vertex_map.items())),
        tuple(sorted(phi.edge_map.items())),
        tuple(sorted(phi.incidence_map.items())),
    )


BLOCK = all_hypergraphs(2, 2, 2)


# (g, k) as indices into BLOCK: an empty g, one incidence each, parallel
# incidences, a g of isolated vertices, two incidences each, and a
# largest g with a k that has no incidence.
@pytest.mark.parametrize("g_at, k_at", [(0, 25), (5, 5), (6, 17), (13, 26), (18, 17), (28, 14)])
def test_power_transpose_is_a_bijection_on_maps(g_at, k_at):
    g, k = BLOCK[g_at], BLOCK[k_at]
    omega = subobject_classifier().omega
    pwr = power(g)
    prod = product(g, k)
    images = []
    for phi in enumerate_homomorphisms(prod.hypergraph, omega):
        transposed = power_transpose(prod, phi)
        assert transposed.source == k and transposed.target == pwr.hypergraph
        assert validate_homomorphism(transposed).ok
        images.append(_signature(transposed))
    assert images
    assert len(set(images)) == len(images)
    assert set(images) == {_signature(psi) for psi in enumerate_homomorphisms(k, pwr.hypergraph)}


def elem_map_reference(g, pwr):
    """The membership map by element chase: a pair (element, collection)
    maps to a true element exactly when the element belongs to the
    collection, and otherwise to the false element recording which
    attachments did belong."""
    omega = subobject_classifier()
    prod = product(g, pwr.hypergraph)
    v_subsets = {sid: s for s, sid in pwr.vertex_subset_ids.items()}
    e_subsets = {tid: t for t, tid in pwr.edge_subset_ids.items()}
    vmap = {}
    for (v, sid), pid in prod.vertex_pairs.items():
        vmap[pid] = omega.true_vertex if v in v_subsets[sid] else FALSE_ID
    emap = {}
    for (e, tid), pid in prod.edge_pairs.items():
        emap[pid] = omega.true_edge if e in e_subsets[tid] else FALSE_ID
    imap = {}
    for (iid, mid), pid in prod.incidence_pairs.items():
        k = pwr.members[mid]
        if iid in k.incidence_ids:
            imap[pid] = omega.true_incidence
        else:
            inc = g.incidence_by_id[iid]
            vpart = omega.true_vertex if inc.vertex in k.vertex_ids else FALSE_ID
            epart = omega.true_edge if inc.edge in k.edge_ids else FALSE_ID
            imap[pid] = omega.false_incidence[(vpart, epart)]
    return prod, Homomorphism(prod.hypergraph, omega.omega, vmap, emap, imap)


@pytest.mark.parametrize("g_at", range(len(BLOCK)))
def test_elem_map_classifies_membership(g_at):
    g = BLOCK[g_at]
    pwr = power(g)
    want = elem_map_reference(g, pwr)
    assert elem_map(g) == want


def test_power_map_acts_by_preimage():
    g = IncidenceHypergraph.build(["a"], [], [])
    h = IncidenceHypergraph.build(["x", "y"], [], [])
    phi = Homomorphism(g, h, {"a": "x"}, {}, {})
    back = power_map(phi)
    assert validate_homomorphism(back).ok
    pwr_h = power(h)
    pwr_g = power(g)
    full = pwr_h.vertex_subset_ids[frozenset({"x", "y"})]
    assert back.vertex_map[full] == pwr_g.vertex_subset_ids[frozenset({"a"})]
    only_y = pwr_h.vertex_subset_ids[frozenset({"y"})]
    assert back.vertex_map[only_y] == pwr_g.vertex_subset_ids[frozenset()]


def test_is_injective():
    assert not is_injective(initial())
    assert is_injective(terminal())
    assert not is_injective(triangle().structure)
    loaded = loading(triangle().structure)
    assert is_injective(loaded.hypergraph)


def test_loading_keeps_original_ids_and_is_essential():
    g = triangle().structure
    res = loading(g)
    assert set(g.vertices) <= set(res.hypergraph.vertices)
    assert {i.id for i in g.incidences} <= {i.id for i in res.hypergraph.incidences}
    assert is_essential_mono(res.j)
    again = loading(res.hypergraph)
    assert again.hypergraph == res.hypergraph
    assert again.added_incidences == frozenset()


def test_loading_of_empty_needs_fresh_elements():
    res = loading(initial())
    assert res.hypergraph.vertices == ("0",)
    assert res.hypergraph.edges == ("0",)
    assert len(res.hypergraph.incidences) == 1


def test_eta_essential_only_for_empty():
    assert is_essential_mono(tilde(initial()).eta)
    assert not is_essential_mono(tilde(terminal()).eta)
    assert not is_essential_mono(tilde(triangle().structure).eta)


@pytest.mark.parametrize(
    "phi",
    [
        pytest.param(
            Homomorphism(initial(), IncidenceHypergraph.build(["a", "b"], [], []), {}, {}, {}),
            id="no-vertices-into-two",
        ),
        pytest.param(
            Homomorphism(
                IncidenceHypergraph.build(["a"], [], []),
                IncidenceHypergraph.build(["a"], ["e", "f"], []),
                {"a": "a"},
                {},
                {},
            ),
            id="no-edges-into-two",
        ),
        pytest.param(
            Homomorphism(
                IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")]),
                IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e"), ("j", "a", "e")]),
                {"a": "a"},
                {"e": "e"},
                {"i": "i"},
            ),
            id="parallel-incidence-missed",
        ),
        pytest.param(
            Homomorphism(
                IncidenceHypergraph.build(["a"], ["e"], []),
                IncidenceHypergraph.build(["a"], ["e"], [("j", "a", "e"), ("k", "a", "e")]),
                {"a": "a"},
                {"e": "e"},
                {},
            ),
            id="unreached-pair-doubled",
        ),
    ],
)
def test_monic_that_is_not_essential(phi):
    assert validate_homomorphism(phi).ok
    assert not is_essential_mono(phi)


def test_loading_renames_a_filler_id_the_input_owns():
    g = IncidenceHypergraph.build(["a", "b"], ["e"], [("0:0,0", "b", "e")])
    res = loading(g)
    assert res.added_incidences == frozenset({"_0:0,0"})
    assert res.hypergraph.incidence_by_id["_0:0,0"].vertex == "a"
    assert is_injective(res.hypergraph)
    assert is_essential_mono(res.j)


def tilde_map_of_identity(g):
    return tilde_map(identity_homomorphism(g))


@pytest.mark.parametrize(
    "entry",
    [count_subhypergraphs, enumerate_subhypergraphs, power, loading, tilde, tilde_map_of_identity],
)
@pytest.mark.parametrize("structure", MALFORMED_STRUCTURES)
def test_entry_points_reject_malformed_structures(entry, structure):
    with pytest.raises(DomainError):
        entry(structure)


def test_zero_loading_signs_fillers_zero():
    og = triangle()
    padded = zero_loading(og)
    assert len(padded.incidences) == 9
    fillers = [i.id for i in padded.incidences if i.id not in og.structure.incidence_pos]
    assert all(padded.sigma(i) == 0 for i in fillers)
    assert padded.loaded == frozenset(fillers)
    for i in og.structure.incidences:
        assert padded.sigma(i.id) == og.sigma(i.id)


@settings(max_examples=25, deadline=None)
@given(small_oriented(max_vertices=3, max_edges=2, max_incidences=4))
def test_loading_is_idempotent_and_injective(og):
    res = loading(og.structure)
    assert is_injective(res.hypergraph)
    assert loading(res.hypergraph).added_incidences == frozenset()


@settings(max_examples=20, deadline=None)
@given(small_oriented(max_vertices=2, max_edges=2, max_incidences=3))
def test_subobject_bijection_on_random_structures(og):
    g = og.structure
    subs = enumerate_subhypergraphs(g)
    omega = subobject_classifier().omega
    assert len(subs) == count_subhypergraphs(g)
    assert len(subs) == len(enumerate_homomorphisms(g, omega))
