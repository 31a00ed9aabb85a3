import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oriented_hypergraphs.core as core
from conftest import MALFORMED_STRUCTURES, small_oriented, triangle
from oriented_hypergraphs import limits
from oriented_hypergraphs.core import (
    Homomorphism,
    HomSet,
    IncidenceHypergraph,
    OrientedHypergraph,
    enumerate_homomorphisms,
    generated_subhypergraph,
    identity_homomorphism,
    is_monic,
    pair_id,
    product,
    require_valid,
    subhypergraph,
    validate,
    validate_homomorphism,
)
from oriented_hypergraphs.errors import DomainError, ResourceLimitError
from oriented_hypergraphs.topos import loading, subobject_classifier, terminal


def reference_homomorphisms(
    g: IncidenceHypergraph,
    h: IncidenceHypergraph,
    *,
    max_candidates: int = limits.MAX_HOM_CANDIDATES,
) -> list[Homomorphism]:
    """All homomorphisms g -> h in deterministic lexicographic order.

    The search assigns incidences first (each assignment pins the images
    of its two attachments), then sweeps the remaining unconstrained
    vertices and edges. A naive product bound guards the search space.
    """
    require_valid(g)
    require_valid(h)
    bound = core._hom_search_bound(g, h)
    if bound > max_candidates:
        raise ResourceLimitError(
            f"homomorphism search space {bound} exceeds cap {max_candidates}"
        )
    results: list[Homomorphism] = []
    v_assign: dict[str, str] = {}
    e_assign: dict[str, str] = {}
    i_assign: dict[str, str] = {}
    incs = g.incidences

    def emit() -> None:
        free_vs = [v for v in g.vertices if v not in v_assign]
        free_es = [e for e in g.edges if e not in e_assign]
        for v_choice in itertools.product(h.vertices, repeat=len(free_vs)):
            for e_choice in itertools.product(h.edges, repeat=len(free_es)):
                vm = dict(v_assign)
                vm.update(zip(free_vs, v_choice))
                em = dict(e_assign)
                em.update(zip(free_es, e_choice))
                results.append(Homomorphism(g, h, vm, em, dict(i_assign)))

    def backtrack(k: int) -> None:
        if k == len(incs):
            emit()
            return
        i = incs[k]
        pinned_v = v_assign.get(i.vertex)
        pinned_e = e_assign.get(i.edge)
        for j in h.incidences:
            if pinned_v is not None and j.vertex != pinned_v:
                continue
            if pinned_e is not None and j.edge != pinned_e:
                continue
            i_assign[i.id] = j.id
            if pinned_v is None:
                v_assign[i.vertex] = j.vertex
            if pinned_e is None:
                e_assign[i.edge] = j.edge
            backtrack(k + 1)
            del i_assign[i.id]
            if pinned_v is None:
                del v_assign[i.vertex]
            if pinned_e is None:
                del e_assign[i.edge]

    backtrack(0)
    return results


def _texts(homs) -> list[str]:
    # repr shows every map's items in insertion order, so equal texts
    # mean equal maps with equal dict order.
    return [repr(phi) for phi in homs]


def test_build_and_lookup_tables():
    g = triangle().structure
    assert g.vertex_pos == {"v1": 0, "v2": 1, "v3": 2}
    assert g.inc("v1", "e12") == ("i12a",)
    assert g.inc("v1", "e23") == ()
    assert g.incidences_at_vertex["v2"] == ("i12b", "i23a")
    assert g.incidences_on_edge["e13"] == ("i13a", "i13b")
    assert g.vertex_of("i23b") == "v3"
    assert g.edge_of("i23b") == "e23"


def test_inc_rejects_unknown_ids():
    g = triangle().structure
    with pytest.raises(DomainError):
        g.inc("nope", "e12")
    with pytest.raises(DomainError):
        g.inc("v1", "nope")


def test_validate_flags_duplicates_and_dangling():
    dup = IncidenceHypergraph.build(["a", "a"], [], [])
    assert not validate(dup).ok
    dangling = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "missing")])
    assert not validate(dangling).ok
    ok = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    assert validate(ok).ok
    assert validate(ok).first is None


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: require_valid(IncidenceHypergraph.build(["a"], ["e", "e"], [])),
            "duplicate edge id 'e'",
            id="duplicate-edge",
        ),
        pytest.param(
            lambda: require_valid(
                IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e"), ("i", "a", "e")])
            ),
            "duplicate incidence id 'i'",
            id="duplicate-incidence",
        ),
        pytest.param(
            lambda: subhypergraph(triangle().structure, ["v1", "v2"], [], ["i12a"]),
            "attaches to edge 'e12' outside the subset",
            id="subhypergraph-edge-outside",
        ),
    ],
)
def test_bad_input_raises_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_oriented_build_checks_signs():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    with pytest.raises(DomainError):
        OrientedHypergraph.build(g, {"i": 5})
    with pytest.raises(DomainError):
        OrientedHypergraph.build(g, {"i": 1, "ghost": 1})
    og = OrientedHypergraph.build(g)
    assert og.sigma("i") == 1


@pytest.mark.parametrize("structure", MALFORMED_STRUCTURES)
def test_oriented_build_rejects_malformed_structures(structure):
    with pytest.raises(DomainError):
        OrientedHypergraph.build(structure)


def test_identity_and_compose():
    g = triangle().structure
    ident = identity_homomorphism(g)
    assert validate_homomorphism(ident).ok
    assert is_monic(ident)


def test_validate_homomorphism_catches_broken_attachment():
    g = IncidenceHypergraph.build(["a", "b"], ["e"], [("i", "a", "e")])
    h = IncidenceHypergraph.build(["x", "y"], ["f"], [("j", "x", "f")])
    bad = Homomorphism(g, h, {"a": "y", "b": "x"}, {"e": "f"}, {"i": "j"})
    assert not validate_homomorphism(bad).ok
    good = Homomorphism(g, h, {"a": "x", "b": "y"}, {"e": "f"}, {"i": "j"})
    assert validate_homomorphism(good).ok


def validate_homomorphism_reference(h: Homomorphism) -> tuple[str, ...]:
    """Every violation, written out sort by sort: vertices, edges, then
    each incidence followed by its vertex and edge attachment squares."""
    problems: list[str] = []
    src, dst = h.source, h.target
    for v in src.vertices:
        if v not in h.vertex_map:
            problems.append(f"vertex map undefined on {v!r}")
        elif h.vertex_map[v] not in dst.vertices:
            problems.append(f"vertex map sends {v!r} outside the target")
    for e in src.edges:
        if e not in h.edge_map:
            problems.append(f"edge map undefined on {e!r}")
        elif h.edge_map[e] not in dst.edges:
            problems.append(f"edge map sends {e!r} outside the target")
    for i in src.incidences:
        if i.id not in h.incidence_map:
            problems.append(f"incidence map undefined on {i.id!r}")
            continue
        images = [j for j in dst.incidences if j.id == h.incidence_map[i.id]]
        if not images:
            problems.append(f"incidence map sends {i.id!r} outside the target")
            continue
        if i.vertex in h.vertex_map and images[-1].vertex != h.vertex_map[i.vertex]:
            problems.append(f"incidence {i.id!r} breaks the vertex attachment square")
        if i.edge in h.edge_map and images[-1].edge != h.edge_map[i.edge]:
            problems.append(f"incidence {i.id!r} breaks the edge attachment square")
    return tuple(problems)


@st.composite
def any_maps(draw):
    """Three component maps between two small structures, each entry
    missing, sent outside the target, or sent to any target id."""
    shape = dict(max_vertices=2, max_edges=2, max_incidences=3)
    g = draw(small_oriented(**shape)).structure
    h = draw(small_oriented(**shape)).structure
    maps = []
    sorts = [(g.vertices, h.vertices), (g.edges, h.edges)]
    sorts.append(([i.id for i in g.incidences], [j.id for j in h.incidences]))
    for ids, images in sorts:
        drawn = {x: draw(st.sampled_from([*images, "ghost", None])) for x in ids}
        maps.append({x: y for x, y in drawn.items() if y is not None})
    return Homomorphism(g, h, *maps)


@settings(max_examples=200, deadline=None)
@given(any_maps())
def test_validate_homomorphism_matches_the_sort_by_sort_reference(phi):
    assert validate_homomorphism(phi).violations == validate_homomorphism_reference(phi)


def test_subhypergraph_requires_closure():
    g = triangle().structure
    with pytest.raises(DomainError):
        subhypergraph(g, ["v1"], ["e12"], ["i12b"])
    sub = subhypergraph(g, ["v1", "v2"], ["e12"], ["i12a", "i12b"])
    small = sub.materialize()
    assert small.vertices == ("v1", "v2")
    assert validate_homomorphism(sub.inclusion()).ok


@pytest.mark.parametrize("build", [subhypergraph, generated_subhypergraph])
@pytest.mark.parametrize("kind", ["vertex", "edge", "incidence"])
def test_unknown_ids_are_domain_errors(build, kind):
    g = triangle().structure
    seeds = {"vertex": ["v1"], "edge": ["e12"], "incidence": ["i12a"]}
    seeds[kind] = [*seeds[kind], "ghost"]
    with pytest.raises(DomainError, match=f"^unknown {kind} 'ghost'$"):
        build(g, seeds["vertex"], seeds["edge"], seeds["incidence"])


def test_generated_subhypergraph_adds_attachments():
    g = triangle().structure
    sub = generated_subhypergraph(g, [], [], ["i13b"])
    assert sub.vertex_ids == frozenset({"v3"})
    assert sub.edge_ids == frozenset({"e13"})


def test_product_is_coordinatewise():
    g = triangle().structure
    prod = product(g, g)
    assert len(prod.hypergraph.vertices) == 9
    assert len(prod.hypergraph.incidences) == 36
    assert validate(prod.hypergraph).ok
    assert validate_homomorphism(prod.projection_left).ok
    assert validate_homomorphism(prod.projection_right).ok


def test_pair_id_is_injective_on_samples():
    seen = {pair_id(a, b) for a in ("x", "x:y", "") for b in ("y", "", "x")}
    assert len(seen) == 9


def test_hom_enumeration_guard():
    g = triangle().structure
    message = "^homomorphism search limited to 1000000 candidates, got 34012224$"
    with pytest.raises(ResourceLimitError, match=message):
        enumerate_homomorphisms(g, g)
    with pytest.raises(ResourceLimitError, match=message):
        HomSet(g, g)


@pytest.mark.parametrize("structure", MALFORMED_STRUCTURES)
def test_hom_search_rejects_malformed_structures(structure):
    omega = subobject_classifier().omega
    for g, h in ((structure, omega), (terminal(), structure)):
        with pytest.raises(DomainError):
            enumerate_homomorphisms(g, h)
        with pytest.raises(DomainError):
            HomSet(g, h)


@pytest.mark.parametrize("structure", MALFORMED_STRUCTURES)
def test_product_rejects_malformed_factors(structure):
    message = re.escape(validate(structure).first)
    for g, h in ((structure, terminal()), (terminal(), structure)):
        with pytest.raises(DomainError, match=message):
            product(g, h)


def test_hom_count_into_triangle_from_point():
    point = terminal()
    g = triangle().structure
    homs = enumerate_homomorphisms(point, g)
    assert len(homs) == len(g.incidences)


@settings(max_examples=60, deadline=None)
@given(small_oriented())
def test_generated_structures_validate(og):
    assert validate(og.structure).ok


@settings(max_examples=40, deadline=None)
@given(small_oriented(max_vertices=3, max_edges=2, max_incidences=4))
def test_terminal_receives_exactly_one_map(og):
    homs = enumerate_homomorphisms(og.structure, terminal())
    assert len(homs) == 1
    assert validate_homomorphism(homs[0]).ok


@settings(max_examples=30, deadline=None)
@given(
    small_oriented(max_vertices=2, max_edges=2, max_incidences=3),
    small_oriented(max_vertices=2, max_edges=2, max_incidences=3),
)
def test_product_incidence_count_multiplies(a, b):
    prod = product(a.structure, b.structure)
    assert len(prod.hypergraph.incidences) == len(a.incidences) * len(b.incidences)
    assert validate(prod.hypergraph).ok


@st.composite
def hom_pairs(draw):
    """A small source g and a target: another small structure, the
    truth-value hypergraph, the point or g's loading."""
    shape = dict(max_vertices=3, max_edges=2, max_incidences=4)
    g = draw(small_oriented(**shape)).structure
    kind = draw(st.sampled_from(["random", "omega", "point", "loading"]))
    if kind == "random":
        h = draw(small_oriented(**shape)).structure
    elif kind == "omega":
        h = subobject_classifier().omega
    elif kind == "point":
        h = terminal()
    else:
        h = loading(g).hypergraph
    return g, h


@settings(max_examples=120, deadline=None)
@given(hom_pairs())
def test_homs_match_reference(pair):
    g, h = pair
    try:
        expected = reference_homomorphisms(g, h)
    except ResourceLimitError as refused:
        with pytest.raises(ResourceLimitError) as caught:
            enumerate_homomorphisms(g, h)
        assert str(caught.value) == str(refused)
        return
    homs = enumerate_homomorphisms(g, h)
    assert isinstance(homs, HomSet)
    assert len(homs) == len(expected)
    assert _texts(homs) == _texts(expected)


def test_homs_from_the_empty_hypergraph():
    empty = IncidenceHypergraph.build([], [], [])
    for h in (empty, triangle().structure):
        homs = enumerate_homomorphisms(empty, h)
        assert len(homs) == 1
        assert _texts(homs) == _texts(reference_homomorphisms(empty, h))


def test_no_homs_from_a_vertex_into_no_vertices():
    g = IncidenceHypergraph.build(["a"], [], [])
    h = IncidenceHypergraph.build([], ["f"], [])
    homs = enumerate_homomorphisms(g, h)
    assert len(homs) == 0
    assert list(homs) == [] and homs == []
    with pytest.raises(IndexError):
        homs[0]


def test_homs_from_isolated_vertices_and_edges():
    g = IncidenceHypergraph.build(["a", "b"], ["e"], [])
    h = triangle().structure
    homs = enumerate_homomorphisms(g, h)
    assert len(homs) == 3 * 3 * 3
    assert _texts(homs) == _texts(reference_homomorphisms(g, h))


def test_hom_set_indexing():
    g = IncidenceHypergraph.build(["a", "b"], ["e", "f"], [("i", "a", "e")])
    h = triangle().structure
    homs = enumerate_homomorphisms(g, h)
    expected = reference_homomorphisms(g, h)
    assert len(homs) == len(expected) == 6 * 3 * 3
    assert _texts([homs[-1]]) == _texts([expected[-1]])
    assert _texts([homs[-len(homs)]]) == _texts([expected[0]])
    assert _texts(homs[1:3]) == _texts(expected[1:3])
    assert _texts(homs[::-7]) == _texts(expected[::-7])
    assert homs[5] == homs[5] and homs[5] is not homs[5]
    assert homs == enumerate_homomorphisms(g, h) == expected
    assert homs != expected[:-1] and homs != []
    assert repr(homs) == f"HomSet({expected!r})"
    for bad in (len(homs), -len(homs) - 1):
        with pytest.raises(IndexError):
            homs[bad]


def test_hom_search_has_no_depth_limit():
    # One incidence per level of the search; far past the interpreter's
    # recursion limit.
    n = 3000
    g = IncidenceHypergraph.build(["a"], ["e"], [(f"i{k}", "a", "e") for k in range(n)])
    homs = enumerate_homomorphisms(g, terminal())
    assert len(homs) == 1
    assert validate_homomorphism(homs[0]).ok


def test_hom_set_builds_maps_only_when_read(monkeypatch):
    built = []

    class CountingHomomorphism(Homomorphism):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    g = IncidenceHypergraph.build(
        ["a", "b", "c"], ["e", "f"], [("i", "a", "e"), ("j", "b", "e"), ("k", "b", "f")]
    )
    omega = subobject_classifier().omega
    count = len(reference_homomorphisms(g, omega))
    monkeypatch.setattr(core, "Homomorphism", CountingHomomorphism)
    homs = enumerate_homomorphisms(g, omega)
    assert len(homs) == count == 68
    assert built == []
    phi = homs[len(homs) // 2]
    assert len(built) == 1
    assert type(phi) is CountingHomomorphism
