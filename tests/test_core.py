import pytest
from hypothesis import given, settings

from conftest import MALFORMED_STRUCTURES, small_oriented, triangle
from oriented_hypergraphs.core import (
    Homomorphism,
    IncidenceHypergraph,
    OrientedHypergraph,
    compose,
    disjoint_union,
    enumerate_homomorphisms,
    generated_subhypergraph,
    identity_homomorphism,
    is_monic,
    pair_id,
    product,
    subhypergraph,
    validate,
    validate_homomorphism,
)
from oriented_hypergraphs.errors import DomainError, ResourceLimitError
from oriented_hypergraphs.topos import subobject_classifier, terminal


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
    assert compose(ident, ident).vertex_map == ident.vertex_map
    assert is_monic(ident)


def test_validate_homomorphism_catches_broken_attachment():
    g = IncidenceHypergraph.build(["a", "b"], ["e"], [("i", "a", "e")])
    h = IncidenceHypergraph.build(["x", "y"], ["f"], [("j", "x", "f")])
    bad = Homomorphism(g, h, {"a": "y", "b": "x"}, {"e": "f"}, {"i": "j"})
    assert not validate_homomorphism(bad).ok
    good = Homomorphism(g, h, {"a": "x", "b": "y"}, {"e": "f"}, {"i": "j"})
    assert validate_homomorphism(good).ok


def test_subhypergraph_requires_closure():
    g = triangle().structure
    with pytest.raises(DomainError):
        subhypergraph(g, ["v1"], ["e12"], ["i12b"])
    sub = subhypergraph(g, ["v1", "v2"], ["e12"], ["i12a", "i12b"])
    small = sub.materialize()
    assert small.vertices == ("v1", "v2")
    assert validate_homomorphism(sub.inclusion()).ok


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


def test_disjoint_union_tags_parts():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    u = disjoint_union([g, g])
    assert u.hypergraph.vertices == ("0:a", "1:a")
    assert all(validate_homomorphism(j).ok for j in u.injections)


def test_pair_id_is_injective_on_samples():
    seen = {pair_id(a, b) for a in ("x", "x:y", "") for b in ("y", "", "x")}
    assert len(seen) == 9


def test_hom_enumeration_guard():
    g = triangle().structure
    with pytest.raises(ResourceLimitError):
        enumerate_homomorphisms(g, g, max_candidates=10)


@pytest.mark.parametrize("structure", MALFORMED_STRUCTURES)
def test_hom_search_rejects_malformed_structures(structure):
    with pytest.raises(DomainError):
        enumerate_homomorphisms(structure, subobject_classifier().omega)
    with pytest.raises(DomainError):
        enumerate_homomorphisms(terminal(), structure)


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
