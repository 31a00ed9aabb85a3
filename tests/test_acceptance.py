"""End-to-end acceptance checks, one test per criterion.

Each test prints nothing on its own; the conftest hook emits one
"criterion N (...): PASS/FAIL" line per test after the run, so the tail
of any pytest invocation shows the verdict table.
"""

import itertools
import random
import time

from conftest import one_edge_three_vertices, triangle
from oriented_hypergraphs.bidirected import (
    activation_classes,
    k_arborescences,
    single_element_classes,
)
from oriented_hypergraphs.contributors import (
    COMBOS,
    MinorClass,
    enumerate_contributors,
    minor_catalog,
    minor_polys_from_catalog,
    total_minor_poly,
    univariate_from_contributors,
)
from oriented_hypergraphs.core import (
    Homomorphism,
    OrientedHypergraph,
    enumerate_homomorphisms,
    product,
)
from oriented_hypergraphs.corpus import (
    all_hypergraphs,
    bidirected_corpus,
    connected_graph_corpus,
    random_hypergraphs,
    signings_for,
    structure_corpus,
)
from oriented_hypergraphs.matrices import (
    adjacency_matrix,
    char_poly_univariate,
    graph_orientation,
    integer_determinant,
    laplacian_matrix,
    matrix_tree_cofactor,
    sachs_char_poly,
    spanning_tree_count,
    symbolic_minor_poly,
)
from oriented_hypergraphs.polynomial import IntPolynomial
from oriented_hypergraphs.topos import (
    classify,
    count_subhypergraphs,
    enumerate_subhypergraphs,
    is_essential_mono,
    is_injective,
    loading,
    partial_square_is_pullback,
    power,
    represent_partial,
    subobject_classifier,
    subobject_from_map,
    terminal,
    tilde,
)


def test_criterion_1_triangle_charpolys_both_routes():
    start = time.monotonic()
    og = triangle()
    expected = {
        ("laplacian", "det"): (0, 9, -6, 1),
        ("adjacency", "det"): (-2, -3, 0, 1),
        ("adjacency", "perm"): (-2, 3, 0, 1),
    }
    for (target, mode), coeffs in expected.items():
        m = adjacency_matrix(og) if target == "adjacency" else laplacian_matrix(og)
        by_matrix = char_poly_univariate(m, mode)
        by_contributors = univariate_from_contributors(og, target, mode)
        assert by_matrix == IntPolynomial(coeffs)
        assert by_contributors == IntPolynomial(coeffs)
    assert time.monotonic() - start < 1.0


def test_criterion_2_one_edge_total_minor_against_oracle():
    start = time.monotonic()
    og = one_edge_three_vertices(-1)
    poly = total_minor_poly(og, "laplacian", "det")
    oracle = symbolic_minor_poly(laplacian_matrix(og), "det")
    assert poly == oracle
    assert len(poly.terms) == 24
    assert poly.coefficient([]) == 0
    for u in og.vertices:
        for w in og.vertices:
            assert poly.coefficient([(u, w)]) == 0
    # top degree is the plain determinant expansion of the variables
    for images in itertools.permutations(range(3)):
        mono = [(f"v{a + 1}", f"v{b + 1}") for a, b in enumerate(images)]
        parity = sum(
            1 for x, y in itertools.combinations(range(3), 2) if images[x] > images[y]
        )
        assert poly.coefficient(mono) == (-1) ** parity
    # the two transpose-related quadratic terms carry the same weight
    assert poly.coefficient([("v1", "v2"), ("v3", "v3")]) == 1
    assert poly.coefficient([("v2", "v1"), ("v3", "v3")]) == 1
    assert time.monotonic() - start < 1.0


def test_criterion_3_oracle_equivalence_corpus():
    start = time.monotonic()
    corpus = structure_corpus()
    assert len(corpus) >= 300
    rng = random.Random(271828)
    checked = 0
    for g in corpus:
        catalog = minor_catalog(g)
        signings = signings_for(g)
        if len(signings) > 64:
            signings = rng.sample(signings, 64)
        for signs in signings:
            og = OrientedHypergraph.build(g, signs)
            polys = minor_polys_from_catalog(catalog, og.signs)
            matrices = {"adjacency": adjacency_matrix(og), "laplacian": laplacian_matrix(og)}
            for target, mode in COMBOS:
                m = matrices[target]
                assert polys[(target, mode)] == symbolic_minor_poly(m, mode), (
                    f"{target}/{mode} diverges on {g.incidences} with {signs}"
                )
            checked += 1
    assert checked >= 300
    assert time.monotonic() - start < 600.0


def test_criterion_4_contributor_counts():
    assert len(enumerate_contributors(triangle())) == 16
    assert len(enumerate_contributors(triangle(), strong_only=True)) == 2
    assert len(enumerate_contributors(one_edge_three_vertices(1))) == 6


def _hom_signature(phi: Homomorphism) -> tuple:
    return (
        tuple(sorted(phi.vertex_map.items())),
        tuple(sorted(phi.edge_map.items())),
        tuple(sorted(phi.incidence_map.items())),
    )


def test_criterion_5_topos_laws_on_small_instances():
    omega = subobject_classifier().omega
    point = terminal()
    for g in all_hypergraphs(3, 3, 3):
        subs = enumerate_subhypergraphs(g)
        assert len(subs) == count_subhypergraphs(g)
        seen = set()
        for k in subs:
            chi = classify(k)
            seen.add(_hom_signature(chi))
            back = subobject_from_map(chi)
            assert (back.vertex_ids, back.edge_ids, back.incidence_ids) == (
                k.vertex_ids,
                k.edge_ids,
                k.incidence_ids,
            )
            sub = k.materialize()
            bang = Homomorphism(
                sub,
                point,
                {v: "v" for v in sub.vertices},
                {e: "e" for e in sub.edges},
                {i.id: "i" for i in sub.incidences},
            )
            chi_again = represent_partial(k.inclusion(), bang)
            assert partial_square_is_pullback(k.inclusion(), bang, chi_again)
        assert len(seen) == len(subs)
        assert len(enumerate_homomorphisms(g, omega)) == len(subs)
        assert len(enumerate_homomorphisms(point, g)) == len(g.incidences)
    # the transpose bijection runs on the block whose powers stay small
    block = all_hypergraphs(2, 2, 2)
    powers = [power(g) for g in block]
    for g, pwr in zip(block, powers):
        for k in block:
            prod = product(g, k)
            lhs = enumerate_homomorphisms(prod.hypergraph, omega)
            rhs = enumerate_homomorphisms(k, pwr.hypergraph)
            assert len(lhs) == len(rhs)


def test_criterion_6_envelope_laws():
    for g in random_hypergraphs():
        res = loading(g)
        assert is_injective(res.hypergraph)
        assert is_essential_mono(res.j)
        ext = tilde(g)
        is_empty = not (g.vertices or g.edges or g.incidences)
        assert is_essential_mono(ext.eta) == is_empty
        expected = len(g.incidences) + (len(g.vertices) + 1) * (len(g.edges) + 1)
        assert len(ext.hypergraph.incidences) == expected


def test_criterion_7_tree_cofactor_and_cover_theorems():
    graphs = connected_graph_corpus()
    tau_by_shape = {}
    for g in graphs:
        og = graph_orientation(g)
        tau = spanning_tree_count(g)
        tau_by_shape[(len(g.vertices), len(g.edges))] = tau
        for u in g.vertices:
            for w in g.vertices:
                i = g.vertex_pos[u] + 1
                j = g.vertex_pos[w] + 1
                assert matrix_tree_cofactor(og, u, w) == (-1) ** (i + j) * tau
        assert sachs_char_poly(g) == char_poly_univariate(adjacency_matrix(og), "det")
        poly = total_minor_poly(og, "laplacian", "det")
        lap = laplacian_matrix(og)
        for r in range(len(g.vertices) + 1):
            for chosen in itertools.combinations(g.vertices, r):
                rest = [v for v in g.vertices if v not in chosen]
                coeff = poly.coefficient([(u, u) for u in chosen])
                minor = integer_determinant(lap.restrict(rest))
                assert coeff == (-1) ** len(rest) * minor
    assert tau_by_shape[(3, 3)] == 3
    assert tau_by_shape[(4, 6)] == 16


def test_criterion_8_activation_lattices_and_arborescences():
    for bg in bidirected_corpus():
        classes = activation_classes(bg)
        assert all(2 ** len(a.generators) == len(a.members) for a in classes)
        vertices = bg.og.vertices
        if len(vertices) > 4:
            continue
        for size in range(1, min(3, len(vertices)) + 1):
            for chosen in itertools.combinations(vertices, size):
                cls = MinorClass.build(bg.og, chosen, chosen)
                survivors = single_element_classes(bg, cls)
                forests = k_arborescences(bg, chosen)
                assert {arb for _, arb in survivors} == set(forests)
