from oriented_hypergraphs.corpus import (
    all_hypergraphs,
    bidirected_corpus,
    connected_graph_corpus,
    graph_structure,
    random_hypergraphs,
    signings_for,
    structure_corpus,
)
from oriented_hypergraphs.core import validate


def test_all_hypergraphs_small_census():
    # one structure per incidence multiset: 2 vertices x 2 edges
    assert len(all_hypergraphs(1, 1, 0)) == 4  # (0,0), (0,1), (1,0), (1,1) skeletons
    assert len(all_hypergraphs(2, 2, 4)) == 110
    for g in all_hypergraphs(2, 2, 4):
        assert validate(g).ok


def test_structure_corpus_is_deterministic_and_in_bounds():
    first = structure_corpus()
    second = structure_corpus()
    assert len(first) >= 300
    assert [g.incidences for g in first] == [g.incidences for g in second]
    for g in first:
        assert len(g.vertices) <= 4
        assert len(g.edges) <= 3
        assert len(g.incidences) <= 8


def test_signings_cover_all_sign_vectors():
    g = graph_structure(["v1", "v2"], [("v1", "v2")])
    sigs = list(signings_for(g))
    assert len(sigs) == 4
    assert len({tuple(sorted(s.items())) for s in sigs}) == 4


def test_connected_graph_corpus_contents():
    graphs = connected_graph_corpus()
    sizes = {}
    for g in graphs:
        assert validate(g).ok
        assert all(len(g.incidences_on_edge[e]) == 2 for e in g.edges)
        sizes[len(g.vertices)] = sizes.get(len(g.vertices), 0) + 1
    # labeled connected simple graphs: 1, 1, 4, 38 for n = 1..4
    assert sizes[1] == 1
    assert sizes[2] == 1
    assert sizes[3] == 4
    assert sizes[4] == 38
    assert sizes[5] >= 4


def test_bidirected_corpus_entries_are_wrapped_and_small():
    entries = bidirected_corpus()
    assert len(entries) >= 40
    for bg in entries:
        assert len(bg.og.vertices) <= 4
        assert all(
            len(bg.og.structure.incidences_on_edge[e]) == 2 for e in bg.og.edges
        )


def test_random_hypergraphs_start_with_degenerates():
    rs = random_hypergraphs()
    assert len(rs) == 50
    assert (len(rs[0].vertices), len(rs[0].edges), len(rs[0].incidences)) == (0, 0, 0)
    shapes = {(len(g.vertices) == 0, len(g.edges) == 0) for g in rs[:4]}
    assert len(shapes) == 4
