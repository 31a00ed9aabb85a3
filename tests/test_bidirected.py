import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _traced, assert_blocks_match_reference, rung, triangle
from oriented_hypergraphs import bidirected, limits
from oriented_hypergraphs.bidirected import (
    Arborescence,
    BidirectedGraph,
    _classes,
    activation_classes,
    as_bidirected,
    k_arborescences,
    single_element_classes,
    total_unpack,
)
from oriented_hypergraphs.contributors import (
    MinorClass,
    OneStep,
    contributor_sign,
    enumerate_contributors,
    step_families,
    total_minor_poly,
    vertex_steps,
)
from oriented_hypergraphs.core import IncidenceHypergraph, OrientedHypergraph
from oriented_hypergraphs.corpus import bidirected_corpus, graph_structure, structure_corpus
from oriented_hypergraphs.errors import DomainError, InvariantError, ResourceLimitError
from oriented_hypergraphs.jsonio import loads_oriented
from oriented_hypergraphs.matrices import graph_orientation


def bidirected_graph(n, pairs):
    ids = [f"v{k}" for k in range(1, n + 1)]
    named = [(ids[a], ids[b]) for a, b in pairs]
    return as_bidirected(graph_orientation(graph_structure(ids, named)))


def k2():
    return bidirected_graph(2, [(0, 1)])


def k3():
    return as_bidirected(triangle())


def k4():
    return bidirected_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def path3():
    return bidirected_graph(3, [(0, 1), (1, 2)])


def seeded(n, pairs, seed):
    """Bidirected graph on v1..vn with seed-drawn +-1 signs; loops allowed."""
    ids = [f"v{k}" for k in range(1, n + 1)]
    g = graph_structure(ids, [(ids[a], ids[b]) for a, b in pairs])
    rng = random.Random(seed)
    return as_bidirected(
        OrientedHypergraph.build(g, {i.id: rng.choice((-1, 1)) for i in g.incidences})
    )


def complete_pairs(n):
    return list(itertools.combinations(range(n), 2))


def isolated(n):
    g = IncidenceHypergraph.build([f"v{k}" for k in range(1, n + 1)], [], [])
    return as_bidirected(OrientedHypergraph.build(g))


def test_as_bidirected_rejects_bad_shapes():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    with pytest.raises(DomainError):
        as_bidirected(OrientedHypergraph.build(g))
    g2 = IncidenceHypergraph.build(
        ["a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e")]
    )
    with pytest.raises(DomainError):
        as_bidirected(OrientedHypergraph.build(g2, {"i": 1, "j": 0}))


def test_activation_classes_on_single_edge():
    classes = activation_classes(k2())
    assert len(classes) == 1
    assert len(classes[0].members) == 2
    assert len(classes[0].generators) == 1
    assert classes[0].generators[0] == ("v1", "v2")
    assert all(s.is_backstep for s in classes[0].bottom)


def test_activation_classes_on_disjoint_edges():
    bg = bidirected_graph(4, [(0, 1), (2, 3)])
    classes = activation_classes(bg)
    assert len(classes) == 1
    assert len(classes[0].members) == 4
    assert len(classes[0].generators) == 2


def test_activation_classes_on_triangle():
    classes = activation_classes(k3())
    assert len(classes) == 8
    assert all(len(a.members) == 2 for a in classes)
    assert all(len(a.generators) == 1 for a in classes)
    assert sum(len(a.members) for a in classes) == 16


def test_activation_classes_on_parallel_edges():
    bg = bidirected_graph(2, [(0, 1), (0, 1)])
    classes = activation_classes(bg)
    assert len(classes) == 4
    assert all(len(a.members) == 2 for a in classes)


def test_no_contributors_means_no_classes():
    assert activation_classes(isolated(1)) == []


def test_arborescence_counts():
    assert len(k_arborescences(k3(), ("v1",))) == 3
    assert len(k_arborescences(k3(), ("v1", "v2"))) == 2
    assert len(k_arborescences(k3(), ("v1", "v2", "v3"))) == 1
    assert len(k_arborescences(k4(), ("v1",))) == 16
    assert len(k_arborescences(path3(), ("v1",))) == 1
    with pytest.raises(DomainError):
        k_arborescences(k3(), ("v1", "v1"))
    with pytest.raises(DomainError):
        k_arborescences(k3(), ("ghost",))


# Reference search: every product of parent choices, keeping the ones
# whose parent chains do not loop.


def product_arborescences(bg, roots):
    g = bg.og.structure
    n = len(g.vertices)
    root_list = tuple(roots)
    others = [v for v in g.vertices if v not in root_list]
    choices = []
    for v in others:
        opts = []
        for e in g.edges:
            if not g.inc(v, e):
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


@pytest.mark.parametrize(
    "make",
    [
        k3,
        k4,
        path3,
        lambda: seeded(5, complete_pairs(5), 2019),
        lambda: seeded(6, complete_pairs(6), 2019),
    ],
    ids=["k3", "k4", "path3", "seeded-k5", "seeded-k6"],
)
@pytest.mark.parametrize("roots", [("v1",), ("v1", "v2")], ids=["v1", "v1v2"])
def test_arborescences_match_product_reference(make, roots):
    bg = make()
    assert k_arborescences(bg, roots) == product_arborescences(bg, roots)


def test_arborescence_cap_runs_on_the_exact_count():
    # Seeded K8 has 8^6 = 262,144 forests rooted at v1 (Cayley); the
    # matrix-tree count refuses them before the search.
    bg = seeded(8, complete_pairs(8), 2019)
    with pytest.raises(ResourceLimitError, match="got 262144"):
        k_arborescences(bg, ("v1",), max_count=10)


def test_single_element_classes_match_arborescences():
    for bg, roots in [
        (k3(), ("v1",)),
        (k3(), ("v1", "v2")),
        (k4(), ("v1",)),
        (path3(), ("v2",)),
    ]:
        cls = MinorClass.build(bg.og, roots, roots)
        survivors = single_element_classes(bg, cls)
        forests = k_arborescences(bg, roots)
        assert {arb for _, arb in survivors} == set(forests)


def test_single_element_class_on_lone_vertex():
    bg = isolated(1)
    cls = MinorClass.build(bg.og, ("v1",), ("v1",))
    survivors = single_element_classes(bg, cls)
    assert len(survivors) == 1
    assert survivors[0][1] == Arborescence(("v1",), (), (("v1", "v1"),))


def test_single_element_class_on_isolated_vertices_all_roots():
    bg = isolated(3)
    roots = ("v1", "v2", "v3")
    cls = MinorClass.build(bg.og, roots, roots)
    survivors = single_element_classes(bg, cls)
    assert len(survivors) == 1
    assert len(k_arborescences(bg, roots)) == 1


def test_arborescence_count_matches_minor_coefficient():
    og = k3().og
    poly = total_minor_poly(og, "laplacian", "det")
    assert abs(poly.coefficient([("v1", "v1")])) == 3
    assert abs(poly.coefficient([("v1", "v1"), ("v2", "v2")])) == 2


def _assert_replays(info, bg, roots):
    reproducer = info.value.reproducer
    assert loads_oriented(reproducer["input"]) == bg.og
    assert reproducer["roots"] == list(roots)


def test_total_unpack_refuses_open_steps():
    bg = k3()
    strong = enumerate_contributors(bg.og, strong_only=True)
    with pytest.raises(InvariantError, match="non-backstep") as info:
        total_unpack(bg, (), strong[0])
    _assert_replays(info, bg, ())


def test_single_element_classes_refuse_off_diagonal_classes():
    bg = k3()
    with pytest.raises(DomainError, match="same row and column"):
        single_element_classes(bg, MinorClass.build(bg.og, ("v1",), ("v2",)))
    with pytest.raises(DomainError, match="same row and column"):
        single_element_classes(bg, MinorClass.build(bg.og, ("v1", "v2"), ("v1", "v3")))
    # The same vertices in another order are still a diagonal class.
    cls = MinorClass.build(bg.og, ("v1", "v2"), ("v2", "v1"))
    assert len(single_element_classes(bg, cls)) == 2


def test_class_builder_counts_before_it_builds():
    # Seeded K8: 1,512,720 reduced families with one root and 13,781,376
    # contributors, both above limits.MAX_CONTRIBUTORS.
    bg = seeded(8, complete_pairs(8), 8)
    with pytest.raises(ResourceLimitError, match="got 1512720"):
        single_element_classes(bg, MinorClass.build(bg.og, ("v1",), ("v1",)))
    with pytest.raises(ResourceLimitError, match="got 13781376"):
        activation_classes(bg)


def test_activation_cap_runs_on_the_exact_count():
    # Seeded K7 holds 648,240 contributors, under limits.MAX_CONTRIBUTORS;
    # a tighter cap refuses them from the count.
    bg = seeded(7, complete_pairs(7), 2019)
    with pytest.raises(ResourceLimitError, match="got 648240"):
        activation_classes(bg, max_count=10)


def test_activation_classes_hold_each_cycle_set_once():
    # Seeded K6's classes share far fewer cycles and cycle sets than they
    # number; equal ones are one object.
    classes = activation_classes(as_bidirected(rung("K", 6)))
    sets = {a.cycles for a in classes}
    assert len({id(a.cycles) for a in classes}) == len(sets) < len(classes)
    cycles = [c for cycle_set in sets for c in cycle_set]
    assert len({id(c) for c in cycles}) == len(set(cycles))


# Reference partition: a breadth-first search over single pack and unpack
# moves from every spanning family, independent of the class builder.


def _flip(g, s):
    # A backstep opens toward the edge's other incidence; an opened step
    # packs back onto its tail incidence.
    if s.tail_incidence != s.head_incidence:
        return OneStep(s.tail, s.tail_incidence, s.edge, s.tail_incidence, s.tail)
    (j,) = [i for i in g.incidences_on_edge[s.edge] if i != s.tail_incidence]
    return OneStep(s.tail, s.tail_incidence, s.edge, j, g.vertex_of(j))


def _cycles(f):
    # Cycles of a partial map, each from where a walk in key order enters it.
    seen, cycles = set(), []
    for start in f:
        path = []
        v = start
        while v in f and v not in seen:
            seen.add(v)
            path.append(v)
            v = f[v]
        if v in path:
            cycles.append(tuple(path[path.index(v) :]))
    return cycles


def _moves(g, steps):
    backsteps = {s.tail: _flip(g, s).head for s in steps if s.is_backstep}
    circles = {s.tail: s.head for s in steps if not s.is_backstep}
    for cycle in _cycles(backsteps) + _cycles(circles):
        yield tuple(_flip(g, s) if s.tail in cycle else s for s in steps)


def bfs_classes(bg, options):
    g = bg.og.structure
    universe = list(step_families(options, spanning=True))
    known = set(universe)
    assigned = set()
    out = []
    for seed in universe:
        if seed in assigned:
            continue
        assigned.add(seed)
        members = [seed]
        for cur in members:
            for nxt in _moves(g, cur):
                assert nxt in known
                if nxt not in assigned:
                    assigned.add(nxt)
                    members.append(nxt)
        (bottom,) = [m for m in members if all(s.is_backstep for s in m)]
        generators = _cycles({s.tail: _flip(g, s).head for s in bottom})
        out.append((bottom, tuple(generators), frozenset(members)))
    return out


def built_classes(bg, options):
    return [
        (a.bottom, a.generators, frozenset(a.members))
        for a in _classes(bg, options, limits.MAX_CONTRIBUTORS)
    ]


def full_options(bg):
    g = bg.og.structure
    return {v: vertex_steps(g, v) for v in g.vertices}


def reduced_options(bg, roots):
    g = bg.og.structure
    return {
        v: tuple(s for s in vertex_steps(g, v) if s.head not in roots)
        for v in g.vertices
        if v not in roots
    }


@pytest.mark.parametrize(
    "make",
    [
        k2,
        k3,
        lambda: bidirected_graph(2, [(0, 1), (0, 1)]),
        lambda: seeded(2, [(0, 0), (0, 1), (1, 1)], 1),
        lambda: bidirected_graph(4, [(0, 1), (2, 3)]),
        lambda: seeded(5, complete_pairs(5), 5),
    ],
    ids=["k2", "k3", "parallel", "loops", "disjoint", "seeded-k5"],
)
def test_class_builder_matches_bfs_reference(make):
    bg = make()
    options = full_options(bg)
    reference = bfs_classes(bg, options)
    assert built_classes(bg, options) == reference
    assert [a.bottom for a in activation_classes(bg)] == [b for b, _, _ in reference]


@pytest.mark.parametrize(
    "make, roots",
    [
        (k3, ("v1",)),
        (k4, ("v2",)),
        (k4, ("v1", "v3")),
        (path3, ("v2",)),
        (lambda: bidirected_graph(5, [(k, (k + 1) % 5) for k in range(5)]), ("v1",)),
    ],
    ids=["k3-v1", "k4-v2", "k4-v1v3", "path3-v2", "c5-v1"],
)
def test_class_builder_matches_bfs_reference_on_reduced_options(make, roots):
    bg = make()
    options = reduced_options(bg, roots)
    assert built_classes(bg, options) == bfs_classes(bg, options)


@st.composite
def small_bidirected(draw):
    """At most 4 vertices and 4 edges, loops and parallel edges, signs +-1."""
    n = draw(st.integers(1, 4))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)
    )
    return seeded(n, pairs, draw(st.integers(0, 2**16)))


@settings(max_examples=40, deadline=None)
@given(small_bidirected(), st.data())
def test_class_builder_matches_bfs_reference_property(bg, data):
    options = full_options(bg)
    assert built_classes(bg, options) == bfs_classes(bg, options)
    roots = data.draw(st.sets(st.sampled_from(bg.og.vertices), max_size=2))
    reduced = reduced_options(bg, roots)
    assert built_classes(bg, reduced) == bfs_classes(bg, reduced)


@settings(max_examples=40, deadline=None)
@given(small_bidirected(), st.data())
def test_arborescences_match_product_reference_property(bg, data):
    roots = tuple(data.draw(st.lists(st.sampled_from(bg.og.vertices), unique=True, max_size=2)))
    assert k_arborescences(bg, roots) == product_arborescences(bg, roots)


# The class builder and the survivor filter as they were before integer
# rows: a dict head map per backstep choice, and the graph padded with
# 0-signed edges, every member of every reduced class weighed by
# ``contributor_sign``.


def classes_reference(bg, options):
    g = bg.og.structure
    tails = tuple(options)
    triples = [
        [(s, o, o.head) for s in steps if s.is_backstep for o in (_flip(g, s),)]
        for steps in options.values()
    ]
    out = []
    for choice in itertools.product(*triples):
        f = dict(zip(tails, (head for _, _, head in choice)))
        bottom = tuple(b for b, _, _ in choice)
        out.append((bottom, tuple(o for _, o, _ in choice), tuple(_cycles(f))))
    return out


def zero_completion(bg):
    """``bg`` with every non-adjacent vertex pair joined by a 0-signed edge."""
    g = bg.og.structure
    adjacent = {frozenset(g.vertex_of(i) for i in g.incidences_on_edge[e]) for e in g.edges}
    edges = list(g.edges)
    incidences = [(i.id, i.vertex, i.edge) for i in g.incidences]
    signs = dict(bg.og.signs)
    for a, b in itertools.combinations(g.vertices, 2):
        if frozenset((a, b)) not in adjacent:
            e = f"0:{a},{b}"
            edges.append(e)
            incidences += [(f"{e}:{a}", a, e), (f"{e}:{b}", b, e)]
            signs |= {f"{e}:{a}": 0, f"{e}:{b}": 0}
    padded = IncidenceHypergraph.build(g.vertices, edges, incidences)
    return BidirectedGraph(OrientedHypergraph.build(padded, signs, loaded=bg.og.loaded))


def single_element_reference(bg, roots):
    done = zero_completion(bg)
    out = []
    for a in _classes(done, reduced_options(done, roots), limits.MAX_CONTRIBUTORS):
        nonzero = [m for m in a.members if contributor_sign(done.og, m)]
        if len(nonzero) == 1:
            out.append((nonzero[0], total_unpack(done, roots, nonzero[0])))
    return out


def assert_rows_match_references(bg, roots):
    g = bg.og.structure
    assert_blocks_match_reference(g, bg.og.signs)
    options = full_options(bg)
    built = _classes(bg, options, limits.MAX_CONTRIBUTORS)
    assert [(a.bottom, a.opened, a.generators) for a in built] == classes_reference(bg, options)
    cls = MinorClass.build(bg.og, roots, roots)
    assert single_element_classes(bg, cls) == single_element_reference(bg, roots)


@settings(max_examples=40, deadline=None)
@given(small_bidirected(), st.data())
def test_integer_rows_match_references_property(bg, data):
    roots = tuple(data.draw(st.lists(st.sampled_from(bg.og.vertices), unique=True, max_size=2)))
    assert_rows_match_references(bg, roots)


def test_single_element_classes_match_reference_on_corpus():
    for bg in bidirected_corpus():
        vertices = bg.og.vertices
        for k in range(min(3, len(vertices)) + 1):
            for roots in itertools.combinations(vertices, k):
                cls = MinorClass.build(bg.og, roots, roots)
                assert single_element_classes(bg, cls) == single_element_reference(bg, roots)


@pytest.mark.parametrize("family, n", [("K", 5), ("C", 6)])
@pytest.mark.parametrize("roots", [("v1",), ("v1", "v2")])
def test_integer_rows_match_references_on_rungs(family, n, roots):
    assert_rows_match_references(as_bidirected(rung(family, n)), roots)


def doubled_members(a):
    # The members as the builder used to store them: the bottom, then
    # each generator opened in every member built so far.
    at = {s.tail: k for k, s in enumerate(a.bottom)}
    members = [a.bottom]
    for cycle in a.generators:
        for m in members[:]:
            member = list(m)
            for v in cycle:
                member[at[v]] = a.opened[at[v]]
            members.append(tuple(member))
    return tuple(members)


@settings(max_examples=40, deadline=None)
@given(small_bidirected())
def test_activation_members_are_the_doubling_order(bg):
    for a in activation_classes(bg):
        want = doubled_members(a)
        members = a.members
        assert len(members) == 2 ** len(a.generators) == len(want)
        assert tuple(members) == want
        assert members == want and members == list(want)
        assert [members[k] for k in range(-len(want), 0)] == list(want)
        assert members[1::2] == list(want[1::2])
        assert repr(members) == f"ActivationMembers({list(want)!r})"
        with pytest.raises(IndexError):
            members[len(want)]


def test_classes_and_survivors_match_references_on_the_corpus():
    # The two-incidence structures of criterion 3's corpus under
    # seed-drawn +-1 signs, with no root, one root and two roots.
    rng = random.Random(3)
    for g in structure_corpus():
        if any(len(g.incidences_on_edge[e]) != 2 for e in g.edges):
            continue
        signs = {i.id: rng.choice((1, -1)) for i in g.incidences}
        bg = as_bidirected(OrientedHypergraph.build(g, signs))
        options = full_options(bg)
        built = _classes(bg, options, limits.MAX_CONTRIBUTORS)
        assert [(a.bottom, a.opened, a.generators) for a in built] == classes_reference(bg, options)
        for k in range(min(2, len(g.vertices)) + 1):
            for roots in itertools.combinations(g.vertices, k):
                cls = MinorClass.build(bg.og, roots, roots)
                assert single_element_classes(bg, cls) == single_element_reference(bg, roots)


def test_a_class_holds_its_position_not_a_choice():
    # Seeded K6: 15,625 classes, each one int into the shared option rows
    # (2,496,536 B held); with a choice tuple per class they held
    # 3,442,608 B.
    bg = as_bidirected(rung("K", 6))
    held = []
    size, _ = _traced(lambda: held.append(activation_classes(bg)))
    classes = held[0]
    assert len(classes) == 15625
    assert [a.position for a in classes] == list(range(15625))
    assert len({id(a.rows) for a in classes}) == 1
    assert classes[-1].choice == (4,) * 6 and classes[7].choice == (0, 0, 0, 0, 1, 2)
    assert size <= 180 * 15625


def test_class_checks_carry_reproducers(monkeypatch):
    bg = k3()
    # Backsteps whose heads are the next vertex, not their tails.
    steps = bidirected.vertex_steps
    after = {"v1": "v2", "v2": "v3", "v3": "v1"}

    def misheaded(g, v):
        return tuple(replace(s, head=after[v]) if s.is_backstep else s for s in steps(g, v))

    monkeypatch.setattr(bidirected, "vertex_steps", misheaded)
    with pytest.raises(InvariantError, match="heads are not its tails") as info:
        activation_classes(bg)
    _assert_replays(info, bg, ())
    monkeypatch.undo()
    # Cycles that the unpacked heads do not follow.
    monkeypatch.setattr(bidirected, "_map_cycles", lambda f: [tuple(range(len(f)))])
    with pytest.raises(InvariantError, match="not a permutation") as info:
        single_element_classes(bg, MinorClass.build(bg.og, ("v2",), ("v2",)))
    _assert_replays(info, bg, ("v2",))
    monkeypatch.undo()
    # A family count the classes do not hold.
    counts = bidirected._family_counts

    def one_more(options):
        out = counts(options)
        out[-1] += 1
        return out

    monkeypatch.setattr(bidirected, "_family_counts", one_more)
    with pytest.raises(InvariantError, match="hold 16 families, expected 17") as info:
        activation_classes(bg)
    _assert_replays(info, bg, ())


def test_total_unpack_refuses_circles_and_non_roots():
    bg = k3()
    g = bg.og.structure
    back = {v: next(s for s in vertex_steps(g, v) if s.is_backstep) for v in g.vertices}
    # v1 and v2 open onto each other over e12.
    with pytest.raises(InvariantError, match="circle") as info:
        total_unpack(bg, ("v3",), (back["v1"], back["v2"]))
    _assert_replays(info, bg, ("v3",))
    # v2 opens onto v1 over e12, and v1 is neither a root nor unfolded.
    with pytest.raises(InvariantError, match="drains to non-root 'v1'") as info:
        total_unpack(bg, ("v3",), (back["v2"],))
    _assert_replays(info, bg, ("v3",))
