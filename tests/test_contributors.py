import gc
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MALFORMED_STRUCTURES,
    assert_blocks_match_reference,
    circles_reference,
    family_sums_reference,
    rung,
    small_oriented,
    step_families_reference,
    triangle,
)
from oriented_hypergraphs import contributors, limits
from oriented_hypergraphs.contributors import (
    COMBOS,
    MinorClass,
    OneStep,
    class_contributors,
    class_permutation,
    component_profile,
    contributor_sign,
    enumerate_contributors,
    is_strong,
    minor_catalog,
    minor_polys_from_catalog,
    oracle_equivalence,
    reduce_contributor,
    step_families,
    total_minor_poly,
    univariate_from_contributors,
    vertex_steps,
    _all_steps,
    _circles,
    _counted_rows,
    _cover_sums,
    _family_counts,
    _family_sums,
    _map_cycles,
    _one_pass,
    _steps_between,
)
from oriented_hypergraphs.core import IncidenceHypergraph, OrientedHypergraph
from oriented_hypergraphs.corpus import signings_for, structure_corpus
from oriented_hypergraphs.errors import DomainError, InvariantError, ResourceLimitError
from oriented_hypergraphs.cli import main
from oriented_hypergraphs.jsonio import dumps_oriented, loads_oriented
from oriented_hypergraphs.matrices import (
    adjacency_matrix,
    char_poly_univariate,
    graph_orientation,
    laplacian_matrix,
    symbolic_minor_poly,
)
from oriented_hypergraphs.polynomial import IntPolynomial
from oriented_hypergraphs.topos import zero_loading


def one_edge(third_sign):
    g = IncidenceHypergraph.build(
        ["v1", "v2", "v3"],
        ["e1"],
        [("i1", "v1", "e1"), ("i2", "v2", "e1"), ("i3", "v3", "e1")],
    )
    return OrientedHypergraph.build(g, {"i1": 1, "i2": 1, "i3": third_sign})


def simple_graph(n, pairs, seed=None):
    """Vertices v1..vn and one two-incidence edge per pair: the plain graph
    orientation, or seed-drawn +1/-1 signs."""
    vertices = [f"v{k}" for k in range(1, n + 1)]
    edges, triples = [], []
    for a, b in pairs:
        e = f"e{a}{b}"
        edges.append(e)
        triples += [(f"{e}a", f"v{a}", e), (f"{e}b", f"v{b}", e)]
    g = IncidenceHypergraph.build(vertices, edges, triples)
    if seed is None:
        return graph_orientation(g)
    rng = random.Random(seed)
    return OrientedHypergraph.build(g, {i: rng.choice((1, -1)) for i, _, _ in triples})


def complete_graph(n, seed=None):
    return simple_graph(n, itertools.combinations(range(1, n + 1), 2), seed)


def cycle_graph(n):
    return simple_graph(n, [(k, k % n + 1) for k in range(1, n + 1)])


def test_vertex_steps_order_and_kinds():
    g = triangle().structure
    steps = vertex_steps(g, "v1")
    assert len(steps) == 4
    assert steps[0].is_backstep and steps[0].edge == "e12"
    assert steps[1].head == "v2"
    assert steps[2].is_backstep and steps[2].edge == "e13"
    assert steps[3].head == "v3"
    assert len(vertex_steps(g, "v1", strong_only=True)) == 2


def test_contributor_counts():
    assert len(enumerate_contributors(triangle())) == 16
    assert len(enumerate_contributors(triangle(), strong_only=True)) == 2
    assert len(enumerate_contributors(one_edge(1))) == 6


def test_strong_contributors_are_the_two_cyclic_covers():
    strong = enumerate_contributors(triangle(), strong_only=True)
    assert all(is_strong(c) for c in strong)
    head_maps = {tuple(sorted((s.tail, s.head) for s in c)) for c in strong}
    assert head_maps == {
        (("v1", "v2"), ("v2", "v3"), ("v3", "v1")),
        (("v1", "v3"), ("v2", "v1"), ("v3", "v2")),
    }


def test_profiles_on_named_contributors():
    og = triangle()
    by_heads = {tuple(s.head for s in c): c for c in enumerate_contributors(og)}
    idle = by_heads[("v1", "v2", "v3")]
    prof = component_profile(og, idle)
    assert (prof.backsteps, prof.circles, prof.loops) == (3, 0, 0)
    assert contributor_sign(og, idle) == 1
    cycle = next(c for c in enumerate_contributors(og, strong_only=True))
    prof = component_profile(og, cycle)
    assert (prof.backsteps, prof.odd_circles, prof.even_circles) == (0, 1, 0)
    assert prof.positive_circles == 1
    assert prof.negative_circles == 0
    assert contributor_sign(og, cycle) == -1


def _named_cycles(f):
    # ``_map_cycles`` over the positions of the keys of ``f``, read back as keys.
    keys = list(f)
    at = {v: k for k, v in enumerate(keys)}
    return [tuple(keys[k] for k in c) for c in _map_cycles([at.get(f[v], -1) for v in keys])]


def test_map_cycles_on_partial_maps():
    # A chain that leaves the domain closes nothing.
    assert _named_cycles({"a": "b", "b": "c"}) == []
    # Each cycle starts where the walk from the keys, in order, first
    # reaches it; a tail leading into a cycle is not part of it.
    f = {"x": "b", "b": "c", "c": "d", "d": "b", "e": "e", "g": "h", "h": "g"}
    assert _named_cycles(f) == [("b", "c", "d"), ("e",), ("g", "h")]
    assert _named_cycles({"c": "b", "b": "c"}) == [("c", "b")]


# Triangle steps named by their incidences.
_V1_TO_V2 = OneStep("v1", "i12a", "e12", "i12b", "v2")
_V1_TO_V3 = OneStep("v1", "i13a", "e13", "i13b", "v3")
_V2_BACK = OneStep("v2", "i12b", "e12", "i12b", "v2")
_V2_TO_V3 = OneStep("v2", "i23a", "e23", "i23b", "v3")
_V3_TO_V2 = OneStep("v3", "i23b", "e23", "i23a", "v2")


@pytest.mark.parametrize(
    "steps, message",
    [
        ((_V1_TO_V2, _V1_TO_V3), "two steps share a tail vertex"),
        ((_V1_TO_V2, _V2_BACK), "do not close into circles at 'v1'"),
        ((_V1_TO_V2, _V2_TO_V3, _V3_TO_V2), "do not close into circles at 'v1'"),
    ],
    ids=["shared-tail", "open-chain", "rho"],
)
def test_component_profile_refuses_steps_that_do_not_close(steps, message):
    with pytest.raises(DomainError, match=message):
        component_profile(triangle(), steps)


def test_zero_sign_makes_contributor_weight_zero():
    og = one_edge(0)
    cs = enumerate_contributors(og)
    # v3 can only step through its zero incidence, so every contributor dies
    assert len(cs) == 6
    assert all(contributor_sign(og, c) == 0 for c in cs)


def test_profile_counts_a_circle_through_a_zero_sign():
    # v1 and v2 step to each other across e; v2's incidence is signed 0.
    g = IncidenceHypergraph.build(["v1", "v2"], ["e"], [("i", "v1", "e"), ("j", "v2", "e")])
    og = OrientedHypergraph.build(g, {"i": 1, "j": 0})
    swap = next(c for c in enumerate_contributors(og) if [s.head for s in c] == ["v2", "v1"])
    prof = component_profile(og, swap)
    assert (prof.even_circles, prof.positive_circles, prof.negative_circles) == (1, 0, 0)
    assert prof.zero_circles == 1
    assert contributor_sign(og, swap) == 0


def test_contributor_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_contributors(triangle(), max_vertices=2)


def test_contributor_count_guard_runs_before_enumeration():
    # K9 holds 330,492,736 contributors; the exact count refuses it at once.
    with pytest.raises(ResourceLimitError):
        enumerate_contributors(complete_graph(9))
    k5 = complete_graph(5)
    assert len(enumerate_contributors(k5, max_count=2208)) == 2208
    with pytest.raises(ResourceLimitError):
        enumerate_contributors(k5, max_count=2207)


def test_zero_count_returns_at_once():
    # K8 plus an isolated vertex: the isolated vertex has no step at all.
    k8_plus = simple_graph(9, itertools.combinations(range(1, 9), 2))
    assert enumerate_contributors(k8_plus) == []


def test_class_count_guard_runs_before_enumeration():
    # K9 holds 9,073,911 contributors sending v1 to v2; the pinned count
    # refuses them at once.
    with pytest.raises(ResourceLimitError, match="got 9073911"):
        class_contributors(complete_graph(9), MinorClass(("v1",), ("v2",)))


def test_class_row_outside_vertex_set():
    with pytest.raises(DomainError, match="no step tailed at 'ghost'"):
        class_contributors(triangle(), MinorClass(("ghost",), ("v2",)))


def _permanent_count(options):
    # Ryser's formula (Ryser 1963): the permanent of the step-multiplicity
    # matrix, the number of spanning families, in O(2^n n^2).  The
    # reference for the head-mask DP of ``_family_counts``.
    n = len(options)
    mult = [[len(steps) for steps in row] for row in _steps_between(options)]
    total = 0
    for mask in range(1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        product = 1
        for row in mult:
            product *= sum(row[j] for j in cols)
            if not product:
                break
        total += -product if len(cols) % 2 else product
    return -total if n % 2 else total


@st.composite
def option_maps(draw, max_tails=5, max_multiplicity=2):
    # Tails v0..v(n-1), each with 0..max_multiplicity steps to every head.
    n = draw(st.integers(0, max_tails))
    options = {}
    for r in range(n):
        steps = []
        for c in range(n):
            for k in range(draw(st.integers(0, max_multiplicity))):
                tag = f"{r}.{c}.{k}"
                steps.append(OneStep(f"v{r}", f"t{tag}", f"e{tag}", f"h{tag}", f"v{c}"))
        options[f"v{r}"] = tuple(steps)
    return options


@settings(max_examples=60, deadline=None)
@given(option_maps())
def test_family_counts_match_ryser_and_enumeration(options):
    counts = _family_counts(options)
    assert len(counts) == 1 << len(options)
    assert counts[-1] == _permanent_count(options)
    assert counts[-1] == len(list(step_families(options, spanning=True)))
    assert sum(counts) == len(list(step_families(options)))


@pytest.mark.parametrize(
    "n, families, spanning",
    [(6, 187375, 34960), (7, 3823392, 648240), (8, 88929169, 13781376)],
)
def test_family_counts_on_complete_graphs(n, families, spanning):
    # K7 stays under ``limits.MAX_FAMILIES`` and K8 does not.
    counts = _family_counts(_all_steps(complete_graph(n).structure))
    assert (sum(counts), counts[-1]) == (families, spanning)
    assert (families <= limits.MAX_FAMILIES) == (n < 8)


def test_minor_catalog_refuses_k8_from_the_family_count(monkeypatch):
    # Seeded K8 has 88,929,169 step families; the count refuses them
    # before the enumerator builds one.
    og = complete_graph(8, seed=2019)

    def never(*args, **kwargs):
        raise AssertionError("step families enumerated past the guard")

    monkeypatch.setattr(contributors, "step_families", never)
    monkeypatch.setattr(contributors, "_family_sums", never)
    message = "minor catalog limited to 5000000 families, got 88929169"
    with pytest.raises(ResourceLimitError, match=message):
        minor_catalog(og.structure)
    with pytest.raises(ResourceLimitError, match=message):
        total_minor_poly(og, "laplacian", "det")
    with pytest.raises(ResourceLimitError, match=message):
        oracle_equivalence(og)


@settings(max_examples=60, deadline=None)
@given(option_maps(), st.data())
def test_step_families_match_generator_reference(options, data):
    # Dropping tails leaves heads that are no tail's; they still block.
    kept = data.draw(st.sets(st.sampled_from(sorted(options)))) if options else set()
    options = {v: steps for v, steps in options.items() if v in kept}
    for spanning in (False, True):
        got = list(step_families(options, spanning=spanning))
        assert got == list(step_families_reference(options, spanning=spanning))


@settings(max_examples=60, deadline=None)
@given(small_oriented())
def test_minor_blocks_match_frozenset_reference(og):
    assert_blocks_match_reference(og.structure, og.signs)
    catalog = minor_catalog(og.structure)
    families = list(step_families_reference(_all_steps(og.structure)))
    assert [f.steps for f in catalog.families] == families
    assert [f.strong for f in catalog.families] == [is_strong(steps) for steps in families]


@pytest.mark.parametrize("family, n", [("K", 5), ("C", 6), ("B", 5)])
def test_minor_blocks_match_frozenset_reference_on_rungs(family, n):
    og = rung(family, n)
    assert_blocks_match_reference(og.structure, og.signs)


@pytest.mark.parametrize("n, count", [(3, 16), (4, 168), (5, 2208), (6, 34960)])
def test_contributors_match_generator_reference_on_rungs(n, count):
    og = rung("K", n)
    got = enumerate_contributors(og)
    assert len(got) == count
    assert got == list(step_families_reference(_all_steps(og.structure), spanning=True))


def _pass_polys(structure, signs):
    return _one_pass(structure, _counted_rows(structure, limits.MAX_MINOR_VERTICES), signs)


@settings(max_examples=60, deadline=None)
@given(small_oriented(), st.data())
def test_one_pass_matches_the_catalog(og, data):
    # The strategy draws 0 signs; the incidences left out of ``signs``
    # weigh 0 as well (the zero-loading convention).
    g = og.structure
    kept = data.draw(st.sets(st.sampled_from(sorted(og.signs)))) if og.signs else set()
    signs = {i: s for i, s in og.signs.items() if i in kept}
    polys = _pass_polys(g, signs)
    from_catalog = minor_polys_from_catalog(minor_catalog(g), signs)
    assert polys == from_catalog
    for poly in (*polys.values(), *from_catalog.values()):
        assert 0 not in poly.terms.values()
    combos = data.draw(st.lists(st.sampled_from(COMBOS), unique=True))
    rows = _counted_rows(g, limits.MAX_MINOR_VERTICES)
    assert _one_pass(g, rows, signs, combos) == {combo: polys[combo] for combo in combos}


@pytest.mark.parametrize("family, n", [("C", 6), ("K", 5), ("B", 5)])
def test_one_pass_matches_the_catalog_on_rungs(family, n):
    og = rung(family, n)
    g = og.structure
    assert _pass_polys(g, og.signs) == minor_polys_from_catalog(minor_catalog(g), og.signs)


@pytest.mark.parametrize("family, n", [("K", 4), ("C", 5)])
def test_catalog_enumerates_no_family(monkeypatch, family, n):
    # The catalog finds its blocks and evaluates through the walk alone.
    og = rung(family, n)
    g = og.structure

    def never(*args, **kwargs):
        raise AssertionError("the minor catalog enumerated step families")

    monkeypatch.setattr(contributors, "step_families", never)
    assert minor_polys_from_catalog(minor_catalog(g), og.signs) == _pass_polys(g, og.signs)


def test_one_shot_answers_build_no_catalog(monkeypatch, tmp_path, capsys):
    og = rung("K", 4)
    src = tmp_path / "k4.json"
    src.write_text(dumps_oriented(og))

    def never(*args, **kwargs):
        raise AssertionError("a one-shot answer built or evaluated a minor catalog")

    monkeypatch.setattr(contributors, "minor_catalog", never)
    monkeypatch.setattr(contributors, "minor_polys_from_catalog", never)
    oracle = symbolic_minor_poly(laplacian_matrix(og), "det")
    assert total_minor_poly(og, "laplacian", "det") == oracle
    assert all(oracle_equivalence(og).values())
    assert main(["verify", str(src)]) == 0
    assert capsys.readouterr().out.count(": PASS") == 4


def test_one_shot_answers_check_the_oracle_rows_before_the_walk(monkeypatch):
    og = rung("K", 4)

    def never(*args, **kwargs):
        raise AssertionError("families weighed past the oracle's row bound")

    monkeypatch.setattr(limits, "MAX_ORACLE_VERTICES", 3)
    monkeypatch.setattr(contributors, "_family_sums", never)
    message = "Leibniz expansion limited to 3 rows, got 4"
    with pytest.raises(ResourceLimitError, match=message):
        total_minor_poly(og, "laplacian", "det")
    with pytest.raises(ResourceLimitError, match=message):
        oracle_equivalence(og)


def _traced(call):
    # What ``call`` leaves allocated and its peak, both above what was
    # traced before it.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size - before, peak - before


@pytest.mark.parametrize("family, n", [("C", 6), ("K", 5)])
def test_one_shot_answers_hold_one_oracle_at_a_time(family, n):
    # The one-shot answers expand each oracle after the walk and drop it
    # once compared: four polynomials and one oracle at the peak of
    # ``oracle_equivalence``, one of each for ``total_minor_poly``.
    # Holding the oracles through the walk reads over 8x and 6x here;
    # C7 and K6 read alike, but tracing makes them take over 4 s.
    og = rung(family, n)
    held = []
    oracle, _ = _traced(lambda: held.append(symbolic_minor_poly(laplacian_matrix(og), "det")))
    held.clear()
    assert _traced(lambda: oracle_equivalence(og))[1] <= 5.5 * oracle
    assert _traced(lambda: total_minor_poly(og, "laplacian", "det"))[1] <= 3.5 * oracle


def test_minor_catalog_holds_blocks_not_families():
    # Seeded K5's catalog walks its 10,684 families and keeps only the
    # opened blocks; storing every family read over 17x one oracle.
    og = rung("K", 5)
    held = []
    oracle, _ = _traced(lambda: held.append(symbolic_minor_poly(laplacian_matrix(og), "det")))
    held.clear()
    assert _traced(lambda: minor_catalog(og.structure))[1] <= 3 * oracle


def test_family_sums_hold_little_beside_their_sums():
    # Seeded K6: the sweep holds nothing beside the two sum lists it
    # returns but their entries (1.14x them at the peak; the per-family
    # walk with tables for its last two tails read 1.44x).
    og = rung("K", 6)
    rows = _counted_rows(og.structure, limits.MAX_MINOR_VERTICES)
    sign = [og.signs[i.id] for i in og.structure.incidences]
    held = []
    _, peak = _traced(lambda: held.append(_family_sums(rows, sign)))
    total, signed = held[0]
    assert peak <= 1.25 * (sys.getsizeof(total) + sys.getsizeof(signed))


def _walks(structure, signs):
    # The walk and its reference agree under every sign 1 and under ``signs``.
    rows = _counted_rows(structure, limits.MAX_MINOR_VERTICES)
    for sign in (
        [1] * len(structure.incidences),
        [signs.get(i.id, 0) for i in structure.incidences],
    ):
        assert _family_sums(rows, sign) == family_sums_reference(rows, sign)


@settings(max_examples=60, deadline=None)
@given(small_oriented())
def test_family_sums_match_the_walk_reference(og):
    _walks(og.structure, og.signs)


def test_family_sums_match_the_walk_reference_on_the_corpus():
    # Criterion 3's corpus and signings.
    rng = random.Random(271828)
    for g in structure_corpus():
        rows = _counted_rows(g, limits.MAX_MINOR_VERTICES)
        signings = signings_for(g)
        if len(signings) > 64:
            signings = rng.sample(signings, 64)
        for signs in signings:
            sign = [signs[i.id] for i in g.incidences]
            assert _family_sums(rows, sign) == family_sums_reference(rows, sign)


@pytest.mark.parametrize("family, n", [("K", 5), ("K", 6), ("C", 6), ("B", 5)])
def test_family_sums_match_the_walk_reference_on_rungs(family, n):
    og = rung(family, n)
    _walks(og.structure, og.signs)


def _sums_count_the_families(structure):
    # Under every sign 1 each family weighs 1, so the sweep's totals over
    # the keys of one head mask count that mask's families, which the
    # separate multiplicity DP of ``_family_counts`` counts too.
    options = _all_steps(structure)
    rows = _counted_rows(structure, limits.MAX_MINOR_VERTICES)
    total, _ = _family_sums(rows, [1] * len(structure.incidences))
    n = len(rows)
    by_heads = [0] * (1 << n)
    for key, w in enumerate(total):
        by_heads[key >> 1 & (1 << n) - 1] += w
    assert by_heads == _family_counts(options)
    return sum(by_heads)


@settings(max_examples=60, deadline=None)
@given(small_oriented())
def test_family_sums_count_the_families(og):
    _sums_count_the_families(og.structure)


def test_family_sums_count_the_families_of_k7():
    # Seeded K7's families, too many for the reference walk.
    assert _sums_count_the_families(rung("K", 7).structure) == 3823392


def test_family_sums_refuse_signs_outside_plus_minus_one():
    g = rung("K", 3).structure
    sign = [2] + [1] * (len(g.incidences) - 1)
    with pytest.raises(DomainError, match="-1, 0, or \\+1"):
        _family_sums(_counted_rows(g, limits.MAX_MINOR_VERTICES), sign)


def test_total_minor_disagreement_replays_through_verify(monkeypatch, tmp_path, capsys):
    og = one_edge(-1)
    evaluate = contributors._one_pass

    def skewed(structure, rows, signs, combos=COMBOS):
        polys = evaluate(structure, rows, signs)
        polys[("laplacian", "det")] = polys[("adjacency", "det")]
        return {combo: polys[combo] for combo in combos}

    monkeypatch.setattr(contributors, "_one_pass", skewed)
    with pytest.raises(InvariantError, match="laplacian/det") as info:
        total_minor_poly(og, "laplacian", "det")
    reproducer = info.value.reproducer
    assert (reproducer["target"], reproducer["mode"]) == ("laplacian", "det")
    src = tmp_path / "reproducer.json"
    src.write_text(reproducer["input"])
    assert main(["verify", str(src)]) == 3
    assert "laplacian det: FAIL" in capsys.readouterr().out.splitlines()


def _product_reference(g, strong_only, pinned):
    # Every choice of one step per vertex, pinned rows restricted to their
    # column, kept when the heads are pairwise distinct.
    options = {
        v: tuple(
            s
            for s in vertex_steps(g, v, strong_only=strong_only)
            if v not in pinned or s.head == pinned[v]
        )
        for v in g.vertices
    }
    members = [
        combo
        for combo in itertools.product(*options.values())
        if len({s.head for s in combo}) == len(combo)
    ]
    return members, _permanent_count(options)


@settings(max_examples=40, deadline=None)
@given(small_oriented(), st.data())
def test_contributors_match_product_reference(og, data):
    g = og.structure
    k = data.draw(st.integers(0, len(g.vertices)))
    rows = data.draw(st.permutations(g.vertices))[:k]
    cols = data.draw(st.permutations(g.vertices))[:k]
    cls = MinorClass(tuple(rows), tuple(cols))
    for strong_only in (False, True):
        for pinned, got in (
            ({}, enumerate_contributors(og, strong_only=strong_only)),
            (dict(cls.pairs()), class_contributors(og, cls, strong_only=strong_only)),
        ):
            expected, count = _product_reference(g, strong_only, pinned)
            assert got == expected
            assert len(got) == count


def _derangements(k):
    return round(math.factorial(k) / math.e) if k else 1


def _circle_sums_reference(options, signs):
    sums = {}
    for (mask, weight), count in circles_reference(options, signs).items():
        sums[mask] = sums.get(mask, 0) + weight * count
    return sums


def _assert_circle_sums_match_reference(og):
    strong = _all_steps(og.structure, strong_only=True)
    got = _circles(strong, og.signs)
    reference = _circle_sums_reference(strong, og.signs)
    assert sorted(got) == list(range(1, 1 << len(og.vertices)))
    assert got == {mask: reference.get(mask, 0) for mask in got}


@settings(max_examples=60, deadline=None)
@given(small_oriented())
def test_circle_sums_match_the_circle_lister(og):
    _assert_circle_sums_match_reference(og)


@pytest.mark.parametrize("family, n", [("C", 6), ("K", 5), ("K", 6), ("B", 5)])
def test_circle_sums_match_the_circle_lister_on_rungs(family, n):
    _assert_circle_sums_match_reference(rung(family, n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_family_counts_on_complete_graphs(n):
    # A closed family is a disjoint cover of its tail set T by circles of
    # strong steps and backsteps.  Under unit signs every circle weighs 1,
    # so the circle sums count the circles, and the subset convolution
    # counts the covers; on each T the count is the permanent of the
    # step-multiplicity submatrix on T.  Closed strong families are the
    # derangements of their tail sets, n! in all.  With backsteps, a
    # fixed point has n - 1 of them.
    g = complete_graph(n).structure
    unit = {i.id: 1 for i in g.incidences}
    steps = {v: vertex_steps(g, v) for v in g.vertices}
    strong = {v: vertex_steps(g, v, strong_only=True) for v in g.vertices}
    circles = _circles(strong, unit)
    # A k-set carries (k - 1)! directed circles for k >= 3, one for k = 2
    # (one edge, one step each way) and none for k = 1 (no loops).
    for mask, count in circles.items():
        k = mask.bit_count()
        assert count == {1: 0, 2: 1}.get(k, math.factorial(k - 1))
    pieces = dict(circles)
    for j, v in enumerate(g.vertices):
        pieces[1 << j] += sum(s.is_backstep for s in steps[v])

    def with_backsteps(k):
        return sum(math.comb(k, j) * (n - 1) ** j * _derangements(k - j) for j in range(k + 1))

    expected = sum(math.comb(n, k) * with_backsteps(k) for k in range(n + 1))
    assert expected == {3: 38, 4: 393, 5: 5144, 6: 81445}[n]
    for options, covers, total, per_size in (
        (strong, _cover_sums(circles, n), math.factorial(n), _derangements),
        (steps, _cover_sums(pieces, n), expected, with_backsteps),
    ):
        assert sum(covers) == total
        for mask, count in enumerate(covers):
            tails = [v for j, v in enumerate(g.vertices) if mask >> j & 1]
            sub = {v: tuple(s for s in options[v] if s.head in tails) for v in tails}
            assert count == _permanent_count(sub) == per_size(len(tails))


def test_one_edge_blob_is_answered_from_the_circle_sums():
    # One edge holding ten incidences at each of four vertices: 100 steps
    # between any two vertices, 90 loops at each, and 608,060,360 circles
    # counted by step multiplicity, which unit signs make their summed
    # weight.  The walk sums them per vertex mask without listing one, so
    # all four pairs are answered, and quickly.
    vertices = ["v1", "v2", "v3", "v4"]
    triples = [(f"i{v}_{k}", v, "e") for v in vertices for k in range(10)]
    og = OrientedHypergraph.build(IncidenceHypergraph.build(vertices, ["e"], triples))
    assert sum(_circles(_all_steps(og.structure, strong_only=True), og.signs).values()) == (
        608060360
    )
    start = time.perf_counter()
    for target, mode in COMBOS:
        m = adjacency_matrix(og) if target == "adjacency" else laplacian_matrix(og)
        assert univariate_from_contributors(og, target, mode) == char_poly_univariate(m, mode)
    assert time.perf_counter() - start < 1


def test_route_disagreement_carries_a_reproducer(monkeypatch):
    og = one_edge(-1)
    monkeypatch.setattr(
        contributors, "char_poly_univariate", lambda m, mode, **_: IntPolynomial((1,))
    )
    with pytest.raises(InvariantError, match="laplacian/perm") as info:
        univariate_from_contributors(og, "laplacian", "perm")
    reproducer = info.value.reproducer
    assert (reproducer["target"], reproducer["mode"]) == ("laplacian", "perm")
    assert loads_oriented(reproducer["input"]) == og


def test_minor_class_validation():
    og = triangle()
    with pytest.raises(DomainError):
        MinorClass.build(og, ("v1", "v1"), ("v2", "v3"))
    with pytest.raises(DomainError):
        MinorClass.build(og, ("v1",), ("ghost",))
    with pytest.raises(DomainError):
        MinorClass(("v1",), ())
    with pytest.raises(DomainError, match="column vertices repeat"):
        MinorClass(("v1", "v2"), ("v3", "v3"))
    cls = MinorClass.build(og, ("v1",), ("v2",))
    assert cls.pairs() == (("v1", "v2"),)


def test_class_membership_partitions_contributors():
    og = triangle()
    total = 0
    for w in og.vertices:
        cls = MinorClass.build(og, ("v1",), (w,))
        total += len(class_contributors(og, cls))
    assert total == 16
    fixed = class_contributors(og, MinorClass.build(og, ("v1",), ("v1",)))
    assert len(fixed) == 10


def test_reduce_and_extend_are_inverse():
    og = triangle()
    cls = MinorClass.build(og, ("v1",), ("v1",))
    members = class_contributors(og, cls)
    for c in members:
        reduced = reduce_contributor(c, cls)
        assert all(s.tail != "v1" for s in reduced)
        perm = class_permutation(reduced, cls)
        assert perm["v1"] == "v1"
        assert set(perm) == set(og.vertices)


def test_reduce_rejects_mismatched_class():
    og = triangle()
    cls = MinorClass.build(og, ("v1",), ("v2",))
    idle = next(c for c in enumerate_contributors(og) if c[0].head == "v1")
    with pytest.raises(DomainError, match="contributor sends 'v1' to 'v1'"):
        reduce_contributor(idle, cls)
    with pytest.raises(DomainError, match="no step tailed at 'ghost'"):
        reduce_contributor(idle, MinorClass(("ghost",), ("v1",)))


def test_total_minor_rejects_bad_combo():
    with pytest.raises(DomainError):
        total_minor_poly(triangle(), "adjacency", "trace")
    with pytest.raises(DomainError):
        total_minor_poly(triangle(), "hessian", "det")


def test_triangle_adjacency_minor_poly_spot_values():
    p = total_minor_poly(triangle(), "adjacency", "det")
    assert p.coefficient([("v1", "v2"), ("v2", "v3"), ("v3", "v1")]) == 1
    assert p.coefficient([("v1", "v2"), ("v2", "v1"), ("v3", "v3")]) == -1
    assert p.coefficient([("v1", "v2"), ("v2", "v3")]) == -1
    assert p.coefficient([("v1", "v2"), ("v2", "v1")]) == 0
    assert p.coefficient([("v1", "v2"), ("v3", "v3")]) == 1
    assert p.coefficient([("v1", "v2")]) == 1
    assert p.coefficient([]) == -2


def test_one_edge_mixed_signs_laplacian_minor_poly():
    og = one_edge(-1)
    p = total_minor_poly(og, "laplacian", "det")
    oracle = symbolic_minor_poly(laplacian_matrix(og), "det")
    assert p == oracle
    assert len(p.terms) == 24
    assert p.coefficient([]) == 0
    for u in og.vertices:
        for w in og.vertices:
            assert p.coefficient([(u, w)]) == 0
    assert p.coefficient([("v1", "v2"), ("v3", "v3")]) == 1
    assert p.coefficient([("v2", "v1"), ("v3", "v3")]) == 1


def test_catalog_reuse_across_signings():
    base = one_edge(1)
    catalog = minor_catalog(base.structure)
    for third in (1, -1):
        og = one_edge(third)
        polys = minor_polys_from_catalog(catalog, og.signs)
        for target, mode in COMBOS:
            m = adjacency_matrix(og) if target == "adjacency" else laplacian_matrix(og)
            assert polys[(target, mode)] == symbolic_minor_poly(m, mode)


def test_catalog_evaluation_keeps_no_state():
    catalog = minor_catalog(one_edge(1).structure)
    first = minor_polys_from_catalog(catalog, one_edge(1).signs)
    other = minor_polys_from_catalog(catalog, one_edge(-1).signs)
    assert other != first
    assert minor_polys_from_catalog(catalog, one_edge(1).signs) == first


@pytest.mark.parametrize(
    "og, padding", [(triangle(), 3), (one_edge(-1), 0)], ids=["triangle", "one-edge"]
)
def test_raw_catalog_follows_zero_loading(og, padding):
    padded = zero_loading(og)
    assert len(padded.incidences) - len(og.incidences) == padding
    raw = minor_catalog(og.structure)
    loaded = minor_catalog(padded.structure)
    assert minor_polys_from_catalog(raw, og.signs) == minor_polys_from_catalog(
        loaded, padded.signs
    )


def test_cancelling_block_leaves_no_zero_terms():
    # v1 -> v2 through e1 weighs +1 and through e2 weighs -1: one block, sum 0.
    g = IncidenceHypergraph.build(
        ["v1", "v2"],
        ["e1", "e2"],
        [("a1", "v1", "e1"), ("a2", "v2", "e1"), ("b1", "v1", "e2"), ("b2", "v2", "e2")],
    )
    og = OrientedHypergraph.build(g, {"b2": -1})
    polys = minor_polys_from_catalog(minor_catalog(g), og.signs)
    for target, mode in COMBOS:
        m = adjacency_matrix(og) if target == "adjacency" else laplacian_matrix(og)
        p = polys[(target, mode)]
        assert p == symbolic_minor_poly(m, mode)
        assert p.coefficient([("v2", "v1")]) == 0
        assert all(p.terms.values())


@pytest.mark.parametrize("structure", MALFORMED_STRUCTURES)
def test_minor_catalog_rejects_malformed_structures(structure):
    with pytest.raises(DomainError):
        minor_catalog(structure)


def test_univariate_matches_frozen_triangle_values():
    og = triangle()
    assert univariate_from_contributors(og, "laplacian", "det").coeffs == (0, 9, -6, 1)
    assert univariate_from_contributors(og, "adjacency", "det").coeffs == (-2, -3, 0, 1)
    assert univariate_from_contributors(og, "adjacency", "perm").coeffs == (-2, 3, 0, 1)
    assert univariate_from_contributors(og, "laplacian", "perm").coeffs == (-12, 15, -6, 1)


def test_univariate_agrees_after_zero_loading():
    plain = triangle()
    padded = zero_loading(plain)
    assert len(padded.incidences) == 9
    for target, mode in COMBOS:
        assert univariate_from_contributors(
            padded, target, mode
        ) == univariate_from_contributors(plain, target, mode)


def test_degenerate_structures():
    empty = OrientedHypergraph.build(IncidenceHypergraph.build([], [], []))
    point = OrientedHypergraph.build(IncidenceHypergraph.build(["a"], [], []))
    for target, mode in COMBOS:
        assert total_minor_poly(empty, target, mode).coefficient([]) == 1
        assert univariate_from_contributors(empty, target, mode).coeffs == (1,)
        assert univariate_from_contributors(point, target, mode).coeffs == (0, 1)
        p = total_minor_poly(point, target, mode)
        assert p.coefficient([("a", "a")]) == 1
        assert p.coefficient([]) == 0


def test_oracle_equivalence_on_reference_structures():
    for og in (triangle(), one_edge(1), one_edge(-1), one_edge(0)):
        assert all(oracle_equivalence(og).values())


@settings(max_examples=25, deadline=None)
@given(small_oriented(max_vertices=3, max_edges=2, max_incidences=5))
def test_minor_polys_match_oracle_on_random_structures(og):
    assert all(oracle_equivalence(og).values())


@settings(max_examples=25, deadline=None)
@given(small_oriented(max_vertices=4, max_edges=3, max_incidences=6))
def test_univariate_triple_route_never_diverges(og):
    # The route's own checks raise on any disagreement; the catalog's
    # diagonal is a third, test-side reference.
    for target, mode in COMBOS:
        diagonal = total_minor_poly(og, target, mode).substitute_diagonal()
        assert univariate_from_contributors(og, target, mode) == diagonal


@pytest.mark.parametrize(
    "og",
    [
        cycle_graph(6),
        complete_graph(5, seed=2019),
        complete_graph(7, seed=2019),
        complete_graph(8, seed=2019),
    ],
    ids=["plain-C6", "seeded-K5", "seeded-K7", "seeded-K8"],
)
def test_univariate_route_on_zero_loading_heavy_structures(og):
    # The zero-loaded C6 has 33,592,320 contributors and K8 has
    # 32,237,681 closed step families; the route needs only the summed
    # weights of the raw structure's circles, one per vertex mask.
    for target, mode in COMBOS:
        m = adjacency_matrix(og) if target == "adjacency" else laplacian_matrix(og)
        assert univariate_from_contributors(og, target, mode) == char_poly_univariate(m, mode)
