import gc
import itertools
import math
import re
import runpy
import tracemalloc
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import strategies as st

from oriented_hypergraphs.contributors import (
    _all_steps,
    _family_sums,
    _steps_between,
    is_strong,
    minor_catalog,
)
from oriented_hypergraphs.core import IncidenceHypergraph, OrientedHypergraph
from oriented_hypergraphs.jsonio import loads_oriented
from oriented_hypergraphs.matrices import graph_orientation, permutation_sign
from oriented_hypergraphs.polynomial import _bits

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
# The benchmark's input generators, run from source (no bytecode is written).
BENCH_INPUTS = runpy.run_path(str(FIXTURE_DIR.parent / "perfbench" / "inputs.py"))


def rung(family: str, n: int, seed: int = 2019) -> OrientedHypergraph:
    """A size-ladder rung of the benchmark, seeded as it is there by default."""
    return loads_oriented(BENCH_INPUTS["rung_text"](family, n, seed))


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


# The step-family engine as it was before integer rows, kept as the
# reference for ``contributors.step_families`` and for the blocks and per-block
# sums of ``contributors.minor_catalog`` and ``contributors._family_sums``.


def step_families_reference(options, *, spanning=False):
    # Nested generators over the tails in order, heads tracked by name.
    rows = list(options.values())
    chosen, used = [], set()

    def extend(k):
        if k == len(rows):
            yield tuple(chosen)
            return
        if not spanning:
            yield from extend(k + 1)
        for s in rows[k]:
            if s.head in used:
                continue
            used.add(s.head)
            chosen.append(s)
            yield from extend(k + 1)
            chosen.pop()
            used.discard(s.head)

    return extend(0)


def minor_blocks_reference(structure):
    # Every family grouped by its frozen tail and head sets, each eps the
    # sign of the image list of the family completed by the block's c0:
    # (odd, ((incidence positions, strong, eps) per family), completions)
    # per block.
    order = structure.vertices
    pos = structure.vertex_pos
    at = structure.incidence_pos
    grouped = {}
    for steps in step_families_reference(_all_steps(structure)):
        key = (frozenset(s.tail for s in steps), frozenset(s.head for s in steps))
        grouped.setdefault(key, []).append(steps)
    blocks = []
    for (tails, heads), members in grouped.items():
        rows = [v for v in order if v not in tails]
        cols = [v for v in order if v not in heads]
        images = [0] * len(order)
        for r, c in zip(rows, cols):
            images[pos[r]] = pos[c]
        entries = []
        for steps in members:
            for s in steps:
                images[pos[s.tail]] = pos[s.head]
            ids = tuple(at[i] for s in steps for i in (s.tail_incidence, s.head_incidence))
            entries.append((ids, is_strong(steps), permutation_sign(images)))
        bit = [[1 << (pos[r] * len(order) + pos[c]) for c in cols] for r in rows]
        completions = tuple(
            (sum(row[j] for row, j in zip(bit, p)), permutation_sign(p))
            for p in itertools.permutations(range(len(rows)))
        )
        blocks.append((len(tails) % 2 == 1, tuple(entries), completions))
    return tuple(blocks)


def family_sums_reference(rows, sign):
    # The per-family reference for ``contributors._family_sums``: a
    # depth-first walk that visits every family on its own, with the last
    # tail's steps summed in place.
    n = len(rows)
    total = [0] * (1 << (2 * n + 1))
    signed = [0] * (1 << (2 * n + 1))
    weighed = []
    for k, row in enumerate(rows):
        tail = 1 << (n + 1 + k)
        steps = []
        for h, tail_at, head_at, back in row:
            w = sign[tail_at] * sign[head_at]
            if w:
                head = 2 << h
                after = (1 << (n + 1)) - (head << 1)
                steps.append((head, tail | head | back, after, w))
        weighed.append(steps)
    total[0] = signed[0] = 1
    if not n:
        return total, signed
    inner = list(enumerate(weighed[:-1], 1))
    later = [inner[k:] for k in range(n)]
    last = weighed[-1]

    def extend(start, key, w, e):
        for nxt, steps in later[start]:
            for head, bits, after, sw in steps:
                if not key & head:
                    child = key | bits
                    cw = w * sw
                    ce = -e * sw if (key & after).bit_count() & 1 else e * sw
                    total[child] += cw
                    signed[child] += ce
                    extend(nxt, child, cw, ce)
        for head, bits, after, sw in last:
            if not key & head:
                child = key | bits
                total[child] += w * sw
                signed[child] += -e * sw if (key & after).bit_count() & 1 else e * sw

    extend(0, 0, 1, 1)
    return total, signed


# ``contributors._circles`` as it was while it listed every circle, kept as
# the reference for its summed weights.  Only its count against the old
# circle cap is gone; the walk table still steers the search.


def circles_reference(options, signs):
    # {(vertex mask, W): number of circles}, the zero-weight ones left out.
    between = _steps_between(options)
    n = len(between)
    walks = []
    for s in range(n):
        table = {}
        for m in range(1, 1 << (n - s - 1)):
            mask = m << (s + 1)
            row = [0] * n
            for w in _bits(mask):
                rest = mask ^ (1 << w)
                if rest:
                    row[w] = sum(table[rest][v] * len(between[v][w]) for v in _bits(rest))
                else:
                    row[w] = len(between[s][w])
            table[mask] = row
        walks.append(table)

    def weigh(step):
        return signs[step.tail_incidence] * signs[step.head_incidence]

    weights = [[[w for w in map(weigh, steps) if w] for steps in row] for row in between]
    found = defaultdict(int)

    def back(s, circle, mask, v, weight):
        # The circle's steps from v round to s are chosen (none while
        # v = s); a walk out of s over the rest of ``mask`` and a step
        # into v complete it.
        rest = mask ^ (1 << v)
        if not rest:
            for w in weights[s][v]:
                found[circle, weight * w] += 1
            return
        row = walks[s][rest]
        for u in _bits(rest):
            if row[u]:
                for w in weights[u][v]:
                    back(s, circle, rest, u, weight * w)

    for s in range(n):
        for m in range(1 << (n - s - 1)):
            circle = m << (s + 1) | 1 << s
            back(s, circle, circle, s, 1)
    return found


def assert_blocks_match_reference(structure, signs):
    # The catalog opens exactly the reference's blocks (a block's
    # completions name its open rows and columns), and under every sign 1
    # and under ``signs`` the walk's sums at each block's key equal the
    # reference's per-family sums: (w, eps * w) over all its families,
    # then over its strong ones.  No key outside the blocks sums nonzero.
    catalog = minor_catalog(structure)
    reference = {
        completions: (odd, entries)
        for odd, entries, completions in minor_blocks_reference(structure)
    }
    assert sorted((b.odd, b.completions) for b in catalog.blocks) == sorted(
        (odd, completions) for completions, (odd, _) in reference.items()
    )
    opened = {key for b in catalog.blocks for key in (b.key, b.key + 1)}
    for sign in (
        [1] * len(structure.incidences),
        [signs.get(i.id, 0) for i in structure.incidences],
    ):
        total, signed = _family_sums(catalog.rows, sign)
        for block in catalog.blocks:
            k = block.key
            walked = (
                total[k] + total[k + 1],
                block.sign * (signed[k] + signed[k + 1]),
                total[k],
                block.sign * signed[k],
            )
            sums = [0, 0, 0, 0]
            for ids, strong, eps in reference[block.completions][1]:
                w = math.prod(sign[i] for i in ids)
                sums[0] += w
                sums[1] += eps * w
                if strong:
                    sums[2] += w
                    sums[3] += eps * w
            assert walked == tuple(sums)
        assert not any(total[k] or signed[k] for k in range(len(total)) if k not in opened)


def triangle() -> OrientedHypergraph:
    g = IncidenceHypergraph.build(
        ["v1", "v2", "v3"],
        ["e12", "e13", "e23"],
        [
            ("i12a", "v1", "e12"),
            ("i12b", "v2", "e12"),
            ("i13a", "v1", "e13"),
            ("i13b", "v3", "e13"),
            ("i23a", "v2", "e23"),
            ("i23b", "v3", "e23"),
        ],
    )
    return graph_orientation(g)


def one_edge_three_vertices(third_sign: int) -> OrientedHypergraph:
    g = IncidenceHypergraph.build(
        ["v1", "v2", "v3"],
        ["e1"],
        [("i1", "v1", "e1"), ("i2", "v2", "e1"), ("i3", "v3", "e1")],
    )
    return OrientedHypergraph.build(g, {"i1": 1, "i2": 1, "i3": third_sign})


MALFORMED_STRUCTURES = [
    pytest.param(
        IncidenceHypergraph.build(["a"], ["e"], [("i", "ghost", "e")]), id="unknown-vertex"
    ),
    pytest.param(
        IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "ghost")]), id="unknown-edge"
    ),
    pytest.param(
        IncidenceHypergraph.build(["a", "a"], ["e"], [("i", "a", "e")]), id="duplicate-vertex"
    ),
]


@pytest.fixture
def k3() -> OrientedHypergraph:
    return triangle()


@pytest.fixture
def star_plus() -> OrientedHypergraph:
    return one_edge_three_vertices(1)


@pytest.fixture
def star_mixed() -> OrientedHypergraph:
    return one_edge_three_vertices(-1)


@st.composite
def small_oriented(draw, max_vertices: int = 4, max_edges: int = 3, max_incidences: int = 6):
    """Random oriented hypergraph within the stated bounds."""
    nv = draw(st.integers(0, max_vertices))
    ne = draw(st.integers(0, max_edges))
    vertices = [f"v{k}" for k in range(1, nv + 1)]
    edges = [f"e{k}" for k in range(1, ne + 1)]
    triples = []
    signs = {}
    if nv and ne:
        ni = draw(st.integers(0, max_incidences))
        for k in range(1, ni + 1):
            v = vertices[draw(st.integers(0, nv - 1))]
            e = edges[draw(st.integers(0, ne - 1))]
            triples.append((f"i{k}", v, e))
            signs[f"i{k}"] = draw(st.sampled_from([-1, 0, 1]))
    g = IncidenceHypergraph.build(vertices, edges, triples)
    return OrientedHypergraph.build(g, signs)


# The acceptance suite reports one line per criterion after the run, so
# a scan of the output ends with an explicit verdict for each.

ACCEPTANCE_LABELS = {
    1: "triangle characteristic polynomials by both routes",
    2: "one-edge order-3 total minor against the expansion oracle",
    3: "oracle equivalence over the generated corpus",
    4: "contributor counts on the two reference structures",
    5: "classifier and power laws on small instances",
    6: "envelope laws on seeded random structures",
    7: "tree, cofactor, and cover theorems on small graphs",
    8: "activation lattices and arborescence bijection",
}

_acceptance_outcomes: dict[int, str] = {}

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    if _acceptance_outcomes.get(n) != "FAIL":
        _acceptance_outcomes[n] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_acceptance_outcomes):
        label = ACCEPTANCE_LABELS.get(n, "")
        terminalreporter.write_line(f"criterion {n} ({label}): {_acceptance_outcomes[n]}")
