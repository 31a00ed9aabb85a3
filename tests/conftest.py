import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from oriented_hypergraphs.core import IncidenceHypergraph, OrientedHypergraph
from oriented_hypergraphs.matrices import graph_orientation

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


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
