import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import rung, small_oriented, triangle
from oriented_hypergraphs import limits, matrices
from oriented_hypergraphs.core import IncidenceHypergraph, OrientedHypergraph
from oriented_hypergraphs.corpus import bidirected_corpus, connected_graph_corpus, graph_structure
from oriented_hypergraphs.errors import DomainError, InvariantError, ResourceLimitError
from oriented_hypergraphs.jsonio import loads_oriented
from oriented_hypergraphs.matrices import (
    IntegerMatrix,
    _leibniz,
    _require_graph,
    adjacency_matrix,
    char_poly_univariate,
    degree_matrix,
    edge_endpoints,
    graph_orientation,
    incidence_matrix,
    integer_determinant,
    laplacian_matrix,
    matrix_tree_cofactor,
    permutation_sign,
    sachs_char_poly,
    spanning_tree_count,
    symbolic_minor_poly,
)
from oriented_hypergraphs.polynomial import MultivariatePolynomial, render_multivariate


def square(entries):
    labels = tuple(f"r{k}" for k in range(len(entries)))
    return IntegerMatrix(labels, labels, tuple(tuple(r) for r in entries))


# Square integer matrices up to 6 x 6, mostly zeros, so that elimination
# meets zero pivots and singular matrices often.
square_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.just(0), st.integers(-4, 4)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(square)


def test_triangle_matrices():
    og = triangle()
    h = incidence_matrix(og)
    assert h.rows == ((1, 1, 0), (-1, 0, 1), (0, -1, -1))
    assert adjacency_matrix(og).rows == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert degree_matrix(og).rows == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert laplacian_matrix(og).rows == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


def test_laplacian_equals_product_by_construction():
    og = triangle()
    h = incidence_matrix(og)
    assert laplacian_matrix(og).rows == h.mul(h.transpose()).rows


def test_zero_signed_incidences_drop_out():
    g = IncidenceHypergraph.build(
        ["a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e")]
    )
    og = OrientedHypergraph.build(g, {"i": 1, "j": 0})
    assert degree_matrix(og).rows == ((1, 0), (0, 0))
    assert adjacency_matrix(og).rows == ((0, 0), (0, 0))


def test_triangle_char_polys():
    og = triangle()
    assert char_poly_univariate(laplacian_matrix(og), "det").coeffs == (0, 9, -6, 1)
    assert char_poly_univariate(adjacency_matrix(og), "det").coeffs == (-2, -3, 0, 1)
    assert char_poly_univariate(adjacency_matrix(og), "perm").coeffs == (-2, 3, 0, 1)


def test_char_poly_rejects_bad_mode_and_size():
    m = square([[1]])
    with pytest.raises(DomainError):
        char_poly_univariate(m, "trace")
    with pytest.raises(ResourceLimitError):
        char_poly_univariate(m, "det", max_vertices=0)


def test_permutation_sign_small_cases():
    assert permutation_sign([0, 1, 2]) == 1
    assert permutation_sign([1, 0, 2]) == -1
    assert permutation_sign([1, 2, 0]) == 1
    assert permutation_sign([]) == 1


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(5))))
def test_permutation_sign_matches_inversion_parity(images):
    inversions = sum(
        1 for a, b in itertools.combinations(range(5), 2) if images[a] > images[b]
    )
    assert permutation_sign(images) == (-1) ** inversions


def leibniz_reference(m, mode, *, diagonal_only):
    """det or perm of (X - M) as a direct sum over permutations.

    Each permutation's product of (x[v, pi(v)] - M[v, pi(v)]) factors is
    expanded on its own and the terms are collected over labelled
    monomials; the library's row-by-row expansion must agree with it.
    """
    n = len(m.row_labels)
    x = [[frozenset({(u, w)}) for w in m.col_labels] for u in m.row_labels]
    total = {}
    for images in itertools.permutations(range(n)):
        scale = permutation_sign(images) if mode == "det" else 1
        partial = {frozenset(): 1}
        for v, w in enumerate(images):
            c = -m.rows[v][w]
            if diagonal_only and v != w:
                scale *= c
                if not scale:
                    break
                continue
            nxt = {}
            for mono, coeff in partial.items():
                withvar = mono | x[v][w]
                nxt[withvar] = nxt.get(withvar, 0) + coeff
                if c:
                    nxt[mono] = nxt.get(mono, 0) + coeff * c
            partial = nxt
        else:
            for mono, coeff in partial.items():
                total[mono] = total.get(mono, 0) + coeff * scale
    return MultivariatePolynomial(total)


# Square matrices up to 5 x 5 with entries in -2..2.
small_square_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
    )
).map(square)


@settings(max_examples=150, deadline=None)
@given(small_square_matrices, st.sampled_from(["det", "perm"]), st.booleans())
@example(square([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]), "det", False)
def test_leibniz_matches_per_permutation_reference(m, mode, diagonal_only):
    got = _leibniz(m, mode, 9, diagonal_only=diagonal_only)
    want = leibniz_reference(m, mode, diagonal_only=diagonal_only)
    assert got == want
    assert got.terms == want.terms
    assert render_multivariate(got, m.row_labels) == render_multivariate(want, m.row_labels)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(square),
    st.sampled_from(["det", "perm"]),
)
def test_symbolic_minor_poly_matches_sympy(m, mode):
    sympy = pytest.importorskip("sympy")
    n = m.shape[0]
    x = {(u, w): sympy.Symbol(f"x_{u}_{w}") for u in m.row_labels for w in m.col_labels}
    xm = sympy.Matrix(n, n, lambda r, c: x[m.row_labels[r], m.col_labels[c]] - m.rows[r][c])
    want = (xm.det(method="berkowitz") if mode == "det" else xm.per()) if n else 1
    got = sum(
        c * sympy.Mul(*(x[uw] for uw in mono)) for mono, c in symbolic_minor_poly(m, mode).terms.items()
    )
    assert sympy.expand(want - got) == 0


def test_symbolic_minor_poly_2x2():
    m = square([[1, 2], [3, 4]])
    p = symbolic_minor_poly(m, "det")
    # det(X - M) = (x00 - 1)(x11 - 4) - (x01 - 2)(x10 - 3)
    assert p.coefficient([("r0", "r0"), ("r1", "r1")]) == 1
    assert p.coefficient([("r0", "r1"), ("r1", "r0")]) == -1
    assert p.coefficient([("r0", "r0")]) == -4
    assert p.coefficient([("r0", "r1")]) == 3
    assert p.coefficient([]) == 1 * 4 - 2 * 3
    q = symbolic_minor_poly(m, "perm")
    assert q.coefficient([("r0", "r1"), ("r1", "r0")]) == 1
    assert q.coefficient([]) == 1 * 4 + 2 * 3


@settings(max_examples=40, deadline=None)
@given(square_matrices)
@example(adjacency_matrix(triangle()))
@example(laplacian_matrix(triangle()))
def test_symbolic_minor_poly_diagonal_substitution_matches_univariate(m):
    for mode in ("det", "perm"):
        assert symbolic_minor_poly(m, mode).substitute_diagonal() == char_poly_univariate(m, mode)


def test_integer_determinant():
    assert integer_determinant(square([[2, -1], [-1, 2]])) == 3
    assert integer_determinant(square([])) == 1
    # a zero pivot needs a row swap, which flips the sign
    assert integer_determinant(square([[0, 1], [1, 0]])) == -1
    assert integer_determinant(square([[0, 2, 1], [0, 1, 3], [4, 0, 0]])) == 4 * (2 * 3 - 1 * 1)
    assert integer_determinant(square([[1, 2], [2, 4]])) == 0
    assert integer_determinant(square([[0, 1], [0, 2]])) == 0
    # a cofactor's minor keeps different row and column labels
    minor = laplacian_matrix(triangle()).delete("v1", "v2")
    assert minor.row_labels != minor.col_labels
    assert integer_determinant(minor) == -3
    with pytest.raises(DomainError):
        integer_determinant(IntegerMatrix(("a",), ("a", "b"), ((1, 2),)))


def test_difference_requires_matching_labels():
    eye = ((1, 0), (0, 1))
    twice = ((2, 0), (0, 2))
    xy = IntegerMatrix(("x", "y"), ("x", "y"), eye)
    assert xy.sub(IntegerMatrix(("x", "y"), ("x", "y"), twice)).rows == ((-1, 0), (0, -1))
    for labels in [(("p", "q"), ("p", "q")), (("x", "y"), ("y", "x")), (("y", "x"), ("x", "y"))]:
        with pytest.raises(DomainError, match="labels do not match"):
            xy.sub(IntegerMatrix(*labels, twice))


@settings(max_examples=80, deadline=None)
@given(square_matrices)
def test_integer_determinant_matches_leibniz_constant_term(m):
    n = m.shape[0]
    assert integer_determinant(m) == (-1) ** n * char_poly_univariate(m, "det").coefficient(0)


@settings(max_examples=30, deadline=None)
@given(square_matrices)
def test_determinant_and_char_poly_match_sympy(m):
    sympy = pytest.importorskip("sympy")
    n = m.shape[0]
    sm = sympy.Matrix(n, n, [v for row in m.rows for v in row])
    assert integer_determinant(m) == sm.det(method="berkowitz")
    descending = sm.charpoly(sympy.Symbol("x")).all_coeffs()
    assert char_poly_univariate(m, "det").coeffs == tuple(int(c) for c in reversed(descending))


@pytest.mark.parametrize(
    "pairs",
    [[(k, (k + 1) % n) for k in range(n)] for n in range(3, 8)]
    + [list(itertools.combinations(range(n), 2)) for n in range(3, 7)],
    ids=[f"C{n}" for n in range(3, 8)] + [f"K{n}" for n in range(3, 7)],
)
def test_spanning_tree_count_matches_networkx(pairs):
    nx = pytest.importorskip("networkx")
    n = max(max(p) for p in pairs) + 1
    g = graph_structure([f"v{k}" for k in range(n)], [(f"v{a}", f"v{b}") for a, b in pairs])
    assert spanning_tree_count(g) == round(nx.number_of_spanning_trees(nx.Graph(pairs)))


def spanning_tree_count_reference(g):
    # ``spanning_tree_count`` as it was: every (n - 1)-subset of the edges
    # checked for a cycle by union-find.
    _require_graph(g)
    n = len(g.vertices)
    if n == 0:
        return 0
    if n == 1:
        return 1
    pos = g.vertex_pos
    pairs = [tuple(sorted((pos[a], pos[b]))) for a, b in (edge_endpoints(g, e) for e in g.edges)]
    count = 0
    for subset in itertools.combinations(range(len(pairs)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for k in subset:
            ra, rb = find(pairs[k][0]), find(pairs[k][1])
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        count += ok
    return count


@st.composite
def multigraphs(draw):
    """At most 6 vertices and 9 edges, loops and parallel edges allowed."""
    n = draw(st.integers(0, 6))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(ends, max_size=9)) if n else []
    vertices = [f"v{k}" for k in range(n)]
    return graph_structure(vertices, [(vertices[a], vertices[b]) for a, b in pairs])


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_spanning_tree_count_matches_the_subset_reference(g):
    assert spanning_tree_count(g) == spanning_tree_count_reference(g)


def test_spanning_tree_count_matches_the_subset_reference_on_corpora():
    graphs = connected_graph_corpus() + [bg.og.structure for bg in bidirected_corpus()]
    graphs += [rung(family, n).structure for family, n in [("K", 5), ("K", 6), ("C", 6), ("K", 7)]]
    for g in graphs:
        assert spanning_tree_count(g) == spanning_tree_count_reference(g)


def test_graph_orientation_requires_two_incidences():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e")])
    with pytest.raises(DomainError):
        graph_orientation(g)


# Malformed structures whose edge "e" holds two incidences, so only
# validation can reject them.
MALFORMED_GRAPHS = [
    pytest.param(
        IncidenceHypergraph.build(["a", "b"], ["e"], [("i", "ghost", "e"), ("j", "b", "e")]),
        id="unknown-vertex",
    ),
    pytest.param(
        IncidenceHypergraph.build(
            ["a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e"), ("k", "a", "ghost")]
        ),
        id="unknown-edge",
    ),
    pytest.param(
        IncidenceHypergraph.build(["a", "a", "b"], ["e"], [("i", "a", "e"), ("j", "b", "e")]),
        id="duplicate-vertex",
    ),
]


@pytest.mark.parametrize("g", MALFORMED_GRAPHS)
@pytest.mark.parametrize(
    "fn", [spanning_tree_count, sachs_char_poly, graph_orientation], ids=lambda f: f.__name__
)
def test_graph_entry_points_validate_first(g, fn):
    with pytest.raises(DomainError):
        fn(g)


def test_graph_orientation_makes_adjacency_count_edges():
    g = IncidenceHypergraph.build(
        ["a", "b"],
        ["e", "f"],
        [("i", "a", "e"), ("j", "b", "e"), ("k", "a", "f"), ("l", "b", "f")],
    )
    og = graph_orientation(g)
    assert adjacency_matrix(og).entry("a", "b") == 2


@pytest.mark.parametrize("row, col", [("ghost", "v1"), ("v1", "ghost")])
def test_entry_rejects_unknown_labels(row, col):
    with pytest.raises(DomainError, match="ghost"):
        laplacian_matrix(triangle()).entry(row, col)


def test_restrict_rejects_unknown_labels():
    lap = laplacian_matrix(triangle())
    assert lap.restrict(["v1", "v3"]).rows == ((2, -1), (-1, 2))
    with pytest.raises(DomainError, match="ghost"):
        lap.restrict(["ghost"])
    with pytest.raises(DomainError, match="ghost"):
        lap.restrict(["v1", "ghost"])
    # A cofactor's minor has rows v2, v3 and columns v1, v3: v2 is no
    # column, and v3 is read at its own row and column.
    minor = lap.delete("v1", "v2")
    assert minor.restrict(["v3"]).rows == ((2,),)
    with pytest.raises(DomainError, match="v2"):
        minor.restrict(["v2"])


def test_spanning_tree_count_and_cofactor():
    og = triangle()
    g = og.structure
    assert spanning_tree_count(g) == 3
    for u in g.vertices:
        for w in g.vertices:
            i = g.vertex_pos[u] + 1
            j = g.vertex_pos[w] + 1
            assert matrix_tree_cofactor(og, u, w) == (-1) ** (i + j) * 3


def test_sachs_matches_adjacency_char_poly():
    og = triangle()
    assert sachs_char_poly(og.structure) == char_poly_univariate(
        adjacency_matrix(og), "det"
    )


@pytest.mark.parametrize(
    "pairs",
    [
        pytest.param([("a", "b"), ("a", "b")], id="digon"),
        pytest.param([("a", "b"), ("a", "b"), ("b", "c"), ("c", "a")], id="triangle-doubled-edge"),
        pytest.param([("a", "b")] * 3, id="theta"),
    ],
)
def test_sachs_counts_parallel_edges_as_two_cycles(pairs):
    g = graph_structure(sorted({v for pair in pairs for v in pair}), pairs)
    want = char_poly_univariate(adjacency_matrix(graph_orientation(g)), "det")
    assert sachs_char_poly(g) == want


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: square([[1]]).mul(IntegerMatrix(("x",), ("y",), ((1,),))),
            "inner labels do not match",
            id="mul-labels",
        ),
        pytest.param(
            lambda: laplacian_matrix(triangle()).delete("ghost", "v1"),
            "no row 'ghost'",
            id="delete-unknown-row",
        ),
        pytest.param(
            lambda: symbolic_minor_poly(IntegerMatrix(("a",), ("b",), ((1,),)), "det"),
            "expected a square matrix",
            id="leibniz-labels",
        ),
        pytest.param(
            lambda: matrix_tree_cofactor(triangle(), "ghost", "v1"),
            "cofactor indices must be vertex ids",
            id="cofactor-unknown-vertex",
        ),
    ],
)
def test_bad_input_raises_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_symbolic_minor_poly_reads_the_oracle_cap_when_called(monkeypatch):
    monkeypatch.setattr(limits, "MAX_ORACLE_VERTICES", 2)
    with pytest.raises(ResourceLimitError, match="Leibniz expansion limited to 2 rows, got 3"):
        symbolic_minor_poly(laplacian_matrix(triangle()), "det")


def test_laplacian_check_carries_a_reproducer(monkeypatch):
    og = triangle()
    edge_pass = matrices._edge_pass

    def one_degree_off(og):
        h, degree, adjacency = edge_pass(og)
        degree[0] += 1
        return h, degree, adjacency

    monkeypatch.setattr(matrices, "_edge_pass", one_degree_off)
    with pytest.raises(InvariantError, match="differs from D - A") as info:
        laplacian_matrix(og)
    assert loads_oriented(info.value.reproducer["input"]) == og


def test_sachs_rejects_loops():
    g = IncidenceHypergraph.build(["a"], ["e"], [("i", "a", "e"), ("j", "a", "e")])
    with pytest.raises(DomainError):
        sachs_char_poly(g)


@settings(max_examples=30, deadline=None)
@given(small_oriented(max_vertices=3, max_edges=3, max_incidences=6))
def test_laplacian_decomposition_always_agrees(og):
    lap = laplacian_matrix(og)
    assert lap.rows == degree_matrix(og).sub(adjacency_matrix(og)).rows
    assert lap.rows == tuple(map(tuple, zip(*lap.rows)))
