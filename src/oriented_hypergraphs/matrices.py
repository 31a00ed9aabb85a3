"""Signed matrices of an oriented hypergraph and their exact polynomials.

Conventions. A one-incidence walk step contributes its sign product, a
two-incidence step (i, j) on a shared edge carries the sign
-sigma(i)*sigma(j). The vertex-edge matrix H sums sigma over each
(vertex, edge) cell; the adjacency matrix A sums the two-incidence step
signs over ordered incidence pairs with i != j (loops included, repeats
of a single incidence excluded); the degree matrix D puts
sum(sigma(i)^2) on the diagonal, which keeps L = H*H^T = D - A true
when 0 signs are present. Everything is plain integer arithmetic.
H, D and A come from one pass over the edges, and the Laplacian is
cross-checked against D - A on every build.

The one Leibniz expansion, ``_leibniz``, is the oracle behind both
``symbolic_minor_poly`` and ``char_poly_univariate``.  It expands
det/perm(X - M) row by row and shares the expansion of the rows below
each set of used columns, so every permutation's term is summed once
from matrix entries alone.  Integer determinants use Bareiss
fraction-free elimination instead.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from . import limits
from .core import IncidenceHypergraph, OrientedHypergraph, require_valid
from .errors import DomainError, InvariantError
from .polynomial import IntPolynomial, MultivariatePolynomial

__all__ = [
    "IntegerMatrix",
    "incidence_matrix",
    "degree_matrix",
    "adjacency_matrix",
    "laplacian_matrix",
    "permutation_sign",
    "symbolic_minor_poly",
    "char_poly_univariate",
    "integer_determinant",
    "matrix_tree_cofactor",
    "spanning_tree_count",
    "sachs_char_poly",
    "graph_orientation",
]


@dataclass(frozen=True)
class IntegerMatrix:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def entry(self, row: str, col: str) -> int:
        if row not in self.row_labels or col not in self.col_labels:
            raise DomainError(f"no row {row!r} / column {col!r} in the matrix")
        return self.rows[self.row_labels.index(row)][self.col_labels.index(col)]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def transpose(self) -> "IntegerMatrix":
        n, m = self.shape
        return IntegerMatrix(
            self.col_labels,
            self.row_labels,
            tuple(tuple(self.rows[i][j] for i in range(n)) for j in range(m)),
        )

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.col_labels != other.row_labels:
            raise DomainError("matrix product: inner labels do not match")
        n, k = self.shape
        m = len(other.col_labels)
        rows = tuple(
            tuple(sum(self.rows[i][t] * other.rows[t][j] for t in range(k)) for j in range(m))
            for i in range(n)
        )
        return IntegerMatrix(self.row_labels, other.col_labels, rows)

    def sub(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.row_labels, self.col_labels) != (other.row_labels, other.col_labels):
            raise DomainError("matrix difference: labels do not match")
        return IntegerMatrix(
            self.row_labels,
            self.col_labels,
            tuple(
                tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def delete(self, row: str, col: str) -> "IntegerMatrix":
        """Minor obtained by removing one labelled row and column."""
        if row not in self.row_labels or col not in self.col_labels:
            raise DomainError(f"no row {row!r} / column {col!r} to delete")
        ri = self.row_labels.index(row)
        ci = self.col_labels.index(col)
        return IntegerMatrix(
            self.row_labels[:ri] + self.row_labels[ri + 1 :],
            self.col_labels[:ci] + self.col_labels[ci + 1 :],
            tuple(
                tuple(v for j, v in enumerate(r) if j != ci)
                for i, r in enumerate(self.rows)
                if i != ri
            ),
        )

    def restrict(self, labels: Sequence[str]) -> "IntegerMatrix":
        """Principal submatrix on the given labels, each a row and a column."""
        unknown = [x for x in labels if x not in self.row_labels or x not in self.col_labels]
        if unknown:
            raise DomainError(f"no rows/columns {unknown} to restrict to")
        ri = [self.row_labels.index(x) for x in labels]
        ci = [self.col_labels.index(x) for x in labels]
        return IntegerMatrix(
            tuple(labels),
            tuple(labels),
            tuple(tuple(self.rows[i][j] for j in ci) for i in ri),
        )


def _edge_pass(og: OrientedHypergraph) -> tuple[list[list[int]], list[int], list[list[int]]]:
    # One pass over the edges: the rows of H, the degrees (the diagonal
    # of D) and the rows of A.
    g = og.structure
    n = len(g.vertices)
    pos = g.vertex_pos
    sign = og.signs
    h = [[0] * len(g.edges) for _ in range(n)]
    degree = [0] * n
    adjacency = [[0] * n for _ in range(n)]
    for k, e in enumerate(g.edges):
        on_edge = [(pos[g.vertex_of(i)], sign[i]) for i in g.incidences_on_edge[e]]
        for a, (u, su) in enumerate(on_edge):
            h[u][k] += su
            degree[u] += su * su
            for b, (w, sw) in enumerate(on_edge):
                if a != b:
                    adjacency[u][w] -= su * sw
    return h, degree, adjacency


def incidence_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    h, _, _ = _edge_pass(og)
    return IntegerMatrix(og.vertices, og.edges, tuple(map(tuple, h)))


def degree_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    _, degree, _ = _edge_pass(og)
    n = len(degree)
    rows = tuple(tuple(degree[u] if u == w else 0 for w in range(n)) for u in range(n))
    return IntegerMatrix(og.vertices, og.vertices, rows)


def adjacency_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    _, _, adjacency = _edge_pass(og)
    return IntegerMatrix(og.vertices, og.vertices, tuple(map(tuple, adjacency)))


def laplacian_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    """L = H*H^T, cross-checked against D - A on every call.

    H, D and A come from one pass over the edges; H*H^T is taken as dot
    products of H's rows.
    """
    h, degree, adjacency = _edge_pass(og)
    rows = tuple(tuple(sum(map(operator.mul, hu, hw)) for hw in h) for hu in h)
    for u, (row, a) in enumerate(zip(rows, adjacency)):
        # L - (D - A) = L + A - D must vanish.
        a[u] -= degree[u]
        if any(map(operator.add, row, a)):
            raise InvariantError("H*H^T differs from D - A")
    return IntegerMatrix(og.vertices, og.vertices, rows)


def permutation_sign(images: Sequence[int]) -> int:
    """Sign of a permutation given as an image list, via cycle parity.

    Equal to (-1)^(number of even-length cycles).
    """
    seen = [False] * len(images)
    even_cycles = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = images[k]
            length += 1
        if length % 2 == 0:
            even_cycles += 1
    return -1 if even_cycles % 2 else 1


def _leibniz(
    m: IntegerMatrix, mode: str, max_vertices: int, *, diagonal_only: bool
) -> MultivariatePolynomial:
    """Leibniz expansion of det or perm of (X - M), one row at a time.

    X has a variable x[u,w] at every position, or only on the diagonal
    when ``diagonal_only`` is set; a position without one contributes
    its constant alone.  The rows k..n-1 placed on a set S of columns
    expand to E_k(S), the sum over c in S of
    s * (x[k,c] - M[k,c]) * E_(k+1)(S - c), where s = 1 for perm and,
    for det, s = (-1)^(columns of S - c left of c), the inversions that
    row k's choice makes with the rows below it.  Each permutation's
    term is summed exactly once, along the one chain of column sets it
    fills, and the rows below share one expansion per column set.  The
    expansions of a level are dropped once the level above is built.
    """
    if mode not in ("det", "perm"):
        raise DomainError(f"mode must be 'det' or 'perm', got {mode!r}")
    if m.row_labels != m.col_labels:
        raise DomainError("expected a square matrix with matching row/column labels")
    n = len(m.row_labels)
    limits.check(n, max_vertices, "Leibniz expansion", "rows")
    det = mode == "det"
    # Columns used by the rows below -> their expansion, each monomial a
    # MultivariatePolynomial mask (bit k*n + c is x[k, c]).
    level: dict[int, dict[int, int]] = {0: {0: 1}}
    for k in range(n - 1, -1, -1):
        row = m.rows[k]
        above: dict[int, dict[int, int]] = {}
        for used, below in level.items():
            for c in range(n):
                col = 1 << c
                if used & col:
                    continue
                s = -1 if det and (used & (col - 1)).bit_count() % 2 else 1
                const = -s * row[c]
                var = not diagonal_only or c == k
                if not (var or const):
                    continue
                out = above.setdefault(used | col, {})
                if var:
                    # Row k's variable is new to every monomial below.
                    x = 1 << (k * n + c)
                    out.update({mono | x: s * coeff for mono, coeff in below.items()})
                if const:
                    for mono, coeff in below.items():
                        new = out.get(mono, 0) + const * coeff
                        if new:
                            out[mono] = new
                        else:
                            del out[mono]
        level = above
    return MultivariatePolynomial._of(m.row_labels, level.get((1 << n) - 1, {}))


def symbolic_minor_poly(
    m: IntegerMatrix,
    mode: str,
    *,
    max_vertices: int = limits.MAX_ORACLE_VERTICES,
) -> MultivariatePolynomial:
    """det or perm of (X - M), X a matrix of variables, by Leibniz expansion.

    This is the oracle that every contributor-side computation is compared
    against.  It reads only matrix entries and sums every permutation's
    term once; only the expansion of the rows below a row is shared.
    """
    return _leibniz(m, mode, max_vertices, diagonal_only=False)


def char_poly_univariate(
    m: IntegerMatrix,
    mode: str,
    *,
    max_vertices: int = limits.MAX_ORACLE_VERTICES,
) -> IntPolynomial:
    """det or perm of (x*I - M) by Leibniz expansion."""
    return _leibniz(m, mode, max_vertices, diagonal_only=True).substitute_diagonal()


def integer_determinant(m: IntegerMatrix) -> int:
    """Determinant by Bareiss fraction-free elimination (exact divisions).

    Only the shape must be square: a cofactor's labels differ."""
    n, cols = m.shape
    if n != cols:
        raise DomainError("determinant needs a square matrix")
    a = [list(r) for r in m.rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def _require_graph(g: IncidenceHypergraph) -> None:
    require_valid(g)
    for e in g.edges:
        if len(g.incidences_on_edge[e]) != 2:
            raise DomainError(f"edge {e!r} has {len(g.incidences_on_edge[e])} incidences, want 2")


def graph_orientation(g: IncidenceHypergraph) -> OrientedHypergraph:
    """The +1/-1 orientation making every two-incidence step positive.

    Each edge's first incidence (canonical order) gets +1 and its second
    -1, so A(u,w) counts the edges joining u and w.
    """
    _require_graph(g)
    signs: dict[str, int] = {}
    for e in g.edges:
        a, b = g.incidences_on_edge[e]
        signs[a] = 1
        signs[b] = -1
    return OrientedHypergraph.build(g, signs)


def edge_endpoints(g: IncidenceHypergraph, e: str) -> tuple[str, str]:
    a, b = g.incidences_on_edge[e]
    return g.vertex_of(a), g.vertex_of(b)


def matrix_tree_cofactor(og: OrientedHypergraph, row_vertex: str, col_vertex: str) -> int:
    """det of the Laplacian with one labelled row and column removed."""
    g = og.structure
    _require_graph(g)
    if row_vertex not in g.vertex_pos or col_vertex not in g.vertex_pos:
        raise DomainError("cofactor indices must be vertex ids")
    lap = laplacian_matrix(og)
    return integer_determinant(lap.delete(row_vertex, col_vertex))


def spanning_tree_count(g: IncidenceHypergraph) -> int:
    """Brute-force count of spanning trees, grown edge by edge.

    The edges are taken in order, each skipped or, when its ends lie in
    different components, added; an edge that would close a cycle is
    never added, and a forest with n - 1 edges is a spanning tree.  No
    matrix is read.
    """
    _require_graph(g)
    n = len(g.vertices)
    if n == 0:
        return 0
    pos = g.vertex_pos
    pairs = [(pos[a], pos[b]) for a, b in (edge_endpoints(g, e) for e in g.edges)]

    def grow(k: int, component: list[int], missing: int) -> int:
        # Trees from the forest with these component labels, ``missing``
        # edges short, grown from edge k on.
        if not missing:
            return 1
        if len(pairs) - k < missing:
            return 0
        count = grow(k + 1, component, missing)
        a, b = component[pairs[k][0]], component[pairs[k][1]]
        if a != b:
            merged = [a if c == b else c for c in component]
            count += grow(k + 1, merged, missing - 1)
        return count

    return grow(0, list(range(n)), n - 1)


def sachs_char_poly(g: IncidenceHypergraph) -> IntPolynomial:
    """Characteristic polynomial of a loopless graph from its cycle covers.

    A cover partitions the vertices into isolated vertices, single edges,
    and cycles on distinct edges (a pair of parallel edges counts as a
    2-cycle). A cover with p non-trivial components, c of them cycles,
    and k isolated vertices adds (-1)^p * 2^c to the x^k coefficient.
    More than ``limits.MAX_SACHS_VERTICES`` vertices are refused.
    """
    _require_graph(g)
    n = len(g.vertices)
    limits.check(n, limits.MAX_SACHS_VERTICES, "cover enumeration", "vertices")
    pos = g.vertex_pos
    for e in g.edges:
        a, b = edge_endpoints(g, e)
        if a == b:
            raise DomainError(f"edge {e!r} is a loop; covers are defined for loopless graphs")
    # neighbour lists as (edge index, endpoint position) keyed by vertex position
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, e in enumerate(g.edges):
        a, b = edge_endpoints(g, e)
        adj[pos[a]].append((k, pos[b]))
        adj[pos[b]].append((k, pos[a]))
    coeffs = [0] * (n + 1)

    def cover(remaining: frozenset[int], p: int, c: int, isolated: int) -> None:
        if not remaining:
            coeffs[isolated] += (-1) ** p * (2**c)
            return
        v = min(remaining)
        rest = remaining - {v}
        # v isolated
        cover(rest, p, c, isolated + 1)
        # v covered by a single edge
        for k, w in adj[v]:
            if w in rest:
                cover(rest - {w}, p + 1, c, isolated)
        # v on a 2-cycle: two distinct parallel edges
        partners: dict[int, list[int]] = {}
        for k, w in adj[v]:
            if w in rest:
                partners.setdefault(w, []).append(k)
        for w, eks in partners.items():
            for a, b in itertools.combinations(sorted(eks), 2):
                cover(rest - {w}, p + 1, c + 1, isolated)
        # v on a cycle of length >= 3; walk paths v -> ... -> back to v.
        # Direction duplicates are avoided by requiring the successor of v
        # to have a smaller vertex position than the last vertex.
        def paths(at: int, used: frozenset[int], first_step: int, length: int) -> None:
            for k, w in adj[at]:
                if w == v and length >= 2:
                    if first_step < at:
                        cover(remaining - used - {v}, p + 1, c + 1, isolated)
                    continue
                if w in rest and w not in used:
                    paths(w, used | {w}, first_step, length + 1)

        for k, w in adj[v]:
            if w in rest:
                paths(w, frozenset({w}), w, 1)

    cover(frozenset(range(n)), 0, 0, 0)
    return IntPolynomial(coeffs)
