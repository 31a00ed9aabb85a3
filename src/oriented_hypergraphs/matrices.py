"""Signed matrices of an oriented hypergraph and their exact polynomials.

Conventions. A one-incidence walk step contributes its sign product, a
two-incidence step (i, j) on a shared edge carries the sign
-sigma(i)*sigma(j). The vertex-edge matrix H sums sigma over each
(vertex, edge) cell; the adjacency matrix A sums the two-incidence step
signs over ordered incidence pairs with i != j (loops included, repeats
of a single incidence excluded); the degree matrix D puts
sum(sigma(i)^2) on the diagonal, which keeps L = H*H^T = D - A true
when 0 signs are present. Everything is plain integer arithmetic.

The one Leibniz loop, ``_leibniz``, is the oracle behind both
``symbolic_minor_poly`` and ``char_poly_univariate``; integer
determinants use Bareiss fraction-free elimination instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import limits
from .core import IncidenceHypergraph, OrientedHypergraph, require_valid
from .errors import DomainError, InvariantError, ResourceLimitError
from .polynomial import IntPolynomial, MultivariatePolynomial

__all__ = [
    "IntegerMatrix",
    "incidence_matrix",
    "degree_matrix",
    "adjacency_matrix",
    "laplacian_matrix",
    "weak_walk_sign",
    "permutation_sign",
    "symbolic_minor_poly",
    "char_poly_univariate",
    "integer_determinant",
    "matrix_tree_cofactor",
    "spanning_tree_count",
    "sachs_char_poly",
    "is_graph",
    "graph_orientation",
]


@dataclass(frozen=True)
class IntegerMatrix:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def entry(self, row: str, col: str) -> int:
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
        if self.shape != other.shape:
            raise DomainError("matrix difference: shapes differ")
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
        """Principal submatrix on the given row/column labels."""
        idx = [self.row_labels.index(x) for x in labels]
        return IntegerMatrix(
            tuple(labels),
            tuple(labels),
            tuple(tuple(self.rows[i][j] for j in idx) for i in idx),
        )


def incidence_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    g = og.structure
    rows = []
    for v in g.vertices:
        row = []
        for e in g.edges:
            row.append(sum(og.sigma(i) for i in g._inc_table.get((v, e), ())))
        rows.append(tuple(row))
    return IntegerMatrix(g.vertices, g.edges, tuple(rows))


def degree_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    g = og.structure
    deg = {v: 0 for v in g.vertices}
    for i in g.incidences:
        deg[i.vertex] += og.sigma(i.id) ** 2
    rows = tuple(
        tuple(deg[v] if v == w else 0 for w in g.vertices) for v in g.vertices
    )
    return IntegerMatrix(g.vertices, g.vertices, rows)


def adjacency_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    g = og.structure
    n = len(g.vertices)
    acc = [[0] * n for _ in range(n)]
    for e in g.edges:
        on_edge = g.incidences_on_edge[e]
        for i in on_edge:
            u = g.vertex_pos[g.vertex_of(i)]
            si = og.sigma(i)
            for j in on_edge:
                if i == j:
                    continue
                w = g.vertex_pos[g.vertex_of(j)]
                acc[u][w] -= si * og.sigma(j)
    return IntegerMatrix(g.vertices, g.vertices, tuple(tuple(r) for r in acc))


def laplacian_matrix(og: OrientedHypergraph) -> IntegerMatrix:
    """L = H*H^T, cross-checked against D - A on every call."""
    h = incidence_matrix(og)
    left = h.mul(h.transpose())
    right = degree_matrix(og).sub(adjacency_matrix(og))
    if left.rows != right.rows:
        raise InvariantError("H*H^T differs from D - A")
    return left


def weak_walk_sign(og: OrientedHypergraph, walk: Sequence[str]) -> int:
    """Sign of an alternating element/incidence walk.

    ``walk`` alternates objects (vertices or edges) with incidences,
    starting and ending on an object; each incidence must attach the two
    objects around it. The sign is (-1)^floor(n/2) times the product of
    the incidence signs, n being the number of incidences traversed.
    """
    g = og.structure
    if len(walk) % 2 == 0:
        raise DomainError("a walk alternates objects and incidences, so its length is odd")
    known = set(g.vertices) | set(g.edges)
    for k in range(0, len(walk), 2):
        if walk[k] not in known:
            raise DomainError(f"walk position {k}: unknown vertex or edge {walk[k]!r}")
    sign = 1
    n = 0
    for k in range(1, len(walk), 2):
        iid = walk[k]
        if iid not in g.incidence_pos:
            raise DomainError(f"walk position {k}: unknown incidence {iid!r}")
        ends = {g.vertex_of(iid), g.edge_of(iid)}
        if {walk[k - 1], walk[k + 1]} != ends:
            raise DomainError(f"walk position {k}: incidence {iid!r} does not join its neighbours")
        sign *= og.sigma(iid)
        n += 1
    return sign * (-1) ** (n // 2)


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
    """Leibniz expansion of det or perm of (X - M), collected into canonical form.

    X has a variable x[u,w] at every position, or only on the diagonal
    when ``diagonal_only`` is set. A factor without a variable scales its
    permutation's term, and a zero one ends it.
    """
    if mode not in ("det", "perm"):
        raise DomainError(f"mode must be 'det' or 'perm', got {mode!r}")
    if m.row_labels != m.col_labels:
        raise DomainError("expected a square matrix with matching row/column labels")
    n = len(m.row_labels)
    if n > max_vertices:
        raise ResourceLimitError(f"Leibniz expansion limited to {max_vertices} rows, got {n}")
    x = [[frozenset({(u, w)}) for w in m.col_labels] for u in m.row_labels]  # monomials x[u,w]
    total: dict[frozenset, int] = {}
    for images in itertools.permutations(range(n)):
        scale = permutation_sign(images) if mode == "det" else 1
        # expand prod_v (x[v, pi(v)] - M[v, pi(v)]) incrementally
        partial: dict[frozenset, int] = {frozenset(): 1}
        for v, w in enumerate(images):
            c = -m.rows[v][w]
            if diagonal_only and v != w:
                scale *= c
                if not scale:
                    break
                continue
            nxt: dict[frozenset, int] = {}
            for mono, coeff in partial.items():
                withvar = mono | x[v][w]
                nxt[withvar] = nxt.get(withvar, 0) + coeff
                if c:
                    nxt[mono] = nxt.get(mono, 0) + coeff * c
            partial = nxt
        else:
            for mono, coeff in partial.items():
                new = total.get(mono, 0) + coeff * scale
                if new:
                    total[mono] = new
                else:
                    total.pop(mono, None)
    return MultivariatePolynomial(total)


def symbolic_minor_poly(
    m: IntegerMatrix,
    mode: str,
    *,
    max_vertices: int = limits.MAX_ORACLE_VERTICES,
) -> MultivariatePolynomial:
    """det or perm of (X - M), X a matrix of variables, by Leibniz expansion.

    This is the oracle that every contributor-side computation is compared
    against, so it deliberately stays a direct sum over permutations.
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


def is_graph(g: IncidenceHypergraph) -> bool:
    """Every edge carries exactly two incidences; an invalid structure raises DomainError."""
    require_valid(g)
    return all(len(g.incidences_on_edge[e]) == 2 for e in g.edges)


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
    """Brute-force count of spanning trees by edge subsets."""
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

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for k in subset:
            a, b = pairs[k]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            count += 1
    return count


def sachs_char_poly(
    g: IncidenceHypergraph,
    *,
    max_vertices: int = limits.MAX_SACHS_VERTICES,
) -> IntPolynomial:
    """Characteristic polynomial of a loopless graph from its cycle covers.

    A cover partitions the vertices into isolated vertices, single edges,
    and cycles on distinct edges (a pair of parallel edges counts as a
    2-cycle). A cover with p non-trivial components, c of them cycles,
    and k isolated vertices adds (-1)^p * 2^c to the x^k coefficient.
    """
    _require_graph(g)
    n = len(g.vertices)
    if n > max_vertices:
        raise ResourceLimitError(f"cover enumeration limited to {max_vertices} vertices, got {n}")
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
