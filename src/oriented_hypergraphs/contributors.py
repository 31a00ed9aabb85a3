"""Permutation-shaped step families and the minor polynomials they carry.

A step family gives at most one length-1 step to each vertex, with
pairwise-distinct heads.  :func:`step_families` is the one enumerator
that hands out step families: a depth-first search over a map of each
tail vertex to its allowed steps, each step resolved once into an
integer row entry keyed by its head bit.  (The minor polynomials sum
the families block by block, :func:`_family_sums`, and hand none out.)
A contributor is a spanning family of
the full map, so its heads sweep out the whole vertex set bijectively;
a class member pins each class row to its steps onto the matching
column; the bidirected reduced elements (:mod:`.bidirected`) span the
non-row vertices with heads off the class columns.  The spanning
families are counted exactly (a permanent, by head mask) before any is
built.  Everything here is cross-checked against the Leibniz oracle in
:mod:`.matrices`.

The minor polynomials sum the step families grouped into blocks by
(tail set, head set).  The families of a block share their completions
into full permutations, and a completed family's sign splits as
eps_f * rel(c), a per-family part times a per-completion part, so a
block stamps each of its monomials once with its summed family weights
(the all-minors matrix-tree expansion, read as a sum over figures).
One sweep, :func:`_family_sums`, sums every family's weight into its
block: it takes the tails in order and extends every block sum reached
so far by each step of the next tail, so no family is visited on its own
or stored, and the blocks are stamped the same way on both paths.  A
:class:`MinorCatalog` stores the step rows and every block some family
reaches, opened ahead of time, for callers that evaluate one structure
under many signings (:func:`minor_polys_from_catalog`).  A one-shot answer
(:func:`total_minor_poly`, :func:`oracle_equivalence`) checks the
Leibniz oracle's row bound first, opens only the blocks its sweep left
nonzero, and only then expands each oracle and compares.  Both paths
bound the answer's terms before they open a block (:func:`_open_blocks`).

The characteristic polynomial needs only the closed families, whose
head set equals their tail set T: a closed family of weight w adds to
the coefficient of x^(n - |T|).  Such a family is a disjoint cover of T
by circles of strong steps and backsteps, and its term is a product
over these pieces (the Sachs-coefficient type of the all-minors
theorem).  :func:`univariate_from_contributors` sums the circles' weights
per vertex mask in one walk DP that lists no circle, gives each piece
its permutation-sign factor (as on the catalog's diagonal), combines
disjoint pieces by subset convolution over vertex masks, and checks the
sum against the matrix.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from math import factorial
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import limits
from .core import IncidenceHypergraph, LazySequence, OrientedHypergraph, require_valid
from .errors import DomainError, InvariantError
from .jsonio import dumps_oriented
from .matrices import (
    adjacency_matrix,
    char_poly_univariate,
    laplacian_matrix,
    permutation_sign,
    symbolic_minor_poly,
)
from .polynomial import IntPolynomial, MultivariatePolynomial, _bits

COMBOS: tuple[tuple[str, str], ...] = (
    ("adjacency", "det"),
    ("adjacency", "perm"),
    ("laplacian", "det"),
    ("laplacian", "perm"),
)


def _require_combo(target: str, mode: str) -> None:
    if target not in ("adjacency", "laplacian"):
        raise DomainError(f"target must be 'adjacency' or 'laplacian', got {target!r}")
    if mode not in ("det", "perm"):
        raise DomainError(f"mode must be 'det' or 'perm', got {mode!r}")


@dataclass(frozen=True)
class OneStep:
    """A length-1 weak walk: tail vertex, two incidences on one edge, head."""

    tail: str
    tail_incidence: str
    edge: str
    head_incidence: str
    head: str

    @property
    def is_backstep(self) -> bool:
        return self.tail_incidence == self.head_incidence


# A step family, and so a contributor: one step per tail, in tail order.
Steps = tuple[OneStep, ...]


def is_strong(c: Steps) -> bool:
    """Backstep-free; the cycle-cover analog."""
    return all(not s.is_backstep for s in c)


@dataclass(frozen=True)
class ComponentProfile:
    """Component census of a contributor (or of a reduced remnant).

    Non-backstep steps always close up into disjoint circles, so the
    census is backsteps plus circles sorted by length parity and by the
    sign of their step-sign product.
    """

    backsteps: int
    loops: int
    odd_circles: int
    even_circles: int
    positive_circles: int
    negative_circles: int
    zero_circles: int

    @property
    def circles(self) -> int:
        return self.odd_circles + self.even_circles


def vertex_steps(
    g: IncidenceHypergraph, vertex: str, *, strong_only: bool = False
) -> tuple[OneStep, ...]:
    """All steps tailed at ``vertex``, in a fixed deterministic order.

    A backstep reuses its tail incidence; an adjacency step pairs the
    tail incidence with any other incidence on the same edge, loops
    included.  ``strong_only`` drops the backsteps.
    """
    out: list[OneStep] = []
    for edge in g.edges:
        tails = g.inc(vertex, edge)
        if not tails:
            continue
        on_edge = g.incidences_on_edge[edge]
        for t in tails:
            if not strong_only:
                out.append(OneStep(vertex, t, edge, t, vertex))
            for h in on_edge:
                if h != t:
                    out.append(OneStep(vertex, t, edge, h, g.vertex_of(h)))
    return tuple(out)


def _all_steps(
    g: IncidenceHypergraph, *, strong_only: bool = False
) -> dict[str, tuple[OneStep, ...]]:
    return {v: vertex_steps(g, v, strong_only=strong_only) for v in g.vertices}


class Figures(LazySequence):
    """Step families as an exact, read-only sequence of step tuples.

    The enumerator writes each figure as the step indices of its
    ``width`` tails, in tail order, into one flat array over its step
    ``table``; a skipped tail holds ``len(table)``.  The array's typecode
    is the narrowest that holds those indices.  With no tail there is
    one figure, the empty one.  Item k is built as a tuple of the
    table's steps, in tail order, when it is read.
    """

    def __init__(self, table: Steps, width: int, flat: array) -> None:
        self._table = table
        self._width = width
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // self._width if self._width else 1

    def _item(self, k: int) -> Steps:
        table, skip = self._table, len(self._table)
        start = k * self._width
        return tuple([table[i] for i in self._flat[start : start + self._width] if i != skip])


def step_families(
    options: Mapping[str, Sequence[OneStep]], *, spanning: bool = False
) -> Figures:
    """Every step family drawn from ``options``, as a :class:`Figures` sequence.

    ``options`` maps each tail vertex, in order, to the steps it may take.
    Each tail is either skipped or given one of its steps to a head not
    used yet, skipping first.  ``spanning`` forbids skipping, so every
    tail gets a step.  The search is depth-first over integer rows, each
    step resolved once into its head bit and its index in the table of
    every step of ``options``; it runs in full here, and only the reads
    of the returned sequence build step tuples.
    """
    table = tuple(s for steps in options.values() for s in steps)
    bits = {v: 1 << k for k, v in enumerate(options)}
    index = itertools.count()
    rows = [
        [(bits.setdefault(s.head, 1 << len(bits)), next(index)) for s in steps]
        for steps in options.values()
    ]
    skip = len(table)
    # The narrowest typecode whose items hold every index and ``skip``.
    flat = array(next(c for c in "BHILQ" if skip < 1 << 8 * array(c).itemsize))
    path = [skip] * len(rows)
    last = len(rows) - 1

    def extend(k: int, heads: int) -> None:
        # Row k takes each of its steps to a free head (after a skip,
        # unless spanning); the last row writes its figures in place.
        if k == last:
            if not spanning:
                flat.fromlist(path)
            for bit, i in rows[k]:
                if not heads & bit:
                    path[k] = i
                    flat.fromlist(path)
        else:
            if not spanning:
                extend(k + 1, heads)
            for bit, i in rows[k]:
                if not heads & bit:
                    path[k] = i
                    extend(k + 1, heads | bit)
        path[k] = skip

    if rows:
        extend(0, 0)
    return Figures(table, len(rows), flat)


def _steps_between(options: Mapping[str, Sequence[OneStep]]) -> list[list[list[OneStep]]]:
    # The steps of ``options`` by (tail position, head position); every
    # head must itself be a tail.
    pos = {v: j for j, v in enumerate(options)}
    n = len(pos)
    between: list[list[list[OneStep]]] = [[[] for _ in range(n)] for _ in range(n)]
    for row, opts in zip(between, options.values()):
        for s in opts:
            row[pos[s.head]].append(s)
    return between


def _family_counts(options: Mapping[str, Sequence[OneStep]]) -> list[int]:
    """The number of step families of ``options`` by head mask.

    A DP over the tails in order: each tail is either skipped or steps
    to a head not used yet, weighted by its number of steps there.  The
    full-mask entry counts the spanning families (the permanent of the
    step-multiplicity matrix), read by the contributor and activation-class
    guards; the sum, read by ``MinorCatalog.families``, counts every family.
    """
    counts = [0] * (1 << len(options))
    counts[0] = 1
    for row in _steps_between(options):
        steps = [(1 << j, len(between)) for j, between in enumerate(row) if between]
        # Descending, so each mask is read before a smaller one adds to it.
        for mask in range(len(counts) - 1, -1, -1):
            if counts[mask]:
                for bit, k in steps:
                    if not mask & bit:
                        counts[mask | bit] += counts[mask] * k
    return counts


def _circles(options: Mapping[str, Sequence[OneStep]], signs: Mapping[str, int]) -> dict[int, int]:
    """The summed weight W of the circles of the backstep-free ``options``, by vertex mask.

    A circle is a closed walk of steps through pairwise-distinct vertices
    (a loop is one of length 1); its length is the size of its mask and
    its weight W is the product of the signs of every traversed
    incidence.

    Each circle is taken once, from its lowest vertex s.  A table of the
    walks out of s (over exactly the vertices of a mask above s, ending
    at v) holds their summed weight, grown one step at a time by the
    summed weight of the steps from each tail to each head; a step from v
    back to s closes each walk into a circle on ``mask | 1 << s``.  One
    start vertex's table is held at a time, no circle is built, and every
    nonempty mask is a key.
    """
    between = [
        [sum(signs[t.tail_incidence] * signs[t.head_incidence] for t in steps) for steps in row]
        for row in _steps_between(options)
    ]
    n = len(between)
    sums: dict[int, int] = {}
    for s in range(n):
        sums[1 << s] = between[s][s]
        walks: dict[int, list[int]] = {}
        for m in range(1, 1 << (n - s - 1)):
            mask = m << (s + 1)
            row = [0] * n
            for w in _bits(mask):
                rest = mask ^ (1 << w)
                if rest:
                    row[w] = sum(walks[rest][v] * between[v][w] for v in _bits(rest))
                else:
                    row[w] = between[s][w]
            walks[mask] = row
            sums[mask | 1 << s] = sum(row[w] * between[w][s] for w in _bits(mask))
    return sums


def _cover_sums(pieces: Mapping[int, int], n: int) -> list[int]:
    """Sum over disjoint covers of each vertex mask S by the given pieces.

    ``pieces`` maps a vertex mask to the summed factor of its pieces; a
    cover's term is the product of its pieces' factors.  The subset
    convolution f(S) = sum over C containing min S of g(C) * f(S - C),
    f(empty) = 1, counts each cover once.
    """
    by_low: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for mask, factor in pieces.items():
        if factor:
            by_low[(mask & -mask).bit_length() - 1].append((mask, factor))
    f = [0] * (1 << n)
    f[0] = 1
    for cover in range(1, 1 << n):
        f[cover] = sum(
            factor * f[cover ^ mask]
            for mask, factor in by_low[(cover & -cover).bit_length() - 1]
            if mask & cover == mask
        )
    return f


def _contributors_from(
    og: OrientedHypergraph,
    options: Mapping[str, Sequence[OneStep]],
    max_vertices: int,
    max_count: int,
    replay: dict,
) -> Figures:
    # Guard on the vertex count, then on the exact count, before any
    # contributor is enumerated; a zero count skips the dead-end search.
    # The search must then find exactly that many; a miss raises with
    # ``og`` as JSON and the ``replay`` arguments that chose ``options``.
    limits.check(len(options), max_vertices, "contributor enumeration", "vertices")
    count = _family_counts(options)[-1]
    limits.check(count, max_count, "contributor enumeration", "contributors")
    if not count:
        return Figures((), len(options), array("B"))
    figures = step_families(options, spanning=True)
    if len(figures) != count:
        raise InvariantError(
            f"contributor enumeration found {len(figures)} contributors, expected {count}",
            reproducer={"input": dumps_oriented(og), **replay},
        )
    return figures


def enumerate_contributors(
    og: OrientedHypergraph,
    *,
    strong_only: bool = False,
    max_vertices: int = limits.MAX_CONTRIBUTOR_VERTICES,
    max_count: int = limits.MAX_CONTRIBUTORS,
) -> Figures:
    """Every contributor of ``og``, as :func:`step_families` gives them.

    The exact count is computed first, so more than ``max_count``
    contributors raise :class:`ResourceLimitError` before any is
    enumerated.  The contributors come as :class:`Figures`, an exact,
    read-only sequence whose step tuples are built when read.
    """
    return _contributors_from(
        og,
        _all_steps(og.structure, strong_only=strong_only),
        max_vertices,
        max_count,
        {"strong_only": strong_only},
    )


def contributor_sign(og: OrientedHypergraph, c: Steps) -> int:
    """Product of incidence signs along all steps, backstep incidence twice.

    Zero exactly when some traversed incidence carries a 0 sign; any step
    family can be weighed.
    """
    sign = 1
    for s in c:
        sign *= og.sigma(s.tail_incidence) * og.sigma(s.head_incidence)
        if not sign:
            return 0
    return sign


def _map_cycles(f: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycles of the partial map ``f`` on positions, in position order.

    ``f[k]`` is the image of k, or -1 off the domain.  Each cycle starts
    at the first of its positions that a walk from the positions, taken
    in order, reaches; a walk that leaves the domain closes no cycle.
    """
    walked = [False] * len(f) + [True]  # the slot at -1 ends every walk
    cycles: list[tuple[int, ...]] = []
    for start in range(len(f)):
        if walked[start]:
            continue
        path = []
        v = start
        while not walked[v]:
            walked[v] = True
            path.append(v)
            v = f[v]
        if v in path:
            cycles.append(tuple(path[path.index(v) :]))
    return cycles


def component_profile(og: OrientedHypergraph, c: Steps) -> ComponentProfile:
    """Census of backsteps and circles, with per-circle parity and sign.

    The steps must close up (every non-backstep lies on a cycle of the
    non-backstep head map), which holds for contributors and for
    anything produced by :func:`reduce_contributor` or backstep deletion.
    """
    at = {s.tail: k for k, s in enumerate(c)}
    if len(at) != len(c):
        raise DomainError("two steps share a tail vertex")
    cycles = _map_cycles([-1 if s.is_backstep else at.get(s.head, -1) for s in c])
    on_cycle = {k for cycle in cycles for k in cycle}
    for k, s in enumerate(c):
        if not s.is_backstep and k not in on_cycle:
            raise DomainError(f"steps do not close into circles at {s.tail!r}")
    backsteps = sum(s.is_backstep for s in c)
    loops = odd = even = pos = neg = zero = 0
    for cycle in cycles:
        circle_sign = 1
        for k in cycle:
            step = c[k]
            circle_sign *= -og.sigma(step.tail_incidence) * og.sigma(step.head_incidence)
        loops += len(cycle) == 1
        if len(cycle) % 2:
            odd += 1
        else:
            even += 1
        if circle_sign > 0:
            pos += 1
        elif circle_sign < 0:
            neg += 1
        else:
            zero += 1
    return ComponentProfile(backsteps, loops, odd, even, pos, neg, zero)


@dataclass(frozen=True)
class MinorClass:
    """Ordered row vertices paired with ordered column vertices."""

    u: tuple[str, ...]
    w: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.u) != len(self.w):
            raise DomainError("row and column tuples must have equal length")
        if len(set(self.u)) != len(self.u):
            raise DomainError("row vertices repeat")
        if len(set(self.w)) != len(self.w):
            raise DomainError("column vertices repeat")

    @staticmethod
    def build(og: OrientedHypergraph, u: Iterable[str], w: Iterable[str]) -> "MinorClass":
        cls = MinorClass(tuple(u), tuple(w))
        known = set(og.vertices)
        for v in (*cls.u, *cls.w):
            if v not in known:
                raise DomainError(f"unknown vertex {v!r} in class")
        return cls

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.u, self.w))


def class_contributors(
    og: OrientedHypergraph,
    cls: MinorClass,
    *,
    strong_only: bool = False,
    max_vertices: int = limits.MAX_CONTRIBUTOR_VERTICES,
    max_count: int = limits.MAX_CONTRIBUTORS,
) -> Figures:
    """Contributors whose step at each u_i heads to the matching w_i.

    Each class row keeps only its steps to w_i, so the exact count (and
    the ``max_count`` guard) covers the class members alone.  They come
    as :class:`Figures`, as from :func:`enumerate_contributors`.
    """
    options = _all_steps(og.structure, strong_only=strong_only)
    for u, w in cls.pairs():
        if u not in options:
            raise DomainError(f"no step tailed at {u!r}")
        options[u] = tuple(s for s in options[u] if s.head == w)
    replay = {"strong_only": strong_only, "class": {"rows": list(cls.u), "columns": list(cls.w)}}
    return _contributors_from(og, options, max_vertices, max_count, replay)


def reduce_contributor(c: Steps, cls: MinorClass) -> Steps:
    """The steps of ``c`` off the class rows, each row checked to head to its column."""
    heads = {s.tail: s.head for s in c}
    for u, w in cls.pairs():
        if u not in heads:
            raise DomainError(f"no step tailed at {u!r}")
        if heads[u] != w:
            raise DomainError(f"contributor sends {u!r} to {heads[u]!r}, class wants {w!r}")
    return tuple(s for s in c if s.tail not in cls.u)


def class_permutation(reduced: Steps, cls: MinorClass) -> dict[str, str]:
    """Head map of any extension: surviving heads plus the class pairs."""
    perm = {s.tail: s.head for s in reduced}
    perm.update(cls.pairs())
    return perm


@dataclass(frozen=True)
class StepFamily:
    """Steps on a subset of tail vertices with pairwise-distinct heads."""

    steps: Steps
    strong: bool


@dataclass(frozen=True)
class MinorBlock:
    """A tail set T and a head set H that some step family reaches, opened.

    Every family of the block leaves the same open rows V - T and open
    columns V - H, so all of them complete through the same bijections
    c between the two.  With c0 sending the i-th open row to the i-th
    open column, the sign of a completed head map h_f + c splits as
    eps_f * rel(c), eps_f = sign(h_f + c0) and rel(c) = sign(c0^-1 c).

    ``key`` is the block's slot in :func:`_family_sums` (its strong
    families; ``key + 1`` holds those with a backstep); ``odd`` records
    whether |T| is odd, the sign of the Laplacian factor; ``sign`` is
    c0's part of eps_f (see :func:`_open_block`); ``completions`` holds
    (monomial, rel(c)) per bijection c, the monomial as a
    :class:`MultivariatePolynomial` bitmask over the structure's vertex
    order.  No family is stored.
    """

    key: int
    odd: bool
    sign: int
    completions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MinorCatalog:
    """The signing-independent part of all four minor polynomials.

    Built for callers that evaluate one structure under many signings
    (criterion 3's corpus).  ``rows`` holds the structure's step rows and
    ``blocks`` every block some family reaches, opened once, so an
    evaluation only sums the families (:func:`_family_sums`) and stamps
    these blocks.  The catalog stores no family; ``families`` lists them
    as figures, in enumeration order, enumerated when first read once
    their count passes ``limits.MAX_CONTRIBUTORS``.

    Families through incidences missing from the evaluation signs score
    zero and drop out, which is exactly the zero-loading convention, so
    the catalog of a raw structure evaluates a zero-loaded orientation
    correctly without materializing the padding.
    """

    structure: IncidenceHypergraph
    rows: StepRows
    blocks: tuple[MinorBlock, ...]

    @cached_property
    def families(self) -> tuple[StepFamily, ...]:
        options = _all_steps(self.structure)
        limits.check(sum(_family_counts(options)), limits.MAX_CONTRIBUTORS, "minor catalog", "families")
        return tuple(StepFamily(steps, is_strong(steps)) for steps in step_families(options))


# Tail k's steps: (head position, tail incidence position, head
# incidence position, backstep) each.
StepRows = list[list[tuple[int, int, int, bool]]]
# Bijections by open size, as grid getters with their signs; see
# _completion_table.
CompletionTable = dict[int, list[tuple[Callable[[list[int]], tuple[int, ...]], int]]]


def _counted_rows(structure: IncidenceHypergraph, max_vertices: int) -> StepRows:
    """The step rows of ``structure``, in vertex order, once its vertex guard passes.

    The guard alone bounds the sweep over the rows, whose 2^(2n+1) keys
    do not grow with the families; the answer is bounded after it.
    """
    require_valid(structure)
    limits.check(len(structure.vertices), max_vertices, "minor catalog", "vertices")
    pos = structure.vertex_pos
    at = structure.incidence_pos
    return [
        [(pos[s.head], at[s.tail_incidence], at[s.head_incidence], s.is_backstep) for s in steps]
        for steps in _all_steps(structure).values()
    ]


def _completion_table(sizes: Iterable[int]) -> CompletionTable:
    # Every permutation p of range(m), m in ``sizes``, with its sign: one
    # table per call, read by every block whose open size is m.  p is a
    # getter of the entries (i, p[i]) of an m-by-m grid in row order, and of
    # its two trailing slots, which hold 0 so that every getter gives a tuple.
    return {
        m: [
            (itemgetter(*[i * m + j for i, j in enumerate(p)], m * m, m * m), permutation_sign(p))
            for p in itertools.permutations(range(m))
        ]
        for m in sizes
    }


def _open_block(n: int, key: int, table: CompletionTable) -> MinorBlock:
    """The block at :func:`_family_sums` slot ``key``, with its c0 sign and completions.

    By the Laplace expansion, eps_f is (-1)^(sum of the open rows and
    columns) times the parity of the inversions of f's heads in tail
    order; the first is the block's ``sign``, and each bijection c of the
    open rows onto the open columns gives a (monomial, rel(c)).
    """
    tails, heads = key >> (n + 1), key >> 1
    open_rows = [r for r in range(n) if not tails >> r & 1]
    open_cols = [c for c in range(n) if not heads >> c & 1]
    # The MultivariatePolynomial mask of x[open_rows[i], open_cols[j]] at
    # i * m + j, then the two 0 slots.
    grid = [1 << (r * n + c) for r in open_rows for c in open_cols] + [0, 0]
    completions = tuple((sum(get(grid)), sign) for get, sign in table[len(open_rows)])
    sign = -1 if sum(open_rows + open_cols) & 1 else 1
    return MinorBlock(key, tails.bit_count() % 2 == 1, sign, completions)


def _open_blocks(n: int, sums: tuple[list[int], list[int]]) -> Iterator[MinorBlock]:
    """The blocks that :func:`_family_sums`' ``sums`` leave nonzero, opened as they are read.

    A block holds (n - |T|)! completions and no two share a monomial, so
    their sum bounds every stamped polynomial's terms; more than
    ``limits.MAX_TERMS`` raise before the table of their open sizes is built.
    """
    keys = sorted({key & ~1 for key in itertools.compress(itertools.count(), map(or_, *sums))})
    sizes = [n - (key >> (n + 1)).bit_count() for key in keys]
    limits.check(sum(map(factorial, sizes)), limits.MAX_TERMS, "minor polynomials", "terms")
    table = _completion_table(set(sizes))
    return (_open_block(n, key, table) for key in keys)


def minor_catalog(structure: IncidenceHypergraph) -> MinorCatalog:
    """The step rows of ``structure`` and every block a family reaches, opened.

    More than ``limits.MAX_MINOR_VERTICES`` vertices are refused
    (:func:`_counted_rows`).  One sweep with every sign 1, where each
    family weighs 1, finds the reached blocks from their family counts,
    and their terms, which bound every signing's, pass
    ``limits.MAX_TERMS`` before any is opened.  No family is kept.
    """
    rows = _counted_rows(structure, limits.MAX_MINOR_VERTICES)
    sums = _family_sums(rows, [1] * len(structure.incidences))
    return MinorCatalog(structure, rows, tuple(_open_blocks(len(rows), sums)))


def _stamp(
    labels: tuple[str, ...],
    sums: tuple[list[int], list[int]],
    blocks: Iterable[MinorBlock],
    combos: Iterable[tuple[str, str]] = COMBOS,
) -> dict[tuple[str, str], MultivariatePolynomial]:
    """The asked-for minor polynomials from the sweep's ``sums``, block by block.

    A block's four sums, read from :func:`_family_sums`'s (total,
    signed) at its key, are sum(w) and sum(eps_f * w) over all its
    families, then over its strong ones.  The all-family sums are
    negated when |T| is odd (the Laplacian's (-1)^steps).  Every
    completion then gets the plain sum for perm and rel(c) times the
    eps-sum for det; adjacency takes the strong sums.  A monomial fixes
    its open rows and columns, so one block writes it; rel(c) is +-1, so
    only the blocks with a nonzero sum write, straight into the returned
    terms, and no zero coefficient is filtered out.
    """
    total, signed = sums
    acc: dict[tuple[str, str], dict[int, int]] = {combo: {} for combo in combos}
    # Per polynomial: its terms, its slot in a block's sums, whether it
    # takes rel(c) (det) and whether an odd |T| negates it (Laplacian).
    picks = [
        (terms, 2 * (target == "adjacency") + (mode == "det"), mode == "det", target == "laplacian")
        for (target, mode), terms in acc.items()
    ]
    for block in blocks:
        key, sign = block.key, block.sign
        strong = (total[key], sign * signed[key])
        block_sums = (strong[0] + total[key + 1], strong[1] + sign * signed[key + 1], *strong)
        for terms, slot, det, laplacian in picks:
            s = -block_sums[slot] if block.odd and laplacian else block_sums[slot]
            if s and det:
                for mono, rel in block.completions:
                    terms[mono] = rel * s
            elif s:
                for mono, _ in block.completions:
                    terms[mono] = s
    return {combo: MultivariatePolynomial._of(labels, terms) for combo, terms in acc.items()}


def minor_polys_from_catalog(
    catalog: MinorCatalog, signs: Mapping[str, int]
) -> dict[tuple[str, str], MultivariatePolynomial]:
    """Evaluate all four (target, mode) minor polynomials in one sweep.

    :func:`_family_sums` weighs every family under ``signs`` over the
    catalog's rows, and :func:`_stamp` writes each block's sums into its
    completions, as :func:`_one_pass` does for a one-shot answer.
    """
    sign = [signs.get(i.id, 0) for i in catalog.structure.incidences]
    sums = _family_sums(catalog.rows, sign)
    return _stamp(catalog.structure.vertices, sums, catalog.blocks)


def _family_sums(rows: StepRows, sign: Sequence[int]) -> tuple[list[int], list[int]]:
    """The one figure sweep: every step family's weight, summed by block.

    ``total[key]`` and ``signed[key]`` sum w and e over the families of
    one key: the tail mask above bit n, the head mask in bits 1..n and
    the backstep flag in bit 0.  A family's weight w is the product of
    its steps' sign products; its signed weight e is +-w by the parity of
    its heads' inversions in tail order.

    The sweep takes the tails in order.  The keys below tail k's bit are
    exactly those whose tails all lie before k, and each of them that
    holds a nonzero sum extends by each of tail k's steps to a head it
    has not used: the step's key bits join the key's, its sign product
    scales both sums, and the key's heads after the step's head flip e
    by their parity.  A step that weighs 0 adds nothing.  No family is
    visited on its own, so the work grows with the 2^(2n+1) keys times
    the steps of a tail, not with the family count.  ``sign`` holds -1,
    0 or +1 per incidence, the signing contract of the JSON format.
    """
    if not set(sign) <= {-1, 0, 1}:
        raise DomainError("incidence signs must be -1, 0, or +1")
    n = len(rows)
    total = [0] * (1 << (2 * n + 1))
    signed = [0] * (1 << (2 * n + 1))
    total[0] = signed[0] = 1  # the empty family
    for k, row in enumerate(rows):
        tail = 1 << (n + 1 + k)
        # (head bit, key bits, mask of the heads after this one, sw) per step.
        steps = [
            (2 << h, tail | 2 << h | back, (1 << (n + 1)) - (4 << h), sw)
            for h, t, h_at, back in row
            if (sw := sign[t] * sign[h_at])
        ]
        if not steps:
            continue
        # Every key read here is below ``tail`` and every key written is
        # above it, so the sweep reads no sum it has changed.
        for key in itertools.compress(range(tail), map(or_, total, signed)):
            w, e = total[key], signed[key]
            for head, bits, after, sw in steps:
                if not key & head:
                    total[key | bits] += w * sw
                    signed[key | bits] += -e * sw if (key & after).bit_count() & 1 else e * sw
    return total, signed


def _one_pass(
    structure: IncidenceHypergraph,
    rows: StepRows,
    signs: Mapping[str, int],
    combos: Iterable[tuple[str, str]] = COMBOS,
) -> dict[tuple[str, str], MultivariatePolynomial]:
    """The ``combos`` minor polynomials from one sweep over the families, none stored.

    The evaluation of :func:`minor_polys_from_catalog`, with no catalog:
    :func:`_family_sums` weighs every family under ``signs`` (missing
    incidences weigh 0, the zero-loading convention), and only the
    blocks the sweep left nonzero are opened, once their terms pass
    ``limits.MAX_TERMS``, one by one as they are stamped.
    """
    sums = _family_sums(rows, [signs.get(i.id, 0) for i in structure.incidences])
    return _stamp(structure.vertices, sums, _open_blocks(len(rows), sums), combos)


def total_minor_poly(
    og: OrientedHypergraph,
    target: str,
    mode: str,
    *,
    max_vertices: int = limits.MAX_MINOR_VERTICES,
) -> MultivariatePolynomial:
    """Minor polynomial of the chosen matrix and mode, from step families.

    The one-pass route: the families are weighed in one sweep
    (:func:`_one_pass`) without a catalog, the answer's terms bounded,
    and only this pair stamped.  The Leibniz oracle's row bound is
    checked before the sweep, so an input it would refuse is refused
    before any figure is weighed; the oracle is expanded after the
    sweep and compared.  The two must match term for term, this
    module's central contract; a mismatch raises an :class:`InvariantError`
    that carries the structure as JSON and the (target, mode) pair, as in
    :func:`univariate_from_contributors`.
    """
    _require_combo(target, mode)
    rows = _counted_rows(og.structure, max_vertices)
    limits.check(len(rows), limits.MAX_ORACLE_VERTICES, "Leibniz expansion", "rows")
    poly = _one_pass(og.structure, rows, og.signs, [(target, mode)])[(target, mode)]
    m = laplacian_matrix(og) if target == "laplacian" else adjacency_matrix(og)
    if poly != symbolic_minor_poly(m, mode, max_vertices=max_vertices):
        raise InvariantError(
            f"figure route disagrees with the Leibniz expansion for {target}/{mode}",
            reproducer={"input": dumps_oriented(og), "target": target, "mode": mode},
        )
    return poly


def univariate_from_contributors(
    og: OrientedHypergraph,
    target: str,
    mode: str,
    *,
    max_vertices: int = limits.MAX_MINOR_VERTICES,
) -> IntPolynomial:
    """Characteristic polynomial by circle covers, checked against the matrix.

    A closed step family (head set = tail set T) is a disjoint union of
    circles of strong steps and, on the Laplacian, backsteps; its term
    is a product over these pieces and adds to the coefficient of
    x^(n - |T|).  A circle of length L and weight W gives W, times
    (-1)^(L-1) for det (the sign of its cyclic permutation) and (-1)^L on
    the Laplacian; a backstep gives -sigma^2.  These are the factors on
    the diagonal of :func:`total_minor_poly`.  The factors are summed per
    vertex mask, the circles' W by one weighted walk DP
    (:func:`_circles`) that lists none of them, and disjoint pieces
    combined by subset convolution (:func:`_cover_sums`).  No matrix entry is
    read; the result must equal the Leibniz expansion of the matrix,
    else an :class:`InvariantError` carries the structure as JSON and
    the (target, mode) pair so the failure can be replayed.
    """
    _require_combo(target, mode)
    g = og.structure
    n = len(g.vertices)
    limits.check(n, max_vertices, "univariate contributor route", "vertices")
    laplacian = target == "laplacian"
    det = mode == "det"
    pieces = _circles(_all_steps(g, strong_only=True), og.signs)
    for mask, weight in pieces.items():
        odd = mask.bit_count() % 2 == 1
        if (det and not odd) or (laplacian and odd):
            pieces[mask] = -weight
    if laplacian:
        for j, v in enumerate(g.vertices):
            pieces[1 << j] -= sum(og.signs[i] ** 2 for i in g.incidences_at_vertex[v])
    coeffs = [0] * (n + 1)
    for cover, total in enumerate(_cover_sums(pieces, n)):
        coeffs[n - cover.bit_count()] += total
    via_circles = IntPolynomial(coeffs)
    m = laplacian_matrix(og) if laplacian else adjacency_matrix(og)
    reference = char_poly_univariate(m, mode, max_vertices=max_vertices)
    if via_circles != reference:
        raise InvariantError(
            f"contributor route disagrees for {target}/{mode}: "
            f"circle covers {via_circles!r}, matrix {reference!r}",
            reproducer={"input": dumps_oriented(og), "target": target, "mode": mode},
        )
    return reference


def oracle_equivalence(
    og: OrientedHypergraph, *, max_vertices: int = limits.MAX_MINOR_VERTICES
) -> dict[tuple[str, str], bool]:
    """Compare every (target, mode) polynomial against the Leibniz oracle.

    The one-pass route, as in :func:`total_minor_poly`: the oracle's row
    bound is checked, then the families are weighed in one sweep and the
    answer's terms bounded.  Only then is each oracle expanded, compared
    and dropped, so at most one is held beside the four polynomials.
    """
    rows = _counted_rows(og.structure, max_vertices)
    limits.check(len(rows), limits.MAX_ORACLE_VERTICES, "Leibniz expansion", "rows")
    polys = _one_pass(og.structure, rows, og.signs)
    matrices = {"adjacency": adjacency_matrix(og), "laplacian": laplacian_matrix(og)}
    return {
        (t, m): polys[t, m] == symbolic_minor_poly(matrices[t], m, max_vertices=max_vertices)
        for t, m in COMBOS
    }
