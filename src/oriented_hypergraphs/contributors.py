"""Permutation-shaped step families and the minor polynomials they carry.

A step family gives at most one length-1 step to each vertex, with
pairwise-distinct heads.  :func:`_search` is the one enumerator that
hands out step families: a depth-first search over a map of each tail
vertex to its allowed steps, each step resolved once into an integer row
entry keyed by its head bit.  (The one-pass total minors walk the
families with their own prefix state, :func:`_family_sums`, and hand
none out.)  A contributor is a spanning family of
the full map, so its heads sweep out the whole vertex set bijectively;
a class member pins each class row to its steps onto the matching
column; the bidirected reduced elements (:mod:`.bidirected`) span the
non-row vertices with heads off the class columns.  Families are
counted exactly, by head mask, before any is built: the spanning ones (a
permanent) for contributors, all of them for the minor polynomials.
Everything here is cross-checked against the Leibniz oracle in
:mod:`.matrices`.

The minor polynomials sum the step families grouped into blocks by
(tail set, head set).  The families of a block share their completions
into full permutations, and a completed family's sign splits as
eps_f * rel(c), a per-family part times a per-completion part, so a
block stamps each of its monomials once with its summed family weights
(the all-minors matrix-tree expansion, read as a sum over figures).
Two paths fill the blocks from the same step rows and stamp them the
same way.  A one-shot answer (:func:`total_minor_poly`,
:func:`oracle_equivalence`) checks the Leibniz oracle's row bound first,
weighs every family in one depth-first pass and stores none, and only
then expands each oracle and compares.  A :class:`MinorCatalog` stores
every family once, for callers that evaluate one structure under many
signings (:func:`minor_polys_from_catalog`).

The characteristic polynomial needs only the closed families, whose
head set equals their tail set T: a closed family of weight w adds to
the coefficient of x^(n - |T|).  Such a family is a disjoint cover of T
by circles of strong steps and backsteps, and its term is a product
over these pieces (the Sachs-coefficient type of the all-minors
theorem).  :func:`univariate_from_contributors` picks every circle once,
step by step, gives each piece its permutation-sign factor (as on the
catalog's diagonal), combines disjoint pieces by subset convolution
over vertex masks, and checks the sum against the matrix.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import limits
from .core import IncidenceHypergraph, OrientedHypergraph, require_valid
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


def _search(rows: Sequence[Sequence[tuple[int, object]]], spanning: bool, leaf: Callable) -> None:
    """The one step-family enumerator, over integer rows.

    ``rows[k]`` lists tail k's steps as (head bit, item).  Each tail in
    turn is skipped (unless ``spanning``) or, skipping first, takes a step
    to an unused head; ``leaf(path, tails, heads)`` gets each family as
    its items in tail order (one list, reused) with its tail and head masks.
    """
    path: list = []

    def extend(k: int, tails: int, heads: int) -> None:
        if k == len(rows):
            return leaf(path, tails, heads)
        if not spanning:
            extend(k + 1, tails, heads)
        for bit, item in rows[k]:
            if not heads & bit:
                path.append(item)
                extend(k + 1, tails | 1 << k, heads | bit)
                path.pop()

    extend(0, 0, 0)


def step_families(
    options: Mapping[str, Sequence[OneStep]], *, spanning: bool = False
) -> list[Steps]:
    """Every step family drawn from ``options``, as a list of step tuples.

    ``options`` maps each tail vertex, in order, to the steps it may take.
    Each tail is either skipped or given one of its steps to a head not
    used yet, skipping first.  ``spanning`` forbids skipping, so every
    tail gets a step.
    """
    bits = {v: 1 << k for k, v in enumerate(options)}
    rows = [
        [(bits.setdefault(s.head, 1 << len(bits)), s) for s in steps] for steps in options.values()
    ]
    out: list[Steps] = []
    _search(rows, spanning, lambda path, tails, heads: out.append(tuple(path)))
    return out


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
    step-multiplicity matrix); the sum counts every family.
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


def _circles(
    options: Mapping[str, Sequence[OneStep]],
    signs: Mapping[str, int],
) -> dict[tuple[int, int], int]:
    """Every circle of the backstep-free ``options``, by vertex mask and weight.

    A circle is a closed walk of steps through pairwise-distinct vertices
    (a loop is one of length 1); its length is the size of its mask and
    its weight W is the product of the signs of every traversed
    incidence.  Returns {(vertex mask, W): number of circles}, leaving
    out the zero-weight ones.

    Each circle is picked once, one step at a time, from its lowest
    vertex s.  A table of the walks out of s (over exactly the vertices
    of a mask above s, ending at v) first counts the circles, weighted by
    step multiplicity, so more than ``limits.MAX_CIRCLES`` are refused before
    any is built.  The table then steers the search, which picks each
    circle backwards from s and so never follows a walk that cannot close.
    """
    between = _steps_between(options)
    n = len(between)
    walks: list[dict[int, list[int]]] = []
    count = 0
    for s in range(n):
        table: dict[int, list[int]] = {}
        for m in range(1, 1 << (n - s - 1)):
            mask = m << (s + 1)
            row = [0] * n
            for w in _bits(mask):
                rest = mask ^ (1 << w)
                if rest:
                    row[w] = sum(table[rest][v] * len(between[v][w]) for v in _bits(rest))
                else:
                    row[w] = len(between[s][w])
                count += row[w] * len(between[w][s])
            table[mask] = row
        count += len(between[s][s])
        walks.append(table)
    limits.check(count, limits.MAX_CIRCLES, "circle enumeration", "circles")

    def weigh(step: OneStep) -> int:
        return signs[step.tail_incidence] * signs[step.head_incidence]

    weights = [[[w for w in map(weigh, steps) if w] for steps in row] for row in between]
    found: defaultdict[tuple[int, int], int] = defaultdict(int)

    def back(s: int, circle: int, mask: int, v: int, weight: int) -> None:
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
    options: Mapping[str, Sequence[OneStep]], max_vertices: int, max_count: int
) -> list[Steps]:
    # Guard on the vertex count, then on the exact count, before any
    # contributor is built; a zero count skips the dead-end search.
    limits.check(len(options), max_vertices, "contributor enumeration", "vertices")
    count = _family_counts(options)[-1]
    limits.check(count, max_count, "contributor enumeration", "contributors")
    if not count:
        return []
    return step_families(options, spanning=True)


def enumerate_contributors(
    og: OrientedHypergraph,
    *,
    strong_only: bool = False,
    max_vertices: int = limits.MAX_CONTRIBUTOR_VERTICES,
    max_count: int = limits.MAX_CONTRIBUTORS,
) -> list[Steps]:
    """Every contributor of ``og``, in :func:`step_families` order.

    The exact count is computed first, so more than ``max_count``
    contributors raise :class:`ResourceLimitError` before any is built.
    """
    return _contributors_from(
        _all_steps(og.structure, strong_only=strong_only), max_vertices, max_count
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
) -> list[Steps]:
    """Contributors whose step at each u_i heads to the matching w_i.

    Each class row keeps only its steps to w_i, so the exact count (and
    the ``max_count`` guard) covers the class members alone.
    """
    options = _all_steps(og.structure, strong_only=strong_only)
    for u, w in cls.pairs():
        if u not in options:
            raise DomainError(f"no step tailed at {u!r}")
        options[u] = tuple(s for s in options[u] if s.head == w)
    return _contributors_from(options, max_vertices, max_count)


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
    """The step families sharing one tail set T and one head set H.

    Every family of the block leaves the same open rows V - T and open
    columns V - H, so all of them complete through the same bijections
    c between the two.  With c0 sending the i-th open row to the i-th
    open column, the sign of a completed head map h_f + c splits as
    eps_f * rel(c), eps_f = sign(h_f + c0) and rel(c) = sign(c0^-1 c).

    ``families`` holds (the positions of the traversed incidences in the
    structure's incidence order, strong, eps_f) per family;
    ``completions`` holds (monomial, rel(c)) per bijection c, the
    monomial as a :class:`MultivariatePolynomial` bitmask over the
    structure's vertex order; ``odd`` records whether |T| is odd, the
    sign of the Laplacian factor.
    """

    odd: bool
    families: tuple[tuple[tuple[int, ...], bool, int], ...]
    completions: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MinorCatalog:
    """Signing-independent family enumeration, shared by all four polynomials.

    Built for callers that evaluate one structure under many signings
    (criterion 3's corpus); a one-shot answer takes the one-pass route of
    :func:`total_minor_poly` instead, which stores no family.
    ``blocks`` groups every step family by (tail set, head set) and
    stores each block's completions once, so evaluation stamps every
    monomial once per block rather than once per family.  ``families``
    lists the same families as figures, in enumeration order; it is
    enumerated again when first read.

    Families through incidences missing from the evaluation signs score
    zero and drop out, which is exactly the zero-loading convention, so
    the catalog of a raw structure evaluates a zero-loaded orientation
    correctly without materializing the padding.
    """

    structure: IncidenceHypergraph
    blocks: tuple[MinorBlock, ...]

    @cached_property
    def families(self) -> tuple[StepFamily, ...]:
        return tuple(
            StepFamily(steps, is_strong(steps))
            for steps in step_families(_all_steps(self.structure))
        )


# Tail k's steps: (head position, tail incidence position, head
# incidence position, backstep) each.
StepRows = list[list[tuple[int, int, int, bool]]]
# Each open size's bijections with their signs; see _completion_table.
CompletionTable = list[list[tuple[tuple[int, ...], int]]]
# What _stamp reads of a block: whether |T| is odd; sum(w) and
# sum(eps_f * w) over all its families, then over its strong ones; its
# (monomial, rel(c)) completions.
BlockSums = tuple[bool, tuple[int, int, int, int], Sequence[tuple[int, int]]]


def _counted_rows(structure: IncidenceHypergraph, max_vertices: int) -> StepRows:
    """The step rows of ``structure``, in vertex order, once its guards pass.

    The families are counted first (:func:`_family_counts`), so more than
    ``limits.MAX_FAMILIES`` raise :class:`ResourceLimitError` before
    either figure path builds one.
    """
    require_valid(structure)
    limits.check(len(structure.vertices), max_vertices, "minor catalog", "vertices")
    options = _all_steps(structure)
    limits.check(sum(_family_counts(options)), limits.MAX_FAMILIES, "minor catalog", "families")
    pos = structure.vertex_pos
    at = structure.incidence_pos
    return [
        [(pos[s.head], at[s.tail_incidence], at[s.head_incidence], s.is_backstep) for s in steps]
        for steps in options.values()
    ]


def _completion_table(n: int) -> CompletionTable:
    # Every permutation of range(m), m = 0..n, with its sign: one table
    # per call, read by every block whose open size is m.
    return [
        [(p, permutation_sign(p)) for p in itertools.permutations(range(m))]
        for m in range(n + 1)
    ]


def _open_block(
    n: int, tails: int, heads: int, table: CompletionTable
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The c0 sign and the completions of the block (tail mask, head mask).

    By the Laplace expansion, eps_f is (-1)^(sum of the open rows and
    columns) times the parity of the inversions of f's heads in tail
    order; the first is returned here, with (monomial, rel(c)) for each
    bijection c of the open rows onto the open columns.
    """
    open_rows = [r for r in range(n) if not tails >> r & 1]
    open_cols = [c for c in range(n) if not heads >> c & 1]
    # bit[i][j]: the MultivariatePolynomial mask of x[open_rows[i], open_cols[j]].
    bit = [[1 << (r * n + c) for c in open_cols] for r in open_rows]
    completions = tuple(
        (sum(row[j] for row, j in zip(bit, p)), sign) for p, sign in table[len(bit)]
    )
    return -1 if sum(open_rows + open_cols) & 1 else 1, completions


def minor_catalog(structure: IncidenceHypergraph) -> MinorCatalog:
    """Every step family of ``structure``, grouped into blocks.

    More than ``limits.MAX_MINOR_VERTICES`` vertices are refused, and the
    families are counted first (:func:`_counted_rows`), so more than
    ``limits.MAX_FAMILIES`` raise :class:`ResourceLimitError` before any
    is built.
    """
    rows = _counted_rows(structure, limits.MAX_MINOR_VERTICES)
    return MinorCatalog(structure, _minor_blocks(rows))


def _minor_blocks(rows: StepRows) -> tuple[MinorBlock, ...]:
    # Blocks by (tail mask, head mask), in order of first family, each
    # opened (c0 sign, completions) when its first family arrives.
    n = len(rows)
    table = _completion_table(n)
    grouped: dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...], list]] = {}

    def leaf(path: list, tails: int, heads: int) -> None:
        if (tails, heads) not in grouped:
            grouped[tails, heads] = (*_open_block(n, tails, heads, table), [])
        sign, _, entries = grouped[tails, heads]
        seen = inversions = backsteps = 0
        ids: list[int] = []
        for h, tail_at, head_at, back in path:
            inversions += (seen >> h).bit_count()
            seen |= 1 << h
            ids += (tail_at, head_at)
            backsteps += back
        entries.append((tuple(ids), not backsteps, -sign if inversions & 1 else sign))

    _search([[(1 << step[0], step) for step in row] for row in rows], False, leaf)
    return tuple(
        MinorBlock(tails.bit_count() % 2 == 1, tuple(entries), completions)
        for (tails, _), (_, completions, entries) in grouped.items()
    )


def _stamp(
    labels: tuple[str, ...],
    blocks: Iterable[BlockSums],
    combos: Iterable[tuple[str, str]] = COMBOS,
) -> dict[tuple[str, str], MultivariatePolynomial]:
    """The asked-for minor polynomials from (odd, sums, completions) per block.

    The all-family sums are negated when |T| is odd (the Laplacian's
    (-1)^steps).  Every completion then gets the plain sum for perm and
    rel(c) times the eps-sum for det; adjacency takes the strong sums.
    A monomial fixes its open rows and columns, so one block writes it;
    rel(c) is +-1, so only the blocks with a nonzero sum write, straight
    into the returned terms, and no zero coefficient is filtered out.
    """
    acc: dict[tuple[str, str], dict[int, int]] = {combo: {} for combo in combos}
    # Per polynomial: its terms, its slot in a block's sums, whether it
    # takes rel(c) (det) and whether an odd |T| negates it (Laplacian).
    picks = [
        (terms, 2 * (target == "adjacency") + (mode == "det"), mode == "det", target == "laplacian")
        for (target, mode), terms in acc.items()
    ]
    for odd, sums, completions in blocks:
        for terms, slot, det, laplacian in picks:
            s = -sums[slot] if odd and laplacian else sums[slot]
            if s and det:
                for mono, rel in completions:
                    terms[mono] = rel * s
            elif s:
                for mono, _ in completions:
                    terms[mono] = s
    return {combo: MultivariatePolynomial._of(labels, terms) for combo, terms in acc.items()}


def minor_polys_from_catalog(
    catalog: MinorCatalog, signs: Mapping[str, int]
) -> dict[tuple[str, str], MultivariatePolynomial]:
    """Evaluate all four (target, mode) minor polynomials in one sweep.

    Each block sums its family weights w_f (step-sign products) as
    sum(w) and sum(eps_f * w) over all families and over the strong
    ones; :func:`_stamp` writes them into the completions.
    """
    sign = [signs.get(i.id, 0) for i in catalog.structure.incidences]

    def sums() -> Iterator[BlockSums]:
        for block in catalog.blocks:
            total = signed = strong_total = strong_signed = 0
            for ids, strong, eps in block.families:
                weight = 1
                for i in ids:
                    weight *= sign[i]
                    if not weight:
                        break
                if weight:
                    total += weight
                    signed += eps * weight
                    if strong:
                        strong_total += weight
                        strong_signed += eps * weight
            if total or signed or strong_total or strong_signed:
                yield block.odd, (total, signed, strong_total, strong_signed), block.completions

    return _stamp(catalog.structure.vertices, sums())


def _family_sums(rows: StepRows, sign: Sequence[int]) -> tuple[list[int], list[int]]:
    """The one-pass walk: every family that weighs nonzero, summed by block.

    Each family is visited once, as one step at a later tail added to
    the family it extends, and carries its own weight w (the product of
    its steps' sign products), its signed weight e = +-w by the parity
    of its heads' inversions in tail order, and whether it has a
    backstep.  A step that weighs 0 is dropped, which drops exactly the
    families that weigh 0.  ``total[key]`` and ``signed[key]`` sum w and
    e over the families of one key: the tail mask above bit n, the head
    mask in bits 1..n and the backstep flag in bit 0.
    """
    n = len(rows)
    total = [0] * (1 << (2 * n + 1))
    signed = [0] * (1 << (2 * n + 1))
    # Per tail: (head bit, key bits, mask of the heads after this one, w).
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
    total[0] = signed[0] = 1  # the empty family
    if not n:
        return total, signed
    # later[k]: the tails from k on, but the last, each with the tail its
    # families extend from next.  A family with a step at the last tail
    # extends no further, so it is summed in place rather than visited.
    inner = list(enumerate(weighed[:-1], 1))
    later = [inner[k:] for k in range(n)]
    last = weighed[-1]

    def extend(start: int, key: int, w: int, e: int) -> None:
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


def _one_pass(
    structure: IncidenceHypergraph,
    rows: StepRows,
    signs: Mapping[str, int],
    combos: Iterable[tuple[str, str]] = COMBOS,
) -> dict[tuple[str, str], MultivariatePolynomial]:
    """The ``combos`` minor polynomials from one walk over the families, none stored.

    :func:`_family_sums` weighs every family under ``signs`` (missing
    incidences weigh 0, the zero-loading convention) and sums it into
    its block; each nonzero block then gets its c0 sign and completions
    and is stamped as the catalog's blocks are, so the result equals
    ``minor_polys_from_catalog(minor_catalog(structure), signs)`` there.
    """
    n = len(rows)
    total, signed = _family_sums(rows, [signs.get(i.id, 0) for i in structure.incidences])
    table = _completion_table(n)
    heads_mask = (1 << n) - 1

    def sums() -> Iterator[BlockSums]:
        for key in range(0, len(total), 2):
            strong_total, strong_signed = total[key], signed[key]
            all_total = strong_total + total[key + 1]
            all_signed = strong_signed + signed[key + 1]
            if all_total or all_signed or strong_total or strong_signed:
                tails, heads = key >> (n + 1), key >> 1 & heads_mask
                sign, completions = _open_block(n, tails, heads, table)
                block = (all_total, sign * all_signed, strong_total, sign * strong_signed)
                yield tails.bit_count() % 2 == 1, block, completions

    return _stamp(structure.vertices, sums(), combos)


def total_minor_poly(
    og: OrientedHypergraph,
    target: str,
    mode: str,
    *,
    max_vertices: int = limits.MAX_MINOR_VERTICES,
) -> MultivariatePolynomial:
    """Minor polynomial of the chosen matrix and mode, from step families.

    The one-pass route: the families are counted, then weighed in one
    walk (:func:`_one_pass`) without a catalog, and only this pair is
    stamped.  The Leibniz oracle's row bound is checked before the walk,
    so an input it would refuse is refused before any figure is weighed;
    the oracle is expanded after the walk and compared.  The two must
    match term for term, this module's central contract; a mismatch
    raises an :class:`InvariantError` that carries the structure as JSON
    and the (target, mode) pair, as in :func:`univariate_from_contributors`.
    """
    _require_combo(target, mode)
    rows = _counted_rows(og.structure, max_vertices)
    limits.check(len(rows), limits.MAX_ORACLE_VERTICES, "Leibniz expansion", "rows")
    poly = _one_pass(og.structure, rows, og.signs, [(target, mode)])[(target, mode)]
    m = laplacian_matrix(og) if target == "laplacian" else adjacency_matrix(og)
    if poly != symbolic_minor_poly(m, mode):
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
    x^(n - |T|).  Each circle of length L and weight W is picked once
    (:func:`_circles`, which refuses more than ``limits.MAX_CIRCLES``)
    and gives W, times (-1)^(L-1) for det (the sign of its cyclic
    permutation) and (-1)^L on the Laplacian; a backstep gives -sigma^2.
    These are the factors on the diagonal of :func:`total_minor_poly`.
    The factors are summed per vertex mask and disjoint pieces combined
    by subset convolution (:func:`_cover_sums`).  No matrix entry is
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
    pieces: defaultdict[int, int] = defaultdict(int)
    strong = _all_steps(g, strong_only=True)
    for (mask, weight), count in _circles(strong, og.signs).items():
        odd = mask.bit_count() % 2 == 1
        flips = (det and not odd) + (laplacian and odd)
        pieces[mask] += count * weight * (-1) ** flips
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

    The one-pass route, as in :func:`total_minor_poly`: the families are
    counted and the oracle's row bound checked, then the families are
    weighed in one walk.  Only then is each oracle expanded, compared
    and dropped, so at most one is held beside the four polynomials.
    """
    rows = _counted_rows(og.structure, max_vertices)
    limits.check(len(rows), limits.MAX_ORACLE_VERTICES, "Leibniz expansion", "rows")
    polys = _one_pass(og.structure, rows, og.signs)
    matrices = {"adjacency": adjacency_matrix(og), "laplacian": laplacian_matrix(og)}
    return {
        (target, mode): polys[target, mode] == symbolic_minor_poly(matrices[target], mode)
        for target, mode in COMBOS
    }
