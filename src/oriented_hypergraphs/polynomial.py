"""Exact polynomial values used by the matrix and contributor code.

MultivariatePolynomial is specialised to the shape produced by expanding
determinants and permanents of a matrix of fresh variables: a monomial
is a set of position variables x[u,w] whose row ids u are pairwise
distinct (so every exponent is 1), and coefficients are plain ints.

A polynomial keeps a tuple of n labels, a matrix's vertex order, and
keys each monomial by an int bitmask: bit r*n + c stands for
x[labels[r], labels[c]].  The two routes build their polynomials over
one vertex order, so equality compares the masks; nothing adds or
multiplies polynomials.  Labelled monomials, frozensets of (u, w)
pairs, are built only where they are read: ``terms``, ``coefficient``
and the canonical term list and text.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from typing import Iterable, Mapping, Sequence

__all__ = [
    "MultivariatePolynomial",
    "IntPolynomial",
    "canonical_terms",
    "render_multivariate",
    "render_univariate",
]

Monomial = frozenset  # frozenset[tuple[str, str]]


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask.bit_length() - 1
        out.append(b)
        mask ^= 1 << b
    out.reverse()
    return out


class MultivariatePolynomial:
    """Integer combination of square-free monomials in x[u,w] variables."""

    __slots__ = ("_labels", "_terms")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        items = [(tuple(mono), coeff) for mono, coeff in (terms or {}).items() if coeff]
        labels = tuple(sorted({v for mono, _ in items for uw in mono for v in uw}))
        pos = {v: k for k, v in enumerate(labels)}
        n = len(labels)
        clean: dict[int, int] = {}
        for mono, coeff in items:
            mask = 0
            for u, w in mono:
                mask |= 1 << (pos[u] * n + pos[w])
            clean[mask] = coeff
        self._labels = labels
        self._terms = clean

    @classmethod
    def _of(cls, labels: tuple[str, ...], terms: dict[int, int]) -> "MultivariatePolynomial":
        """Wrap ``terms`` as given: keyed by masks over ``labels`` (bit
        r*n + c for x[labels[r], labels[c]]), with no zero coefficient."""
        out = cls.__new__(cls)
        out._labels = labels
        out._terms = terms
        return out

    def _pairs(self) -> list[tuple[str, str]]:
        # The variable (u, w) of every bit position.
        labels = self._labels
        return [(u, w) for u in labels for w in labels]

    @property
    def terms(self) -> dict[Monomial, int]:
        pairs = self._pairs()
        return {frozenset(pairs[b] for b in _bits(m)): c for m, c in self._terms.items()}

    def coefficient(self, pairs: Iterable[tuple[str, str]]) -> int:
        pos = {v: k for k, v in enumerate(self._labels)}
        n = len(pos)
        mask = 0
        for u, w in pairs:
            if u not in pos or w not in pos:
                return 0
            mask |= 1 << (pos[u] * n + pos[w])
        return self._terms.get(mask, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        if self._labels == other._labels:
            return self._terms == other._terms
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute_diagonal(self) -> "IntPolynomial":
        """Set x[v,v] -> x and every off-diagonal variable to 0."""
        n = len(self._labels)
        diagonal = sum(1 << (r * (n + 1)) for r in range(n))
        coeffs: dict[int, int] = {}
        for mono, coeff in self._terms.items():
            if not mono & ~diagonal:
                k = mono.bit_count()
                coeffs[k] = coeffs.get(k, 0) + coeff
        if not coeffs:
            return IntPolynomial(())
        top = max(coeffs)
        return IntPolynomial(tuple(coeffs.get(k, 0) for k in range(top + 1)))

    def __repr__(self) -> str:
        return f"MultivariatePolynomial({self.terms!r})"


class IntPolynomial:
    """Univariate integer polynomial, coefficients stored by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self) -> str:
        return render_univariate(self)


def render_univariate(p: IntPolynomial) -> str:
    if not p.coeffs:
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = f"{mag}x" if k == 1 else f"{mag}x^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# Each byte value with its eight bits in reverse order.
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _by_byte(items: Sequence, empty):
    # Per byte of a mask over ``items`` (bit k for items[k]), indexed by
    # the byte's value: the sum of its items in bit order, from ``empty``.
    tables = []
    for j in range(0, len(items), 8):
        table = [empty]
        for item in items[j : j + 8]:
            table += [t + item for t in table]
        tables.append(table)
    return tables


def _ranked(
    p: MultivariatePolynomial, order: Sequence[str]
) -> tuple[list[tuple[str, str]], list[tuple[int, int]]]:
    # The variables in canonical order, and the terms in canonical order
    # as (mask, coefficient), bit k of a mask standing for variable k.
    # A variable x[u,w] ranks by the positions of u and w in ``order``
    # (labels missing from it last, by name).  When ``order`` is p's own
    # label order, a variable's rank is its bit and the masks are p's.
    pos = {v: k for k, v in enumerate(order)}
    pairs = p._pairs()
    width = len(pairs)
    by_rank = sorted(
        range(width),
        key=lambda b: (pos.get(pairs[b][0], len(pos)), pos.get(pairs[b][1], len(pos)), *pairs[b]),
    )
    size = (width + 7) // 8
    terms = p._terms
    if by_rank != list(range(width)):
        rank = [0] * width
        for k, b in enumerate(by_rank):
            rank[b] = k
        moved = _by_byte([1 << k for k in rank], 0)
        terms = {sum(map(getitem, moved, m.to_bytes(size, "little"))): c for m, c in terms.items()}
    top = 8 * size
    full = (1 << top) - 1

    def key(term: tuple[int, int]) -> int:
        # Degree descending, then the ascending ranks lexicographically:
        # of two sets of equal size, the one holding the lowest rank
        # where they differ comes first, so its bit-reversed mask is
        # the larger.
        mono = term[0]
        reversed_mask = int.from_bytes(mono.to_bytes(size, "little").translate(_REVERSED), "big")
        return (width - mono.bit_count()) << top | full ^ reversed_mask

    return [pairs[b] for b in by_rank], sorted(terms.items(), key=key)


def canonical_terms(
    p: MultivariatePolynomial, order: Sequence[str]
) -> list[tuple[list[tuple[str, str]], int]]:
    """Terms as (variables, coefficient) pairs, in the one canonical order.

    Each term's variables x[u,w] are sorted by the positions of (u, w) in
    ``order``; terms come degree-descending, then by those sorted positions.
    """
    variables, ordered = _ranked(p, order)
    table = _by_byte([(v,) for v in variables], ())
    size = len(table)
    return [
        (list(chain.from_iterable(map(getitem, table, m.to_bytes(size, "little")))), c)
        for m, c in ordered
    ]


def render_multivariate(p: MultivariatePolynomial, order: Sequence[str]) -> str:
    """Canonical text form in the order of ``canonical_terms``.

    Every coefficient is printed with an explicit sign and magnitude, for
    example ``-1*x[v1,v2]*x[v2,v3]``.
    """
    if not p:
        return "0"
    variables, ordered = _ranked(p, order)
    text = _by_byte([f"*x[{u},{w}]" for u, w in variables], "")
    size = len(text)
    # No coefficient is 0, so "+d" prints each with its sign.
    return " ".join(
        [f"{c:+d}" + "".join(map(getitem, text, m.to_bytes(size, "little"))) for m, c in ordered]
    )
