"""Exact polynomial values used by the matrix and contributor code.

MultivariatePolynomial is specialised to the shape produced by expanding
determinants and permanents of a matrix of fresh variables: a monomial
is a set of position variables x[u,w] whose row ids u are pairwise
distinct (so every exponent is 1), and coefficients are plain ints.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import InvariantError

__all__ = [
    "MultivariatePolynomial",
    "IntPolynomial",
    "canonical_terms",
    "render_multivariate",
    "render_univariate",
]

Monomial = frozenset  # frozenset[tuple[str, str]]


class MultivariatePolynomial:
    """Integer combination of square-free monomials in x[u,w] variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    clean[frozenset(mono)] = coeff
        self._terms = clean

    @staticmethod
    def zero() -> "MultivariatePolynomial":
        return MultivariatePolynomial()

    @staticmethod
    def constant(c: int) -> "MultivariatePolynomial":
        return MultivariatePolynomial({frozenset(): c} if c else {})

    @staticmethod
    def variable(row: str, col: str) -> "MultivariatePolynomial":
        return MultivariatePolynomial({frozenset({(row, col)}): 1})

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def coefficient(self, pairs: Iterable[tuple[str, str]]) -> int:
        return self._terms.get(frozenset(pairs), 0)

    def degree(self) -> int:
        return max((len(m) for m in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultivariatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        out = MultivariatePolynomial()
        out._terms = terms
        return out

    def __neg__(self) -> "MultivariatePolynomial":
        out = MultivariatePolynomial()
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __sub__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self + (-other)

    def __mul__(self, other: "MultivariatePolynomial | int") -> "MultivariatePolynomial":
        if isinstance(other, int):
            out = MultivariatePolynomial()
            if other:
                out._terms = {m: c * other for m, c in self._terms.items()}
            return out
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            rows1 = {u for u, _ in m1}
            for m2, c2 in other._terms.items():
                if any(u in rows1 for u, _ in m2):
                    raise InvariantError("monomial product would repeat a row variable")
                mono = m1 | m2
                new = terms.get(mono, 0) + c1 * c2
                if new:
                    terms[mono] = new
                else:
                    terms.pop(mono, None)
        out = MultivariatePolynomial()
        out._terms = terms
        return out

    __rmul__ = __mul__

    def substitute_diagonal(self) -> "IntPolynomial":
        """Set x[v,v] -> x and every off-diagonal variable to 0."""
        coeffs: dict[int, int] = {}
        for mono, coeff in self._terms.items():
            if all(u == w for u, w in mono):
                k = len(mono)
                coeffs[k] = coeffs.get(k, 0) + coeff
        if not coeffs:
            return IntPolynomial(())
        top = max(coeffs)
        return IntPolynomial(tuple(coeffs.get(k, 0) for k in range(top + 1)))

    def __repr__(self) -> str:
        return f"MultivariatePolynomial({self._terms!r})"


class IntPolynomial:
    """Univariate integer polynomial, coefficients stored by ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

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

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(
            tuple(self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                out[a + b] += ca * cb
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self) -> str:
        return render_univariate(self)


def render_univariate(p: IntPolynomial, var: str = "x") -> str:
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
            body = f"{mag}{var}" if k == 1 else f"{mag}{var}^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def canonical_terms(
    p: MultivariatePolynomial, order: Sequence[str]
) -> list[tuple[list[tuple[str, str]], int]]:
    """Terms as (variables, coefficient) pairs, in the one canonical order.

    Each term's variables x[u,w] are sorted by the positions of (u, w) in
    ``order``; terms come degree-descending, then by those sorted positions.
    """
    pos = {v: k for k, v in enumerate(order)}
    keyed = [(sorted((pos[u], pos[w], u, w) for u, w in mono), c) for mono, c in p.terms.items()]
    keyed.sort(key=lambda t: (-len(t[0]), t[0]))
    return [([(u, w) for _, _, u, w in key], c) for key, c in keyed]


def render_multivariate(p: MultivariatePolynomial, order: Sequence[str]) -> str:
    """Canonical text form in the order of ``canonical_terms``.

    Every coefficient is printed with an explicit sign and magnitude, for
    example ``-1*x[v1,v2]*x[v2,v3]``.
    """
    if not p:
        return "0"
    return " ".join(
        f"{'+' if c > 0 else '-'}{abs(c)}" + "".join(f"*x[{u},{w}]" for u, w in pairs)
        for pairs, c in canonical_terms(p, order)
    )
