from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_oriented
from oriented_hypergraphs.contributors import COMBOS, minor_catalog, minor_polys_from_catalog
from oriented_hypergraphs.matrices import adjacency_matrix, laplacian_matrix, symbolic_minor_poly
from oriented_hypergraphs.polynomial import (
    IntPolynomial,
    MultivariatePolynomial,
    canonical_terms,
    render_multivariate,
    render_univariate,
)


def test_univariate_normalizes_trailing_zeros():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()
    assert not IntPolynomial([])
    assert IntPolynomial([1, 1]).coefficient(7) == 0


def test_render_univariate_examples():
    assert render_univariate(IntPolynomial([0, 9, -6, 1])) == "x^3 - 6x^2 + 9x"
    assert render_univariate(IntPolynomial([-2, -3, 0, 1])) == "x^3 - 3x - 2"
    assert render_univariate(IntPolynomial([])) == "0"
    assert render_univariate(IntPolynomial([5])) == "5"
    assert render_univariate(IntPolynomial([0, -1])) == "-x"


def poly(*terms):
    """The polynomial with one term per (coefficient, variable, ...) tuple."""
    return MultivariatePolynomial({frozenset(vs): c for c, *vs in terms})


def test_multivariate_identities():
    p = poly((1, ("a", "b")), (1, ("a", "c")))
    assert p.coefficient([("a", "b")]) == 1
    assert p.coefficient([("z", "z")]) == 0
    assert poly((0, ("a", "b"))) == MultivariatePolynomial()
    assert poly((0,)) == MultivariatePolynomial() and not poly((0,))


def test_substitute_diagonal_keeps_diagonal_monomials():
    p = poly((1, ("a", "a"), ("b", "b")), (7, ("a", "b"), ("b", "a")))
    assert p.substitute_diagonal().coeffs == (0, 0, 1)
    assert poly((4,)).substitute_diagonal().coeffs == (4,)


def test_render_multivariate_order_and_signs():
    p = poly((1, ("u", "u"), ("w", "w")), (-1, ("u", "w"), ("w", "u")), (-3, ("w", "u")))
    text = render_multivariate(p, ["u", "w"])
    assert text == "+1*x[u,u]*x[w,w] -1*x[u,w]*x[w,u] -3*x[w,u]"
    assert render_multivariate(MultivariatePolynomial(), ["u"]) == "0"


@settings(max_examples=40, deadline=None)
@given(small_oriented(max_vertices=4, max_edges=3, max_incidences=6))
def test_terms_round_trip_on_both_routes(og):
    # A polynomial keyed over the matrix's vertex order and the same terms
    # read back through the labelled constructor are one polynomial, with
    # the same coefficients, hash, canonical terms and text.
    from_catalog = minor_polys_from_catalog(minor_catalog(og.structure), og.signs)
    order = og.vertices
    for target, mode in COMBOS:
        m = laplacian_matrix(og) if target == "laplacian" else adjacency_matrix(og)
        routes = [symbolic_minor_poly(m, mode), from_catalog[(target, mode)]]
        for p in routes:
            rebuilt = MultivariatePolynomial(p.terms)
            assert rebuilt == p and p == rebuilt
            assert hash(rebuilt) == hash(p)
            for mono, coeff in p.terms.items():
                assert p.coefficient(mono) == coeff == rebuilt.coefficient(mono)
            assert canonical_terms(rebuilt, order) == canonical_terms(p, order)
            assert render_multivariate(rebuilt, order) == render_multivariate(p, order)
            assert render_multivariate(p, order[::-1]) == render_multivariate(rebuilt, order[::-1])
        assert render_multivariate(routes[0], order) == render_multivariate(routes[1], order)


labelled_terms = st.dictionaries(
    st.frozensets(
        st.tuples(st.sampled_from("abc"), st.sampled_from("abcd")), max_size=3
    ),
    st.integers(-3, 3),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(labelled_terms, labelled_terms)
def test_sums_over_different_labels_add_the_labelled_terms(a, b):
    # Terms summed as labelled dicts build the polynomial of the sum;
    # polynomials over different label tuples compare by their terms.
    p, q = MultivariatePolynomial(a), MultivariatePolynomial(b)
    want = {}
    for terms in (a, b):
        for mono, coeff in terms.items():
            want[mono] = want.get(mono, 0) + coeff
    total = MultivariatePolynomial(want)
    assert total.terms == {mono: c for mono, c in want.items() if c}
    for mono, coeff in want.items():
        assert total.coefficient(mono) == coeff
    assert p.terms == {mono: c for mono, c in a.items() if c}
    assert (p == q) == (p.terms == q.terms)
    if p == q:
        assert hash(p) == hash(q)


def test_product_over_different_labels():
    p = poly((1, ("b", "c"), ("a", "a")))
    assert p.terms == {frozenset({("b", "c"), ("a", "a")}): 1}
    assert p.coefficient([("a", "a"), ("b", "c")]) == 1
    assert p.substitute_diagonal() == IntPolynomial(())
    assert poly((1, ("a", "a"), ("c", "c"))).substitute_diagonal().coeffs == (0, 0, 1)


def test_of_over_a_label_superset_equals_the_labelled_build():
    # Over labels (c, a, b) bit r*3 + c stands for x[labels[r], labels[c]],
    # so x[a,b] is bit 5; the labelled build keys it over (a, b), as bit 1.
    labelled = poly((2, ("a", "b")), (-1,))
    wide = MultivariatePolynomial._of(("c", "a", "b"), {1 << 5: 2, 0: -1})
    assert wide == labelled and labelled == wide
    assert hash(wide) == hash(labelled)
    assert wide.terms == labelled.terms
    assert wide != MultivariatePolynomial._of(("c", "a", "b"), {1 << 5: 2})
    assert wide != MultivariatePolynomial._of(("c", "a", "b"), {1 << 1: 2, 0: -1})
