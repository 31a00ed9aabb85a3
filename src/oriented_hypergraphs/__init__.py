"""Incidence hypergraphs with signed orientations.

Exact integer linear algebra over oriented incidence structures: the
incidence, adjacency, degree and Laplacian matrices, their determinant
and permanent characteristic polynomials computed two independent ways,
the step-family expansion behind the total minor polynomial, activation
moves on bidirected graphs, and the topos-theoretic closure operations
(zero loading, truth-value object, power object) the expansion rests on.
"""

from .core import (
    HomSet,
    Homomorphism,
    Incidence,
    IncidenceHypergraph,
    OrientedHypergraph,
    enumerate_homomorphisms,
    product,
    subhypergraph,
    validate,
)
from .errors import DomainError, InvariantError, ResourceLimitError
from .jsonio import (
    dumps_oriented,
    load_oriented_file,
    loads_oriented,
    oriented_to_dict,
    parse_oriented,
)
from .matrices import (
    IntegerMatrix,
    adjacency_matrix,
    char_poly_univariate,
    degree_matrix,
    graph_orientation,
    incidence_matrix,
    laplacian_matrix,
    matrix_tree_cofactor,
    sachs_char_poly,
    spanning_tree_count,
    symbolic_minor_poly,
)
from .polynomial import (
    IntPolynomial,
    MultivariatePolynomial,
    render_multivariate,
    render_univariate,
)
from .topos import loading, subobject_classifier, tilde, zero_loading
from .contributors import (
    MinorClass,
    OneStep,
    component_profile,
    contributor_sign,
    enumerate_contributors,
    is_strong,
    oracle_equivalence,
    total_minor_poly,
    univariate_from_contributors,
)
from .bidirected import (
    Arborescence,
    BidirectedGraph,
    activation_classes,
    as_bidirected,
    k_arborescences,
    single_element_classes,
)

__version__ = "0.1.0"

__all__ = [
    "HomSet",
    "Homomorphism",
    "Incidence",
    "IncidenceHypergraph",
    "OrientedHypergraph",
    "enumerate_homomorphisms",
    "product",
    "subhypergraph",
    "validate",
    "DomainError",
    "InvariantError",
    "ResourceLimitError",
    "dumps_oriented",
    "load_oriented_file",
    "loads_oriented",
    "oriented_to_dict",
    "parse_oriented",
    "IntegerMatrix",
    "adjacency_matrix",
    "char_poly_univariate",
    "degree_matrix",
    "graph_orientation",
    "incidence_matrix",
    "laplacian_matrix",
    "matrix_tree_cofactor",
    "sachs_char_poly",
    "spanning_tree_count",
    "symbolic_minor_poly",
    "IntPolynomial",
    "MultivariatePolynomial",
    "render_multivariate",
    "render_univariate",
    "loading",
    "subobject_classifier",
    "tilde",
    "zero_loading",
    "MinorClass",
    "OneStep",
    "component_profile",
    "contributor_sign",
    "enumerate_contributors",
    "is_strong",
    "oracle_equivalence",
    "total_minor_poly",
    "univariate_from_contributors",
    "Arborescence",
    "BidirectedGraph",
    "activation_classes",
    "as_bidirected",
    "k_arborescences",
    "single_element_classes",
]
