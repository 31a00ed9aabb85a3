"""Enumeration budgets and the one guard that enforces them.

Every exhaustive search first counts what it would build (vertices,
homomorphism candidates, exact family or forest counts, subhypergraphs)
and hands that count to :func:`check`, which raises ResourceLimitError
before any large allocation happens.  A DP that sums without building
what it counts, as the univariate route's circle weights, is bounded by
its vertex count alone.  A cap is a keyword argument only
where an ``ohg`` flag sets it (``--max-vertices``, ``--max-enum``); every
other search reads its constant here when it is called, so a test
tightens a guard by setting the constant.
"""

from .errors import ResourceLimitError

# Naive upper bound |V(H)|^|V(G)| * |E(H)|^|E(G)| * |I(H)|^|I(G)| on the
# homomorphism search space.
MAX_HOM_CANDIDATES = 1_000_000

# Number of subhypergraphs materialised by enumeration / power construction.
MAX_SUBHYPERGRAPHS = 100_000

# Exact number of contributors enumeration may build; counted beforehand.
MAX_CONTRIBUTORS = 1_000_000

# Step families the minor polynomials may sum; counted beforehand.  The
# sum visits no family on its own, so the count stands in for the size
# of the answer and of its Leibniz oracle until an answer-count cap
# replaces it.  The seeded complete graphs K7 and K8 have 3,823,392 and
# 88,929,169.
MAX_FAMILIES = 5_000_000

# Vertex bounds for the factorial-flavoured enumerations.
MAX_CONTRIBUTOR_VERTICES = 9
MAX_MINOR_VERTICES = 8
MAX_ORACLE_VERTICES = 9
MAX_SACHS_VERTICES = 8
MAX_ARBORESCENCE_VERTICES = 8


def check(value: int, cap: int, what: str, unit: str) -> None:
    """Raise ResourceLimitError when the count ``value`` exceeds ``cap``."""
    if value > cap:
        raise ResourceLimitError(f"{what} limited to {cap} {unit}, got {value}")
