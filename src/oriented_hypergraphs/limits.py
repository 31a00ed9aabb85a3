"""Enumeration budgets and the one guard that enforces them.

Every exhaustive search first counts what it would build (vertices,
homomorphism candidates, exact contributor or forest counts,
subhypergraphs, the terms of a minor polynomial) and hands that count to
:func:`check`, which raises ResourceLimitError before any large
allocation happens.  A DP that sums without building what it counts, as
the univariate route's circle weights and the figure sweep, is bounded
by its vertex count alone.  A cap is a keyword argument only where an
``ohg`` flag sets it (``--max-vertices``, ``--max-enum``); every other
search reads its constant here when it is called, so a test tightens a
guard by setting the constant.
"""

from .errors import ResourceLimitError

# Naive upper bound |V(H)|^|V(G)| * |E(H)|^|E(G)| * |I(H)|^|I(G)| on the
# homomorphism search space.
MAX_HOM_CANDIDATES = 1_000_000

# Number of subhypergraphs materialised by enumeration / power construction.
MAX_SUBHYPERGRAPHS = 100_000

# Exact number of contributors or catalog families to build; counted first.
MAX_CONTRIBUTORS = 1_000_000

# Terms the minor polynomials may hold, counted after the figure sweep
# and before any block is opened: a block the sweep leaves holds
# (n - |T|)! completions.  The count is at most sum_k C(n,k)^2 (n-k)!,
# 1,441,729 at n = 8 (the default vertex guard, so every input inside
# it is answered) and 17,572,114 at n = 9.
MAX_TERMS = 1_500_000

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
