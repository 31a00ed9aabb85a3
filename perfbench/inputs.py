"""Benchmark inputs, generated here from the seed alone.

The generators mirror the acceptance suite's corpora, but they live in
the benchmark so that an edit to the library's ``corpus`` module cannot
change a workload.  Only the library's constructors are called.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from oriented_hypergraphs import core

# Seeds that reproduce the acceptance suite's inputs: criterion 3 samples
# its signings with 271828 and criterion 6 draws with 812204 + 3.  The
# ladder has no acceptance counterpart; its default is the paper's year.
DEFAULT_SEEDS = {"corpus_oracle": 271828, "size_ladder": 2019, "topos_laws": 812207}

# Fixed fill seed of the 300-structure corpus (criterion 3's structures).
_CORPUS_FILL_SEED = 812204
MAX_SIGNINGS = 64


def all_hypergraphs(max_vertices: int, max_edges: int, max_incidences: int) -> list:
    """Every incidence structure up to the given sizes, one per cell multiset."""
    out = []
    for nv in range(max_vertices + 1):
        vertices = [f"v{k}" for k in range(1, nv + 1)]
        for ne in range(max_edges + 1):
            edges = [f"e{k}" for k in range(1, ne + 1)]
            cells = [(v, e) for v in vertices for e in edges]
            for ni in range(max_incidences + 1):
                for combo in itertools.combinations_with_replacement(range(len(cells)), ni):
                    incs = [(f"i{k}", *cells[c]) for k, c in enumerate(combo, 1)]
                    out.append(core.IncidenceHypergraph.build(vertices, edges, incs))
    return out


def _cell_key(g) -> tuple:
    counts: dict = {}
    for i in g.incidences:
        counts[(i.vertex, i.edge)] = counts.get((i.vertex, i.edge), 0) + 1
    return (len(g.vertices), len(g.edges), tuple(sorted(counts.items())))


def structure_corpus(minimum: int = 300) -> list:
    """The exhaustive 2-2-4 block, then seeded fill up to ``minimum``."""
    out = all_hypergraphs(2, 2, 4)
    seen = {_cell_key(g) for g in out}
    rng = random.Random(_CORPUS_FILL_SEED)
    while len(out) < minimum:
        nv, ne, ni = rng.randint(2, 4), rng.randint(1, 3), rng.randint(3, 8)
        vertices = [f"v{k}" for k in range(1, nv + 1)]
        edges = [f"e{k}" for k in range(1, ne + 1)]
        per_edge = {e: 0 for e in edges}
        incs = []
        for k in range(1, ni + 1):
            open_edges = [e for e in edges if per_edge[e] < 5]
            if not open_edges:
                break
            e = rng.choice(open_edges)
            v = rng.choice(vertices)
            per_edge[e] += 1
            incs.append((f"i{k}", v, e))
        g = core.IncidenceHypergraph.build(vertices, edges, incs)
        key = _cell_key(g)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def corpus_oracle_inputs(seed: int) -> list:
    """(structure, signings) pairs; at most 64 sampled signings each."""
    rng = random.Random(seed)
    out = []
    for g in structure_corpus():
        ids = [i.id for i in g.incidences]
        signings = [
            dict(zip(ids, combo)) for combo in itertools.product((1, -1), repeat=len(ids))
        ]
        if len(signings) > MAX_SIGNINGS:
            signings = rng.sample(signings, MAX_SIGNINGS)
        out.append((g, signings))
    return out


def random_hypergraphs(seed: int, count: int = 50) -> list:
    """Degenerate shapes first, then seeded random structures."""
    build = core.IncidenceHypergraph.build
    out = [build([], [], []), build(["v1"], [], []), build([], ["e1"], []), build(["v1"], ["e1"], [])]
    rng = random.Random(seed)
    while len(out) < count:
        nv, ne, ni = rng.randint(1, 5), rng.randint(1, 4), rng.randint(0, 10)
        vertices = [f"v{k}" for k in range(1, nv + 1)]
        edges = [f"e{k}" for k in range(1, ne + 1)]
        incs = [(f"i{k}", rng.choice(vertices), rng.choice(edges)) for k in range(1, ni + 1)]
        out.append(build(vertices, edges, incs))
    return out


def topos_laws_inputs(seed: int) -> dict:
    return {
        "laws": all_hypergraphs(3, 3, 3),
        "block": all_hypergraphs(2, 2, 2),
        "envelopes": random_hypergraphs(seed),
    }


# Seed-independent exact values checked at every seed.
CYCLE_CONTRIBUTORS = {3: 16, 4: 36, 5: 84, 6: 200, 7: 480}
COMPLETE_CONTRIBUTORS = {3: 16, 4: 168, 5: 2208, 6: 34960, 7: 648240, 9: 330492736}


def ladder_rungs() -> list[tuple[str, int]]:
    """(family, n) in ladder order: increasing n within each family."""
    return [("C", n) for n in range(3, 8)] + [("K", n) for n in range(3, 8)] + [
        ("B", n) for n in range(3, 7)
    ]


def rung_text(family: str, n: int, seed: int) -> str:
    """JSON text of one rung with seed-drawn +1/-1 signs.

    Cycles and complete graphs put two incidences on every edge; a blob
    is one edge holding one incidence at each of its n vertices.
    """
    rng = random.Random(f"{seed}:{family}{n}")
    vertices = [f"v{k}" for k in range(1, n + 1)]
    if family == "B":
        edges = ["e1"]
        incidences = [
            {"id": f"i{k}", "vertex": v, "edge": "e1", "sign": rng.choice((1, -1))}
            for k, v in enumerate(vertices, 1)
        ]
    else:
        if family == "C":
            pairs = [(vertices[k], vertices[(k + 1) % n]) for k in range(n)]
        else:
            pairs = list(itertools.combinations(vertices, 2))
        edges = [f"e{k}" for k in range(1, len(pairs) + 1)]
        incidences = []
        for e, (a, b) in zip(edges, pairs):
            incidences.append({"id": f"{e}a", "vertex": a, "edge": e, "sign": rng.choice((1, -1))})
            incidences.append({"id": f"{e}b", "vertex": b, "edge": e, "sign": rng.choice((1, -1))})
    return json.dumps({"vertices": vertices, "edges": edges, "incidences": incidences})


def expected_contributors(family: str, n: int) -> int:
    if family == "C":
        return CYCLE_CONTRIBUTORS[n]
    if family == "K":
        return COMPLETE_CONTRIBUTORS[n]
    return math.factorial(n)
