"""Batch command line front end.

Reads the JSON hypergraph format, dispatches one subcommand, and prints
a stable text (or ``--json``) report.  Exit codes: 0 success, 1 parse or
validation error, 2 resource guard exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Sequence

from . import limits
from .bidirected import activation_classes, as_bidirected, k_arborescences
from .contributors import (
    COMBOS,
    MinorClass,
    class_contributors,
    class_permutation,
    component_profile,
    contributor_sign,
    enumerate_contributors,
    oracle_equivalence,
    reduce_contributor,
    total_minor_poly,
    univariate_from_contributors,
)
from .core import subhypergraph
from .errors import DomainError, InvariantError, ResourceLimitError
from .jsonio import load_oriented_file
from .matrices import (
    adjacency_matrix,
    degree_matrix,
    incidence_matrix,
    integer_determinant,
    laplacian_matrix,
)
from .polynomial import MultivariatePolynomial, canonical_terms, render_multivariate, render_univariate
from .topos import classify, loading, subobject_classifier

JSON_FORMAT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse hook
        raise DomainError(message)


def _csv(text: str, what: str) -> tuple[str, ...]:
    if text == "":
        return ()
    parts = text.split(",")
    if any(p == "" for p in parts):
        raise DomainError(f"{what}: empty item in {text!r}")
    return tuple(parts)


def _parse_class(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if text.count(":") != 1:
        raise DomainError(f"class must look like u1,u2:w1,w2, got {text!r}")
    left, right = text.split(":")
    return _csv(left, "class rows"), _csv(right, "class columns")


def _matrix_lines(name: str, m) -> list[str]:
    rows, cols = m.shape
    lines = [f"{name} ({rows}x{cols}):"]
    if not rows or not cols:
        return lines
    cells = [[str(x) for x in row] for row in m.rows]
    label_w = max(len(r) for r in m.row_labels)
    widths = [
        max(len(m.col_labels[j]), max(len(cells[i][j]) for i in range(rows)))
        for j in range(cols)
    ]
    header = " " * (label_w + 4) + "  ".join(
        m.col_labels[j].rjust(widths[j]) for j in range(cols)
    )
    lines.append(header)
    for i in range(rows):
        body = "  ".join(cells[i][j].rjust(widths[j]) for j in range(cols))
        lines.append(f"  {m.row_labels[i].ljust(label_w)}  {body}")
    return lines


def _poly_json(p: MultivariatePolynomial, order: Sequence[str]) -> list[dict[str, Any]]:
    return [
        {"monomial": [list(uw) for uw in pairs], "coefficient": coeff}
        for pairs, coeff in canonical_terms(p, order)
    ]


def _step_text(s) -> str:
    return f"{s.tail} -[{s.tail_incidence} {s.edge} {s.head_incidence}]-> {s.head}"


def _profile_text(prof, sign: int) -> str:
    return (
        f"backsteps={prof.backsteps} loops={prof.loops} circles={prof.circles} "
        f"odd={prof.odd_circles} even={prof.even_circles} "
        f"positive={prof.positive_circles} negative={prof.negative_circles} "
        f"zero={prof.zero_circles} sign={sign:+d}"
    )


def cmd_matrices(og, args) -> tuple[list[str], dict[str, Any]]:
    named = [
        ("H", incidence_matrix(og)),
        ("A", adjacency_matrix(og)),
        ("D", degree_matrix(og)),
        ("L", laplacian_matrix(og)),
    ]
    lines: list[str] = []
    for name, m in named:
        lines.extend(_matrix_lines(name, m))
    return lines, {name: asdict(m) for name, m in named}


def cmd_charpoly(og, args) -> tuple[list[str], dict[str, Any]]:
    if args.multivariate:
        p = total_minor_poly(og, args.matrix, args.mode, max_vertices=args.max_vertices)
        return [render_multivariate(p, og.vertices)], {
            "matrix": args.matrix,
            "mode": args.mode,
            "multivariate": True,
            "terms": _poly_json(p, og.vertices),
        }
    p = univariate_from_contributors(og, args.matrix, args.mode, max_vertices=args.max_vertices)
    return [render_univariate(p)], {
        "matrix": args.matrix,
        "mode": args.mode,
        "multivariate": False,
        "coefficients": list(p.coeffs),
    }


def cmd_total_minor(og, args) -> tuple[list[str], dict[str, Any]]:
    p = total_minor_poly(og, args.target, args.mode, max_vertices=args.max_vertices)
    return [render_multivariate(p, og.vertices)], {
        "target": args.target,
        "mode": args.mode,
        "terms": _poly_json(p, og.vertices),
    }


def cmd_contributors(og, args) -> tuple[list[str], dict[str, Any]]:
    guards = {
        "strong_only": args.strong,
        "max_vertices": args.max_vertices,
        "max_count": args.max_enum,
    }
    cls = None
    if args.cls is not None:
        cls = MinorClass.build(og, *_parse_class(args.cls))
        members = class_contributors(og, cls, **guards)
    else:
        members = enumerate_contributors(og, **guards)
    lines = [f"contributors: {len(members)}"]
    if cls is not None:
        shown = " ".join(f"{u}->{w}" for u, w in cls.pairs()) or "(empty)"
        lines.append(f"class: {shown}")
    records = []
    for k, c in enumerate(members, 1):
        prof = component_profile(og, c)
        sign = contributor_sign(og, c)
        lines.append(f"#{k} {_profile_text(prof, sign)}")
        lines.extend(f"  {_step_text(s)}" for s in c)
        record: dict[str, Any] = {
            "steps": [asdict(s) for s in c],
            "sign": sign,
            "profile": asdict(prof),
        }
        if cls is not None:
            reduced = reduce_contributor(c, cls)
            perm = class_permutation(reduced, cls)
            shown = " ".join(f"{v}->{perm[v]}" for v in og.vertices if v in perm)
            lines.append(f"  reduced: {'; '.join(map(_step_text, reduced)) or '(empty)'}")
            lines.append(f"  permutation: {shown}")
            record["reduced"] = [asdict(s) for s in reduced]
            record["class_permutation"] = {v: perm[v] for v in sorted(perm)}
        records.append(record)
    payload: dict[str, Any] = {"count": len(members), "contributors": records}
    if cls is not None:
        payload["class"] = {"rows": list(cls.u), "columns": list(cls.w)}
    return lines, payload


def cmd_loading(og, args) -> tuple[list[str], dict[str, Any]]:
    before = og.structure
    padded = loading(before)
    after = padded.hypergraph
    added = sorted(
        padded.added_incidences,
        key=lambda iid: (
            after.vertex_pos[after.vertex_of(iid)],
            after.edge_pos[after.edge_of(iid)],
        ),
    )
    lines = [
        f"vertices: {len(before.vertices)} -> {len(after.vertices)}",
        f"edges: {len(before.edges)} -> {len(after.edges)}",
        f"incidences: {len(before.incidences)} -> {len(after.incidences)}",
    ]
    lines.extend(
        f"added {iid} at ({after.vertex_of(iid)}, {after.edge_of(iid)})" for iid in added
    )
    payload = {
        "vertices": list(after.vertices),
        "edges": list(after.edges),
        "added_incidences": [
            {"id": iid, "vertex": after.vertex_of(iid), "edge": after.edge_of(iid)}
            for iid in added
        ],
    }
    return lines, payload


def cmd_classify(og, args) -> tuple[list[str], dict[str, Any]]:
    g = og.structure
    k = subhypergraph(
        g,
        _csv(args.vertices, "--vertices"),
        _csv(args.edges, "--edges"),
        _csv(args.incidences, "--incidences"),
    )
    chi = classify(k)
    sections = [
        ("vertex map", g.vertices, chi.vertex_map),
        ("edge map", g.edges, chi.edge_map),
        ("incidence map", [i.id for i in g.incidences], chi.incidence_map),
    ]
    lines = []
    for title, order, mapping in sections:
        lines.append(f"{title}:")
        lines.extend(f"  {x} -> {mapping[x]}" for x in order)
    payload = {
        "vertex_map": dict(chi.vertex_map),
        "edge_map": dict(chi.edge_map),
        "incidence_map": dict(chi.incidence_map),
    }
    return lines, payload


def cmd_omega(args) -> tuple[list[str], dict[str, Any]]:
    sc = subobject_classifier()
    om = sc.omega
    lines = [
        "vertices: " + " ".join(om.vertices),
        "edges: " + " ".join(om.edges),
        "incidences:",
    ]
    lines.extend(f"  {i.id} at ({i.vertex}, {i.edge})" for i in om.incidences)
    lines.append(
        f"truth: vertex {sc.true_vertex} edge {sc.true_edge} incidence {sc.true_incidence}"
    )
    payload = {
        "vertices": list(om.vertices),
        "edges": list(om.edges),
        "incidences": [
            {"id": i.id, "vertex": i.vertex, "edge": i.edge} for i in om.incidences
        ],
        "truth": {
            "vertex": sc.true_vertex,
            "edge": sc.true_edge,
            "incidence": sc.true_incidence,
        },
    }
    return lines, payload


def cmd_arborescences(og, args) -> tuple[list[str], dict[str, Any]]:
    bg = as_bidirected(og)
    roots = _csv(args.roots, "--roots")
    forests = k_arborescences(bg, roots, max_vertices=args.max_vertices, max_count=args.max_enum)
    # The coefficient of prod x[u,u] over the roots in det(X - L) is
    # (-1)^|others| times the principal minor of L on the other vertices.
    others = [v for v in og.vertices if v not in roots]
    coeff = (-1) ** len(others) * integer_determinant(laplacian_matrix(og).restrict(others))
    label = "*".join(f"x[{u},{u}]" for u in roots) or "1"
    lines = [f"arborescences: {len(forests)}"]
    for k, arb in enumerate(forests, 1):
        edges = ",".join(arb.edges) or "(none)"
        assign = " ".join(f"{v}->{r}" for v, r in arb.assignment)
        lines.append(f"#{k} edges: {edges} | assignment: {assign}")
    lines.append(f"coefficient of {label}: {coeff}")
    payload = {
        "roots": list(roots),
        "count": len(forests),
        "forests": [
            {"edges": list(a.edges), "assignment": [list(p) for p in a.assignment]}
            for a in forests
        ],
        "coefficient": coeff,
    }
    return lines, payload


def cmd_activation(og, args) -> tuple[list[str], dict[str, Any]]:
    bg = as_bidirected(og)
    classes = activation_classes(bg, max_vertices=args.max_vertices, max_count=args.max_enum)
    lines = [f"activation classes: {len(classes)}"]
    records = []
    for k, a in enumerate(classes, 1):
        bottom_back = sum(1 for s in a.bottom if s.is_backstep)
        cycles = "".join("(" + " ".join(c) + ")" for c in a.generators) or "(none)"
        lines.append(
            f"#{k} size={len(a.members)} generators={len(a.generators)} "
            f"bottom_backsteps={bottom_back} cycles: {cycles}"
        )
        records.append(
            {
                "size": len(a.members),
                "generators": [list(c) for c in a.generators],
                "bottom": [asdict(s) for s in a.bottom],
            }
        )
    return lines, {"count": len(classes), "classes": records}


def cmd_verify(og, args) -> tuple[list[str], dict[str, Any], bool]:
    results = oracle_equivalence(og, max_vertices=args.max_vertices)
    lines = []
    payload = {}
    for target, mode in COMBOS:
        ok = results[(target, mode)]
        lines.append(f"{target} {mode}: {'PASS' if ok else 'FAIL'}")
        payload[f"{target} {mode}"] = "PASS" if ok else "FAIL"
    return lines, {"results": payload}, all(results.values())


def build_parser() -> _Parser:
    parser = _Parser(prog="ohg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str,
        needs_input: bool = True,
        max_vertices: int | None = None,
        max_enum: bool = False,
    ) -> argparse.ArgumentParser:
        # Guard flags exist only where they are read, defaulting to the
        # limit that subcommand applies.
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="path to a hypergraph JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if max_vertices is not None:
            p.add_argument("--max-vertices", type=int, default=max_vertices)
        if max_enum:
            p.add_argument("--max-enum", type=int, default=limits.MAX_CONTRIBUTORS)
        return p

    add("matrices")
    p = add("charpoly", max_vertices=limits.MAX_ORACLE_VERTICES)
    p.add_argument("--matrix", choices=("adjacency", "laplacian"), required=True)
    p.add_argument("--mode", choices=("det", "perm"), required=True)
    p.add_argument("--multivariate", action="store_true")
    p = add("total-minor", max_vertices=limits.MAX_MINOR_VERTICES)
    p.add_argument("--target", choices=("adjacency", "laplacian"), required=True)
    p.add_argument("--mode", choices=("det", "perm"), required=True)
    p = add("contributors", max_vertices=limits.MAX_CONTRIBUTOR_VERTICES, max_enum=True)
    p.add_argument("--strong", action="store_true")
    p.add_argument("--class", dest="cls", default=None, metavar="U:W")
    add("loading")
    p = add("classify")
    p.add_argument("--vertices", default="")
    p.add_argument("--edges", default="")
    p.add_argument("--incidences", default="")
    add("omega", needs_input=False)
    p = add("arborescences", max_vertices=limits.MAX_ARBORESCENCE_VERTICES, max_enum=True)
    p.add_argument("--roots", required=True)
    add("activation", max_vertices=limits.MAX_CONTRIBUTOR_VERTICES, max_enum=True)
    add("verify", max_vertices=limits.MAX_MINOR_VERTICES)
    return parser


_HANDLERS = {
    "matrices": cmd_matrices,
    "charpoly": cmd_charpoly,
    "total-minor": cmd_total_minor,
    "contributors": cmd_contributors,
    "loading": cmd_loading,
    "classify": cmd_classify,
    "arborescences": cmd_arborescences,
    "activation": cmd_activation,
}


def _emit(args, command: str, lines: list[str], payload: dict[str, Any]) -> None:
    if args.json:
        body = {"format": JSON_FORMAT, "command": command}
        body.update(payload)
        print(json.dumps(body, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "omega":
            lines, payload = cmd_omega(args)
            _emit(args, "omega", lines, payload)
            return 0
        og = load_oriented_file(args.input)
        if args.command == "verify":
            lines, payload, ok = cmd_verify(og, args)
            _emit(args, "verify", lines, payload)
            return 0 if ok else 3
        lines, payload = _HANDLERS[args.command](og, args)
        _emit(args, args.command, lines, payload)
        return 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
