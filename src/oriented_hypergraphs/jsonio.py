"""JSON input/output for oriented hypergraphs.

Input shape::

    {
      "vertices": ["v1", "v2"],
      "edges": ["e1"],
      "incidences": [
        {"id": "i1", "vertex": "v1", "edge": "e1", "sign": 1},
        {"id": "i2", "vertex": "v2", "edge": "e1"}
      ]
    }

``sign`` defaults to +1 and may be -1, 0, or +1. The optional boolean
``loaded`` marks an incidence as produced by zero-loading; it is emitted
on output so loaded structures round-trip. Errors carry the JSON path of
the offending element.
"""

from __future__ import annotations

import json
from typing import Any

from .core import IncidenceHypergraph, OrientedHypergraph
from .errors import DomainError

__all__ = ["parse_oriented", "loads_oriented", "load_oriented_file", "oriented_to_dict", "dumps_oriented"]

_INCIDENCE_KEYS = {"id", "vertex", "edge", "sign", "loaded"}


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise DomainError(f"{where}: expected a string, got {type(value).__name__}")
    return value


def parse_oriented(data: Any) -> OrientedHypergraph:
    """Build an oriented hypergraph from already-decoded JSON data."""
    if not isinstance(data, dict):
        raise DomainError("top level: expected an object")
    unknown = set(data) - {"vertices", "edges", "incidences"}
    if unknown:
        raise DomainError(f"top level: unknown keys {sorted(unknown)}")
    for key in ("vertices", "edges", "incidences"):
        if key not in data:
            raise DomainError(f"top level: missing key {key!r}")
        if not isinstance(data[key], list):
            raise DomainError(f"{key}: expected a list")
    vertices = [_expect_str(v, f"vertices[{k}]") for k, v in enumerate(data["vertices"])]
    edges = [_expect_str(e, f"edges[{k}]") for k, e in enumerate(data["edges"])]
    triples: list[tuple[str, str, str]] = []
    signs: dict[str, int] = {}
    loaded: set[str] = set()
    for k, item in enumerate(data["incidences"]):
        where = f"incidences[{k}]"
        if not isinstance(item, dict):
            raise DomainError(f"{where}: expected an object")
        unknown = set(item) - _INCIDENCE_KEYS
        if unknown:
            raise DomainError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("id", "vertex", "edge"):
            if key not in item:
                raise DomainError(f"{where}: missing key {key!r}")
        iid = _expect_str(item["id"], f"{where}.id")
        v = _expect_str(item["vertex"], f"{where}.vertex")
        e = _expect_str(item["edge"], f"{where}.edge")
        sign = item.get("sign", 1)
        if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (-1, 0, 1):
            raise DomainError(f"{where}.sign: expected -1, 0, or 1, got {sign!r}")
        flag = item.get("loaded", False)
        if not isinstance(flag, bool):
            raise DomainError(f"{where}.loaded: expected a boolean")
        triples.append((iid, v, e))
        signs[iid] = sign
        if flag:
            loaded.add(iid)
    structure = IncidenceHypergraph.build(vertices, edges, triples)
    return OrientedHypergraph.build(structure, signs, loaded)


def loads_oriented(text: str) -> OrientedHypergraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    return parse_oriented(data)


def load_oriented_file(path: str) -> OrientedHypergraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    return loads_oriented(text)


def oriented_to_dict(og: OrientedHypergraph) -> dict[str, Any]:
    incidences = []
    for i in og.structure.incidences:
        item: dict[str, Any] = {"id": i.id, "vertex": i.vertex, "edge": i.edge, "sign": og.sigma(i.id)}
        if i.id in og.loaded:
            item["loaded"] = True
        incidences.append(item)
    return {
        "vertices": list(og.structure.vertices),
        "edges": list(og.structure.edges),
        "incidences": incidences,
    }


def dumps_oriented(og: OrientedHypergraph) -> str:
    return json.dumps(oriented_to_dict(og), indent=2)
