"""Reading and writing the JSON file formats the CLI speaks.

Space file:      {"points": ["a","b","c"], "opens": [[], ["a"], ...]}
                 with an optional embedded "operation" object.
Operation file:  {"builtin": "closure"}
                 or {"table": {"[a,b]": ["a","b","c"], ...}, "fill": "identity"}
Map file:        {"assign": {"a": "b", "b": "b", "c": "c"}}

Sets are arrays of point labels; order is irrelevant on input and canonical
(bit order of the universe) on output. Schema problems raise SchemaError
with the JSON path of the offending element.
"""
from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Sequence

from .core import Mask, Topology, Universe, make_topology
from .errors import EngineError, SchemaError
from .gamma import GammaSpace
from .maps import MapInstance, PointMap
from .ops import BUILTIN_KINDS, FILL_POLICIES, GammaOperation, gamma_builtin, gamma_from_table
from .semistar import SemistarContext


def _expect(condition: bool, path: str, message: str):
    if not condition:
        raise SchemaError(path, message)


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}") from None


def _mask_from_labels(universe: Universe, labels: object, path: str) -> Mask:
    _expect(isinstance(labels, list), path, "expected an array of point labels")
    mask = 0
    for i, name in enumerate(labels):
        _expect(isinstance(name, str), f"{path}[{i}]", "expected a point label string")
        try:
            mask |= 1 << universe.labels.index(name)
        except ValueError:
            raise SchemaError(f"{path}[{i}]", f"unknown point {name!r}") from None
    return mask


def parse_set(text: str, universe: Universe) -> Mask:
    """Parse a brace set literal like {a,b}; bare a,b and the empty string
    are accepted too."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    body = body.strip()
    if not body:
        return 0
    return universe.mask_of(part.strip() for part in body.split(","))


def set_to_labels(universe: Universe, mask: Mask) -> list:
    return list(universe.names_of(mask))


def family_to_labels(universe: Universe, family) -> list:
    return [set_to_labels(universe, m) for m in family]


def _parse_table_key(key: str, universe: Universe, path: str) -> Mask:
    # a key is a set literal, also in the bracket form that table_key writes
    body = key.strip()
    if body.startswith("[") and body.endswith("]"):
        body = "{" + body[1:-1] + "}"
    try:
        return parse_set(body, universe)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def table_key(universe: Universe, mask: Mask) -> str:
    return "[" + ",".join(universe.names_of(mask)) + "]"


def operation_from_json(data: object, topology: Topology, path: str = "operation") -> GammaOperation:
    _expect(isinstance(data, dict), path, "expected an operation object")
    if "builtin" in data:
        kind = data["builtin"]
        _expect(
            kind in BUILTIN_KINDS,
            f"{path}.builtin",
            f"expected one of {list(BUILTIN_KINDS)}, got {kind!r}",
        )
        return gamma_builtin(kind, topology)
    _expect("table" in data, path, 'expected a "builtin" or "table" key')
    table = data["table"]
    _expect(isinstance(table, dict), f"{path}.table", "expected an object of set -> set entries")
    fill = data.get("fill", "identity")
    _expect(
        fill in FILL_POLICIES,
        f"{path}.fill",
        f"expected one of {list(FILL_POLICIES)}, got {fill!r}",
    )
    entries = {}
    universe = topology.universe
    for key, value in table.items():
        mask = _parse_table_key(key, universe, f"{path}.table.{key}")
        entries[mask] = _mask_from_labels(universe, value, f"{path}.table.{key}")
    try:
        return gamma_from_table(topology, entries, fill)
    except EngineError as exc:
        raise SchemaError(f"{path}.table", str(exc)) from None


def load_space(path: str) -> tuple:
    """Parse a space file; returns (Topology, embedded operation or None)."""
    data = _load_json(path)
    _expect(isinstance(data, dict), path, "expected a space object")
    _expect("points" in data, f"{path}.points", "missing")
    points = data["points"]
    _expect(
        isinstance(points, list) and all(isinstance(p, str) for p in points),
        f"{path}.points", "expected an array of label strings",
    )
    try:
        universe = Universe(tuple(points))
    except (ValueError, EngineError) as exc:
        raise SchemaError(f"{path}.points", str(exc)) from None
    _expect("opens" in data, f"{path}.opens", "missing")
    opens_json = data["opens"]
    _expect(isinstance(opens_json, list), f"{path}.opens", "expected an array of sets")
    opens = [
        _mask_from_labels(universe, entry, f"{path}.opens[{i}]")
        for i, entry in enumerate(opens_json)
    ]
    try:
        topology = make_topology(universe, opens)
    except EngineError as exc:
        raise SchemaError(f"{path}.opens", str(exc)) from None
    operation = None
    if "operation" in data:
        operation = operation_from_json(data["operation"], topology, f"{path}.operation")
    return topology, operation


def load_operation(path: str, topology: Topology) -> GammaOperation:
    return operation_from_json(_load_json(path), topology, path)


def load_map(path: str, source: Universe, target: Universe) -> PointMap:
    data = _load_json(path)
    _expect(isinstance(data, dict), path, "expected a map object")
    _expect("assign" in data, f"{path}.assign", "missing")
    assign = data["assign"]
    _expect(isinstance(assign, dict), f"{path}.assign", "expected an object of point -> point")
    for key, value in assign.items():
        _expect(isinstance(value, str), f"{path}.assign.{key}", "expected a point label string")
    try:
        return PointMap.from_labels(source, target, assign)
    except ValueError as exc:
        raise SchemaError(f"{path}.assign", str(exc)) from None


def space_to_json(topology: Topology, operation: Optional[GammaOperation] = None) -> dict:
    universe = topology.universe
    out = {
        "points": list(universe.labels),
        "opens": family_to_labels(universe, topology.opens),
    }
    if operation is not None:
        if operation.origin in BUILTIN_KINDS:
            out["operation"] = {"builtin": operation.origin}
        else:
            out["operation"] = {
                "table": {
                    table_key(universe, m): set_to_labels(universe, operation.table[m])
                    for m in range(topology.full + 1)
                },
                "fill": "identity",
            }
    return out


def _reindent(text: str, depth: int) -> str:
    """An indent=2 fragment moved `depth` levels in, for embedding."""
    return text.replace("\n", "\n" + "  " * depth)


def topologies_json_chunks(n: int, topologies: Sequence[Topology]) -> Iterator[str]:
    """The enumerate --json document in pieces, one per topology between a
    head and a tail; joined they are exactly
    json.dumps({"n": n, "count": ..., "topologies": [space_to_json(t), ...]},
    indent=2, sort_keys=True), without the trailing newline. The count is
    written first, so `topologies` is a sequence.

    indent= selects the pure-Python encoder, which would walk every label
    of every topology. Here json.dumps encodes each mask's labels and the
    points once per universe, and each topology object is joined from
    those fragments, re-indented to their depth: the object sits at depth
    2 of the document, its "opens" entries at depth 4.
    """
    yield f'{{\n  "count": {len(topologies)},\n  "n": {json.dumps(n)},\n  "topologies": ['
    fragments = {}
    separator = "\n    "
    for topology in topologies:
        universe = topology.universe
        if universe not in fragments:
            labels = family_to_labels(universe, range(universe.full + 1))
            points = _reindent(json.dumps(list(universe.labels), indent=2), 3)
            fragments[universe] = (
                [_reindent(json.dumps(names, indent=2), 4) for names in labels],
                f'\n      ],\n      "points": {points}\n    }}',
            )
        masks, tail = fragments[universe]
        # opens always hold the empty and the full set, so never render as []
        opens = ",\n        ".join([masks[m] for m in topology.opens])
        yield f'{separator}{{\n      "opens": [\n        {opens}{tail}'
        separator = ",\n    "
    yield "\n  ]\n}" if topologies else "]\n}"


def topologies_to_json(n: int, topologies: Iterable[Topology]) -> str:
    """The whole enumerate --json document as one string: the joined
    `topologies_json_chunks` of any iterable of topologies."""
    return "".join(topologies_json_chunks(n, tuple(topologies)))


def _load_context(space_path: str, operation_path: Optional[str],
                  closure_variant: str) -> SemistarContext:
    topology, embedded = load_space(space_path)
    if operation_path is not None:
        operation = load_operation(operation_path, topology)
    else:
        operation = embedded or gamma_builtin("identity", topology)
    return SemistarContext(GammaSpace(topology, operation), closure_variant)


def load_bundle(
    space_path: str,
    operation_path: Optional[str] = None,
    map_path: Optional[str] = None,
    codomain_path: Optional[str] = None,
    codomain_operation_path: Optional[str] = None,
    closure_variant: str = "pointwise",
):
    """Assemble a fully validated instance from input files.

    Returns the space's SemistarContext when no map is requested, otherwise
    a MapInstance between the two spaces' contexts; every context takes
    `closure_variant`. A space's operation defaults to identity; an
    explicit operation file overrides an operation embedded in the space
    file.
    """
    domain = _load_context(space_path, operation_path, closure_variant)
    if map_path is None and codomain_path is None:
        return domain
    if map_path is None or codomain_path is None:
        raise SchemaError(
            map_path or codomain_path or space_path,
            "a map instance needs both a map file and a codomain space file",
        )
    codomain = _load_context(codomain_path, codomain_operation_path, closure_variant)
    point_map = load_map(map_path, domain.universe, codomain.universe)
    return MapInstance(domain, codomain, point_map)
