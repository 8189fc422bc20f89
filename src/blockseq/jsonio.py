"""Canonical JSON artifact formats shared by the library and the CLI.

Every artifact kind has a distinct set of top-level keys, so a reader
can infer what it is looking at without a side channel (`infer_kind`).
Writing is canonical — sorted keys, fixed two-space indent, trailing
newline — so identical data produces byte-identical files.

Schema problems (wrong keys, shapes, or JSON types) raise
:class:`SchemaError`; values that parse but violate domain rules are
reported as :class:`InvalidInputError` (by the domain constructors, or by
the coloring reader before its int16 matrix stores a color), which lets
callers distinguish a malformed file from a well-formed artifact that
fails verification.

Sequences and witnesses need only ``core``; each other reader imports the
module that defines its model when it runs, so checking a sequence or a
witness never loads numpy or the algorithm modules.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .core import DEC, INC, BlockWitness, Sequence
from .errors import BlockseqError, InvalidInputError

if TYPE_CHECKING:
    from .avoid import AvoidingWitness
    from .biarc import OrderedGraph, Page, PagePartition
    from .partition import LabeledPartition, PointSet
    from .ramsey import BlockPathWitness, PairColoring

__all__ = [
    "SchemaError",
    "infer_kind",
    "dumps_canonical",
    "write_artifact",
    "read_artifact",
    "sequence_to_json",
    "sequence_from_json",
    "witness_to_json",
    "witness_from_json",
    "coloring_to_json",
    "coloring_from_json",
    "points_to_json",
    "points_from_json",
    "graph_to_json",
    "graph_from_json",
    "partition_to_json",
    "partition_from_json",
    "avoid_to_json",
    "avoid_from_json",
    "pages_to_json",
    "page_from_json",
    "pages_from_json",
    "monopath_to_json",
    "monopath_from_json",
    "blockpath_to_json",
    "blockpath_from_json",
]


class SchemaError(BlockseqError, ValueError):
    """Artifact JSON with missing keys, wrong types, or bad shapes."""


_KIND_KEYS = {
    "sequence": {"values"},
    "witness": {"direction", "blocks"},
    "coloring": {"n", "q", "colors"},
    "points": {"points"},
    "graph": {"n", "edges"},
    "partition": {"parts", "remainder", "metrics"},
    "avoid": {"a_blocks", "b_blocks", "guarantee"},
    "pages": {"n", "epsilon", "pages", "metrics"},
    "monopath": {"color", "vertices"},
    "blockpath": {"color", "endpoints", "blocks"},
}


def infer_kind(doc) -> str:
    """Name the artifact kind from the top-level key set."""
    if not isinstance(doc, dict):
        raise SchemaError(f"artifact must be a JSON object, got {type(doc).__name__}")
    keys = set(doc)
    for kind, expected in _KIND_KEYS.items():
        if keys == expected:
            return kind
    raise SchemaError(f"unrecognized artifact keys {sorted(keys)}")


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_artifact(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))


def read_artifact(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: artifact must be a JSON object")
    return doc


def _require(doc, kind: str) -> dict:
    if infer_kind(doc) != kind:
        raise SchemaError(f"expected a {kind} artifact, got {infer_kind(doc)}")
    return doc


def _int_list(values, what: str) -> list[int]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{what} must be integers, got {v!r}")
        out.append(v)
    return out


def _real(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{what} must be a number, got {v!r}")
    return float(v)


def _pair(v, what: str):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(f"{what} must be a pair, got {v!r}")
    return v


# -- sequences ---------------------------------------------------------------

def sequence_to_json(seq: Sequence) -> dict:
    return {"values": [float(v) for v in seq.values]}


def sequence_from_json(doc) -> Sequence:
    _require(doc, "sequence")
    if not isinstance(doc["values"], list):
        raise SchemaError("'values' must be a list")
    return Sequence(tuple(_real(v, "sequence values") for v in doc["values"]))


# -- block witnesses ---------------------------------------------------------

def witness_to_json(w: BlockWitness) -> dict:
    return {"direction": w.direction, "blocks": [list(b) for b in w.blocks]}


def witness_from_json(doc) -> BlockWitness:
    _require(doc, "witness")
    direction = doc["direction"]
    if direction not in (INC, DEC):
        raise SchemaError(f"'direction' must be {INC!r} or {DEC!r}, got {direction!r}")
    blocks = doc["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise SchemaError("'blocks' must be a list of index lists")
    return BlockWitness(
        direction,
        tuple(tuple(_int_list(b, "block indices")) for b in blocks),
    )


# -- pair colorings ----------------------------------------------------------

def coloring_to_json(col: PairColoring) -> dict:
    """Dense triangular form: one color per pair (i, j), i < j, in
    lexicographic order."""
    import numpy as np

    return {
        "n": col.n,
        "q": col.q,
        "colors": col.matrix[np.triu_indices(col.n, 1)].tolist(),
    }


def coloring_from_json(doc) -> PairColoring:
    import numpy as np

    from .ramsey import MAX_COLORS, PairColoring

    _require(doc, "coloring")
    n, q, colors = doc["n"], doc["q"], doc["colors"]
    for name, v in (("n", n), ("q", q)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise SchemaError(f"'{name}' must be a positive integer, got {v!r}")
    if not isinstance(colors, list):
        raise SchemaError("'colors' must be a list")
    total = n * (n - 1) // 2
    if len(colors) != total:
        raise SchemaError(f"need one color per pair ({total}), got {len(colors)}")
    if q > MAX_COLORS:
        raise InvalidInputError(f"at most {MAX_COLORS} colors are supported, got q={q}")

    def check(c):
        if not 1 <= c <= q:
            raise InvalidInputError(f"colors must lie in 1..{q}, got {c}")
        return c

    matrix = np.zeros((n, n), dtype=np.int16)
    if all(isinstance(c, int) and not isinstance(c, bool) for c in colors):
        # dense triangular form, as coloring_to_json writes it
        if colors:
            check(min(colors))
            check(max(colors))
        matrix[np.triu_indices(n, 1)] = colors
    else:  # one [i, j, c] triple per pair
        seen = set()
        for entry in colors:
            if not isinstance(entry, list) or len(entry) != 3:
                raise SchemaError(f"color entries must be [i, j, c], got {entry!r}")
            i, j, c = _int_list(entry, "color entry")
            if not 1 <= i < j <= n:
                raise SchemaError(f"pair ({i}, {j}) outside 1 <= i < j <= {n}")
            if (i, j) in seen:
                raise SchemaError(f"pair ({i}, {j}) colored twice")
            seen.add((i, j))
            matrix[i - 1, j - 1] = check(c)
    matrix = matrix + matrix.T
    return PairColoring(n, q, matrix)


# -- planar point sets -------------------------------------------------------

def points_to_json(ps: PointSet) -> dict:
    return {"points": [[float(x), float(y)] for x, y in ps.points]}


def points_from_json(doc) -> PointSet:
    from .partition import PointSet

    _require(doc, "points")
    if not isinstance(doc["points"], list):
        raise SchemaError("'points' must be a list")
    pts = []
    for entry in doc["points"]:
        x, y = _pair(entry, "point")
        pts.append((_real(x, "coordinate"), _real(y, "coordinate")))
    return PointSet(tuple(pts))


# -- ordered graphs ----------------------------------------------------------

def graph_to_json(g: OrderedGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(doc) -> OrderedGraph:
    from .biarc import OrderedGraph

    _require(doc, "graph")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError(f"'n' must be an integer, got {n!r}")
    if not isinstance(doc["edges"], list):
        raise SchemaError("'edges' must be a list")
    edges = []
    for entry in doc["edges"]:
        l, r = _pair(entry, "edge")
        edges.append(tuple(_int_list([l, r], "edge endpoints")))
    return OrderedGraph(n, tuple(edges))


# -- sequence partitions -----------------------------------------------------

def partition_to_json(lp: LabeledPartition) -> dict:
    return {
        "parts": [witness_to_json(w) for _, w in lp.parts],
        "remainder": list(lp.remainder),
        "metrics": lp.metrics,
    }


def partition_from_json(doc) -> LabeledPartition:
    from .partition import LabeledPartition

    _require(doc, "partition")
    if not isinstance(doc["parts"], list) or not isinstance(doc["remainder"], list):
        raise SchemaError("'parts' and 'remainder' must be lists")
    if not isinstance(doc["metrics"], dict):
        raise SchemaError("'metrics' must be an object")
    parts = []
    for part_doc in doc["parts"]:
        w = witness_from_json(part_doc)
        ids = tuple(sorted(i for block in w.blocks for i in block))
        parts.append((ids, w))
    remainder = tuple(_int_list(doc["remainder"], "remainder indices"))
    return LabeledPartition(tuple(parts), remainder, dict(doc["metrics"]))


# -- avoiding families -------------------------------------------------------

def avoid_to_json(w: AvoidingWitness) -> dict:
    return {
        "a_blocks": [[[float(x), float(y)] for x, y in blk] for blk in w.a_blocks],
        "b_blocks": [[[float(x), float(y)] for x, y in blk] for blk in w.b_blocks],
        "guarantee": float(w.guarantee),
    }


def _coord_blocks(raw, what: str):
    if not isinstance(raw, list):
        raise SchemaError(f"'{what}' must be a list of blocks")
    blocks = []
    for blk in raw:
        if not isinstance(blk, list):
            raise SchemaError(f"{what} blocks must be lists of points")
        pts = []
        for entry in blk:
            x, y = _pair(entry, f"{what} point")
            pts.append((_real(x, "coordinate"), _real(y, "coordinate")))
        blocks.append(tuple(pts))
    return tuple(blocks)


def avoid_from_json(doc) -> AvoidingWitness:
    from .avoid import AvoidingWitness

    _require(doc, "avoid")
    return AvoidingWitness(
        _coord_blocks(doc["a_blocks"], "a_blocks"),
        _coord_blocks(doc["b_blocks"], "b_blocks"),
        _real(doc["guarantee"], "guarantee"),
    )


# -- page partitions ---------------------------------------------------------

def pages_to_json(pp: PagePartition, n: int) -> dict:
    pages = []
    for page in pp.pages:
        layout = []
        for upper, lower in page.layout:
            layout.append(
                [list(upper), None if lower is None else list(lower)]
            )
        pages.append(
            {
                "edges": [list(e) for e in page.edges],
                "style": page.style,
                "split_b": page.split_b,
                "layout": layout,
            }
        )
    return {
        "n": n,
        "epsilon": pp.epsilon,
        "pages": pages,
        "metrics": list(pp.metrics),
    }


def page_from_json(doc) -> Page:
    from .biarc import Page

    if not isinstance(doc, dict):
        raise SchemaError(f"a page must be an object, got {doc!r}")
    if set(doc) != {"edges", "style", "split_b", "layout"}:
        raise SchemaError(f"malformed page object: {sorted(doc)!r}")
    if not isinstance(doc["edges"], list) or not isinstance(doc["layout"], list):
        raise SchemaError("page 'edges' and 'layout' must be lists")
    edges = tuple(
        tuple(_int_list(_pair(e, "page edge"), "page edge")) for e in doc["edges"]
    )
    layout = []
    for entry in doc["layout"]:
        upper, lower = _pair(entry, "layout entry")
        upper = tuple(_real(v, "span coordinate") for v in _pair(upper, "upper span"))
        if lower is not None:
            lower = tuple(
                _real(v, "span coordinate") for v in _pair(lower, "lower span")
            )
        layout.append((upper, lower))
    return Page(edges, doc["style"], doc["split_b"], tuple(layout))


def _spine_pages(doc) -> tuple[int, tuple[Page, ...], float, tuple[int, ...]]:
    """(n, pages, epsilon, metrics) of a pages artifact, an empty page list
    included.  The spine length n must be an int, at least 1, and reach
    every page edge's right end; every page's split vertex must lie on the
    spine before n."""
    _require(doc, "pages")
    if not isinstance(doc["metrics"], list):
        raise SchemaError("'metrics' must be a list")
    metrics = tuple(_int_list(doc["metrics"], "metrics"))
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SchemaError(f"'n' must be an integer, got {n!r}")
    if not isinstance(doc["pages"], list):
        raise SchemaError("'pages' must be a list")
    pages = tuple(page_from_json(p) for p in doc["pages"])
    if n < 1:
        raise InvalidInputError(f"'n' must be positive, got {n}")
    top = max((r for page in pages for _, r in page.edges), default=1)
    if top > n:
        raise InvalidInputError(f"edge vertex {top} lies past the spine end n = {n}")
    for page in pages:
        if page.split_b > n - 1:
            raise InvalidInputError(
                f"split vertex {page.split_b} lies past n - 1 = {n - 1}"
            )
    return n, pages, _real(doc["epsilon"], "epsilon"), metrics


def pages_from_json(doc) -> tuple[int, PagePartition]:
    """Returns (n, partition).  Rejects empty page lists, which no page
    partition holds; renderers that draw them read ``_spine_pages``."""
    from .biarc import PagePartition

    n, pages, epsilon, metrics = _spine_pages(doc)
    return n, PagePartition(pages, epsilon, metrics)


# -- monochromatic paths -----------------------------------------------------

def monopath_to_json(color: int, vertices) -> dict:
    return {"color": int(color), "vertices": [int(v) for v in vertices]}


def monopath_from_json(doc) -> tuple[int, list[int]]:
    _require(doc, "monopath")
    color = doc["color"]
    if isinstance(color, bool) or not isinstance(color, int):
        raise SchemaError(f"'color' must be an integer, got {color!r}")
    if not isinstance(doc["vertices"], list):
        raise SchemaError("'vertices' must be a list")
    return color, _int_list(doc["vertices"], "path vertices")


def blockpath_to_json(w: BlockPathWitness) -> dict:
    return {
        "color": w.color,
        "endpoints": list(w.endpoints),
        "blocks": [list(b) for b in w.blocks],
    }


def blockpath_from_json(doc) -> BlockPathWitness:
    from .ramsey import BlockPathWitness

    _require(doc, "blockpath")
    color = doc["color"]
    if isinstance(color, bool) or not isinstance(color, int):
        raise SchemaError(f"'color' must be an integer, got {color!r}")
    if not isinstance(doc["endpoints"], list) or not isinstance(doc["blocks"], list):
        raise SchemaError("'endpoints' and 'blocks' must be lists")
    blocks = []
    for b in doc["blocks"]:
        if not isinstance(b, list):
            raise SchemaError(f"blocks must be lists, got {b!r}")
        blocks.append(tuple(_int_list(b, "block vertices")))
    return BlockPathWitness(
        color,
        tuple(_int_list(doc["endpoints"], "endpoints")),
        tuple(blocks),
    )
