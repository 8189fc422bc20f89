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

from functools import partial
from itertools import chain
import json
from typing import TYPE_CHECKING

from .core import DEC, INC, BlockWitness, Sequence, integer, integers, real, reals
from .errors import BlockseqError, InvalidInputError

if TYPE_CHECKING:
    from .avoid import AvoidingWitness
    from .biarc import OrderedGraph, Page
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


# The readers ask ``core``'s scalar rule, raising SchemaError for a value of
# the wrong JSON type, and pass on ints and floats, which the constructors
# take without converting them again.


_int = partial(integer, error=SchemaError)
_ints = partial(integers, error=SchemaError)
_reals = partial(reals, error=SchemaError)


def _pair(v, what: str):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise SchemaError(f"{what} must be a pair, got {v!r}")
    return v


def _edges(raw, what: str) -> list[tuple]:
    """A list of [l, r] pairs of JSON ints, as tuples."""
    edges = [tuple(_pair(entry, what)) for entry in raw]
    _ints(chain.from_iterable(edges), f"{what} endpoint")
    return edges


# -- sequences ---------------------------------------------------------------

def sequence_to_json(seq: Sequence) -> dict:
    return {"values": [float(v) for v in seq.values]}


def sequence_from_json(doc) -> Sequence:
    _require(doc, "sequence")
    if not isinstance(doc["values"], list):
        raise SchemaError("'values' must be a list")
    return Sequence(_reals(doc["values"], "a sequence value"))


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
    return BlockWitness(direction, tuple(_ints(b, "a block index") for b in blocks))


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
        if _int(v, f"'{name}'") < 1:
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
    if not colors or not isinstance(colors[0], list):
        # dense triangular form, as coloring_to_json writes it
        colors = _ints(colors, "a color")
        if colors:
            check(min(colors))
            check(max(colors))
        matrix[np.triu_indices(n, 1)] = colors
    else:  # one [i, j, c] triple per pair
        seen = set()
        for entry in colors:
            if not isinstance(entry, list) or len(entry) != 3:
                raise SchemaError(f"color entries must be [i, j, c], got {entry!r}")
            i, j, c = _ints(entry, "a color entry")
            if not 1 <= i < j <= n:
                raise SchemaError(f"pair ({i}, {j}) outside 1 <= i < j <= {n}")
            if (i, j) in seen:
                raise SchemaError(f"pair ({i}, {j}) colored twice")
            seen.add((i, j))
            matrix[i - 1, j - 1] = check(c)
    return PairColoring(n, q, matrix)


# -- planar point sets -------------------------------------------------------

def points_to_json(ps: PointSet) -> dict:
    return {"points": [[float(x), float(y)] for x, y in ps.points]}


def points_from_json(doc) -> PointSet:
    from .partition import PointSet

    _require(doc, "points")
    if not isinstance(doc["points"], list):
        raise SchemaError("'points' must be a list")
    return PointSet(_points(doc["points"], "point"))


# -- ordered graphs ----------------------------------------------------------

def graph_to_json(g: OrderedGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(doc) -> OrderedGraph:
    from .biarc import OrderedGraph

    _require(doc, "graph")
    n = _int(doc["n"], "'n'")
    if not isinstance(doc["edges"], list):
        raise SchemaError("'edges' must be a list")
    return OrderedGraph(n, _edges(doc["edges"], "edge"))


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
    remainder = _ints(doc["remainder"], "a remainder index")
    metrics = dict(doc["metrics"])
    if "k" in metrics:  # the depth a partition promises (see cli._check_partition)
        metrics["k"] = _int(metrics["k"], "metrics 'k'")
    return LabeledPartition(tuple(parts), remainder, metrics)


# -- avoiding families -------------------------------------------------------

def avoid_to_json(w: AvoidingWitness) -> dict:
    return {
        "a_blocks": [[[float(x), float(y)] for x, y in blk] for blk in w.a_blocks],
        "b_blocks": [[[float(x), float(y)] for x, y in blk] for blk in w.b_blocks],
        "guarantee": float(w.guarantee),
    }


def _points(raw, what: str) -> list:
    """A list of [x, y] pairs of JSON numbers, as (x, y) float tuples."""
    flat = iter(_reals(chain.from_iterable(_pair(entry, what) for entry in raw), "a coordinate"))
    return list(zip(flat, flat))


def _coord_blocks(raw, what: str):
    if not isinstance(raw, list):
        raise SchemaError(f"'{what}' must be a list of blocks")
    if not all(isinstance(blk, list) for blk in raw):
        raise SchemaError(f"{what} blocks must be lists of points")
    return [_points(blk, f"{what} point") for blk in raw]


def avoid_from_json(doc) -> AvoidingWitness:
    from .avoid import AvoidingWitness

    _require(doc, "avoid")
    return AvoidingWitness(
        _coord_blocks(doc["a_blocks"], "a_blocks"),
        _coord_blocks(doc["b_blocks"], "b_blocks"),
        real(doc["guarantee"], "'guarantee'", SchemaError),
    )


# -- page partitions ---------------------------------------------------------

def pages_to_json(spine) -> dict:
    """The pages artifact of an (n, pages, epsilon, metrics) tuple, as
    ``_spine_pages`` reads it back."""
    n, pages, epsilon, metrics = spine
    return {
        "n": n,
        "epsilon": epsilon,
        "pages": [
            {
                "edges": [list(e) for e in page.edges],
                "style": page.style,
                "split_b": page.split_b,
                "layout": [
                    [list(upper), None if lower is None else list(lower)]
                    for upper, lower in page.layout
                ],
            }
            for page in pages
        ],
        "metrics": list(metrics),
    }


def page_from_json(doc) -> Page:
    from .biarc import Page

    if not isinstance(doc, dict):
        raise SchemaError(f"a page must be an object, got {doc!r}")
    if set(doc) != {"edges", "style", "split_b", "layout"}:
        raise SchemaError(f"malformed page object: {sorted(doc)!r}")
    if not isinstance(doc["edges"], list) or not isinstance(doc["layout"], list):
        raise SchemaError("page 'edges' and 'layout' must be lists")
    edges = _edges(doc["edges"], "page edge")

    def span(v):
        return _reals(_pair(v, "layout span"), "a span coordinate")

    layout = [_pair(entry, "layout entry") for entry in doc["layout"]]
    layout = [(span(upper), None if lower is None else span(lower)) for upper, lower in layout]
    return Page(edges, doc["style"], _int(doc["split_b"], "'split_b'"), layout)


def _spine_pages(doc) -> tuple[int, tuple[Page, ...], float, tuple[int, ...]]:
    """(n, pages, epsilon, metrics) of a pages artifact; an empty page list
    is a bare spine.  The spine length n must be an int, at least 1, and
    reach every page edge's right end; every page's split vertex must lie on
    the spine before n."""
    _require(doc, "pages")
    if not isinstance(doc["metrics"], list):
        raise SchemaError("'metrics' must be a list")
    metrics = _ints(doc["metrics"], "a crossing count")
    n = _int(doc["n"], "'n'")
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
    return n, pages, real(doc["epsilon"], "'epsilon'", SchemaError), metrics


# -- monochromatic paths -----------------------------------------------------

def monopath_to_json(path: tuple[int, list[int]]) -> dict:
    color, vertices = path
    return {"color": int(color), "vertices": [int(v) for v in vertices]}


def monopath_from_json(doc) -> tuple[int, list[int]]:
    _require(doc, "monopath")
    color = _int(doc["color"], "'color'")
    if not isinstance(doc["vertices"], list):
        raise SchemaError("'vertices' must be a list")
    return color, list(_ints(doc["vertices"], "a path vertex"))


def blockpath_to_json(w: BlockPathWitness) -> dict:
    return {
        "color": w.color,
        "endpoints": list(w.endpoints),
        "blocks": [list(b) for b in w.blocks],
    }


def blockpath_from_json(doc) -> BlockPathWitness:
    from .ramsey import BlockPathWitness

    _require(doc, "blockpath")
    color = _int(doc["color"], "'color'")
    if not isinstance(doc["endpoints"], list) or not isinstance(doc["blocks"], list):
        raise SchemaError("'endpoints' and 'blocks' must be lists")
    blocks = []
    for b in doc["blocks"]:
        if not isinstance(b, list):
            raise SchemaError(f"blocks must be lists, got {b!r}")
        blocks.append(_ints(b, "a block vertex"))
    return BlockPathWitness(color, _ints(doc["endpoints"], "an endpoint"), tuple(blocks))
