"""Book layouts with few crossings per page for ordered graphs.

An ordered graph on vertices 1..n is drawn on a horizontal spine.  The
edge set is split recursively at a vertex ``b`` chosen so that each side
keeps at most half the edges.  Edges spanning the split, taken in
lexicographic order, have their right endpoints partitioned into
block-nondecreasing and block-nonincreasing families (ties broken by
position, so the relaxed comparisons are honoured).  Nonincreasing
families become pages of plain upper semicircles; nondecreasing families
become biarc pages whose upper and lower semicircles meet on the spine
strictly between ``b`` and ``b + 1``; the few entries deleted by the
partitioner become singleton pages.  Pages produced by the two recursive
halves occupy disjoint vertex ranges, so they are merged pairwise
without creating any new crossings, keeping the page count logarithmic
in the number of edges.

Within a single page, two arcs cross exactly when their same-side spans
interleave; the construction confines such pairs to a single block of
the partition, which is what keeps every page under its crossing budget
``epsilon * size**2``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .core import DEC, Sequence, require_int
from .errors import InvalidInputError, SearchFailedError
from .partition import partition_sequence

__all__ = [
    "UPPER_ARCS",
    "BIARCS",
    "OrderedGraph",
    "Page",
    "PagePartition",
    "half_split",
    "partition_multiset",
    "spine_crossing",
    "count_page_crossings",
    "paginate",
]

UPPER_ARCS = "upper-arcs"
BIARCS = "biarcs"

# Cap on the number of parts the multiset partitioner may produce; the
# construction only needs *some* fixed k-dependent bound, so a generous
# constant keeps the page-count guarantee honest without tuning.
_PART_CONSTANT = 12

_Edge = tuple[int, int]
_Span = tuple[float, float]
_Entry = tuple[_Span, _Span | None]
_Draft = tuple[list[_Edge], list[_Entry], int]  # edges, layout, split vertex


def _check_edge(edge, n: int) -> _Edge:
    if (
        not isinstance(edge, tuple)
        or len(edge) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in edge)
    ):
        raise InvalidInputError(f"edge must be a pair of ints, got {edge!r}")
    left, right = edge
    if not 1 <= left < right <= n:
        raise InvalidInputError(f"edge {edge!r} outside 1 <= l < r <= {n}")
    return edge


@dataclass(frozen=True)
class OrderedGraph:
    """Graph on linearly ordered vertices 1..n with edges (l, r), l < r."""

    n: int
    edges: tuple[_Edge, ...]

    def __init__(self, n, edges):
        require_int(n=n)
        if n < 1:
            raise InvalidInputError(f"vertex count must be positive, got {n!r}")
        edges = tuple(edges)
        for edge in edges:
            _check_edge(edge, n)
        if len(set(edges)) != len(edges):
            raise InvalidInputError("duplicate edges are not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class Page:
    """One page of a book drawing: edges plus their arc spans.

    ``layout`` holds one entry per edge: ``((l, r), None)`` for a plain
    upper semicircle, or ``((l, c), (c, r))`` for a biarc whose halves
    meet the spine at ``c``.  Crossing points of distinct biarcs are
    required to be distinct, which keeps the geometric picture
    unambiguous.  ``split_b`` records the split vertex the page was
    built (or merged) at: on a spine of n vertices, 1 <= split_b <= n - 1,
    since a split lies between the ends of some edge.  ``paginate`` never
    writes more, and the pages artifact reader rejects more.
    """

    edges: tuple[_Edge, ...]
    style: str
    split_b: int
    layout: tuple[_Entry, ...]

    def __init__(self, edges, style, split_b, layout):
        edges = tuple(edges)
        layout = tuple(
            tuple(part if part is None else tuple(part) for part in entry)
            for entry in layout
        )
        if style not in (UPPER_ARCS, BIARCS):
            raise InvalidInputError(f"unknown page style {style!r}")
        require_int(split_b=split_b)
        if split_b < 1:
            raise InvalidInputError(f"split vertex must be positive, got {split_b!r}")
        if not edges:
            raise InvalidInputError("a page must hold at least one edge")
        if len(layout) != len(edges):
            raise InvalidInputError("layout must have one entry per edge")
        if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
            raise InvalidInputError("page edges must be strictly lex-sorted")
        lowers = []
        max_vertex = max(r for _, r in edges)
        for edge, entry in zip(edges, layout):
            left, right = _check_edge(edge, max_vertex)
            if len(entry) != 2:
                raise InvalidInputError(f"malformed layout entry {entry!r}")
            upper, lower = entry
            if lower is None:
                if tuple(upper) != (float(left), float(right)):
                    raise InvalidInputError(
                        f"upper-arc span {upper!r} does not match edge {edge!r}"
                    )
            else:
                upper = tuple(upper)
                lower = tuple(lower)
                if len(upper) != 2 or len(lower) != 2:
                    raise InvalidInputError(f"malformed layout entry {entry!r}")
                crossing = upper[1]
                if lower[0] != crossing:
                    raise InvalidInputError(
                        f"biarc halves of {edge!r} meet at {upper[1]!r} != {lower[0]!r}"
                    )
                if upper[0] != float(left) or lower[1] != float(right):
                    raise InvalidInputError(
                        f"biarc span endpoints {entry!r} do not match edge {edge!r}"
                    )
                if not left < crossing < right:
                    raise InvalidInputError(
                        f"biarc of {edge!r} must cross the spine inside the edge"
                    )
                lowers.append(crossing)
        if style == UPPER_ARCS and lowers:
            raise InvalidInputError("upper-arcs page may not contain biarcs")
        if style == BIARCS and not lowers:
            raise InvalidInputError("biarcs page must contain at least one biarc")
        if len(set(lowers)) != len(lowers):
            raise InvalidInputError("biarc spine crossings must be pairwise distinct")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "style", style)
        object.__setattr__(self, "split_b", split_b)
        object.__setattr__(self, "layout", layout)

    @property
    def size(self) -> int:
        return len(self.edges)

    def upper_spans(self) -> list[_Span]:
        return [entry[0] for entry in self.layout]

    def lower_spans(self) -> list[_Span]:
        return [entry[1] for entry in self.layout if entry[1] is not None]


@dataclass(frozen=True)
class PagePartition:
    """A complete book drawing: pages, budget parameter, crossing counts."""

    pages: tuple[Page, ...]
    epsilon: float
    metrics: tuple[int, ...]

    def __init__(self, pages, epsilon, metrics):
        pages = tuple(pages)
        metrics = tuple(metrics)
        if not pages:
            raise InvalidInputError("a page partition needs at least one page")
        if not all(isinstance(p, Page) for p in pages):
            raise InvalidInputError("pages must be Page instances")
        epsilon = float(epsilon)
        if not 0.0 < epsilon <= 1.0 or not math.isfinite(epsilon):
            raise InvalidInputError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        if len(metrics) != len(pages):
            raise InvalidInputError("need one crossing count per page")
        seen: set[_Edge] = set()
        for page, count in zip(pages, metrics):
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise InvalidInputError(f"crossing count must be a nonneg int, got {count!r}")
            if count > epsilon * page.size**2:
                raise InvalidInputError(
                    f"page with {page.size} edges has {count} crossings, "
                    f"over budget {epsilon * page.size ** 2:g}"
                )
            for edge in page.edges:
                if edge in seen:
                    raise InvalidInputError(f"edge {edge!r} appears on two pages")
                seen.add(edge)
        object.__setattr__(self, "pages", pages)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "metrics", metrics)

    @property
    def total_crossings(self) -> int:
        return sum(self.metrics)


def half_split(graph: OrderedGraph) -> int:
    """Largest split vertex b whose left side (edges with r <= b) keeps
    at most half the edges; the right side (edges with l > b) then keeps
    at most half as well."""
    edges = graph.edges
    if not edges:
        raise InvalidInputError("cannot split a graph with no edges")
    total = len(edges)
    ends_at = [0] * (graph.n + 2)
    for _, right in edges:
        ends_at[right] += 1
    best = 0
    running = 0
    for vertex in range(1, graph.n + 1):
        running += ends_at[vertex]
        if 2 * running <= total:
            best = vertex
    if best < 1:
        raise InvalidInputError("no valid split vertex (attached multigraph?)")
    on_right = sum(1 for left, _ in edges if left > best)
    if 2 * on_right > total:
        raise SearchFailedError("right side of the split exceeded half the edges")
    return best


def _part_cap(k: int) -> int:
    return math.ceil(_PART_CONSTANT * k * k * max(1.0, math.log2(k)))


def partition_multiset(values, k: int):
    """Partition a multiset sequence into block-nondecreasing /
    block-nonincreasing parts, deleting at most (k-1)^2 entries.

    Ties are perturbed by position: each value is replaced by its rank
    under (value, index) order, so a nondecreasing run of equal values
    reads as increasing and stays in one part.  Returns
    ``(parts, deleted)`` where parts are :class:`BlockWitness` objects
    over 1-based positions (direction ``inc`` = nondecreasing values,
    ``dec`` = nonincreasing) and ``deleted`` lists the dropped
    positions.
    """
    require_int(k=k)
    if k < 2:
        raise InvalidInputError(f"depth k must be >= 2, got {k!r}")
    values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise InvalidInputError(f"values must be finite reals, got {v!r}")
    n = len(values)
    if n == 0:
        return (), ()
    order = sorted(range(n), key=lambda i: (values[i], i))
    rank = [0] * n
    for position, index in enumerate(order):
        rank[index] = position
    labeled = partition_sequence(Sequence(tuple(float(r) for r in rank)), k)
    parts = tuple(witness for _, witness in labeled.parts)
    deleted = tuple(sorted(labeled.remainder))
    if len(deleted) > (k - 1) ** 2:
        raise SearchFailedError("partition deleted too many entries")
    if len(parts) > _part_cap(k):
        raise SearchFailedError("partition produced too many parts")
    return parts, deleted


def spine_crossing(l: int, r: int, b: int, n: int) -> float:
    """Spine coordinate where the biarc of edge (l, r) changes half-plane.

    The point lies strictly inside (b, b + 1) and is distinct across
    distinct edges, which makes biarc crossings on one page depend only
    on span interleaving.
    """
    require_int(l=l, r=r, b=b, n=n)
    if not 1 <= l <= b < r <= n:
        raise InvalidInputError(
            f"edge ({l}, {r}) does not span split vertex {b} within 1..{n}"
        )
    return b + 1 - l / n - r / (2 * n * n)


_CHUNK = 256  # spans compared against all others per step


def _interleavings(spans) -> int:
    """Span pairs that interleave, counted as the ordered pairs a, b with
    a1 < b1 < a2 < b2.  Rows go ``_CHUNK`` at a time, so memory stays
    O(len(spans) * _CHUNK) on large pages."""
    if len(spans) < 2:
        return 0
    b1, b2 = np.asarray(spans, dtype=float).T
    count = 0
    for lo in range(0, len(b1), _CHUNK):
        a1, a2 = b1[lo : lo + _CHUNK, None], b2[lo : lo + _CHUNK, None]
        count += int(np.count_nonzero((a1 < b1) & (b1 < a2) & (a2 < b2)))
    return count


def count_page_crossings(page: Page) -> int:
    """Arc crossings on one page: interleaving span pairs, per half-plane.

    Arcs sharing a spine endpoint touch there and do not cross, matching
    the geometry of semicircles over the spine.
    """
    return _interleavings(page.upper_spans()) + _interleavings(page.lower_spans())


def _layout(edges, b: int, n: int, biarc: bool) -> list[_Entry]:
    """Spans of one part's edges: plain upper semicircles, or biarcs that
    cross the spine inside (b, b + 1)."""
    if not biarc:
        return [((float(l), float(r)), None) for l, r in edges]
    crossings = [spine_crossing(l, r, b, n) for l, r in edges]
    # Construction-time geometry check: lex-later edges must cross the
    # spine strictly earlier, otherwise crossing counting breaks down.
    if any(x <= y for x, y in zip(crossings, crossings[1:])):
        raise SearchFailedError(
            "biarc spine crossings are not strictly decreasing in lex order"
        )
    return [((float(l), c), (c, float(r))) for (l, r), c in zip(edges, crossings)]


def _build_pages(edges, k: int, n: int) -> list[_Draft]:
    """Page drafts (edges, layout, split vertex) for the lex-sorted
    ``edges``: this split's own pages, then the two halves' pages merged
    pairwise."""
    if not edges:
        return []
    b = half_split(OrderedGraph(n, tuple(edges)))
    crossing = [e for e in edges if e[0] <= b < e[1]]
    left = [e for e in edges if e[1] <= b]
    right = [e for e in edges if e[0] > b]
    own: list[_Draft] = []
    if crossing:
        parts, deleted = partition_multiset([r for _, r in crossing], k)
        groups = [
            (sorted(i for block in w.blocks for i in block), w.direction != DEC)
            for w in parts
        ]
        for ids, biarc in groups + [([i], False) for i in deleted]:
            part_edges = [crossing[i - 1] for i in ids]
            own.append((part_edges, _layout(part_edges, b, n, biarc), b))
    left_pages = _build_pages(left, k, n)
    right_pages = _build_pages(right, k, n)
    merged = [
        (e1 + e2, s1 + s2, b) for (e1, s1, _), (e2, s2, _) in zip(left_pages, right_pages)
    ]
    longer = left_pages if len(left_pages) > len(right_pages) else right_pages
    merged.extend(longer[min(len(left_pages), len(right_pages)):])
    return own + merged


def paginate(graph: OrderedGraph, epsilon) -> PagePartition:
    """Draw an ordered graph in few pages, each within its crossing budget.

    Every returned page carries at most ``epsilon * size**2`` crossings,
    and the number of pages is O(k^2 log k log |E|) for k = ceil(1/epsilon).
    Deterministic: equal inputs give equal drawings.
    """
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise InvalidInputError(f"epsilon must be a real number, got {epsilon!r}")
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or not 0.0 < epsilon <= 1.0:
        raise InvalidInputError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if not graph.edges:
        raise InvalidInputError("cannot paginate a graph with no edges")
    k = max(2, math.ceil(1.0 / epsilon))
    pages = []
    for edges, layout, b in _build_pages(sorted(graph.edges), k, graph.n):
        style = BIARCS if any(lo is not None for _, lo in layout) else UPPER_ARCS
        pages.append(Page(edges, style, b, layout))
    drawn = sorted(edge for page in pages for edge in page.edges)
    if drawn != sorted(graph.edges):
        raise SearchFailedError("pages do not partition the edge set")
    metrics = tuple(count_page_crossings(page) for page in pages)
    return PagePartition(tuple(pages), epsilon, metrics)

