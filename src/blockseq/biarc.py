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

Checks run where data enters or leaves: ``OrderedGraph``, ``Page``,
``PagePartition`` and ``partition_multiset`` check all their input.
``paginate`` builds its pages with the private ``Page._trusted``, which
takes only pages the package assembled, checks that the pages partition
the edge set, and returns a checked ``PagePartition``.  Every other page
property follows from the checked graph and the recursion, the two that
float rounding can break included: ``_layout`` refuses a part whose biarc
crossings round to equal or swapped floats or onto b or b + 1, so each
biarc crosses the spine strictly inside its edge, and a page holds at most
one part per split, whose crossings lie in (b, b + 1), so its crossings
are pairwise distinct.  The CLI rebuilds every page with ``Page`` before
it writes, and the pages artifact reader checks every page it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
import math
from numbers import Integral

import numpy as np

from .core import DEC, Sequence, as_tuple, integer, integers, real, real_items, reals
from .errors import InvalidInputError, PreconditionError, SearchFailedError
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


def _check_epsilon(epsilon) -> float:
    """A crossing budget parameter: a real number in (0, 1], as a float."""
    epsilon = real(epsilon, "epsilon")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidInputError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    return epsilon


def _check_edges(edges, what: str, n: float = math.inf) -> tuple[_Edge, ...]:
    """Edges as pairs of Python ints 1 <= l < r <= n."""
    edges = as_tuple(edges, what)
    for edge in edges:
        if not isinstance(edge, tuple) or len(edge) != 2:
            raise InvalidInputError(f"edge must be a pair of ints, got {edge!r}")
    ends = integers(chain.from_iterable(edges), "an edge endpoint")
    edges = tuple(zip(ends[::2], ends[1::2]))
    for edge in edges:
        if not 1 <= edge[0] < edge[1] <= n:
            raise InvalidInputError(f"edge {edge!r} outside 1 <= l < r <= {n}")
    return edges


@dataclass(frozen=True)
class OrderedGraph:
    """Graph on linearly ordered vertices 1..n with edges (l, r), l < r."""

    n: int
    edges: tuple[_Edge, ...]

    def __init__(self, n, edges):
        n = integer(n, "n")
        if n < 1:
            raise InvalidInputError(f"vertex count must be positive, got {n!r}")
        edges = _check_edges(edges, "edges", n)
        if len(set(edges)) != len(edges):
            raise InvalidInputError("duplicate edges are not allowed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _trusted(cls, n: int, edges: tuple[_Edge, ...]) -> OrderedGraph:
        """A graph on edges already taken from a validated graph on n
        vertices, built without checking them again.  Private: graphs from
        outside the package go through ``OrderedGraph``."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph


def _layout_entry(entry) -> _Entry:
    """One layout entry as a tuple: a span of two finite floats, and a
    second span or None."""
    try:
        upper, lower = entry
        spans = [reals(upper, "a span coordinate")]
        if lower is not None:
            spans.append(reals(lower, "a span coordinate"))
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed layout entry {entry!r}: {exc}") from exc
    if any(len(span) != 2 for span in spans):
        raise InvalidInputError(f"malformed layout entry {entry!r}")
    return spans[0], (spans[1] if len(spans) == 2 else None)


def _check_biarc_floats(edges, layout) -> None:
    """The page checks that float rounding can break: each biarc crosses the
    spine strictly inside its edge, and the page's crossings are pairwise
    distinct."""
    crossings = []
    for edge, (upper, lower) in zip(edges, layout):
        if lower is not None:
            if not upper[0] < upper[1] < lower[1]:
                raise InvalidInputError(
                    f"biarc of {edge!r} must cross the spine inside the edge"
                )
            crossings.append(upper[1])
    if len(set(crossings)) != len(crossings):
        raise InvalidInputError("biarc spine crossings must be pairwise distinct")


def _style(layout) -> str:
    return BIARCS if any(lower is not None for _, lower in layout) else UPPER_ARCS


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
        edges = _check_edges(edges, "page edges")
        layout = tuple(_layout_entry(entry) for entry in as_tuple(layout, "page layout"))
        if style not in (UPPER_ARCS, BIARCS):
            raise InvalidInputError(f"unknown page style {style!r}")
        split_b = integer(split_b, "split_b")
        if split_b < 1:
            raise InvalidInputError(f"split vertex must be positive, got {split_b!r}")
        if not edges:
            raise InvalidInputError("a page must hold at least one edge")
        if len(layout) != len(edges):
            raise InvalidInputError("layout must have one entry per edge")
        if any(edges[i] >= edges[i + 1] for i in range(len(edges) - 1)):
            raise InvalidInputError("page edges must be strictly lex-sorted")
        # spans hold the endpoints as floats, rounded past 2^53 as _layout rounds them
        ends = reals(chain.from_iterable(edges), "an edge endpoint")
        for edge, span, (upper, lower) in zip(edges, zip(ends[::2], ends[1::2]), layout):
            if lower is None:
                if upper != span:
                    raise InvalidInputError(
                        f"upper-arc span {upper!r} does not match edge {edge!r}"
                    )
            else:
                if lower[0] != upper[1]:
                    raise InvalidInputError(
                        f"biarc halves of {edge!r} meet at {upper[1]!r} != {lower[0]!r}"
                    )
                if upper[0] != span[0] or lower[1] != span[1]:
                    raise InvalidInputError(
                        f"biarc span endpoints {(upper, lower)!r} do not match edge {edge!r}"
                    )
        if style != _style(layout):
            raise InvalidInputError(
                "upper-arcs page may not contain biarcs"
                if style == UPPER_ARCS
                else "biarcs page must contain at least one biarc"
            )
        _check_biarc_floats(edges, layout)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "style", style)
        object.__setattr__(self, "split_b", split_b)
        object.__setattr__(self, "layout", layout)

    @classmethod
    def _trusted(
        cls, edges: tuple[_Edge, ...], style: str, split_b: int, layout: tuple[_Entry, ...]
    ) -> Page:
        """A page ``paginate`` assembled, built without checking it again:
        every page check holds by construction.  Private: pages from outside
        the package go through ``Page``."""
        page = object.__new__(cls)
        object.__setattr__(page, "edges", edges)
        object.__setattr__(page, "style", style)
        object.__setattr__(page, "split_b", split_b)
        object.__setattr__(page, "layout", layout)
        return page

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
        pages = as_tuple(pages, "pages")
        metrics = integers(metrics, "a crossing count")
        if not pages:
            raise InvalidInputError("a page partition needs at least one page")
        if not all(isinstance(p, Page) for p in pages):
            raise InvalidInputError("pages must be Page instances")
        epsilon = _check_epsilon(epsilon)
        if len(metrics) != len(pages):
            raise InvalidInputError("need one crossing count per page")
        seen: set[_Edge] = set()
        for page, count in zip(pages, metrics):
            if count < 0:
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
    at most half as well.

    At most floor(m/2) of the m edges end at or before b exactly when b
    lies before the (floor(m/2) + 1)-th smallest right end, so b is that
    end minus one (at least 1, since every right end is at least 2):
    O(m log m), whatever the spine length."""
    edges = graph.edges
    if not edges:
        raise InvalidInputError("cannot split a graph with no edges")
    total = len(edges)
    best = sorted(right for _, right in edges)[total // 2] - 1
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
    k = integer(k, "k")
    if k < 2:
        raise InvalidInputError(f"depth k must be >= 2, got {k!r}")
    values = real_items(values, "a value")
    if set(map(type, values)) - {int}:  # ints rank exactly, however large
        values = tuple(int(v) if isinstance(v, Integral) else real(v, "a value") for v in values)
    n = len(values)
    if n == 0:
        return (), ()
    # a stable sort breaks ties by position; ints and floats compare exactly
    order = sorted(range(n), key=values.__getitem__)
    rank = [0] * n
    for position, index in enumerate(order):
        rank[index] = position
    labeled = partition_sequence(Sequence._trusted(tuple(rank)), k)
    parts = tuple(witness for _, witness in labeled.parts)
    deleted = tuple(sorted(labeled.remainder))
    if len(deleted) > (k - 1) ** 2:
        raise SearchFailedError("partition deleted too many entries")
    # parts <= n < _part_cap(n + 1), so a larger k cannot fail the cap
    if len(parts) > _part_cap(min(k, n + 1)):
        raise SearchFailedError("partition produced too many parts")
    return parts, deleted


def _crossing(l: int, r: int, b: int, n: int) -> float:
    return b + 1 - l / n - r / (2 * n * n)


def spine_crossing(l: int, r: int, b: int, n: int) -> float:
    """Spine coordinate where the biarc of edge (l, r) changes half-plane.

    In exact arithmetic the point lies strictly inside (b, b + 1), and
    lex-later edges cross strictly earlier, at least 1/(2n^2) apart, which
    makes biarc crossings on one page depend only on span interleaving.
    The returned float is that point rounded: on long spines two crossings
    can round to the same float, and ``paginate`` refuses such a page.
    """
    l, r, b, n = integer(l, "l"), integer(r, "r"), integer(b, "b"), integer(n, "n")
    real(n, "the spine length n")  # the crossing is a float
    if not 1 <= l <= b < r <= n:
        raise InvalidInputError(
            f"edge ({l}, {r}) does not span split vertex {b} within 1..{n}"
        )
    return _crossing(l, r, b, n)


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
    crossings = [_crossing(l, r, b, n) for l, r in edges]
    # Lex-later edges cross the spine strictly earlier in exact arithmetic,
    # inside (b, b + 1), and crossing counting relies on both; consecutive
    # crossings can differ by 1/(2n^2), and a crossing can lie within 1/n of
    # b or b + 1: gaps that floats near b stop resolving on long spines.
    if any(x <= y for x, y in zip(crossings, crossings[1:])) or not (
        b < crossings[-1] and crossings[0] < b + 1
    ):
        raise PreconditionError(
            f"a spine of {n} vertices is too long for this graph: two biarc "
            "spine crossings round to the same or swapped floats, or one "
            f"rounds onto an end of ({b}, {b + 1})"
        )
    return [((float(l), c), (c, float(r))) for (l, r), c in zip(edges, crossings)]


def _build_pages(edges, k: int, n: int) -> list[_Draft]:
    """Page drafts (edges, layout, split vertex) for the lex-sorted
    ``edges``: this split's own pages, then the two halves' pages merged
    pairwise."""
    if not edges:
        return []
    b = half_split(OrderedGraph._trusted(n, tuple(edges)))
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
    Deterministic: equal inputs give equal drawings.  Raises
    PreconditionError when the spine is so long that two of a page's biarc
    spine crossings, 1/(2n^2) apart at least, round to the same float, or
    one rounds onto b or b + 1 at its split b, and InvalidInputError when
    n is past the float range that spine coordinates live in.
    """
    epsilon = _check_epsilon(epsilon)
    real(graph.n, "the spine length n")
    if not graph.edges:
        raise InvalidInputError("cannot paginate a graph with no edges")
    # (k - 1)^2 >= |E| at k = |E| + 1 already leaves every split's crossing
    # edges to singleton pages, so a larger k draws the same pages
    k = max(2, math.ceil(min(1.0 / epsilon, len(graph.edges) + 1)))
    pages = [
        Page._trusted(tuple(edges), _style(layout), b, tuple(layout))
        for edges, layout, b in _build_pages(sorted(graph.edges), k, graph.n)
    ]
    drawn = sorted(edge for page in pages for edge in page.edges)
    if drawn != sorted(graph.edges):
        raise SearchFailedError("pages do not partition the edge set")
    metrics = tuple(count_page_crossings(page) for page in pages)
    return PagePartition(tuple(pages), epsilon, metrics)

