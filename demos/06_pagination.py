"""Drawing an ordered graph in pages of near-noncrossing arcs.

Vertices go on a horizontal spine; each edge becomes either a half-circle
above it or a monotone biarc (two joined half-circles crossing the spine
once).  The paginator splits the edge set into pages so that each page's
crossing count stays below eps * (page size)^2, and renders the result.
"""

import pathlib
import random

from blockseq import (
    OrderedGraph,
    count_page_crossings,
    half_split,
    paginate,
    spine_crossing,
)
from blockseq.svg import render_pages

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# -- a seeded graph ----------------------------------------------------------

rng = random.Random(2)
n, m = 60, 400
edges = rng.sample([(l, r) for l in range(1, n) for r in range(l + 1, n + 1)], m)
g = OrderedGraph(n, tuple(sorted(edges)))
b = half_split(g)
print(f"graph: n={n}, |E|={m}; half-split vertex b={b}")

# -- paginate at two budgets -------------------------------------------------

for eps in (0.5, 0.1):
    pp = paginate(g, eps)
    styles = {}
    for p in pp.pages:
        styles[p.style] = styles.get(p.style, 0) + 1
    worst = max(count_page_crossings(p) for p in pp.pages)
    print(f"eps={eps}: {len(pp.pages)} pages {styles}, "
          f"total crossings {pp.total_crossings}, worst page {worst}")
    for p in pp.pages:
        assert count_page_crossings(p) <= eps * p.size**2
    got = sorted(e for p in pp.pages for e in p.edges)
    assert got == sorted(g.edges)
print("each page is within budget and the pages partition E exactly")

# -- where a biarc crosses the spine -----------------------------------------

# Edges kept as biarcs dive below the spine at a point just left of b+1,
# ordered in reverse of the edges' lex order so that same-page spans nest.
c = spine_crossing(2, 9, b=4, n=12)
print(f"\nbiarc for edge (2,9) at b=4, n=12 crosses the spine at x={c:.4f}")

# -- picture -----------------------------------------------------------------

pp = paginate(g, 0.5)
svg = render_pages(n, pp.pages)
path = OUT / "arc_diagram.svg"
path.write_text(svg)
print(f"wrote {path} ({len(svg)} bytes); one color per page")
