"""SVG renderers: arc diagrams on a spine and block-grouped scatters.

Conventions: the spine is a horizontal line with one tick per vertex;
every semicircle is a single ``<path>`` element (a biarc therefore
contributes two paths that meet on the spine at its crossing point);
scatter plots color points by their block or part and draw leftovers in
gray.  Vertex v sits at x = margin + (v - 1) * unit, so spine
coordinates can be read back from the path data exactly.
"""

from __future__ import annotations

from .core import integer
from .errors import InvalidInputError

__all__ = [
    "MARGIN",
    "MAX_SPINE",
    "UNIT",
    "render_pages",
    "require_spine",
    "render_scatter",
    "svg_x",
]

MARGIN = 40.0
UNIT = 60.0
# Arc diagrams refuse longer spines: every vertex gets a tick and a label,
# so the drawing grows with the spine, whatever the edges.
MAX_SPINE = 2**14
_TICK = 6.0
_POINT_RADIUS = 4.0
_GRAY = "#9aa0a6"
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#8c564b",
    "#e377c2",
    "#bcbd22",
    "#7f7f7f",
)


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


def svg_x(spine_coord: float) -> float:
    """Pixel x of a spine coordinate (vertex index or crossing point)."""
    return MARGIN + (float(spine_coord) - 1.0) * UNIT


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _semicircle(x1: float, x2: float, y0: float, upper: bool, color: str) -> str:
    if not x1 < x2:
        raise InvalidInputError(f"degenerate arc span ({x1!r}, {x2!r})")
    r = (x2 - x1) / 2.0
    sweep = 1 if upper else 0
    d = (
        f"M {_fmt(x1)} {_fmt(y0)} "
        f"A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(x2)} {_fmt(y0)}"
    )
    return f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>'


def require_spine(n) -> int:
    """A spine length ``render_pages`` draws: an int in 1..MAX_SPINE, or a
    typed error."""
    n = integer(n, "n")
    if not 1 <= n <= MAX_SPINE:
        raise InvalidInputError(f"spine length must lie in 1..{MAX_SPINE}, got {n!r}")
    return n


def render_pages(n: int, pages) -> str:
    """Arc diagram of a list of :class:`~blockseq.biarc.Page` objects.

    An empty page list yields a spine-only drawing.  Pages cycle through
    the palette so merged sub-diagrams stay distinguishable.
    """
    n = require_spine(n)
    radius = UNIT * (n - 1) / 2.0
    y0 = MARGIN + radius
    width = 2 * MARGIN + UNIT * (n - 1)
    height = 2 * y0
    body = [
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(y0)}" x2="{_fmt(width - MARGIN)}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    ]
    for v in range(1, n + 1):
        x = svg_x(v)
        body.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0 - _TICK / 2)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(y0 + _TICK / 2)}" stroke="black" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + _TICK + 12)}" font-size="10" '
            f'text-anchor="middle">{v}</text>'
        )
    for index, page in enumerate(pages):
        color = _PALETTE[index % len(_PALETTE)]
        for upper, lower in page.layout:
            body.append(_semicircle(svg_x(upper[0]), svg_x(upper[1]), y0, True, color))
            if lower is not None:
                body.append(
                    _semicircle(svg_x(lower[0]), svg_x(lower[1]), y0, False, color)
                )
    return _document(width, height, body)


def render_scatter(groups, rest=(), side: float = 520.0) -> str:
    """Scatter plot of 2D points: one fill color per group, gray rest.

    ``groups`` is an iterable of point lists.  All coordinates are
    fitted into a square canvas with the y axis pointing up; no points
    give an empty canvas.
    """
    groups = [list(g) for g in groups]
    rest = list(rest)
    everything = [p for g in groups for p in g] + rest
    if not everything:
        return _document(side, side, [])
    xs = [float(x) for x, _ in everything]
    ys = [float(y) for _, y in everything]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    scale = (side - 2 * MARGIN) / max(span_x, span_y)

    def place(p):
        x, y = float(p[0]), float(p[1])
        return (
            MARGIN + (x - min(xs)) * scale,
            side - MARGIN - (y - min(ys)) * scale,
        )

    body = []
    for p in rest:
        px, py = place(p)
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(_POINT_RADIUS)}" '
            f'fill="{_GRAY}"/>'
        )
    for index, group in enumerate(groups):
        color = _PALETTE[index % len(_PALETTE)]
        for p in group:
            px, py = place(p)
            body.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(_POINT_RADIUS)}" '
                f'fill="{color}"/>'
            )
    return _document(side, side, body)
