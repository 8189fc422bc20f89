"""Mutually avoiding subset families in the plane.

Two families of disjoint point sets ``A_1..A_k`` and ``B_1..B_k`` are
mutually avoiding when every line through points of two *different*
A-blocks leaves the union of the B-blocks strictly on one side, and
symmetrically with the roles swapped.  This module constructs such
families inside any large-enough point set in general position:

1. cut the plane with a horizontal median line,
2. find a second cut with exactly ``m`` points of each half on one side,
   by bisection on its direction: the offset between the two halves'
   m-level gaps changes sign once on each half-turn of directions, and the
   cut exists exactly when the gaps overlap around one of those changes,
3. sweep a parallel third cut until a slab region fills up,
4. normalize the frame so the cuts become the axes plus a vertical line,
5. run a block-monotone extraction over the slab in x-order and a second
   one over the far flank in angular order around a pivot, and
6. pair slab blocks with flank blocks according to the flank direction.

The result is returned with its achieved block-size fraction, and
``check_avoiding`` verifies the defining property directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
import math

import numpy as np

from .core import DEC, INC, Sequence, as_tuple, integer, real, real_coordinates
from .core import require_entries, require_seed
from .errors import InvalidInputError, PreconditionError, SearchFailedError
from .extract import extract_block_monotone
from .partition import PointSet

__all__ = [
    "Line",
    "AvoidingWitness",
    "balanced_line",
    "check_avoiding",
    "gen_grid_clusters",
    "gen_point_cloud",
    "mutually_avoiding_sets",
]

_TRIPLE_SAMPLE = 48

# Largest coordinate magnitude accepted: an orientation product
# (bx - ax)(cy - ay) - (by - ay)(cx - ax) of such points is at most
# 8 * 2^1020 = 2^1023 in magnitude, still a finite float.
_MAX_COORD = 2.0**510


@dataclass(frozen=True)
class Line:
    """Non-vertical line y = slope * x + intercept."""

    slope: float
    intercept: float

    def __init__(self, slope, intercept):
        object.__setattr__(self, "slope", real(slope, "line slope"))
        object.__setattr__(self, "intercept", real(intercept, "line intercept"))

    def signed(self, x: float, y: float) -> float:
        """Positive above the line, negative below, zero on it."""
        return y - (self.slope * x + self.intercept)


@dataclass(frozen=True)
class AvoidingWitness:
    """Two families of k disjoint equal-size point blocks, plus the block
    size as a fraction of the ambient set that produced them."""

    a_blocks: tuple[tuple[tuple[float, float], ...], ...]
    b_blocks: tuple[tuple[tuple[float, float], ...], ...]
    guarantee: float

    def __init__(self, a_blocks, b_blocks, guarantee):
        a_blocks = tuple(tuple(zip(*real_coordinates(b))) for b in as_tuple(a_blocks, "a_blocks"))
        b_blocks = tuple(tuple(zip(*real_coordinates(b))) for b in as_tuple(b_blocks, "b_blocks"))
        if len(a_blocks) != len(b_blocks) or not a_blocks:
            raise InvalidInputError("need the same positive number of blocks")
        for fam in (a_blocks, b_blocks):
            if any(not b for b in fam):
                raise InvalidInputError("blocks must be nonempty")
            if len({len(b) for b in fam}) != 1:
                raise InvalidInputError("blocks in a family must share a size")
        seen: set[tuple[float, float]] = set()
        for block in a_blocks + b_blocks:
            for pt in block:
                if pt in seen:
                    raise InvalidInputError(f"point {pt} appears twice")
                seen.add(pt)
        object.__setattr__(self, "a_blocks", a_blocks)
        object.__setattr__(self, "b_blocks", b_blocks)
        object.__setattr__(self, "guarantee", real(guarantee, "guarantee"))

    @property
    def k(self) -> int:
        return len(self.a_blocks)


def _one_sided(blocks, pool_x: np.ndarray, pool_y: np.ndarray) -> bool:
    """True when every line through points of two different blocks keeps the
    pool strictly on one side.  Collinearity with a pool point raises."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            for ax, ay in blocks[i]:
                for bx, by in blocks[j]:
                    cross = (bx - ax) * (pool_y - ay) - (by - ay) * (
                        pool_x - ax
                    )
                    if np.any(cross == 0.0):
                        raise InvalidInputError(
                            "collinear triple violates general position"
                        )
                    if cross.min() < 0.0 < cross.max():
                        return False
    return True


def check_avoiding(w: AvoidingWitness) -> bool:
    """Decide whether the two families of ``w`` are mutually avoiding.

    For every pair of points drawn from two different A-blocks, the union
    of the B-blocks must lie strictly on one side of their line, and
    symmetrically for B-pairs against the A-union.  With singleton
    transversal sides (k = 1) there is no pair to test, so the answer is
    vacuously true.
    """
    a_pts = [pt for block in w.a_blocks for pt in block]
    b_pts = [pt for block in w.b_blocks for pt in block]
    ax = np.array([p[0] for p in a_pts])
    ay = np.array([p[1] for p in a_pts])
    bx = np.array([p[0] for p in b_pts])
    by = np.array([p[1] for p in b_pts])
    return _one_sided(w.a_blocks, bx, by) and _one_sided(w.b_blocks, ax, ay)


def _separation_signs(L: Line, xs: np.ndarray, ys: np.ndarray) -> int:
    vals = ys - (L.slope * xs + L.intercept)
    if np.any(vals == 0.0) or (vals.min() < 0.0 < vals.max()):
        raise InvalidInputError("sets are not strictly separated by the line")
    return 1 if vals[0] > 0.0 else -1


def _counts_above(H: Line, xs, ys) -> int | None:
    vals = ys - (H.slope * xs + H.intercept)
    if np.any(vals == 0.0):
        return None
    return int(np.count_nonzero(vals > 0.0))


def _x_split(xs: np.ndarray, j: int) -> float:
    """Midpoint between the j-th and (j+1)-th smallest of xs."""
    part = np.partition(xs, (j - 1, j))
    return (part[j - 1] + part[j]) / 2.0


def _coords(half) -> tuple[np.ndarray, np.ndarray]:
    """x and y coordinate arrays of a ``PointSet``, of an (n, 2) float
    array or of what ``PointSet`` takes, with the checks it makes."""
    if isinstance(half, np.ndarray) and half.dtype == float and half.shape[1:] == (2,):
        # floats already: only their values need checking, column-wise
        for col, axis in ((half[:, 0], "x"), (half[:, 1], "y")):
            if not np.isfinite(col).all():
                raise InvalidInputError(f"{axis} coordinates must be finite")
            if len(np.unique(col)) != len(col):
                raise InvalidInputError(f"{axis} coordinates must be distinct")
        return half[:, 0], half[:, 1]
    if not isinstance(half, PointSet):
        half = PointSet(half.tolist() if isinstance(half, np.ndarray) else half)
    flat = chain.from_iterable(half.points)
    pts = np.fromiter(flat, dtype=float, count=2 * len(half)).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def _bisect_direction(px, py, qx, qy, above: int, near: float, far: float, sign):
    """Bisect the directions between ``near``, where D has sign ``sign``,
    and ``far``, where it does not, for a line with ``above`` points of each
    set above it (see ``balanced_line``); None once the midpoint equals an
    end."""
    k = len(px) - above - 1  # ascending index of the largest w left below
    while True:
        mid = (near + far) / 2.0
        if mid == near or mid == far:
            return None
        cos, sin = math.cos(mid), math.sin(mid)
        gp = np.partition(py * cos - px * sin, (k, k + 1))[k : k + 2]
        gq = np.partition(qy * cos - qx * sin, (k, k + 1))[k : k + 2]
        bottom, top = max(gp[0], gq[0]), min(gp[1], gq[1])
        if bottom < top:
            H = Line(math.tan(mid), (bottom + top) / 2.0 / cos)
            if _counts_above(H, px, py) == above == _counts_above(H, qx, qy):
                return H
        if np.sign(gp.sum() - gq.sum()) == sign:
            near = mid
        else:
            far = mid


def balanced_line(P, Q, L: Line, m: int) -> tuple[Line, str]:
    """Find a non-vertical line with exactly ``m`` points of P and of Q
    strictly on one side (the reported one), and no point on it.

    P and Q are each a ``PointSet`` or what ``PointSet`` takes, an (n, 2)
    float array of (x, y) rows, say, checked as a ``PointSet`` would be
    (``InvalidInputError``).
    They must have equal size n >= m >= 1 and be strictly separated by
    L.  For m < n the side is "upper" (a = m points above the line) or
    "lower" (a = n - m above).  Project both sets as
    w = y cos(theta) - x sin(theta): a line of slope tan(theta) has a points
    of a set above it exactly when it cuts that set's open gap between its
    a-th and (a+1)-th largest w.  D(theta), the midpoint of P's gap minus
    that of Q's, is continuous, and any theta where the gaps overlap gives
    the line.

    At theta_L = atan(L.slope) every P projection lies beyond every Q
    projection, so D has the sign of P's side of L for either side.  At
    +-pi/2 the projection is -+x, so D there compares x-splits of P and Q.
    As the direction turns away from L, P's gap moves one way and Q's the
    other, so over each half-turn of oriented directions from theta_L, D
    changes sign exactly once, and the directions whose gaps overlap, if
    any, form an open interval around that change.  One half-turn is upper
    on [theta_L, pi/2] then lower on [-pi/2, theta_L]; the other is upper on
    [-pi/2, theta_L] then lower on [theta_L, pi/2].  In each, the piece
    whose vertical end does not share theta_L's sign holds the change, and
    is bisected at one partition per set and probe.  The first probe whose
    gaps overlap and whose counts verify in slope form is returned.

    Raises SearchFailedError when both bisections close (the midpoint
    equals an end) without such a probe: then no balancing line exists, or
    its directions lie closer together than float arithmetic resolves.
    """
    px, py = _coords(P)
    qx, qy = _coords(Q)
    n = len(px)
    if len(qx) != n:
        raise InvalidInputError(f"sets must have equal size, got {n} != {len(qx)}")
    m = integer(m, "m")
    if not 1 <= m <= n:
        raise InvalidInputError(f"need 1 <= m <= {n}, got {m}")
    sp = _separation_signs(L, px, py)
    sq = _separation_signs(L, qx, qy)
    if sp == sq:
        raise InvalidInputError("sets are not strictly separated by the line")
    if m == n:
        low = Line(0.0, float(min(py.min(), qy.min())) - 1.0)
        if _counts_above(low, px, py) == n and _counts_above(low, qx, qy) == n:
            return low, "upper"
        raise SearchFailedError("no line found below every point")

    theta_l = math.atan(L.slope)
    half = math.pi / 2
    for side, above, end in (
        ("upper", m, half), ("lower", n - m, -half),  # one half-turn
        ("upper", m, -half), ("lower", n - m, half),  # the other
    ):
        # D(end) is -d_end at +pi/2, where the projection is -x, and d_end
        # at -pi/2, where it is x; the piece holds the change unless D(end)
        # shares the sign sp that D has at theta_l
        j = above if end > 0 else n - above
        d_end = _x_split(px, j) - _x_split(qx, j)
        if sp * d_end * end >= 0.0:
            H = _bisect_direction(px, py, qx, qy, above, theta_l, end, sp)
            if H is not None:
                return H, side
    raise SearchFailedError(
        f"no balancing line found for m={m}: both bisections on the "
        "direction closed without overlapping gaps"
    )


def _triple_signs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Orientation signs over all triples of an evenly spread subsample,
    with repeats: (i, j, l) for i < j and every l, so l = i and l = j give
    the only zeros of a sample in general position.  Used to reject a
    sample with a collinear triple and to check that a frame change
    preserved orientations."""
    idx = np.linspace(0, len(xs) - 1, min(len(xs), _TRIPLE_SAMPLE)).astype(int)
    sx, sy = xs[idx], ys[idx]
    dx = sx[None, :] - sx[:, None]  # dx[i, j] = x_j - x_i
    dy = sy[None, :] - sy[:, None]
    a, b = np.triu_indices(len(idx), k=1)
    # row (i, j) of cross holds every l: the (i, j, l) order, one triple's
    # operands and operations as in the loop over triples
    cross = dx[a, b][:, None] * dy[a] - dy[a, b][:, None] * dx[a]
    return np.sign(cross).ravel()


def mutually_avoiding_sets(P: PointSet, k: int) -> AvoidingWitness:
    """Construct mutually avoiding families A_1..A_k, B_1..B_k inside P.

    Requires P in general position and |P| >= 24 k^2 + 6, so that the slab
    of |P| // 6 points holds more than the 4 k^2 that its depth 2k+1
    extraction needs.  A collinear triple among ``_TRIPLE_SAMPLE`` evenly
    spread points raises InvalidInputError, and a coordinate beyond
    ``_MAX_COORD`` PreconditionError, both before the line search.  The
    block size achieved by the two extractions is reported via
    ``guarantee`` as a fraction of |P|; blocks keep the original input
    coordinates.
    """
    k = integer(k, "k")
    if k < 1:
        raise InvalidInputError(f"k must be a positive integer, got {k}")
    n = len(P)
    if n // 6 <= 4 * k * k:
        raise InvalidInputError(
            f"need at least {24 * k * k + 6} points for k={k}, got {n}"
        )
    x0, y0 = _coords(P)
    if max(np.abs(x0).max(), np.abs(y0).max()) > _MAX_COORD:
        raise PreconditionError(
            "coordinates must lie within +-2^510, where orientation products stay finite"
        )
    before = _triple_signs(x0, y0)
    sample = min(n, _TRIPLE_SAMPLE)
    if np.count_nonzero(before == 0) > sample * (sample - 1):  # two per pair: l = i, l = j
        raise InvalidInputError("collinear triple violates general position")

    ys_sorted = np.sort(y0)
    level = (ys_sorted[n // 2 - 1] + ys_sorted[n // 2]) / 2.0
    ywork = y0 - level
    upper = np.flatnonzero(ywork > 0.0)
    lower = np.flatnonzero(ywork < 0.0)
    if len(upper) > len(lower):
        upper = np.delete(upper, np.argmax(ywork[upper]))
    elif len(lower) > len(upper):
        lower = np.delete(lower, np.argmin(ywork[lower]))

    m = n // 6
    H, _side = balanced_line(
        np.column_stack((x0[upper], ywork[upper])),
        np.column_stack((x0[lower], ywork[lower])),
        Line(0.0, 0.0),
        m,
    )
    if H.slope == 0.0:
        raise SearchFailedError("balancing line degenerate: parallel to the cut")
    xwork = (x0 + H.intercept / H.slope) - ywork / H.slope

    def left_counts():
        return (
            int(np.count_nonzero(xwork[upper] < 0.0)),
            int(np.count_nonzero(xwork[lower] < 0.0)),
        )

    if left_counts() != (m, m):
        xwork, ywork = -xwork, -ywork
        if left_counts() != (m, m):
            raise SearchFailedError("balanced side lost during normalization")

    right = np.flatnonzero(xwork > 0.0)
    right = right[np.argsort(xwork[right])]
    cum_up = np.cumsum(ywork[right] > 0.0)
    cum_dn = np.cumsum(ywork[right] < 0.0)
    stops = np.flatnonzero((cum_up == m) | (cum_dn == m))
    if len(stops) == 0:
        raise SearchFailedError("parallel sweep exhausted without filling a slab")
    stop = stops[0]
    edge = xwork[right[stop]]
    d = (edge + xwork[right[stop + 1]]) / 2.0 if stop + 1 < len(right) else edge + 1.0
    if cum_dn[stop] == m:
        xwork, ywork = d - xwork, -ywork

    after = _triple_signs(xwork, ywork)
    if not np.array_equal(before, after):
        raise SearchFailedError("normalization flipped an orientation")

    slab = np.flatnonzero((xwork > 0.0) & (xwork < d) & (ywork > 0.0))
    slab = slab[np.lexsort((ywork[slab], xwork[slab]))]
    wit_q = extract_block_monotone(Sequence(ywork[slab].tolist()), 2 * k + 1)
    q_blocks = [tuple(int(slab[i - 1]) for i in block) for block in wit_q.blocks]
    if wit_q.direction == INC:
        xwork = d - xwork
        q_blocks.reverse()

    flank = np.flatnonzero((xwork < 0.0) & (ywork < 0.0))
    if len(flank) <= (k - 1) ** 2:
        raise SearchFailedError(f"flank region too small: {len(flank)} points")

    def theta_from(c: int) -> np.ndarray:
        return np.arctan2(ywork[flank] - ywork[c], xwork[flank] - xwork[c])

    middle = q_blocks[k]
    spans = sorted(
        (float(np.ptp(theta_from(c))), xwork[c], c) for c in middle
    )
    pivot = spans[len(spans) // 2][2]

    theta = theta_from(pivot)
    if len(np.unique(theta)) != len(theta):
        raise InvalidInputError("collinear triple violates general position")
    flank = flank[np.argsort(theta)]
    rho = np.hypot(xwork[flank] - xwork[pivot], ywork[flank] - ywork[pivot])
    ranks = np.empty(len(flank), dtype=float)
    ranks[np.lexsort((np.arange(len(flank)), rho))] = np.arange(len(flank))
    wit_a = extract_block_monotone(Sequence._trusted(tuple(ranks.tolist())), k)  # distinct ranks
    a_blocks = [tuple(int(flank[i - 1]) for i in block) for block in wit_a.blocks]
    b_blocks = q_blocks[:k] if wit_a.direction == DEC else q_blocks[k + 1 :]

    def coords(blocks):
        return tuple(
            tuple((float(x0[i]), float(y0[i])) for i in block) for block in blocks
        )

    size = min(len(a_blocks[0]), len(b_blocks[0]))
    return AvoidingWitness(coords(a_blocks), coords(b_blocks), size / n)


def gen_point_cloud(n: int, seed: int = 0, box: float = 1000.0) -> PointSet:
    """n uniform random points in a square; real coordinates put them in
    general position with probability one."""
    n, seed = integer(n, "n"), require_seed(seed)
    if n < 1:
        raise InvalidInputError(f"n must be positive, got {n}")
    box = real(box, "box")
    if not 0.0 < box:
        raise InvalidInputError(f"box must be positive and finite, got {box}")
    require_entries(n)
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0.0, box, size=(n, 2)).tolist())


def gen_grid_clusters(
    k: int, per_cluster: int, seed: int = 0, jitter: float = 0.02
) -> PointSet:
    """k x k grid of tight clusters with per_cluster jittered points each,
    the classical near-extremal input for avoiding-family sizes."""
    k, per_cluster = integer(k, "k"), integer(per_cluster, "per_cluster")
    seed = require_seed(seed)
    if k < 1 or per_cluster < 1:
        raise InvalidInputError("k and per_cluster must be positive")
    jitter = real(jitter, "jitter")
    if not 0.0 < jitter < 0.5:
        raise InvalidInputError("jitter must be in (0, 0.5)")
    require_entries(k * k * per_cluster)
    rng = np.random.default_rng(seed)
    spacing = 10.0
    pts = []
    for i in range(k):
        for j in range(k):
            offsets = rng.uniform(
                -jitter * spacing, jitter * spacing, size=(per_cluster, 2)
            )
            pts.extend(
                (i * spacing + ox, j * spacing + oy) for ox, oy in offsets.tolist()
            )
    return PointSet(pts)
