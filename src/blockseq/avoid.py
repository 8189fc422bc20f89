"""Mutually avoiding subset families in the plane.

Two families of disjoint point sets ``A_1..A_k`` and ``B_1..B_k`` are
mutually avoiding when every line through points of two *different*
A-blocks leaves the union of the B-blocks strictly on one side, and
symmetrically with the roles swapped.  This module constructs such
families inside any large-enough point set in general position:

1. cut the plane with a horizontal median line,
2. find a second cut with exactly ``m`` points of each half on one side
   (by seeded random slope probing, falling back to a search over lines
   spanned by one point of each half),
3. sweep a parallel third cut until a slab region fills up,
4. normalize the frame so the cuts become the axes plus a vertical line,
5. run a block-monotone extraction over the slab in x-order and a second
   one over the far flank in angular order around a pivot, and
6. pair slab blocks with flank blocks according to the flank direction.

The result is returned with its achieved block-size fraction, and
``check_avoiding`` verifies the defining property directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEC, INC, BlockWitness, Sequence, require_int
from .errors import InvalidInputError, SearchFailedError
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

_PAIR_CHUNK = 4096
_PROBE_CAP = 60_000
#: slopes priced per batch; a batch's projection arrays stay below
#: _PROBE_CELLS entries per set
_PROBE_BATCH = 64
_PROBE_CELLS = 1 << 18
_TRIPLE_SAMPLE = 48


@dataclass(frozen=True)
class Line:
    """Non-vertical line y = slope * x + intercept."""

    slope: float
    intercept: float

    def __init__(self, slope, intercept):
        slope = float(slope)
        intercept = float(intercept)
        if not (math.isfinite(slope) and math.isfinite(intercept)):
            raise InvalidInputError("line coefficients must be finite")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)

    def signed(self, x: float, y: float) -> float:
        """Positive above the line, negative below, zero on it."""
        return y - (self.slope * x + self.intercept)


def _as_blocks(blocks) -> tuple[tuple[tuple[float, float], ...], ...]:
    return tuple(
        tuple((float(x), float(y)) for x, y in block) for block in blocks
    )


@dataclass(frozen=True)
class AvoidingWitness:
    """Two families of k disjoint equal-size point blocks, plus the block
    size as a fraction of the ambient set that produced them."""

    a_blocks: tuple[tuple[tuple[float, float], ...], ...]
    b_blocks: tuple[tuple[tuple[float, float], ...], ...]
    guarantee: float

    def __init__(self, a_blocks, b_blocks, guarantee):
        a_blocks = _as_blocks(a_blocks)
        b_blocks = _as_blocks(b_blocks)
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
        object.__setattr__(self, "guarantee", float(guarantee))

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


def _perturbed_line(
    p, q, sign_p: int, sign_q: int, xs, ys, skip
) -> Line | None:
    """Line through p and q nudged so p lands on side sign_p and q on
    sign_q, while every other point keeps its strict side.  None when a
    third point sits exactly on the spanning line."""
    px, py = p
    qx, qy = q
    slope = (qy - py) / (qx - px)
    inter = py - slope * px
    others = np.ones(len(xs), dtype=bool)
    others[list(skip)] = False
    vals = ys[others] - (slope * xs[others] + inter)
    gap = float(np.abs(vals).min())
    if gap == 0.0:
        return None
    if sign_p == sign_q:
        return Line(slope, inter - sign_p * gap / 2.0)
    mx = (px + qx) / 2.0
    reach = float(np.abs(xs[others] - mx).max()) + 1.0
    mag = gap / (2.0 * reach)
    da = -sign_p * math.copysign(mag, px - mx)
    return Line(slope + da, inter - da * mx)


def _counts_above(H: Line, xs, ys) -> int | None:
    vals = ys - (H.slope * xs + H.intercept)
    if np.any(vals == 0.0):
        return None
    return int(np.count_nonzero(vals > 0.0))


def _gap(w: np.ndarray, above: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of projections w, the open intercept interval putting exactly
    ``above`` values strictly above; its interior contains no value of the
    row.  Partitions w in place, around one kth: numpy selects a single kth
    several times faster than a list of them."""
    k = w.shape[1] - above - 1
    w.partition(k, axis=1)
    return w[:, k].copy(), w[:, k + 1 :].min(axis=1)


def _probe_directions(px, py, qx, qy, m: int, n: int):
    """Randomized slope probing: for a sampled slope, exact target counts
    for both sets are achievable iff two consecutive-order-statistic gaps
    overlap; any intercept inside the overlap avoids all points.

    Slopes are drawn and priced a batch at a time, and the candidates are
    verified in draw order (upper before lower for each slope), so the
    result is the first slope that a one-at-a-time loop would accept."""
    sides = [
        (a, side) for a, side in ((m, "upper"), (n - m, "lower")) if 1 <= a <= n - 1
    ]
    if not sides:
        return None
    rows = max(1, min(_PROBE_BATCH, _PROBE_CELLS // n))
    rng = np.random.default_rng(1)
    total = min(40 * n, _PROBE_CAP)
    for start in range(0, total, rows):
        draws = rng.uniform(-1.57, 1.57, min(rows, total - start))
        t = np.array([math.tan(u) for u in draws])
        wp = py - t[:, None] * px
        wq = qy - t[:, None] * qx
        lo = np.empty((len(t), len(sides)))
        hi = np.empty_like(lo)
        for c, (above, _) in enumerate(sides):
            lo_p, hi_p = _gap(wp, above)
            lo_q, hi_q = _gap(wq, above)
            lo[:, c] = np.maximum(lo_p, lo_q)
            hi[:, c] = np.minimum(hi_p, hi_q)
        for b, c in np.argwhere(lo < hi):
            above, side = sides[c]
            H = Line(t[b], (lo[b, c] + hi[b, c]) / 2.0)
            if (
                _counts_above(H, px, py) == above
                and _counts_above(H, qx, qy) == above
            ):
                return H, side
    return None


def balanced_line(
    P: PointSet, Q: PointSet, L: Line, m: int
) -> tuple[Line, str]:
    """Find a non-vertical line with exactly ``m`` points of P and of Q
    strictly on one side (the reported one), and no point on it.

    P and Q must have equal size n >= m >= 1 and be strictly separated by
    L.  Random slope probing runs first: for a sampled slope the target
    counts are achievable exactly when two consecutive-order-statistic
    gaps overlap, which is checked in O(n) per probe.  Probes are priced
    in batches, and their candidates are verified in draw order.  If
    probing finds nothing, the search falls back to exhaustive enumeration
    of lines through one point of each set, resolving each candidate to the
    four strict sidings of its two spanning points and validating counts.
    Both stages draw from fixed-seed generators, so the result is
    deterministic for a given input.
    """
    n = len(P)
    if len(Q) != n:
        raise InvalidInputError(f"sets must have equal size, got {n} != {len(Q)}")
    if not isinstance(m, int) or not 1 <= m <= n:
        raise InvalidInputError(f"need 1 <= m <= {n}, got {m}")
    px = np.array([pt[0] for pt in P.points])
    py = np.array([pt[1] for pt in P.points])
    qx = np.array([pt[0] for pt in Q.points])
    qy = np.array([pt[1] for pt in Q.points])
    sp = _separation_signs(L, px, py)
    sq = _separation_signs(L, qx, qy)
    if sp == sq:
        raise InvalidInputError("sets are not strictly separated by the line")
    all_x = np.concatenate([px, qx])
    all_y = np.concatenate([py, qy])
    if m == n:
        low = Line(0.0, float(all_y.min()) - 1.0)
        if _counts_above(low, px, py) == n and _counts_above(low, qx, qy) == n:
            return low, "upper"

    probed = _probe_directions(px, py, qx, qy, m, n)
    if probed is not None:
        return probed

    order = np.random.default_rng(0).permutation(n * n)
    for start in range(0, n * n, _PAIR_CHUNK):
        pairs = order[start : start + _PAIR_CHUNK]
        pi, qi = pairs // n, pairs % n
        ax, ay, bx, by = px[pi], py[pi], qx[qi], qy[qi]
        flip = bx < ax
        ax2 = np.where(flip, bx, ax)
        ay2 = np.where(flip, by, ay)
        dx = np.where(flip, ax, bx) - ax2
        dy = np.where(flip, ay, by) - ay2
        crossP = dx[:, None] * (py[None, :] - ay2[:, None]) - dy[:, None] * (
            px[None, :] - ax2[:, None]
        )
        crossQ = dx[:, None] * (qy[None, :] - ay2[:, None]) - dy[:, None] * (
            qx[None, :] - ax2[:, None]
        )
        up_p = np.count_nonzero(crossP > 0.0, axis=1)
        dn_p = np.count_nonzero(crossP < 0.0, axis=1)
        up_q = np.count_nonzero(crossQ > 0.0, axis=1)
        dn_q = np.count_nonzero(crossQ < 0.0, axis=1)
        clean = (dx > 0.0) & (up_p + dn_p == n - 1) & (up_q + dn_q == n - 1)

        def fits(cnt):
            return (cnt == m) | (cnt == m - 1)

        for side, cp, cq in (("upper", up_p, up_q), ("lower", dn_p, dn_q)):
            hits = np.flatnonzero(clean & fits(cp) & fits(cq))
            for h in hits:
                si = 1 if side == "upper" else -1
                sign_p = si if cp[h] == m - 1 else -si
                sign_q = si if cq[h] == m - 1 else -si
                H = _perturbed_line(
                    (px[pi[h]], py[pi[h]]),
                    (qx[qi[h]], qy[qi[h]]),
                    sign_p,
                    sign_q,
                    all_x,
                    all_y,
                    (pi[h], n + qi[h]),
                )
                if H is None:
                    continue
                got_p = _counts_above(H, px, py)
                got_q = _counts_above(H, qx, qy)
                if side == "lower" and got_p is not None:
                    got_p, got_q = n - got_p, n - got_q
                if got_p == m and got_q == m:
                    return H, side
    raise SearchFailedError(
        f"no balancing line found for m={m} over {n * n} candidate pairs"
    )


def _rechunk(w: BlockWitness, depth: int) -> BlockWitness:
    """Reshape a witness to exactly ``depth`` equal-size blocks: fallback
    chains (size-1 blocks) are regrouped, deeper witnesses truncated."""
    if w.block_size == 1:
        chain = [i for block in w.blocks for i in block]
        size = len(chain) // depth
        blocks = tuple(
            tuple(chain[i * size : (i + 1) * size]) for i in range(depth)
        )
        return BlockWitness(w.direction, blocks)
    return BlockWitness(w.direction, w.blocks[:depth])


def _triple_signs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Orientation signs over all triples of an evenly spread subsample,
    used to assert that a frame change preserved orientations."""
    idx = np.linspace(0, len(xs) - 1, min(len(xs), _TRIPLE_SAMPLE)).astype(int)
    a, b = np.triu_indices(len(idx), k=1)
    i = np.repeat(idx[a], len(idx))
    j = np.repeat(idx[b], len(idx))
    l = np.tile(idx, len(a))
    cross = (xs[j] - xs[i]) * (ys[l] - ys[i]) - (ys[j] - ys[i]) * (
        xs[l] - xs[i]
    )
    return np.sign(cross)


def mutually_avoiding_sets(P: PointSet, k: int) -> AvoidingWitness:
    """Construct mutually avoiding families A_1..A_k, B_1..B_k inside P.

    Requires P in general position and |P| >= 24 k^2 + 6, so that the slab
    of |P| // 6 points holds more than the 4 k^2 that its depth 2k+1
    extraction needs.  The block size achieved by the two extractions is
    reported via ``guarantee`` as a fraction of |P|; blocks keep the
    original input coordinates.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidInputError(f"k must be a positive integer, got {k}")
    n = len(P)
    if n // 6 <= 4 * k * k:
        raise InvalidInputError(
            f"need at least {24 * k * k + 6} points for k={k}, got {n}"
        )
    x0 = np.array([pt[0] for pt in P.points])
    y0 = np.array([pt[1] for pt in P.points])

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
        PointSet([(x0[i], ywork[i]) for i in upper]),
        PointSet([(x0[i], ywork[i]) for i in lower]),
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

    before = _triple_signs(x0, y0)
    after = _triple_signs(xwork, ywork)
    if not np.array_equal(before, after):
        raise SearchFailedError("normalization flipped an orientation")

    slab = np.flatnonzero((xwork > 0.0) & (xwork < d) & (ywork > 0.0))
    slab = slab[np.lexsort((ywork[slab], xwork[slab]))]
    wit_q = _rechunk(
        extract_block_monotone(Sequence(ywork[slab]), 2 * k + 1), 2 * k + 1
    )
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
    wit_a = _rechunk(extract_block_monotone(Sequence(ranks), k), k)
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
    require_int(n=n, seed=seed)
    if n < 1:
        raise InvalidInputError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(0.0, box, size=(n, 2)))


def gen_grid_clusters(
    k: int, per_cluster: int, seed: int = 0, jitter: float = 0.02
) -> PointSet:
    """k x k grid of tight clusters with per_cluster jittered points each,
    the classical near-extremal input for avoiding-family sizes."""
    require_int(k=k, per_cluster=per_cluster, seed=seed)
    if k < 1 or per_cluster < 1:
        raise InvalidInputError("k and per_cluster must be positive")
    if not 0.0 < jitter < 0.5:
        raise InvalidInputError("jitter must be in (0, 0.5)")
    rng = np.random.default_rng(seed)
    spacing = 10.0
    pts = []
    for i in range(k):
        for j in range(k):
            offsets = rng.uniform(
                -jitter * spacing, jitter * spacing, size=(per_cluster, 2)
            )
            pts.extend(
                (i * spacing + ox, j * spacing + oy) for ox, oy in offsets
            )
    return PointSet(pts)
