"""Partition sequences and planar point sets into block-monotone pieces.

A sequence is viewed as the planar point set {(i, a_i)}; the partitioner
maintains a *pattern*: a list of already-structured side sets, each with the
rest of the pattern confined to one quadrant of it, around a staircase
*configuration* whose even-indexed parts are depth-k block-monotone witnesses.
Each round either finishes (everything left is small), widens the pattern
(more sides), or deepens the staircase, and bounded-round pull-outs convert
the absorbed material into witnesses.  Repeated best extractions then drain
the leftover pool while their blocks hold 2 or more points, and a final
monotone-subsequence sweep reduces what is left below (k-1)^2 points.  Every
extraction, at any subset size, keeps the larger of a cut longest monotone
subsequence and the exact gapped-chain search.

All public indices are 1-based ids into the input point set / sequence.
Directions follow the sequence convention: "inc" means up-right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .core import DEC, INC, BlockWitness, Sequence, longest_monotone, require_int
from .errors import InvalidInputError, SearchFailedError
from .extract import _best_gapped, chain_to_blocks
from .extract import gapped_chain_dp  # unused here; perfbench's tracer patches it

__all__ = [
    "PointSet",
    "LabeledPartition",
    "seq_to_points",
    "validate_point_witness",
    "partition_point_set",
    "partition_sequence",
    "greedy_partition",
]


@dataclass(frozen=True)
class PointSet:
    """Planar points with pairwise distinct x and pairwise distinct y."""

    points: tuple[tuple[float, float], ...]

    def __init__(self, points):
        try:
            pts = tuple((float(x), float(y)) for x, y in points)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"points must be (x, y) pairs of reals: {exc}") from exc
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        for arr, axis in ((xs, "x"), (ys, "y")):
            if any(not math.isfinite(v) for v in arr):
                raise InvalidInputError(f"{axis} coordinates must be finite")
            if len(set(arr)) != len(arr):
                raise InvalidInputError(f"{axis} coordinates must be distinct")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)


def seq_to_points(seq: Sequence) -> PointSet:
    """Embed entry i as the point (i, a_i)."""
    return PointSet(tuple((float(i), v) for i, v in enumerate(seq.values, start=1)))


@dataclass(frozen=True)
class LabeledPartition:
    """Exact cover of the input: structured parts, a small remainder, and
    run metrics."""

    parts: tuple[tuple[tuple[int, ...], BlockWitness], ...]
    remainder: tuple[int, ...]
    metrics: dict = field(compare=False)


# ---------------------------------------------------------------------------
# internal geometry helpers (0-based ids into master coordinate arrays)


class _Frame:
    """Master coordinates plus cheap subset utilities."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = xs
        self.ys = ys

    def by_x(self, ids: np.ndarray) -> np.ndarray:
        return ids[np.argsort(self.xs[ids])]

    def subseq(self, ids_x_sorted: np.ndarray) -> Sequence:
        return Sequence(self.ys[ids_x_sorted].tolist())


@dataclass
class _Wit:
    """Internal witness: x-sorted id arrays, one per block."""

    direction: str
    blocks: list[np.ndarray]

    @property
    def size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def ids(self) -> np.ndarray:
        if not self.blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.blocks)

    def public(self) -> BlockWitness:
        return BlockWitness(
            self.direction,
            tuple(tuple(int(i) + 1 for i in np.sort(b)) for b in self.blocks),
        )


def validate_point_witness(p: PointSet, w: BlockWitness) -> bool:
    """Point-set analogue of the sequence validator: x-separation between
    consecutive blocks and y-monotone block ranges."""
    if w.direction not in (INC, DEC):
        raise InvalidInputError(f"unknown direction {w.direction!r}")
    n = len(p)
    flat = [i for b in w.blocks for i in b]
    for i in flat:
        if not (isinstance(i, (int, np.integer)) and 1 <= i <= n):
            raise InvalidInputError(f"point id {i!r} out of range 1..{n}")
    if not w.blocks or len(set(flat)) != len(flat):
        return False
    if len({len(b) for b in w.blocks}) != 1 or not w.blocks[0]:
        return False
    xs = [p.points[i - 1][0] for i in flat]
    ys = [p.points[i - 1][1] for i in flat]
    sizes = len(w.blocks[0])
    pos = 0
    prev_x_max = prev_y_lo = prev_y_hi = None
    for _ in w.blocks:
        bx = xs[pos : pos + sizes]
        by = ys[pos : pos + sizes]
        pos += sizes
        if prev_x_max is not None:
            if min(bx) <= prev_x_max:
                return False
            if w.direction == INC and min(by) <= prev_y_hi:
                return False
            if w.direction == DEC and max(by) >= prev_y_lo:
                return False
        prev_x_max = max(bx)
        prev_y_lo, prev_y_hi = min(by), max(by)
    return True


# ---------------------------------------------------------------------------
# best-effort extraction on subsets


def _extract_best(fr: _Frame, ids: np.ndarray, depth: int) -> _Wit | None:
    """Best block-monotone extraction of exact ``depth`` from a subset.

    Compares a longest monotone subsequence cut into ``depth`` equal blocks
    with the exact gapped-chain search, at every subset size; the larger
    block-size wins, and the search builds no witness the cut would beat.
    """
    if depth < 1 or len(ids) <= (depth - 1) ** 2:
        return None
    sx = fr.by_x(ids)
    seq = fr.subseq(sx)
    # Erdos-Szekeres: m > (depth-1)^2 gives a monotone run of >= depth entries
    d, pos = longest_monotone(seq)
    s = len(pos) // depth
    run = sx[np.asarray(pos, dtype=np.int64) - 1]
    best = _Wit(d, [run[i * s : (i + 1) * s] for i in range(depth)])
    _, ch = _best_gapped(seq, depth, s)
    if ch is not None:
        w = chain_to_blocks(seq, ch)
        blocks = [sx[np.asarray(b, dtype=np.int64) - 1] for b in w.blocks]
        best = _Wit(w.direction, blocks)
    return best


# ---------------------------------------------------------------------------
# pull-out rounds


def _round_ceiling(depth: int) -> int:
    return math.ceil(2 * depth * math.log2(max(depth, 2))) + 2


def _pullout_ids(fr: _Frame, ids: np.ndarray, depth: int) -> tuple[list[_Wit], np.ndarray]:
    """Repeatedly extract depth-``depth`` witnesses until the residue drops
    to max(|ids|/depth, (depth-1)^2) or the round ceiling is hit."""
    target = max(len(ids) / depth, (depth - 1) ** 2)
    parts: list[_Wit] = []
    cur = np.sort(ids)
    rounds = 0
    while len(cur) > target and rounds < _round_ceiling(depth):
        wit = _extract_best(fr, cur, depth)
        if wit is None:
            break
        parts.append(wit)
        cur = np.setdiff1d(cur, wit.ids(), assume_unique=True)
        rounds += 1
    return parts, cur


def _frame_of(p: PointSet) -> _Frame:
    xs = np.asarray([q[0] for q in p.points])
    ys = np.asarray([q[1] for q in p.points])
    return _Frame(xs, ys)


# ---------------------------------------------------------------------------
# the pattern step (widen / deepen / finish)


@dataclass
class _State:
    """The main loop's pattern: side witnesses, each with all later material
    in one quadrant of it, around a staircase of raw odd parts and witnessed
    even parts that march up-right (``up``) or down-right."""

    sides: list[_Wit]
    odds: list[np.ndarray]
    evens: list[_Wit]
    up: bool

    @property
    def l(self) -> int:
        return len(self.sides)

    @property
    def t(self) -> int:
        return len(self.evens)

    def config_points(self) -> int:
        return sum(len(o) for o in self.odds) + sum(
            len(w.ids()) for w in self.evens
        )


def _fresh_between(values: np.ndarray, lo: float, hi: float) -> float:
    """A coordinate strictly inside (lo, hi) differing from every value:
    the midpoint of the two smallest present values of [lo, hi] endpoints
    and interior points."""
    inside = values[(values > lo) & (values < hi)]
    nxt = inside.min() if len(inside) else hi
    return (lo + nxt) / 2.0


def _stitch(base: _Wit, extra: np.ndarray, prepend: bool) -> tuple[list[_Wit], np.ndarray]:
    """Attach a detached point set as one extra block (trimming to a common
    size); returns the new witnesses and pooled remainder."""
    if len(extra) == 0:
        return [base], np.empty(0, dtype=np.int64)
    m = min(len(extra), base.size)
    used, spill = extra[:m], extra[m:]
    sliced = []
    cores = []
    for b in base.blocks:
        sliced.append(b[:m])
        cores.append(b[m:])
    blocks = [used] + sliced if prepend else sliced + [used]
    out = [_Wit(base.direction, blocks)]
    if base.size - m > 0:
        out.append(_Wit(base.direction, cores))
    return out, spill


def _step(
    fr: _Frame, st: _State, k: int
) -> tuple[list[_Wit], _State | np.ndarray, np.ndarray, str]:
    """One round of the main loop: finish ("small") when every odd part is at
    most (3k-1)^2 points, else cut a depth-3k witness X from the largest odd
    part and widen or deepen around it.  Returns the finished witnesses, the
    successor state (the leftover ids when "small"), the spilled ids and the
    outcome."""
    parts: list[_Wit] = []
    pool: list[np.ndarray] = []
    sizes = [len(o) for o in st.odds]
    i0 = int(np.argmax(sizes))
    if sizes[i0] <= (3 * k - 1) ** 2:
        parts.extend(st.sides)
        parts.extend(st.evens)
        rest = (
            np.concatenate(st.odds) if st.odds else np.empty(0, dtype=np.int64)
        )
        return parts, rest, np.empty(0, dtype=np.int64), "small"

    y0 = st.odds[i0]
    x_wit = _extract_best(fr, y0, 3 * k)
    if x_wit is None:  # cannot happen: |Y| > (3k-1)^2 guarantees a chunked LIS
        raise SearchFailedError("depth-3k extraction failed unexpectedly")
    remaining = np.setdiff1d(y0, x_wit.ids(), assume_unique=False)
    if st.t == 0:
        # orientation is free when the staircase is trivial; oppose X so the
        # deepening branch below applies
        st.up = x_wit.direction == DEC
    normalized_increasing = (x_wit.direction == INC) == st.up
    bchunks = x_wit.blocks
    x1w = _Wit(x_wit.direction, bchunks[:k])
    x2w = _Wit(x_wit.direction, bchunks[k : 2 * k])
    x3w = _Wit(x_wit.direction, bchunks[2 * k :])

    if normalized_increasing and st.t > 0:
        # widen: evens become sides, the gutted largest odd part restarts the
        # staircase, flanking odd parts are absorbed alongside X_1/X_3
        z1 = [o for j, o in enumerate(st.odds) if j < i0]
        z3 = [o for j, o in enumerate(st.odds) if j > i0]
        new_sides = (
            st.sides
            + st.evens[:i0]
            + list(reversed(st.evens[i0:]))
        )
        parts.append(x2w)
        for xw, zs, prepend in ((x1w, z1, True), (x3w, z3, False)):
            got, residue = _pullout_ids(fr, _cat(zs), k)
            again, residue = _pullout_ids(fr, residue, k)
            parts.extend(got + again)
            stitched, spill = _stitch(xw, fr.by_x(residue), prepend)
            parts.extend(stitched)
            if len(spill):
                pool.append(spill)
        st2 = _State(new_sides, [fr.by_x(remaining)], [], True)
        return parts, st2, _cat(pool), "widened"

    # deepen: draw the 3x3 grid around the middle third of X and fold the
    # corner material into the staircase
    sgn = 1.0 if st.up else -1.0
    bk, bk1 = bchunks[k - 1], bchunks[k]
    b2k, b2k1 = bchunks[2 * k - 1], bchunks[2 * k]

    def gap_coords(left: np.ndarray, right: np.ndarray) -> tuple[float, float]:
        gx = _fresh_between(fr.xs, float(fr.xs[left].max()), float(fr.xs[right].min()))
        if fr.ys[left].min() > fr.ys[right].max():  # left block sits above
            y_lo, y_hi = fr.ys[right].max(), fr.ys[left].min()
        else:
            y_lo, y_hi = fr.ys[left].max(), fr.ys[right].min()
        gy = _fresh_between(fr.ys, float(y_lo), float(y_hi))
        return gx, gy

    gx1, gy1 = gap_coords(bk, bk1)
    gx2, gy2 = gap_coords(b2k, b2k1)
    u1, u2 = sgn * gy1, sgn * gy2  # u1 > u2 in the normalized frame
    px, pu = fr.xs[remaining], sgn * fr.ys[remaining]
    r7 = remaining[(px < gx1) & (pu < u2)]
    r3 = remaining[(px > gx2) & (pu > u1)]
    z1 = remaining[(px > gx1) & (pu < u1)]
    z3 = remaining[((px < gx1) & (pu > u2) & (pu < u1)) | ((px < gx2) & (pu > u1))]
    if len(r7) + len(r3) + len(z1) + len(z3) != len(remaining):
        raise SearchFailedError("3x3 grid regions do not cover the gutted part")

    for xw, z, prepend in ((x1w, z1, False), (x3w, z3, True)):
        got, residue = _pullout_ids(fr, z, k)
        parts.extend(got)
        stitched, spill = _stitch(xw, fr.by_x(residue), prepend)
        parts.extend(stitched)
        if len(spill):
            pool.append(spill)

    new_odds = st.odds[:i0] + [fr.by_x(r7), fr.by_x(r3)] + st.odds[i0 + 1 :]
    new_evens = st.evens[:i0] + [x2w] + st.evens[i0:]
    st2 = _State(list(st.sides), new_odds, new_evens, st.up)
    return parts, st2, _cat(pool), "deepened"


def _cat(chunks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# flatten endgames


def _flatten_wide(st: _State) -> tuple[list[_Wit], np.ndarray]:
    """Endgame for l = 4k sides: the sides and even parts are finished
    witnesses, and the odd parts go to the leftover pool."""
    return st.evens + st.sides, _cat(st.odds)


def _flatten_deep(fr: _Frame, st: _State, k: int) -> tuple[list[_Wit], np.ndarray]:
    """Endgame for a staircase of full depth t = k: pull depth-(k+1)
    witnesses out of every odd part and pool their residues; the sides and
    even parts are kept as they are."""
    parts: list[_Wit] = list(st.sides)
    residues: list[np.ndarray] = []
    for odd in st.odds:
        got, res = _pullout_ids(fr, odd, k + 1)
        parts.extend(got)
        residues.append(res)
    parts.extend(st.evens)
    return parts, _cat(residues)


# ---------------------------------------------------------------------------
# the full partition loop


def partition_point_set(p: PointSet, k: int) -> LabeledPartition:
    """Partition a planar point set into block-monotone parts of depth >= k
    plus at most (k-1)^2 leftover points."""
    require_int(k=k)
    if k < 2:
        raise InvalidInputError("partition requires k >= 2")
    n = len(p)
    fr = _frame_of(p)
    parts: list[_Wit] = []
    pool: list[np.ndarray] = []
    lt_history: list[tuple[int, int]] = []
    iterations = 0
    all_ids = np.arange(n, dtype=np.int64)
    if n <= (k - 1) ** 2:
        pool.append(all_ids)
    else:
        sx = fr.by_x(all_ids)
        d, posn = longest_monotone(fr.subseq(sx))
        if len(posn) == n:
            # fully monotone input: one witness of singleton blocks covers it
            parts.append(_Wit(d, [np.asarray([i]) for i in sx]))
        else:
            st = _State([], [all_ids], [], True)
            while True:
                total = st.config_points() + sum(len(w.ids()) for w in st.sides)
                if total <= k * (3 * k - 1) ** 2 and st.t == 0 and st.l == 0:
                    pool.append(_cat(st.odds))
                    break
                if st.t == k:
                    got, rest = _flatten_deep(fr, st, k)
                    parts.extend(got)
                    if len(rest):
                        pool.append(rest)
                    break
                if st.l >= 4 * k:
                    got, rest = _flatten_wide(st)
                    parts.extend(got)
                    if len(rest):
                        pool.append(rest)
                    break
                lt_history.append((st.l, st.t))
                iterations += 1
                if iterations > 12 * k:
                    raise SearchFailedError("pattern loop exceeded its round bound")
                got, nxt, spill, outcome = _step(fr, st, k)
                parts.extend(got)
                if len(spill):
                    pool.append(spill)
                if outcome == "small":
                    if len(nxt):
                        pool.append(nxt)
                    break
                st = nxt

    # drain the pool with positive-fraction pulls (block size >= 2), then an
    # Erdos-Szekeres cleanup of what is left
    rest = np.sort(_cat(pool))
    while len(rest) > (k - 1) ** 2:
        wit = _extract_best(fr, rest, k)
        if wit is None or wit.size < 2:
            break
        parts.append(wit)
        rest = np.setdiff1d(rest, wit.ids(), assume_unique=True)
    cleanup = 0
    while len(rest) > (k - 1) ** 2:
        sx = fr.by_x(rest)
        d, posn = longest_monotone(fr.subseq(sx))
        chain = sx[np.asarray(posn, dtype=np.int64) - 1]
        parts.append(_Wit(d, [np.asarray([i]) for i in chain]))
        rest = np.setdiff1d(rest, chain, assume_unique=False)
        cleanup += 1

    pub = tuple(
        (tuple(int(i) + 1 for i in np.sort(w.ids())), w.public()) for w in parts
    )
    metrics = {
        "n": n,
        "k": k,
        "parts": len(parts),
        "iterations": iterations,
        "lt_history": lt_history,
        "cleanup_parts": cleanup,
        "remainder": int(len(rest)),
    }
    return LabeledPartition(pub, tuple(int(i) + 1 for i in np.sort(rest)), metrics)


def partition_sequence(seq: Sequence, k: int) -> LabeledPartition:
    """Sequence version: indices play the role of x-coordinates, so part ids
    are 1-based positions in the sequence."""
    return partition_point_set(seq_to_points(seq), k)


def greedy_partition(seq: Sequence, k: int) -> LabeledPartition:
    """Baseline: repeatedly pull out the best single depth-k witness until
    at most (k-1)^2 entries remain."""
    require_int(k=k)
    if k < 2:
        raise InvalidInputError("partition requires k >= 2")
    p = seq_to_points(seq)
    fr = _frame_of(p)
    cur = np.arange(len(p), dtype=np.int64)
    parts: list[_Wit] = []
    while len(cur) > (k - 1) ** 2:
        wit = _extract_best(fr, cur, k)
        if wit is None:
            break
        parts.append(wit)
        cur = np.setdiff1d(cur, wit.ids(), assume_unique=False)
    pub = tuple(
        (tuple(int(i) + 1 for i in np.sort(w.ids())), w.public()) for w in parts
    )
    metrics = {
        "n": len(p),
        "k": k,
        "parts": len(parts),
        "iterations": len(parts),
        "remainder": int(len(cur)),
    }
    return LabeledPartition(pub, tuple(int(i) + 1 for i in np.sort(cur)), metrics)
