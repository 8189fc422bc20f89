"""Partition sequences and planar point sets into block-monotone pieces.

The construction runs on a sequence, with 0-based positions as ids and value
ranks as y: it only ever compares coordinates, so positions and ranks carry
everything it needs, and a point set reduces to the sequence of its y-values
in x order.  The partitioner maintains a *pattern*: a list of
already-structured side sets, each with the rest of the pattern confined to
one quadrant of it, around a staircase *configuration* whose even-indexed
parts are depth-k block-monotone witnesses.
Each round either finishes (everything left is small), widens the pattern
(more sides), or deepens the staircase, and bounded-round pull-outs convert
the absorbed material into witnesses.  Repeated best extractions then drain
the leftover pool while their blocks hold 2 or more points, and a final
monotone-subsequence sweep reduces what is left below (k-1)^2 points.  Every
extraction, at any subset size, keeps the larger of a cut longest monotone
subsequence and the exact gapped-chain search.

All public indices are 1-based positions in the sequence, or 1-based ids into
the input point set.  Directions follow the sequence convention: "inc" means
up-right.
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


@dataclass(frozen=True)
class LabeledPartition:
    """Exact cover of the input: structured parts, a small remainder, and
    run metrics."""

    parts: tuple[tuple[tuple[int, ...], BlockWitness], ...]
    remainder: tuple[int, ...]
    metrics: dict = field(compare=False)


# ---------------------------------------------------------------------------
# internal witnesses (0-based positions; ``ys`` maps a position to its rank)


@dataclass
class _Wit:
    """Internal witness: one sorted array of 0-based positions per block."""

    direction: str
    blocks: list[np.ndarray]

    @property
    def size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def ids(self) -> np.ndarray:
        return _cat(self.blocks)

    def public(self) -> BlockWitness:
        return BlockWitness(self.direction, [b + 1 for b in self.blocks])


def _ranks(seq: Sequence) -> np.ndarray:
    """0-based value rank of every entry."""
    return np.argsort(np.argsort(seq.values))


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


def _extract_best(ys: np.ndarray, ids: np.ndarray, depth: int) -> _Wit | None:
    """Best block-monotone extraction of exact ``depth`` from the sorted
    positions ``ids``.

    Compares a longest monotone subsequence cut into ``depth`` equal blocks
    with the exact gapped-chain search, at every subset size; the larger
    block-size wins, and the search builds no witness the cut would beat.
    """
    if depth < 1 or len(ids) <= (depth - 1) ** 2:
        return None
    seq = Sequence(ys[ids].tolist())
    # Erdos-Szekeres: m > (depth-1)^2 gives a monotone run of >= depth entries
    d, pos = longest_monotone(seq)
    s = len(pos) // depth
    run = ids[np.asarray(pos, dtype=np.int64) - 1]
    best = _Wit(d, [run[i * s : (i + 1) * s] for i in range(depth)])
    _, ch = _best_gapped(seq, depth, s)
    if ch is not None:
        w = chain_to_blocks(seq, ch)
        best = _Wit(w.direction, [ids[np.asarray(b, dtype=np.int64) - 1] for b in w.blocks])
    return best


# ---------------------------------------------------------------------------
# pull-out rounds


def _round_ceiling(depth: int) -> int:
    return math.ceil(2 * depth * math.log2(max(depth, 2))) + 2


def _pullout_ids(
    ys: np.ndarray, ids: np.ndarray, depth: int
) -> tuple[list[_Wit], np.ndarray]:
    """Repeatedly extract depth-``depth`` witnesses from the sorted positions
    ``ids`` until the residue drops to max(|ids|/depth, (depth-1)^2) or the
    round ceiling is hit; the residue stays sorted."""
    target = max(len(ids) / depth, (depth - 1) ** 2)
    parts: list[_Wit] = []
    cur = ids
    rounds = 0
    while len(cur) > target and rounds < _round_ceiling(depth):
        wit = _extract_best(ys, cur, depth)
        if wit is None:
            break
        parts.append(wit)
        cur = np.setdiff1d(cur, wit.ids(), assume_unique=True)
        rounds += 1
    return parts, cur


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
    ys: np.ndarray, st: _State, k: int
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
        return parts, _cat(st.odds), np.empty(0, dtype=np.int64), "small"

    y0 = st.odds[i0]
    x_wit = _extract_best(ys, y0, 3 * k)
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
            got, residue = _pullout_ids(ys, _cat(zs), k)
            again, residue = _pullout_ids(ys, residue, k)
            parts.extend(got + again)
            stitched, spill = _stitch(xw, residue, prepend)
            parts.extend(stitched)
            if len(spill):
                pool.append(spill)
        st2 = _State(new_sides, [remaining], [], True)
        return parts, st2, _cat(pool), "widened"

    # deepen: draw the 3x3 grid around the middle third of X and fold the
    # corner material into the staircase.  Positions and ranks are integers,
    # so a cut half a step past the left block (in position) or past the
    # lower block's top rank separates the same points as any cut in the gap.
    sgn = 1 if st.up else -1

    def gap_cuts(left: np.ndarray, right: np.ndarray) -> tuple[float, float]:
        return left.max() + 0.5, min(ys[left].max(), ys[right].max()) + 0.5

    gx1, gy1 = gap_cuts(bchunks[k - 1], bchunks[k])
    gx2, gy2 = gap_cuts(bchunks[2 * k - 1], bchunks[2 * k])
    u1, u2 = sgn * gy1, sgn * gy2  # u1 > u2 in the normalized frame
    px, pu = remaining, sgn * ys[remaining]
    r7 = remaining[(px < gx1) & (pu < u2)]
    r3 = remaining[(px > gx2) & (pu > u1)]
    z1 = remaining[(px > gx1) & (pu < u1)]
    z3 = remaining[((px < gx1) & (pu > u2) & (pu < u1)) | ((px < gx2) & (pu > u1))]
    if len(r7) + len(r3) + len(z1) + len(z3) != len(remaining):
        raise SearchFailedError("3x3 grid regions do not cover the gutted part")

    for xw, z, prepend in ((x1w, z1, False), (x3w, z3, True)):
        got, residue = _pullout_ids(ys, z, k)
        parts.extend(got)
        stitched, spill = _stitch(xw, residue, prepend)
        parts.extend(stitched)
        if len(spill):
            pool.append(spill)

    new_odds = st.odds[:i0] + [r7, r3] + st.odds[i0 + 1 :]
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


def _flatten_deep(ys: np.ndarray, st: _State, k: int) -> tuple[list[_Wit], np.ndarray]:
    """Endgame for a staircase of full depth t = k: pull depth-(k+1)
    witnesses out of every odd part and pool their residues; the sides and
    even parts are kept as they are."""
    parts: list[_Wit] = list(st.sides)
    residues: list[np.ndarray] = []
    for odd in st.odds:
        got, res = _pullout_ids(ys, odd, k + 1)
        parts.extend(got)
        residues.append(res)
    parts.extend(st.evens)
    return parts, _cat(residues)


# ---------------------------------------------------------------------------
# the full partition loop


def _labeled(parts: list[_Wit], rest: np.ndarray, metrics: dict) -> LabeledPartition:
    """The public partition over the sorted remainder ``rest``: each part's
    1-based ids (its blocks run left to right) with its witness."""
    pub = tuple((tuple(int(i) + 1 for i in w.ids()), w.public()) for w in parts)
    return LabeledPartition(pub, tuple(int(i) + 1 for i in rest), metrics)


def partition_sequence(seq: Sequence, k: int) -> LabeledPartition:
    """Partition a sequence into block-monotone parts of depth >= k plus at
    most (k-1)^2 leftover entries; part ids are 1-based positions."""
    require_int(k=k)
    if k < 2:
        raise InvalidInputError("partition requires k >= 2")
    ys = _ranks(seq)
    n = len(ys)
    parts: list[_Wit] = []
    pool: list[np.ndarray] = []
    lt_history: list[tuple[int, int]] = []
    iterations = 0
    all_ids = np.arange(n, dtype=np.int64)
    if n <= (k - 1) ** 2:
        pool.append(all_ids)
    else:
        d, posn = longest_monotone(seq)
        if len(posn) == n:
            # fully monotone input: one witness of singleton blocks covers it
            parts.append(_Wit(d, [np.asarray([i]) for i in all_ids]))
        else:
            st = _State([], [all_ids], [], True)
            while True:
                total = st.config_points() + sum(len(w.ids()) for w in st.sides)
                if total <= k * (3 * k - 1) ** 2 and st.t == 0 and st.l == 0:
                    pool.append(_cat(st.odds))
                    break
                if st.t == k:
                    got, rest = _flatten_deep(ys, st, k)
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
                got, nxt, spill, outcome = _step(ys, st, k)
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
        wit = _extract_best(ys, rest, k)
        if wit is None or wit.size < 2:
            break
        parts.append(wit)
        rest = np.setdiff1d(rest, wit.ids(), assume_unique=True)
    cleanup = 0
    while len(rest) > (k - 1) ** 2:
        d, posn = longest_monotone(Sequence(ys[rest].tolist()))
        chain = rest[np.asarray(posn, dtype=np.int64) - 1]
        parts.append(_Wit(d, [np.asarray([i]) for i in chain]))
        rest = np.setdiff1d(rest, chain, assume_unique=False)
        cleanup += 1

    metrics = {
        "n": n,
        "k": k,
        "parts": len(parts),
        "iterations": iterations,
        "lt_history": lt_history,
        "cleanup_parts": cleanup,
        "remainder": int(len(rest)),
    }
    return _labeled(parts, rest, metrics)


def partition_point_set(p: PointSet, k: int) -> LabeledPartition:
    """Partition a planar point set into block-monotone parts of depth >= k
    plus at most (k-1)^2 leftover points: the partition of its y-values in
    x order, with every position mapped back to its 1-based point id."""
    order = sorted(range(len(p)), key=lambda i: p.points[i][0])
    lp = partition_sequence(Sequence(p.points[i][1] for i in order), k)

    def point_ids(positions) -> tuple[int, ...]:
        return tuple(sorted(order[i - 1] + 1 for i in positions))

    parts = tuple(
        (point_ids(ids), BlockWitness(w.direction, [point_ids(b) for b in w.blocks]))
        for ids, w in lp.parts
    )
    return LabeledPartition(parts, point_ids(lp.remainder), lp.metrics)


def greedy_partition(seq: Sequence, k: int) -> LabeledPartition:
    """Baseline: repeatedly pull out the best single depth-k witness until
    at most (k-1)^2 entries remain."""
    require_int(k=k)
    if k < 2:
        raise InvalidInputError("partition requires k >= 2")
    ys = _ranks(seq)
    cur = np.arange(len(ys), dtype=np.int64)
    parts: list[_Wit] = []
    while len(cur) > (k - 1) ** 2:
        wit = _extract_best(ys, cur, k)
        if wit is None:
            break
        parts.append(wit)
        cur = np.setdiff1d(cur, wit.ids(), assume_unique=False)
    metrics = {
        "n": len(ys),
        "k": k,
        "parts": len(parts),
        "iterations": len(parts),
        "remainder": int(len(cur)),
    }
    return _labeled(parts, cur, metrics)
