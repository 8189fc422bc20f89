"""Partition sequences and planar point sets into block-monotone pieces.

The construction runs on a sequence, with 0-based positions as ids and value
ranks as y: it only ever compares coordinates, so positions and ranks carry
everything it needs, and a point set reduces to the sequence of its y-values
in x order.  The partitioner maintains a *pattern*: a list of
already-structured side sets, each with the rest of the pattern confined to
one quadrant of it, around a staircase *configuration* whose even-indexed
parts are depth-k block-monotone witnesses.
Each round widens the pattern (more sides) or deepens the staircase, and
bounded-round pull-outs convert the absorbed material into witnesses, until
the staircase is full, the pattern is wide or every odd part is small; one
endgame then keeps the sides and even parts.  One peel loop serves every
repeated extraction: the pull-outs, the drain of the leftover pool while its
blocks hold 2 or more points, and the greedy baseline.  A final
monotone-subsequence sweep reduces what is left below (k-1)^2 points.  Every
extraction, at any subset size, keeps the larger of a cut longest monotone
subsequence and the exact gapped-chain search.

All public indices are 1-based positions in the sequence, or 1-based ids into
the input point set.  Directions follow the sequence convention: "inc" means
up-right.

The public entry points check their input; internally the partition works
on positions and ranks it built, hands the search rank sequences through the
private ``Sequence._trusted`` (ranks are distinct by construction), returns
witnesses built with the private ``BlockWitness._trusted`` from the int
positions it computed, and removes extracted positions with one boolean mask
over the positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .core import (
    DEC,
    INC,
    BlockWitness,
    Sequence,
    integer,
    longest_monotone,
    real_coordinates,
    validate_block_witness,
)
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
        xs, ys = real_coordinates(points)
        for axis, coords in (("x", xs), ("y", ys)):
            if len(set(coords)) != len(coords):
                raise InvalidInputError(f"{axis} coordinates must be distinct")
        object.__setattr__(self, "points", tuple(zip(xs, ys)))

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
        return BlockWitness._trusted(
            self.direction, tuple(tuple((b + 1).tolist()) for b in self.blocks)
        )


def _ranks(seq: Sequence) -> np.ndarray:
    """0-based value rank of every entry."""
    return np.argsort(np.argsort(seq.values))


def _drop(ids: np.ndarray, gone: np.ndarray, n: int) -> np.ndarray:
    """The positions ``ids`` without those in ``gone``, in their order; all
    positions lie in 0..n-1."""
    keep = np.ones(n, dtype=bool)
    keep[gone] = False
    return ids[keep[ids]]


def _by_x(p: PointSet) -> tuple[list[int], Sequence]:
    """0-based point indices in x order, and the sequence of their y-values."""
    order = sorted(range(len(p)), key=lambda i: p.points[i][0])
    return order, Sequence._trusted(tuple(p.points[i][1] for i in order))  # distinct y


def validate_point_witness(p: PointSet, w: BlockWitness) -> bool:
    """The sequence validator on the y-values in x order, with every point
    id mapped to its 1-based position in that order; an out-of-range id
    raises."""
    n = len(p)
    for i in w.indices():
        if not 1 <= i <= n:
            raise InvalidInputError(f"point id {i!r} out of range 1..{n}")
    order, seq = _by_x(p)
    position = [0] * n
    for pos, i in enumerate(order, start=1):
        position[i] = pos
    blocks = [[position[i - 1] for i in b] for b in w.blocks]
    return validate_block_witness(seq, BlockWitness(w.direction, blocks))


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
    seq = Sequence._trusted(tuple(ys[ids].tolist()))  # distinct ranks
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
# the peel loop and its pull-out policy


def _peel(
    ys: np.ndarray,
    ids: np.ndarray,
    depth: int,
    keep: float,
    rounds: float = math.inf,
    least: int = 1,
) -> tuple[list[_Wit], np.ndarray]:
    """Pull best depth-``depth`` witnesses out of the sorted positions
    ``ids`` while more than ``keep`` remain, for at most ``rounds`` rounds,
    stopping at the first witness with blocks below ``least`` points.
    Returns the witnesses and the residue, still sorted."""
    parts: list[_Wit] = []
    cur = ids
    while len(cur) > keep and len(parts) < rounds:
        wit = _extract_best(ys, cur, depth)
        if wit is None or wit.size < least:
            break
        parts.append(wit)
        cur = _drop(cur, wit.ids(), len(ys))
    return parts, cur


def _round_ceiling(depth: int) -> int:
    return math.ceil(2 * depth * math.log2(max(depth, 2))) + 2


def _pullout_ids(
    ys: np.ndarray, ids: np.ndarray, depth: int
) -> tuple[list[_Wit], np.ndarray]:
    """Peel until the residue drops to max(|ids|/depth, (depth-1)^2) or the
    round ceiling is hit."""
    keep = max(len(ids) / depth, (depth - 1) ** 2)
    return _peel(ys, ids, depth, keep, _round_ceiling(depth))


# ---------------------------------------------------------------------------
# the pattern step (widen / deepen) and the endgame


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


def _step(ys: np.ndarray, st: _State, k: int) -> tuple[list[_Wit], _State, np.ndarray]:
    """One round of the main loop: cut a depth-3k witness X from the largest
    odd part, which must hold more than (3k-1)^2 points, and widen (the
    successor has t = 0) or deepen (t + 1) around it.  Returns the finished
    witnesses, the successor state and the spilled ids."""
    parts: list[_Wit] = []
    pool: list[np.ndarray] = []
    i0 = int(np.argmax([len(o) for o in st.odds]))
    y0 = st.odds[i0]
    x_wit = _extract_best(ys, y0, 3 * k)
    if x_wit is None:  # cannot happen: |Y| > (3k-1)^2 guarantees a chunked LIS
        raise SearchFailedError("depth-3k extraction failed unexpectedly")
    remaining = _drop(y0, x_wit.ids(), len(ys))
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
        return parts, st2, _cat(pool)

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
    return parts, st2, _cat(pool)


def _cat(chunks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _finish(ys: np.ndarray, st: _State, k: int) -> tuple[list[_Wit], np.ndarray]:
    """The loop's one endgame: the sides and even parts are finished
    witnesses, and the odd parts go to the leftover pool.  A full staircase
    (t = k) first pulls depth-(k+1) witnesses out of every odd part and
    pools their residues.  Parts come sides, pull-outs, evens."""
    pulled: list[_Wit] = []
    rest = st.odds
    if st.t == k:
        peeled = [_pullout_ids(ys, odd, k + 1) for odd in st.odds]
        pulled = [w for got, _ in peeled for w in got]
        rest = [residue for _, residue in peeled]
    return st.sides + pulled + st.evens, _cat(rest)


# ---------------------------------------------------------------------------
# the full partition loop


def _labeled(parts: list[_Wit], rest: np.ndarray, metrics: dict) -> LabeledPartition:
    """The public partition over the sorted remainder ``rest``: each part's
    1-based ids (its blocks run left to right) with its witness."""
    pub = tuple((tuple((w.ids() + 1).tolist()), w.public()) for w in parts)
    return LabeledPartition(pub, tuple((rest + 1).tolist()), metrics)


def partition_sequence(seq: Sequence, k: int) -> LabeledPartition:
    """Partition a sequence into block-monotone parts of depth >= k plus at
    most (k-1)^2 leftover entries; part ids are 1-based positions."""
    k = integer(k, "k")
    if k < 2:
        raise InvalidInputError("partition requires k >= 2")
    ys = _ranks(seq)
    n = len(ys)
    parts: list[_Wit] = []
    pool: list[np.ndarray] = []
    lt_history: list[tuple[int, int]] = []
    iterations = 0
    all_ids = np.arange(n, dtype=np.int64)
    steps = np.diff(ys)  # rank steps: all of one sign on a monotone input
    inc, dec = bool((steps > 0).all()), bool((steps < 0).all())
    if n <= (k - 1) ** 2:
        pool.append(all_ids)
    elif inc or dec:
        # fully monotone input: one witness of singleton blocks covers it
        d = INC if inc else DEC  # INC on ties (n = 1), as longest_monotone
        parts.append(_Wit(d, [np.asarray([i]) for i in all_ids]))
    else:
        st = _State([], [all_ids], [], True)
        small = k * (3 * k - 1) ** 2  # a fresh pattern this small is left over
        while st.t < k and st.l < 4 * k and (st.l or st.t or len(st.odds[0]) > small):
            lt_history.append((st.l, st.t))
            iterations += 1
            if iterations > 12 * k:
                raise SearchFailedError("pattern loop exceeded its round bound")
            if max(len(o) for o in st.odds) <= (3 * k - 1) ** 2:
                break
            got, st, spill = _step(ys, st, k)
            parts.extend(got)
            pool.append(spill)
        got, rest = _finish(ys, st, k)
        parts.extend(got)
        pool.append(rest)

    # drain the pool with positive-fraction pulls (block size >= 2), then an
    # Erdos-Szekeres cleanup of what is left
    drained, rest = _peel(ys, np.sort(_cat(pool)), k, (k - 1) ** 2, least=2)
    parts.extend(drained)
    cleanup = 0
    while len(rest) > (k - 1) ** 2:
        d, posn = longest_monotone(Sequence._trusted(tuple(ys[rest].tolist())))
        chain = rest[np.asarray(posn, dtype=np.int64) - 1]
        parts.append(_Wit(d, [np.asarray([i]) for i in chain]))
        rest = _drop(rest, chain, n)
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
    order, seq = _by_x(p)
    lp = partition_sequence(seq, k)

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
    k = integer(k, "k")
    if k < 2:
        raise InvalidInputError("partition requires k >= 2")
    ys = _ranks(seq)
    parts, cur = _peel(ys, np.arange(len(ys), dtype=np.int64), k, (k - 1) ** 2)
    metrics = {
        "n": len(ys),
        "k": k,
        "parts": len(parts),
        "iterations": len(parts),
        "remainder": int(len(cur)),
    }
    return _labeled(parts, cur, metrics)
