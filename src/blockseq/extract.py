"""Extraction of deep block-monotone subsequences via gapped chains.

The workhorse is a DP over *s-gapped* chains: monotone subsequences whose
consecutive entries enclose at least ``s`` further entries in both position
and value.  Each window of a chain then contributes one block of ``s``
entries, so a chain of length m yields a block-monotone witness of depth
m - 1 and block-size s.

The DP is O(n^2) total.  Window counts come in blocks of columns: one
cumulative sum along each row prices the entries below a_i, and a prefix sum
down the block's columns (log2(width) shifted adds on top of a count carried
from block to block) prices those below a_j, so a block costs a few array
operations whatever its width.  One signed array serves both directions (the
count on increasing pairs, its bitwise complement on decreasing ones), in
narrow integers.  The chain itself comes from ``core.chain_block``, the one
longest-chain step, which takes the same blocks and which the Ramsey path
searches share through ``core.longest_chain``; its blocks keep ``_WIDTH`` =
32 columns, because the triangle inside a block is plain Python.  Because
the window array is signed, one pass can feed both directions' chains block
by block: ``extract_block_monotone`` asks ``gapped_chain_dp`` for the longer
of the two (INC on equal lengths) and prices every window once, never
storing a block.  The independent range-counting module can re-derive every
window count, which the tests use as a cross-check.

The largest feasible s for a target depth comes from one bottleneck pass over
the same windows, O(depth * n^2), filling the increasing and the decreasing
rows together: for every chain length it keeps the largest minimum window
over chains ending at each entry.  It walks bands of max(_WIDTH, _CELLS // n)
columns, so a small table is one or a few bands and its cost follows its
cells, not its count of numpy calls.  ``_CELLS`` only caps the size of a
band's temporaries; the band width cannot change the table.  Carried one
level past the target depth, the same table also holds the witness: when no
chain at that s is longer than the target, the chain the DP would return is
traced back from the table one column of windows at a time,
O(depth * n log n), with the DP's tie-breaks.  Only when a longer chain
exists does one DP at that s rebuild the witness.

``_best_gapped`` is the one best-s search: ``max_gapped_blocksize`` and the
partition's extractions both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .core import DEC, INC, BlockWitness, Sequence, longest_monotone
from .core import _WIDTH, chain_arrays, chain_block, require_int, trace_chain
from .errors import InvalidInputError, PreconditionError, SearchFailedError

__all__ = [
    "GappedChain",
    "gapped_chain_dp",
    "chain_to_blocks",
    "extract_block_monotone",
    "max_gapped_blocksize",
]

# The extraction constant c.  extract_block_monotone promises blocks of
# ceil(n/(ck)^2) entries once n >= (ck)^2.  Deliberately conservative;
# callers of the extractor may pass a smaller c.
DEFAULT_C = 40


# Pairs per band of the bottleneck table: a band of the table spans
# max(_WIDTH, _CELLS // n) columns, so its (2, width, n) int16 temporaries
# stay near 64 KB, inside a core's cache.  A memory cap, not a tuning knob.
_CELLS = 2**14


def _count_dtype(n: int):
    """Narrowest integer type that holds every count of an n-entry sequence."""
    return np.int16 if n < 2**15 - 1 else np.int32


def _window_blocks(vals: np.ndarray, bb: np.ndarray | None = None, width: int = _WIDTH):
    """Window counts of every pair j < i, ``width`` columns i at a time.

    Yields ``(lo, hi, window)`` for the columns i in [lo, hi).  ``window``
    has one contiguous row per i and one entry per j < hi, so
    ``window[i - lo, j]`` belongs to the pair (j, i); entries with j >= i are
    meaningless.  The sign carries the direction: when vals[j] < vals[i] the
    entry is the count of entries strictly between j and i in position and
    value, and when vals[j] > vals[i] it is ``~count`` (-count - 1).

    With C[t][v] the number of x < t with vals[x] < v and bb[i] =
    C[i][vals[i]], bb[i] + bb[j] - C[j+1][vals[i]] - C[i+1][vals[j]] is the
    count on increasing pairs and ~count on decreasing ones.  The
    C[j+1] terms are one cumulative sum along each row.  The C[i+1] terms
    are a prefix sum down the block's columns of the comparisons
    vals[i] < vals[j], taken as log2(width) in-place shifted adds (numpy
    reads an overlapping operand before it writes, so each add sees the
    previous step's values), plus C[lo], carried from block to block.
    Partial sums may wrap around in the narrow type; the final values fit,
    and wrapped integer arithmetic is exact modulo the type's range.  A
    caller's ``bb`` (of the count type) receives bb[0..hi) as blocks pass.
    """
    n = len(vals)
    dt = _count_dtype(n)
    r = np.empty(n, dtype=dt)
    r[np.argsort(vals)] = np.arange(n, dtype=dt)
    if bb is None:
        bb = np.empty(n, dtype=dt)
    below_lo = np.zeros(n, dtype=dt)  # C[lo][r[j]], set for j < hi
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        rb = r[lo:hi, None]
        window = np.cumsum(rb > r[:hi], axis=1, dtype=dt)  # C[j+1][r[i]]
        bb[lo:hi] = window[:, lo:hi].diagonal()
        if lo:
            below_lo[lo:hi] = window[:, lo - 1]
        np.subtract(bb[lo:hi, None], window, out=window)
        after = (rb < r[:hi]).astype(dt)  # vals[i] < vals[j], summed down next
        step = 1
        while step < hi - lo:
            after[step:] += after[:-step]
            step *= 2
        after += below_lo[:hi]  # C[i+1][r[j]]
        below_lo[:hi] = after[-1]
        window += bb[:hi]
        window -= after
        yield lo, hi, window


def _window_row(vals: np.ndarray, bb: np.ndarray, e: int) -> np.ndarray:
    """The signed windows of column e against every j < e, as int64: the
    values of row e of ``_window_blocks``, in O(n log n).  C[j+1][vals[e]]
    is one cumulative sum and C[e][vals[j]] the rank of vals[j] among the
    first e values.  bb[e] + bb[j] reaches 2n, past the count type for
    large n, so the sum is taken wide."""
    head = vals[:e]
    below_e = np.cumsum(head < vals[e])  # C[j+1][vals[e]]
    before = np.searchsorted(np.sort(head), head)  # C[e][vals[j]]
    return bb[:e].astype(np.int64) + int(bb[e]) - below_e - before - (head > vals[e])


_ROW = {INC: 0, DEC: 1}  # direction -> first index of the bottleneck table


def _bottleneck_table(vals: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck table of both directions at chain lengths 1..levels+1, and
    bb as ``_window_blocks`` defines it.

    One left-to-right pass keeps ``best[d, L, i]``, the largest minimum window
    over direction-d chains of L+1 entries ending at i:
    best[d, L, i] = max_j min(best[d, L-1, j], window(j, i)), where a
    negative value means no chain.  Chain prefixes are chains, so longer
    chains need no separate row.  Level L of a band reads only level L-1 at
    earlier columns, which the band's previous level or an earlier band has
    already finished, so once the band's own pairs with j >= i are masked
    out (one ``np.copyto`` under a triangle), each level of a band is one
    array operation, and any band width gives the same table.  A band spans
    max(_WIDTH, _CELLS // n) columns: as many as its (2, width, n)
    temporaries allow under ``_CELLS`` pairs, so small tables take one or a
    few bands.  ``_CELLS`` is a memory cap, not a tuning knob: wider bands
    only grow the temporaries past the cache, and at large n the band stays
    at ``_WIDTH`` columns.

    The table answers every s at once: the longest s-gapped direction-d
    chain ending at i has at least L+1 entries exactly when
    best[d, L, i] >= s (induction on L: a chain of L+1 entries ending at i
    extends one of L entries ending at some j linked to i by a window >= s).
    """
    n = len(vals)
    dt = _count_dtype(n)
    bb = np.empty(n, dtype=dt)
    best = np.full((2, levels + 1, n), -1, dtype=dt)  # direction INC, DEC
    best[:, 0] = n  # a lone entry has no window; n exceeds every window count
    width = max(_WIDTH, _CELLS // max(n, 1))
    later = ~np.tri(min(width, n), dtype=bool, k=-1)  # j >= i within a band
    for lo, hi, window in _window_blocks(vals, bb, width):
        links = np.stack((window, ~window))  # negative where not a link
        np.copyto(links[:, :, lo:], -1, where=later[: hi - lo, : hi - lo])
        for L in range(1, levels + 1):
            np.minimum(best[:, L - 1, None, :hi], links).max(axis=2, out=best[:, L, lo:hi])
    return best, bb


def _largest_s(best: np.ndarray, depth: int) -> tuple[int, str | None]:
    """Largest s on level ``depth`` of the table and its direction, INC on
    ties; (-1, None) when no monotone chain has depth+1 entries."""
    s_inc, s_dec = (int(x) for x in best[:, depth].max(axis=1))
    if max(s_inc, s_dec) < 0:
        return -1, None
    return (s_inc, INC) if s_inc >= s_dec else (s_dec, DEC)


def _traced_chain(
    vals: np.ndarray, best: np.ndarray, bb: np.ndarray, s: int, direction: str
) -> GappedChain:
    """The chain ``gapped_chain_dp(seq, s, direction)`` returns, read off a
    table of levels 0..depth+1 whose direction row reaches s on level depth
    but not on level depth+1, so that its longest chains have depth+1
    entries.  By the table's lemma, the chain ends at the first i with
    best[d, depth, i] >= s, and the smallest longest predecessor of an entry
    on level L is the first j linked to it with best[d, L-1, j] >= s: the
    DP's own tie-breaks.  Each step prices one column with ``_window_row``,
    O(depth * n log n) in all.  The DP tables are left empty; only
    ``chain_to_blocks`` reads the result."""
    table = best[_ROW[direction]]
    depth = len(table) - 2
    chain: list[int] = []
    end = len(vals)  # the entry picked last; candidates come before it
    for L in range(depth, -1, -1):
        ok = table[L, :end] >= s
        if chain:
            row = _window_row(vals, bb, end)
            ok &= (row if direction == INC else ~row) >= s
        hits = np.flatnonzero(ok)
        if len(hits) == 0:
            raise SearchFailedError(f"no level-{L} entry continues the s={s} chain")
        end = int(hits[0])
        chain.append(end)
    return GappedChain(direction, s, tuple(i + 1 for i in reversed(chain)), (), ())


# Read by the benchmark's environment record; the DP has no compiled kernel.
_HAVE_NUMBA = False


@dataclass(frozen=True)
class GappedChain:
    """A maximum-length monotone chain with s-gapped consecutive pairs.

    ``chain`` holds 1-based indices.  ``dp_lengths[i-1]`` is the longest
    qualifying chain ending at index i; ``dp_pred[i-1]`` is its 1-based
    predecessor (0 = none).
    """

    direction: str
    s: int
    chain: tuple[int, ...]
    dp_lengths: tuple[int, ...] = field(repr=False)
    dp_pred: tuple[int, ...] = field(repr=False)

    @property
    def length(self) -> int:
        return len(self.chain)


def gapped_chain_dp(seq: Sequence, s: int, direction: str | None) -> GappedChain:
    """Longest monotone chain (given direction) whose consecutive pairs are
    s-gapped.  Deterministic: the predecessor is the smallest index among
    those realizing the maximal previous length, and the chain ends at the
    smallest index achieving the global maximum.

    With ``direction=None`` one window pass feeds both directions' chains,
    block by block, and the longer chain is returned (INC when the lengths
    are equal) with that direction's ``dp_lengths`` and ``dp_pred``: the
    same result as the longer of the two one-direction calls, with the
    windows priced once instead of twice."""
    if direction not in (INC, DEC, None):
        raise InvalidInputError(f"unknown direction {direction!r}")
    require_int(s=s)
    if s < 0:
        raise InvalidInputError("s must be >= 0")
    directions = (INC, DEC) if direction is None else (direction,)
    n = len(seq)
    if n == 0:
        return GappedChain(directions[0], s, (), (), ())
    vals = np.asarray(seq.values, dtype=float)
    runs = [chain_arrays(n) for _ in directions]
    # 32 columns: chain_block's triangle inside a block is O(width^2) Python
    for lo, hi, window in _window_blocks(vals, None, _WIDTH):
        for d, (lengths, pred) in zip(directions, runs):
            # ~window >= s on decreasing pairs, without a complemented copy
            chain_block(lengths, pred, lo, hi, window >= s if d == INC else window <= ~s)
    tops = [int(lengths.max()) for lengths, _ in runs]
    pick = tops.index(max(tops))  # the first, INC, on equal lengths
    lengths, pred = runs[pick]
    chain = trace_chain(pred, int(np.argmax(lengths)))  # smallest index at max
    return GappedChain(
        direction=directions[pick],
        s=s,
        chain=tuple(i + 1 for i in chain),
        dp_lengths=tuple(int(x) for x in lengths),
        dp_pred=tuple(int(p) + 1 for p in pred),
    )


def _window_entries(seq: Sequence, i: int, j: int, direction: str) -> list[int]:
    """1-based indices strictly between i and j in position and value."""
    a, b = seq.values[i - 1], seq.values[j - 1]
    lo, hi = (a, b) if direction == INC else (b, a)
    return [
        x
        for x in range(i + 1, j)
        if lo < seq.values[x - 1] < hi
    ]


def chain_to_blocks(seq: Sequence, ch: GappedChain) -> BlockWitness:
    """Turn each chain window into a block of exactly ``ch.s`` entries
    (smallest indices first), giving a depth ``len(chain) - 1`` witness."""
    if len(ch.chain) < 2:
        raise InvalidInputError("chain must have at least 2 entries")
    if ch.s < 1:
        raise InvalidInputError("chain gap parameter must be >= 1")
    blocks = []
    for i, j in zip(ch.chain, ch.chain[1:]):
        entries = _window_entries(seq, i, j, ch.direction)
        if len(entries) < ch.s:
            raise InvalidInputError(
                f"pair ({i},{j}) is not {ch.s}-gapped (only {len(entries)} entries)"
            )
        blocks.append(tuple(entries[: ch.s]))
    return BlockWitness(ch.direction, blocks)


def _fallback_witness(seq: Sequence) -> BlockWitness:
    direction, idx = longest_monotone(seq)
    return BlockWitness(direction, tuple((i,) for i in idx))


def extract_block_monotone(
    seq: Sequence, k: int, c: int | None = None
) -> BlockWitness:
    """Depth >= k block-monotone witness for any sequence with n > (k-1)^2.

    Small inputs (n < (ck)^2) use the classical fallback: the longest
    monotone subsequence, of length >= ceil(sqrt(n)) >= k, as block-size-1
    blocks.  Larger inputs run one gapped-chain DP at s = ceil(n/(ck)^2)
    over both directions, whose single window pass prices both, and convert
    the longer chain (INC on equal lengths) if it has k+1 entries; if it
    does not (possible only for lowered c), the fallback is used.
    """
    c = DEFAULT_C if c is None else c
    require_int(k=k, c=c)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if c < 1:
        raise InvalidInputError("c must be >= 1")
    n = len(seq)
    if n <= (k - 1) ** 2:
        raise PreconditionError(
            f"extraction requires n > (k-1)^2; got n={n}, k={k}"
        )
    if n < (c * k) ** 2:
        return _fallback_witness(seq)
    ch = gapped_chain_dp(seq, math.ceil(n / (c * k) ** 2), None)
    if ch.length < k + 1:
        return _fallback_witness(seq)
    return chain_to_blocks(seq, ch)


def _best_gapped(
    seq: Sequence, depth: int, floor: int = 0
) -> tuple[int, GappedChain | None]:
    """Largest block-size s whose s-gapped chain reaches depth+1 entries, in
    either direction, with the chain ``gapped_chain_dp(seq, s, d)`` finds in
    the direction d of s (INC on ties); (0, None) when s < 1, and (s, None)
    when s is at most ``floor``, so no witness is built that a caller's
    floor beats.  One bottleneck pass, carried to depth+1, finds s; unless
    row d has a chain of depth+2 entries at s, the chain is traced back from
    the same table, and otherwise one DP at s rebuilds it."""
    if (len(seq) - depth - 1) // depth < 1:  # depth+1 entries, depth gaps of s >= 1
        return 0, None
    vals = np.asarray(seq.values, dtype=float)
    best, bb = _bottleneck_table(vals, depth + 1)
    s, d = _largest_s(best, depth)
    s = max(s, 0)
    if s <= floor:
        return s, None
    if best[_ROW[d], depth + 1].max() >= s:
        return s, gapped_chain_dp(seq, s, d)
    return s, _traced_chain(vals, best, bb, s, d)


def max_gapped_blocksize(seq: Sequence, k: int) -> tuple[int, BlockWitness | None]:
    """Largest s >= 1 admitting an s-gapped chain of length >= k+1 (either
    direction), with the witness of the chain ``gapped_chain_dp`` finds at s
    in the direction of s: INC when both directions reach s, even if the DEC
    chain at s is longer.  (0, None) when only the block-size-1 fallback
    exists.  See ``_best_gapped``."""
    require_int(k=k)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    n = len(seq)
    if n <= k:
        raise InvalidInputError(f"need n >= k+1, got n={n}, k={k}")
    s, ch = _best_gapped(seq, k)
    return s, None if ch is None else chain_to_blocks(seq, ch)
