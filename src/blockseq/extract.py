"""Extraction of deep block-monotone subsequences via gapped chains.

The workhorse is a DP over *s-gapped* chains: monotone subsequences whose
consecutive entries enclose at least ``s`` further entries in both position
and value.  Each window of a chain then contributes one block of ``s``
entries, so a chain of length m yields a block-monotone witness of depth
m - 1 and block-size s.

The DP is O(n^2) total.  Window counts come in blocks of columns.  Counts
along each row price the entries below a_i by byte lanes: the row's
comparisons, eight to a 64-bit word, are summed within each word by one
multiply, and only the word totals take a cumulative sum, so the serial scan
covers one entry in eight.  A prefix sum down the block's columns
(log2(width) shifted adds on top of a count carried from block to block)
prices those below a_j, so a block costs a few array operations whatever its
width.  Each block comes as one (2, rows, columns) array of narrow integers,
built in place: the signed windows (the count on increasing pairs, its
bitwise complement on decreasing ones) and their complement, so either
direction reads its links as the entries >= s of one row.  The chain itself
comes from ``core.chain_block``, the one longest-chain step, which takes the
same blocks and which the Ramsey path searches share through
``core.longest_chain``; its blocks keep ``_WIDTH`` = 32 columns, because the
triangle inside a block is plain Python.  The independent range-counting
module can re-derive every window count, which the tests use as a
cross-check.

The largest feasible s for a target depth comes from one bottleneck pass over
the same windows, O(depth * n^2), filling the increasing and the decreasing
rows together: for every chain length it keeps the largest minimum window
over chains ending at each entry; the chain of one entry has no window, so
level 1 is the plain max of the links.  It walks bands of max(_WIDTH, _CELLS // n)
columns, so a small table is one or a few bands and its cost follows its
cells, not its count of numpy calls.  ``_CELLS`` only caps the size of a
band's temporaries; the band width cannot change the table.  Built to the
target depth and no further, the same table also holds the witness: a chain
of exactly depth+1 entries at that s is traced back from it one column of
windows at a time, O(depth * n log n), with the DP's tie-breaks.

``_best_gapped`` is the one best-s search: ``max_gapped_blocksize``,
``extract_block_monotone`` and the partition's extractions all call it, and
none of them runs the chain DP.  The extractor and the partition keep one
rule: the larger of a cut longest monotone subsequence and the search's
chain, so every witness has exactly the asked depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEC, INC, BlockWitness, Sequence, longest_monotone
from .core import _WIDTH, chain_arrays, chain_block, integer, trace_chain
from .errors import InvalidInputError, PreconditionError, SearchFailedError

__all__ = [
    "GappedChain",
    "gapped_chain_dp",
    "chain_to_blocks",
    "extract_block_monotone",
    "max_gapped_blocksize",
]

# The extraction constant c.  extract_block_monotone runs the search, and
# so promises blocks of ceil(n/(ck)^2) entries, once n >= (ck)^2.
# Deliberately conservative; callers of the extractor may pass a smaller c.
DEFAULT_C = 40


# Pairs per band of the bottleneck table: a band of the table spans
# max(_WIDTH, _CELLS // n) columns, so up to n = 512 its (2, width, n) int16
# temporaries stay near 64 KB, inside a core's cache.  Past that the band
# stays at _WIDTH columns and they grow as 128 n bytes, twice that once
# counts need int32 (n >= 2^15 - 1).  A memory cap, not a tuning knob.
_CELLS = 2**14


def _count_dtype(n: int):
    """Narrowest integer type that holds every count of an n-entry sequence."""
    return np.int16 if n < 2**15 - 1 else np.int32


def _window_blocks(vals: np.ndarray, bb: np.ndarray | None = None, width: int = _WIDTH):
    """Window counts of every pair j < i, ``width`` columns i at a time.

    Yields ``(lo, hi, links)`` for the columns i in [lo, hi), where
    ``links`` is a fresh contiguous (2, hi - lo, hi) array of the count
    type with one row per i and one entry per j < hi, so
    ``links[:, i - lo, j]`` belongs to the pair (j, i); entries with j >= i
    are meaningless.  ``links[0]`` carries the direction in its sign: when
    vals[j] < vals[i] the entry is the count of entries strictly between j
    and i in position and value, and when vals[j] > vals[i] it is ``~count``
    (-count - 1).  ``links[1] = ~links[0]``, the same windows signed for
    decreasing pairs, so ``links[_ROW[d]] >= s`` marks the s-gapped
    direction-d links and is negative on every pair of the other direction.

    With C[t][v] the number of x < t with vals[x] < v and bb[i] =
    C[i][vals[i]], bb[i] + bb[j] - C[j+1][vals[i]] - C[i+1][vals[j]] is the
    count on increasing pairs and ~count on decreasing ones.

    The C[j+1] terms count along each row by byte lanes.  The comparisons
    vals[j] < vals[i] fill a zero-padded bool buffer of ceil(hi/8)*8
    columns, read as little-endian 64-bit words of eight 0/1 bytes.  Times
    0x0101010101010101 each byte holds its word's count up to itself; that
    count is at most 8, so no byte carries into the next.  An exclusive
    cumulative sum of the word totals (the top bytes) scans one entry in
    eight.  The bytes then widen to unsigned lanes as wide as the count
    type, read as little-endian words of 8 // itemsize lanes, and each word
    adds its carry times the lane-ones constant, once for every one of the
    ``itemsize`` words its eight lanes span.  Every lane ends at a count of
    at most n, which the count type holds, so no lane carries into its
    neighbour either; the explicit little-endian views keep the lanes in
    column order on any host.

    The C[i+1] terms are a prefix sum down the block's columns of the
    comparisons vals[i] < vals[j], taken as log2(width) shifted adds that
    alternate between two buffers (an overlapping in-place add would make
    numpy copy its operand first), plus C[lo], carried from block to block.
    Partial sums may wrap around in the narrow type; the final values fit,
    and wrapped integer arithmetic is exact modulo the type's range.  A
    caller's ``bb`` (of the count type) receives bb[0..hi) as blocks pass.
    """
    n = len(vals)
    dt = np.dtype(_count_dtype(n))
    size = dt.itemsize
    lane = dt.newbyteorder("<")  # little-endian lanes of the count type
    lane_ones = np.uint64((2**64 - 1) // (2 ** (8 * size) - 1))  # 1 in every lane
    r = np.empty(n, dtype=dt)
    r[np.argsort(vals)] = np.arange(n, dtype=dt)
    if bb is None:
        bb = np.empty(n, dtype=dt)
    below_lo = np.zeros(n, dtype=dt)  # C[lo][r[j]], set for j < hi
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        rows, words = hi - lo, -(-hi // 8)
        rb = r[lo:hi, None]
        above = np.zeros((rows, 8 * words), dtype=bool)
        np.greater(rb, r[:hi], out=above[:, :hi])
        word = above.view("<u8")
        word *= np.uint64(0x0101010101010101)  # byte b: the word's count to b
        carry = np.zeros((rows, words), dtype=np.uint64)  # the count before each word
        np.cumsum(word[:, :-1] >> np.uint64(56), axis=1, out=carry[:, 1:])  # of word totals
        carry *= lane_ones
        counts = np.empty((rows, 8 * words), dtype=lane)
        np.copyto(counts, word.view(np.uint8), casting="unsafe")
        counts.view("<u8").reshape(rows, words, size)[...] += carry[:, :, None]
        row = counts[:, :hi]  # C[j+1][r[i]]
        bb[lo:hi] = row[:, lo:hi].diagonal()
        if lo:
            below_lo[lo:hi] = row[:, lo - 1]
        links = np.empty((2, rows, hi), dtype=dt)
        window = links[0]
        np.subtract(bb[lo:hi, None], row, out=window)
        after = (rb < r[:hi]).astype(dt)  # vals[i] < vals[j], summed down next
        spare = np.empty_like(after)
        step = 1
        while step < rows:
            spare[:step] = after[:step]
            np.add(after[step:], after[:-step], out=spare[step:])
            after, spare = spare, after
            step *= 2
        after += below_lo[:hi] - bb[:hi]  # C[i+1][r[j]] - bb[j]
        np.add(after[-1], bb[:hi], out=below_lo[:hi])
        window -= after
        np.invert(window, out=links[1])
        del above, word, counts, row, after, spare  # keep no temporary over the yield
        yield lo, hi, links


def _window_row(vals: np.ndarray, bb: np.ndarray, e: int) -> np.ndarray:
    """The signed windows of column e against every j < e, as int64: the
    values of row e of ``_window_blocks``'s ``links[0]``, in O(n log n).  C[j+1][vals[e]]
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
    out of its links (one ``np.copyto`` under a triangle), each level of a
    band is one array operation, and any band width gives the same table.
    ``links[d]`` is the direction-d window, negative on the other
    direction's pairs, so the table reads the links ``_window_blocks``
    yields with no copy.  Level 1 is a plain max over the links: level 0 is
    n, above every window, so its minimum changes nothing.  A band spans
    max(_WIDTH, _CELLS // n) columns: as many as its (2, width, n)
    temporaries allow under ``_CELLS`` pairs, so small tables take one or a
    few bands.  ``_CELLS`` is a memory cap, not a tuning knob: wider bands
    only grow the temporaries past the cache.  Above n = 512 the band stays
    at ``_WIDTH`` columns, and its temporaries grow as 128 n bytes (256 n
    once the counts are int32, from n = 2^15 - 1).

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
    for lo, hi, links in _window_blocks(vals, bb, width):
        np.copyto(links[:, :, lo:], -1, where=later[: hi - lo, : hi - lo])
        links.max(axis=2, out=best[:, 1, lo:hi])  # min(best[:, 0] = n, link) = link
        for L in range(2, levels + 1):
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
    """An s-gapped direction chain of exactly depth+1 entries, read off a
    table of levels 0..depth whose direction row reaches s on level depth.
    The chain ends at the first i with best[d, depth, i] >= s, and from an
    entry on level L it steps to the first j linked to it with
    best[d, L-1, j] >= s: the DP's tie-breaks, applied at the target depth.
    By the table's recurrence an entry that reaches s on level L has such a
    j, so every step finds one.  Each step prices one column with
    ``_window_row``, O(depth * n log n) in all."""
    table = best[_ROW[direction]]
    chain: list[int] = []
    end = len(vals)  # the entry picked last; candidates come before it
    for L in range(len(table) - 1, -1, -1):
        ok = table[L, :end] >= s
        if chain:
            row = _window_row(vals, bb, end)
            ok &= (row if direction == INC else ~row) >= s
        hits = np.flatnonzero(ok)
        if len(hits) == 0:
            raise SearchFailedError(f"no level-{L} entry continues the s={s} chain")
        end = int(hits[0])
        chain.append(end)
    return GappedChain(direction, s, tuple(i + 1 for i in reversed(chain)))


# Read by the benchmark's environment record; the DP has no compiled kernel.
_HAVE_NUMBA = False


@dataclass(frozen=True)
class GappedChain:
    """A monotone chain with s-gapped consecutive pairs; ``chain`` holds
    1-based indices.  ``gapped_chain_dp`` returns a longest one, the best-s
    search one of exactly the asked depth."""

    direction: str
    s: int
    chain: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.chain)


def gapped_chain_dp(seq: Sequence, s: int, direction: str) -> GappedChain:
    """Longest monotone chain (given direction) whose consecutive pairs are
    s-gapped.  Deterministic: the predecessor is the smallest index among
    those realizing the maximal previous length, and the chain ends at the
    smallest index achieving the global maximum."""
    if direction not in (INC, DEC):
        raise InvalidInputError(f"unknown direction {direction!r}")
    s = integer(s, "s")
    if s < 0:
        raise InvalidInputError("s must be >= 0")
    n = len(seq)
    if n == 0:
        return GappedChain(direction, s, ())
    vals = np.asarray(seq.values, dtype=float)
    lengths, pred = chain_arrays(n)
    # 32 columns: chain_block's triangle inside a block is O(width^2) Python
    for lo, hi, links in _window_blocks(vals, None, _WIDTH):
        # links[1] = ~links[0]: each direction's s-gapped links are its row >= s
        chain_block(lengths, pred, lo, hi, links[_ROW[direction]] >= s)
    chain = trace_chain(pred, int(np.argmax(lengths)))  # smallest index at max
    return GappedChain(direction, s, tuple(i + 1 for i in chain))


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
    return BlockWitness._trusted(str(ch.direction), tuple(blocks))


def extract_block_monotone(
    seq: Sequence, k: int, c: int | None = None
) -> BlockWitness:
    """Block-monotone witness of depth exactly k for any sequence with
    n > (k-1)^2: the larger of two candidates, the first on ties.

    The longest monotone subsequence, of length L >= ceil(sqrt(n)) >= k,
    cut into k blocks of L // k entries; and, once n >= (ck)^2, the exact
    search's chain of k+1 entries at the largest gap s*, whose k windows
    give k blocks of s* entries.  s* is at least the promised floor
    ceil(n/(ck)^2) whenever a chain reaches it (for a lowered c none may,
    and the cut is kept).  The search builds no chain that the cut beats.
    """
    c = DEFAULT_C if c is None else c
    k, c = integer(k, "k"), integer(c, "c")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if c < 1:
        raise InvalidInputError("c must be >= 1")
    n = len(seq)
    if n <= (k - 1) ** 2:
        raise PreconditionError(
            f"extraction requires n > (k-1)^2; got n={n}, k={k}"
        )
    direction, run = longest_monotone(seq)
    s = len(run) // k
    if n >= (c * k) ** 2:
        _, ch = _best_gapped(seq, k, s)
        if ch is not None:
            return chain_to_blocks(seq, ch)
    return BlockWitness._trusted(
        direction, tuple(tuple(run[i * s : (i + 1) * s]) for i in range(k))
    )


def _best_gapped(
    seq: Sequence, depth: int, floor: int = 0
) -> tuple[int, GappedChain | None]:
    """Largest block-size s whose s-gapped chain reaches depth+1 entries, in
    either direction, with a chain of exactly depth+1 entries traced in the
    direction d of s (INC on ties); (0, None) when s < 1, and (s, None) when
    s is at most ``floor``, so no witness is built that a caller's floor
    beats.  One bottleneck table to level ``depth`` finds s and holds the
    chain."""
    if (len(seq) - depth - 1) // depth < 1:  # depth+1 entries, depth gaps of s >= 1
        return 0, None
    vals = np.asarray(seq.values, dtype=float)
    best, bb = _bottleneck_table(vals, depth)
    s, d = _largest_s(best, depth)
    s = max(s, 0)
    if s <= floor:
        return s, None
    return s, _traced_chain(vals, best, bb, s, d)


def max_gapped_blocksize(seq: Sequence, k: int) -> tuple[int, BlockWitness | None]:
    """Largest s >= 1 admitting an s-gapped chain of length >= k+1 (either
    direction), with a witness of exactly depth k and block-size s in the
    direction of s, INC when both directions reach s.  (0, None) when only
    the block-size-1 fallback exists.  See ``_best_gapped``."""
    k = integer(k, "k")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    n = len(seq)
    if n <= k:
        raise InvalidInputError(f"need n >= k+1, got n={n}, k={k}")
    s, ch = _best_gapped(seq, k)
    return s, None if ch is None else chain_to_blocks(seq, ch)
