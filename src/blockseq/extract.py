"""Extraction of deep block-monotone subsequences via gapped chains.

The workhorse is a DP over *s-gapped* chains: monotone subsequences whose
consecutive entries enclose at least ``s`` further entries in both position
and value.  Each window of a chain then contributes one block of ``s``
entries, so a chain of length m yields a block-monotone witness of depth
m - 1 and block-size s.

The DP is O(n^2) total: while scanning left to right it maintains, for every
earlier position j, the number of already-seen entries that lie after j with
value below a_j; one prefix-sum pass per step then prices every window count
in O(1).  A compiled kernel (numba) is used when available, with a vectorized
numpy fallback.  The independent range-counting module can re-derive every
window count, which the tests use as a cross-check.

The largest feasible s for a target depth comes from one bottleneck pass over
the same window counts, O(depth * n^2) per direction: for every chain length
it keeps the largest minimum window over chains ending at each entry.  One DP
at that s then rebuilds the witness with the usual tie-breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import os

import numpy as np

from .core import DEC, INC, BlockWitness, Sequence, longest_monotone
from .errors import InvalidInputError, PreconditionError

__all__ = [
    "GappedChain",
    "gapped_chain_dp",
    "chain_to_blocks",
    "extract_block_monotone",
    "max_gapped_blocksize",
    "best_gapped_s",
    "default_c",
]

DEFAULT_C = 40


def default_c() -> int:
    """Global extraction constant; BLOCKSEQ_C in the environment overrides."""
    raw = os.environ.get("BLOCKSEQ_C")
    if raw is None:
        return DEFAULT_C
    try:
        c = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"BLOCKSEQ_C must be an integer, got {raw!r}") from exc
    if c < 1:
        raise InvalidInputError("BLOCKSEQ_C must be >= 1")
    return c


def _windows(vals: np.ndarray):
    """For each i >= 1 yield (i, under, window): ``under[j]`` marks the
    earlier entries below vals[i], ``window[j]`` counts the entries strictly
    between j and i in position whose value is >= vals[j] and < vals[i]."""
    below_after = np.zeros(len(vals), dtype=np.int64)  # x in (j, i) with vals[x] < vals[j]
    for i in range(1, len(vals)):
        v = vals[i]
        prev = vals[:i]
        under = prev < v
        cum = np.cumsum(under)
        yield i, under, (cum[-1] - cum) - below_after[:i]
        below_after[:i] += prev > v


def _gapped_lis_python(vals: np.ndarray, s: int):
    """Reference/fallback DP, vectorized per step with numpy."""
    n = len(vals)
    lengths = np.ones(n, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    for i, under, window in _windows(vals):
        qual = under & (window >= s)
        if qual.any():
            best = lengths[:i][qual].max()
            lengths[i] = best + 1
            pred[i] = int(np.argmax(qual & (lengths[:i] == best)))
    return lengths, pred


def _bottleneck_s(vals: np.ndarray, depth: int) -> int:
    """Largest s admitting an s-gapped increasing chain of depth+1 entries
    (-1 when there is no increasing chain that long).

    One left-to-right pass keeps ``best[L, i]``, the largest minimum window
    over increasing chains of L+1 entries ending at i:
    best[L, i] = max_j min(best[L-1, j], window(j, i)).  Chain prefixes are
    chains, so longer chains need no separate row.
    """
    n = len(vals)
    best = np.full((depth + 1, n), -1, dtype=np.int64)
    best[0] = n  # a lone entry has no window; n exceeds every window count
    for i, under, window in _windows(vals):
        rows = min(depth, i)
        w = np.where(under, window, -1)
        best[1 : rows + 1, i] = np.minimum(best[:rows, :i], w).max(axis=1)
    return int(best[depth].max())


try:  # pragma: no cover - exercised indirectly
    from numba import njit

    @njit(cache=True)
    def _gapped_lis_numba(vals, s):  # noqa: ANN001 - numba signature
        n = vals.shape[0]
        lengths = np.zeros(n, dtype=np.int64)
        pred = np.full(n, -1, dtype=np.int64)
        below_after = np.zeros(n, dtype=np.int64)
        cum = np.zeros(n, dtype=np.int64)
        for i in range(n):
            v = vals[i]
            c = 0
            for j in range(i):
                if vals[j] < v:
                    c += 1
                cum[j] = c
            best = 0
            bj = -1
            for j in range(i):
                if vals[j] < v and (c - cum[j]) - below_after[j] >= s:
                    if lengths[j] > best:
                        best = lengths[j]
                        bj = j
            lengths[i] = best + 1
            pred[i] = bj
            for j in range(i):
                if vals[j] > v:
                    below_after[j] += 1
        return lengths, pred

    _HAVE_NUMBA = True
except Exception:  # pragma: no cover
    _HAVE_NUMBA = False


def _gapped_lis(vals: np.ndarray, s: int):
    if _HAVE_NUMBA and len(vals) > 64:
        return _gapped_lis_numba(vals, np.int64(s))
    return _gapped_lis_python(vals, s)


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


def gapped_chain_dp(seq: Sequence, s: int, direction: str) -> GappedChain:
    """Longest monotone chain (given direction) whose consecutive pairs are
    s-gapped.  Deterministic: the predecessor is the smallest index among
    those realizing the maximal previous length, and the chain ends at the
    smallest index achieving the global maximum."""
    if direction not in (INC, DEC):
        raise InvalidInputError(f"unknown direction {direction!r}")
    if s < 0:
        raise InvalidInputError("s must be >= 0")
    n = len(seq)
    if n == 0:
        return GappedChain(direction, s, (), (), ())
    vals = np.asarray(seq.values, dtype=float)
    if direction == DEC:
        vals = -vals
    lengths, pred = _gapped_lis(vals, s)
    end = int(np.argmax(lengths))  # first occurrence = smallest index
    chain = [end]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return GappedChain(
        direction=direction,
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
    blocks.  Larger inputs run the gapped-chain DP at s = ceil(n/(ck)^2) in
    both directions and convert the longer qualifying chain; if neither
    direction qualifies (possible only for lowered c), the fallback is used.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    c = default_c() if c is None else c
    if c < 1:
        raise InvalidInputError("c must be >= 1")
    n = len(seq)
    if n <= (k - 1) ** 2:
        raise PreconditionError(
            f"extraction requires n > (k-1)^2; got n={n}, k={k}"
        )
    if n < (c * k) ** 2:
        return _fallback_witness(seq)
    s = math.ceil(n / (c * k) ** 2)
    best: GappedChain | None = None
    for direction in (INC, DEC):
        ch = gapped_chain_dp(seq, s, direction)
        if ch.length >= k + 1 and (best is None or ch.length > best.length):
            best = ch
    if best is None:
        return _fallback_witness(seq)
    return chain_to_blocks(seq, best)


def best_gapped_s(seq: Sequence, depth: int) -> tuple[int, str | None]:
    """Largest s admitting an s-gapped monotone chain of depth+1 entries, and
    its direction (INC when both directions reach it); (-1, None) when no
    monotone chain has depth+1 entries.  One bottleneck pass per direction."""
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    if len(seq) <= depth:
        return -1, None
    vals = np.asarray(seq.values, dtype=float)
    s_inc, s_dec = _bottleneck_s(vals, depth), _bottleneck_s(-vals, depth)
    if max(s_inc, s_dec) < 0:
        return -1, None
    return (s_inc, INC) if s_inc >= s_dec else (s_dec, DEC)


def max_gapped_blocksize(seq: Sequence, k: int) -> tuple[int, BlockWitness | None]:
    """Largest s >= 1 admitting an s-gapped chain of length >= k+1 (either
    direction), with the corresponding witness.  (0, None) when only the
    block-size-1 fallback exists.  A bottleneck pass finds s directly; one
    DP per direction at that s rebuilds the witness from the longer chain."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    n = len(seq)
    if n <= k:
        raise InvalidInputError(f"need n >= k+1, got n={n}, k={k}")
    s, _ = best_gapped_s(seq, k)
    if s < 1:
        return 0, None
    best = max(
        (gapped_chain_dp(seq, s, d) for d in (INC, DEC)), key=lambda ch: ch.length
    )
    return s, chain_to_blocks(seq, best)
