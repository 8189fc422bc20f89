"""Sequences, block-monotone witnesses, and reference generators.

A *block-monotone* subsequence of depth ``k`` and block-size ``s`` is given by
``k`` disjoint index blocks, each of exactly ``s`` indices, such that every
block lies strictly before the next one positionally and every transversal
(one index per block) induces a strictly monotone subsequence.  Because blocks
are positionally separated, transversal monotonicity is equivalent to a
max/min comparison between the value ranges of consecutive blocks; the
validator below relies on that equivalence.

All public indices are 1-based, matching the JSON interchange format.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
import math
import random

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "INC",
    "DEC",
    "Sequence",
    "BlockWitness",
    "InversionStats",
    "validate_block_witness",
    "longest_monotone",
    "inversion_stats",
    "gen_es_extremal",
    "gen_clustered",
    "gen_random",
]

INC = "inc"
DEC = "dec"


@dataclass(frozen=True)
class Sequence:
    """A finite sequence of pairwise-distinct finite floats."""

    values: tuple[float, ...]

    def __init__(self, values):
        vals = tuple(float(v) for v in values)
        for v in vals:
            if not math.isfinite(v):
                raise InvalidInputError("sequence values must be finite")
        if len(set(vals)) != len(vals):
            raise InvalidInputError("sequence values must be pairwise distinct")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, i: int) -> float:
        """Value at 1-based index ``i``."""
        if not 1 <= i <= len(self.values):
            raise InvalidInputError(f"index {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]


@dataclass(frozen=True)
class BlockWitness:
    """A block-monotone subsequence: direction plus 1-based index blocks."""

    direction: str
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, direction, blocks):
        object.__setattr__(self, "direction", str(direction))
        object.__setattr__(
            self, "blocks", tuple(tuple(int(i) for i in b) for b in blocks)
        )

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    def indices(self) -> list[int]:
        """All member indices, block by block."""
        return [i for b in self.blocks for i in b]


@dataclass(frozen=True)
class InversionStats:
    """Counts of increasing and decreasing index pairs of a sequence."""

    n: int
    increasing_pairs: int
    decreasing_pairs: int

    def is_eps_increasing(self, eps: float) -> bool:
        """Fewer than ``eps * n**2`` decreasing pairs."""
        return self.decreasing_pairs < eps * self.n * self.n

    def is_eps_decreasing(self, eps: float) -> bool:
        return self.increasing_pairs < eps * self.n * self.n

    def is_eps_monotone(self, eps: float) -> bool:
        return self.is_eps_increasing(eps) or self.is_eps_decreasing(eps)


def validate_block_witness(seq: Sequence, w: BlockWitness) -> bool:
    """Check that ``w`` is a valid block-monotone witness for ``seq``.

    Out-of-range indices raise :class:`InvalidInputError`; every structural
    defect (unequal block sizes, overlapping blocks, broken monotonicity)
    simply yields ``False``.
    """
    if w.direction not in (INC, DEC):
        raise InvalidInputError(f"unknown direction {w.direction!r}")
    n = len(seq)
    for b in w.blocks:
        for i in b:
            if not 1 <= i <= n:
                raise InvalidInputError(f"index {i} out of range 1..{n}")
    if not w.blocks:
        return False
    s = len(w.blocks[0])
    if s < 1 or any(len(b) != s for b in w.blocks):
        return False
    if any(len(set(b)) != len(b) for b in w.blocks):
        return False
    # positional separation between consecutive blocks
    for a, b in zip(w.blocks, w.blocks[1:]):
        if max(a) >= min(b):
            return False
    # transversal monotonicity via value-range comparison
    for a, b in zip(w.blocks, w.blocks[1:]):
        va = [seq.values[i - 1] for i in a]
        vb = [seq.values[i - 1] for i in b]
        if w.direction == INC:
            if max(va) >= min(vb):
                return False
        else:
            if min(va) <= max(vb):
                return False
    return True


def _ending_lengths(vals: list[float]) -> list[int]:
    """lengths[i] = length of the longest strictly increasing subsequence
    ending at position i (patience sorting)."""
    tails: list[float] = []
    out = []
    for x in vals:
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
        out.append(pos + 1)
    return out


def _lis_lex_smallest(vals: list[float]) -> list[int]:
    """0-based indices of the longest strictly increasing subsequence,
    breaking ties toward the lexicographically smallest index list."""
    n = len(vals)
    if n == 0:
        return []
    # start_len[i] = longest increasing subsequence starting at i; obtained by
    # running patience on the reversed, negated sequence.
    rev = [-v for v in reversed(vals)]
    ending = _ending_lengths(rev)
    start_len = [ending[n - 1 - i] for i in range(n)]
    best = max(start_len)
    buckets: dict[int, list[int]] = {}
    for i, ln in enumerate(start_len):
        buckets.setdefault(ln, []).append(i)
    # Within a bucket, values strictly decrease as the index grows, so a
    # forward scan picking the first feasible index is lexicographically
    # smallest and always extendable.
    out: list[int] = []
    cur_idx = -1
    cur_val = -math.inf
    for need in range(best, 0, -1):
        for i in buckets[need]:
            if i > cur_idx and vals[i] > cur_val:
                out.append(i)
                cur_idx, cur_val = i, vals[i]
                break
    return out


def longest_monotone(seq: Sequence) -> tuple[str, list[int]]:
    """Longest strictly monotone subsequence, as (direction, 1-based indices).

    Length ties are broken toward ``INC``, then toward the lexicographically
    smallest index list.  For any sequence of length n the result has length
    at least ceil(sqrt(n)).
    """
    if len(seq) == 0:
        raise InvalidInputError("longest_monotone requires a non-empty sequence")
    vals = list(seq.values)
    inc = _lis_lex_smallest(vals)
    dec = _lis_lex_smallest([-v for v in vals])
    if len(inc) >= len(dec):
        return INC, [i + 1 for i in inc]
    return DEC, [i + 1 for i in dec]


def longest_chain(n: int, links) -> tuple[np.ndarray, np.ndarray]:
    """Longest chains over entries 0..n-1.  ``links`` yields ``(i, mask)``
    for i >= 1, ``mask[j]`` true when j < i may come directly before i.
    Returns ``lengths[i]``, the most entries on a chain ending at i, and
    ``pred[i]``, the smallest of its longest predecessors (-1 for none)."""
    lengths = np.ones(n, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    for i, mask in links:
        prev = mask.nonzero()[0]
        if prev.size:
            cand = lengths[prev]
            top = cand.max()
            lengths[i] = top + 1
            pred[i] = prev[np.argmax(cand == top)]
    return lengths, pred


def trace_chain(pred: np.ndarray, end: int) -> list[int]:
    """The chain ``longest_chain``'s ``pred`` leads back from ``end``, in order."""
    chain = [end]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return chain


def _merge_count(vals: list[float]) -> tuple[list[float], int]:
    n = len(vals)
    if n <= 1:
        return vals, 0
    mid = n // 2
    left, cl = _merge_count(vals[:mid])
    right, cr = _merge_count(vals[mid:])
    merged = []
    inv = cl + cr
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            inv += len(left) - i
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def inversion_stats(seq: Sequence) -> InversionStats:
    """Exact counts of increasing/decreasing pairs (i < j)."""
    n = len(seq)
    _, dec = _merge_count(list(seq.values))
    total = n * (n - 1) // 2
    return InversionStats(n=n, increasing_pairs=total - dec, decreasing_pairs=dec)


def gen_es_extremal(k: int) -> Sequence:
    """Length-k^2 sequence of k descending runs whose longest monotone
    subsequence has length exactly k."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    vals: list[float] = []
    for b in range(1, k + 1):
        vals.extend(float(v) for v in range(b * k, (b - 1) * k, -1))
    return Sequence(vals)


def gen_clustered(
    k: int,
    s: int,
    inner: str = "increasing",
    delta: float = 0.25,
    seed: int = 0,
) -> Sequence:
    """Blow each entry of :func:`gen_es_extremal` up into a cluster of ``s``
    nearby values.

    Each cluster stays within ``(center - delta, center + delta)`` with
    ``delta < 1/2``, so clusters never overlap.  ``inner`` controls the order
    within a cluster: ``increasing``, ``decreasing``, or ``seeded-random``.
    """
    if k < 1 or s < 1:
        raise InvalidInputError("k and s must be >= 1")
    if not 0.0 < delta < 0.5:
        raise InvalidInputError("delta must lie in (0, 1/2)")
    if inner not in ("increasing", "decreasing", "seeded-random"):
        raise InvalidInputError(f"unknown inner order {inner!r}")
    base = [-delta + (t + 1) * 2.0 * delta / (s + 1) for t in range(s)]
    rng = random.Random(seed)
    vals: list[float] = []
    for center in gen_es_extremal(k).values:
        offsets = list(base)
        if inner == "decreasing":
            offsets.reverse()
        elif inner == "seeded-random":
            rng.shuffle(offsets)
        vals.extend(center + o for o in offsets)
    return Sequence(vals)


def gen_random(n: int, seed: int = 0) -> Sequence:
    """Seeded pseudorandom permutation of {1, ..., n} as floats."""
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    rng = np.random.default_rng(seed)
    return Sequence((rng.permutation(n) + 1).astype(float))
