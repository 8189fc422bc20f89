"""Static 2-D orthogonal range counting over (index, value) points.

The structure is a merge-sort tree: a segment tree over index positions whose
nodes hold the values in their index range in sorted order.  Build is
O(n log n) (each level is produced by merging the level below); a query
decomposes the index interval into O(log n) canonical nodes and binary
searches each, so counting costs O(log^2 n).

All box queries are *open*: strict inequalities on both index and value, which
is exactly what the gapped-pair predicate needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
import math

import numpy as np

from .core import Sequence, integer, reals
from .errors import InvalidInputError

__all__ = ["DominanceCounter", "build_counter", "count_open_box", "is_gapped_pair"]


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted float arrays in linear-ish vectorized time."""
    if len(a) == 0:
        return b
    if len(b) == 0:
        return a
    out = np.empty(len(a) + len(b), dtype=a.dtype)
    pos_a = np.arange(len(a)) + np.searchsorted(b, a, side="left")
    pos_b = np.arange(len(b)) + np.searchsorted(a, b, side="right")
    out[pos_a] = a
    out[pos_b] = b
    return out


class DominanceCounter:
    """Immutable open-box counter for the points (i, a_i), i = 1..n."""

    def __init__(self, values):
        if isinstance(values, Sequence):
            values = values.values
        vals = np.asarray(reals(values, "a value"), dtype=float)
        self.n = len(vals)
        self._values = tuple(vals.tolist())
        size = 1
        while size < max(self.n, 1):
            size *= 2
        self._size = size
        nodes: list[np.ndarray] = [np.empty(0)] * (2 * size)
        for p in range(self.n):
            nodes[size + p] = vals[p : p + 1]
        for v in range(size - 1, 0, -1):
            nodes[v] = _merge_sorted(nodes[2 * v], nodes[2 * v + 1])
        # python lists + bisect give the fastest per-query constant
        self._nodes = [a.tolist() for a in nodes]

    @property
    def total(self) -> int:
        return self.n

    def value(self, i: int) -> float:
        """Value at 1-based index ``i``."""
        return self._values[i - 1]

    def count_open_box(self, i_lo, i_hi, v_lo, v_hi) -> int:
        """Entries with i_lo < index < i_hi and v_lo < value < v_hi."""
        if not (i_lo < i_hi and v_lo < v_hi):
            raise InvalidInputError("box bounds must satisfy lo < hi")
        # integer positions strictly inside (i_lo, i_hi), converted to 0-based
        lo = max(int(math.floor(i_lo)), 0)
        hi = min(int(math.ceil(i_hi)) - 1, self.n)
        if lo >= hi:
            return 0
        count = 0
        l = lo + self._size
        r = hi + self._size
        nodes = self._nodes
        while l < r:
            if l & 1:
                lst = nodes[l]
                count += bisect_left(lst, v_hi) - bisect_right(lst, v_lo)
                l += 1
            if r & 1:
                r -= 1
                lst = nodes[r]
                count += bisect_left(lst, v_hi) - bisect_right(lst, v_lo)
            l >>= 1
            r >>= 1
        return count


def build_counter(seq: Sequence) -> DominanceCounter:
    return DominanceCounter(seq)


def count_open_box(c: DominanceCounter, i_lo, i_hi, v_lo, v_hi) -> int:
    return c.count_open_box(i_lo, i_hi, v_lo, v_hi)


def is_gapped_pair(c: DominanceCounter, seq: Sequence, i: int, j: int, s: int) -> bool:
    """True iff at least ``s`` entries sit strictly between positions i and j
    and strictly between the pair's values (the gap direction is inferred)."""
    i, j, s = integer(i, "i"), integer(j, "j"), integer(s, "s")
    if not 1 <= i < j <= len(seq):
        raise InvalidInputError(f"need 1 <= i < j <= n, got i={i}, j={j}")
    if s < 0:
        raise InvalidInputError("s must be >= 0")
    if s == 0:
        return True
    a, b = seq.values[i - 1], seq.values[j - 1]
    lo, hi = (a, b) if a < b else (b, a)
    return c.count_open_box(i, j, lo, hi) >= s
