"""Sequences, block-monotone witnesses, and reference generators.

A *block-monotone* subsequence of depth ``k`` and block-size ``s`` is given by
``k`` disjoint index blocks, each of exactly ``s`` indices, such that every
block lies strictly before the next one positionally and every transversal
(one index per block) induces a strictly monotone subsequence.  Because blocks
are positionally separated, transversal monotonicity is equivalent to a
max/min comparison between the value ranges of consecutive blocks; the
validator below relies on that equivalence.

All public indices are 1-based, matching the JSON interchange format.
numpy loads only inside the functions that compute with it, so reading and
validating sequences and witnesses never imports it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
import math
import random
from typing import TYPE_CHECKING

from .errors import InvalidInputError

if TYPE_CHECKING:
    import numpy as np

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
        try:
            vals = tuple(float(v) for v in values)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"sequence values must be reals: {exc}") from exc
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


def separated_blocks(blocks) -> bool:
    """The part of a witness's validity that needs no sequence: at least one
    block, every block of one size s >= 1 with no index twice, and each
    block positionally before the next."""
    if not blocks:
        return False
    s = len(blocks[0])
    if s < 1 or any(len(b) != s for b in blocks):
        return False
    if any(len(set(b)) != len(b) for b in blocks):
        return False
    return all(max(a) < min(b) for a, b in zip(blocks, blocks[1:]))


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
    if not separated_blocks(w.blocks):
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


def _lis_lex_smallest(vals: list[float]) -> list[int]:
    """0-based indices of the longest strictly increasing subsequence,
    breaking ties toward the lexicographically smallest index list."""
    n = len(vals)
    if n == 0:
        return []
    # starts[i] + 1 = longest increasing subsequence starting at i: patience
    # sorting run right to left on the negated values.
    tails: list[float] = []
    starts = [0] * n
    for i in range(n - 1, -1, -1):
        x = -vals[i]
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
        starts[i] = pos
    buckets: list[list[int]] = [[] for _ in tails]
    for i, pos in enumerate(starts):
        buckets[pos].append(i)
    # Within a bucket, values strictly decrease as the index grows.  The
    # previous pick continues through some later entry of the next bucket,
    # so the first entry of that bucket after the pick is at least as large
    # and also continues it: it is the lexicographically smallest choice.
    out: list[int] = []
    cur = -1
    for bucket in reversed(buckets):
        cur = bucket[bisect_right(bucket, cur)]
        out.append(cur)
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


def require_int(**values) -> None:
    """Reject bools and non-integers, named by keyword, with a typed error
    before any range check compares them."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInputError(f"{name} must be an int, got {value!r}")


def require_seed(seed) -> None:
    """A seed for numpy's ``default_rng``, which rejects negative ints with a
    bare ValueError: a non-negative int, or a typed error."""
    require_int(seed=seed)
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


_WIDTH = 32  # entries per block fed to longest_chain by the package


def chain_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh ``(lengths, pred)`` for ``chain_block`` over entries 0..n-1."""
    import numpy as np

    dt = np.int16 if n < 2**15 else np.int64  # lengths never exceed n
    return np.ones(n, dtype=dt), np.full(n, -1, dtype=np.int64)


def chain_block(lengths: np.ndarray, pred: np.ndarray, lo: int, hi: int, ok) -> None:
    """One block of ``longest_chain``: fills lengths[lo:hi] and pred[lo:hi]
    from ``ok`` (rows lo..hi-1) and the final entries before lo.

    The predecessors j < lo are final when a block starts, so one masked
    argmax over them serves the whole block (its first maximum is the
    smallest predecessor); the triangle inside the block follows in plain
    Python, where a strict comparison keeps the earlier of equal lengths.
    """
    import numpy as np

    if lo:
        cand = ok[:, :lo] * lengths[:lo]  # 0 where j may not precede i
        at = cand.argmax(axis=1)
        top = np.take_along_axis(cand, at[:, None], axis=1)[:, 0]
        tops = top.tolist()
        preds = np.where(top > 0, at, -1).tolist()
    else:
        tops, preds = [0] * (hi - lo), [-1] * (hi - lo)
    for c, row in enumerate(ok[:, lo:hi].tolist()):
        top, p = tops[c], preds[c]  # the best predecessor before lo
        for d in range(c):  # tops[d] is already the length at lo + d
            if row[d] and tops[d] > top:
                top, p = tops[d], lo + d
        tops[c], preds[c] = top + 1, p
    lengths[lo:hi] = tops
    pred[lo:hi] = preds


def longest_chain(n: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Longest chains over entries 0..n-1.  ``blocks`` yields ``(lo, hi, ok)``
    for consecutive ranges [lo, hi) that cover 0..n-1 in order;
    ``ok[i - lo, j]`` is true when j < i may come directly before i, and
    entries with j >= i are ignored.  Returns ``lengths[i]``, the most
    entries on a chain ending at i, and ``pred[i]``, the smallest of its
    longest predecessors (-1 for none).  Each block is one ``chain_block``.
    """
    lengths, pred = chain_arrays(n)
    for lo, hi, ok in blocks:
        chain_block(lengths, pred, lo, hi, ok)
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
    require_int(k=k)
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
    require_int(k=k, s=s, seed=seed)
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
    import numpy as np

    require_int(n=n)
    require_seed(seed)
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    rng = np.random.default_rng(seed)
    return Sequence((rng.permutation(n) + 1).astype(float))
