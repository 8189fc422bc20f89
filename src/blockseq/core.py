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

from bisect import bisect_left
from dataclasses import dataclass
import math
from numbers import Integral, Real
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


# The scalar rule, which every constructor, parameter and reader asks: an
# integer is any Integral but a bool, numpy's included, kept as a Python int;
# a real is any Real but a bool (a str is none), kept as a finite float.  Both
# depend on the type alone: a collection costs one test per distinct type.


def as_tuple(items, what: str) -> tuple:
    """``items`` as a tuple, or a typed error when they are not iterable."""
    try:
        return tuple(items)
    except TypeError as exc:
        raise InvalidInputError(f"{what} must be iterable, got {items!r}") from exc


def _gate(values, what: str, abc: type, kind: str, error) -> tuple[tuple, set[type]]:
    """``values`` as a tuple, with the set of their types, or ``error``
    naming the first value that is not an ``abc`` or is a bool."""
    vals = as_tuple(values, "values")
    types = set(map(type, vals))
    for t in types:
        if not issubclass(t, abc) or issubclass(t, bool):
            bad = next(v for v in vals if type(v) is t)
            raise error(f"{what} must be {kind}, got {bad!r}")
    return vals, types


def integers(values, what: str, error: type[Exception] = InvalidInputError) -> tuple[int, ...]:
    """The integer gate over a collection, as a tuple of Python ints."""
    vals, types = _gate(values, what, Integral, "an int", error)
    return vals if types <= {int} else tuple(map(int, vals))


def integer(v, what: str, error: type[Exception] = InvalidInputError) -> int:
    return integers((v,), what, error)[0]


def real_items(values, what: str, error: type[Exception] = InvalidInputError) -> tuple:
    """The real gate's type test alone, for a caller that keeps ints exact
    (``partition_multiset`` ranks them, however large)."""
    return _gate(values, what, Real, "a real number", error)[0]


def reals(values, what: str, error: type[Exception] = InvalidInputError) -> tuple[float, ...]:
    """The real gate over a collection, as a tuple of floats: ``error`` for
    a value that is not a real, ``InvalidInputError`` for one that is not
    finite (an int beyond the float range included)."""
    vals, types = _gate(values, what, Real, "a real number", error)
    if not types <= {float}:
        try:
            vals = tuple(map(float, vals))
        except OverflowError as exc:
            raise InvalidInputError(f"{what} must be finite: {exc}") from exc
    # a finite sum holds no inf or nan; an infinite one may just have overflowed
    if not math.isfinite(sum(vals)) and not all(map(math.isfinite, vals)):
        raise InvalidInputError(f"{what} must be finite")
    return vals


def real(v, what: str, error: type[Exception] = InvalidInputError) -> float:
    return reals((v,), what, error)[0]


def real_coordinates(points) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The real gate over (x, y) points: their x and their y coordinates."""
    points = as_tuple(points, "points")
    try:
        xs, ys = [x for x, _ in points], [y for _, y in points]
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"points must be (x, y) pairs of reals: {exc}") from exc
    return reals(xs, "an x coordinate"), reals(ys, "a y coordinate")


@dataclass(frozen=True)
class Sequence:
    """A finite sequence of pairwise-distinct finite floats."""

    values: tuple[float, ...]

    def __init__(self, values):
        vals = reals(values, "a sequence value")
        if len(set(vals)) != len(vals):
            raise InvalidInputError("sequence values must be pairwise distinct")
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, values: tuple[float, ...]) -> Sequence:
        """A sequence of pairwise-distinct finite reals the package built
        (int ranks, for one), taken as they are, without converting or
        checking them again.
        Private: values from outside the package go through ``Sequence``."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "values", values)
        return seq

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, i: int) -> float:
        """Value at 1-based index ``i``."""
        i = integer(i, "index")
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
            self,
            "blocks",
            tuple(integers(b, "a witness index") for b in as_tuple(blocks, "witness blocks")),
        )

    @classmethod
    def _trusted(cls, direction: str, blocks: tuple[tuple[int, ...], ...]) -> BlockWitness:
        """A witness the package built from ints it computed itself, taken
        as it is, without converting every index again.
        Private: witnesses from outside the package go through
        ``BlockWitness``."""
        w = object.__new__(cls)
        object.__setattr__(w, "direction", direction)
        object.__setattr__(w, "blocks", blocks)
        return w

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


def _lex_smallest(starts: list[int], length: int) -> list[int]:
    """0-based indices of the lexicographically smallest longest chain, from
    ``starts[i] + 1``, the longest chain starting at i.  Entries of one level
    move strictly against the chain's direction as the index grows, so the
    previous pick continues through some later entry of the next level, and
    the first such entry after the pick is at least as far along and
    continues it too: one left-to-right scan makes every pick."""
    out: list[int] = []
    level = length - 1
    for i, pos in enumerate(starts):
        if pos == level:
            out.append(i)
            if not level:
                break
            level -= 1
    return out


def longest_monotone(seq: Sequence) -> tuple[str, list[int]]:
    """Longest strictly monotone subsequence, as (direction, 1-based indices).

    Length ties are broken toward ``INC``, then toward the lexicographically
    smallest index list.  For any sequence of length n the result has length
    at least ceil(sqrt(n)).  One patience-sorting pass, right to left, keeps
    the tails of both directions; only the winner is rebuilt.
    """
    if len(seq) == 0:
        raise InvalidInputError("longest_monotone requires a non-empty sequence")
    vals = seq.values
    n = len(vals)
    # inc_tails holds negated values, so both tail lists stay ascending;
    # *_starts[i] + 1 is the longest chain of that direction starting at i
    inc_tails: list[float] = []
    dec_tails: list[float] = []
    inc_starts = [0] * n
    dec_starts = [0] * n
    for i in range(n - 1, -1, -1):
        v = vals[i]
        pos = bisect_left(inc_tails, -v)
        if pos == len(inc_tails):
            inc_tails.append(-v)
        else:
            inc_tails[pos] = -v
        inc_starts[i] = pos
        pos = bisect_left(dec_tails, v)
        if pos == len(dec_tails):
            dec_tails.append(v)
        else:
            dec_tails[pos] = v
        dec_starts[i] = pos
    if len(inc_tails) >= len(dec_tails):
        return INC, [i + 1 for i in _lex_smallest(inc_starts, len(inc_tails))]
    return DEC, [i + 1 for i in _lex_smallest(dec_starts, len(dec_tails))]


# The generators refuse to make more entries (sequence values, points, or
# graph vertices plus edges) than this, before allocating any of them.
MAX_ENTRIES = 2**22


def require_entries(count: int) -> None:
    """A generator's output size: at most MAX_ENTRIES, or a typed error."""
    if count > MAX_ENTRIES:
        raise InvalidInputError(
            f"generators make at most {MAX_ENTRIES} entries, asked for {count}"
        )


def require_seed(seed) -> int:
    """A seed for numpy's ``default_rng``, which rejects negative ints with a
    bare ValueError: a non-negative int, or a typed error."""
    seed = integer(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return seed


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
    k = integer(k, "k")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    require_entries(k * k)
    vals: list[float] = []
    for b in range(1, k + 1):
        vals.extend(float(v) for v in range(b * k, (b - 1) * k, -1))
    return Sequence._trusted(tuple(vals))


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
    A ``delta`` below the float spacing at a centre rounds values of one
    cluster together, and the resulting repeat is refused.
    """
    k, s, seed = integer(k, "k"), integer(s, "s"), integer(seed, "seed")
    if k < 1 or s < 1:
        raise InvalidInputError("k and s must be >= 1")
    delta = real(delta, "delta")
    if not 0.0 < delta < 0.5:
        raise InvalidInputError("delta must lie in (0, 1/2)")
    if inner not in ("increasing", "decreasing", "seeded-random"):
        raise InvalidInputError(f"unknown inner order {inner!r}")
    require_entries(k * k * s)
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

    n, seed = integer(n, "n"), require_seed(seed)
    if n < 0:
        raise InvalidInputError("n must be >= 0")
    require_entries(n)
    rng = np.random.default_rng(seed)
    return Sequence._trusted(tuple((rng.permutation(n) + 1.0).tolist()))
