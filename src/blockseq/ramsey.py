"""Ordered Ramsey tools: pair colorings of [n], monochromatic monotone
paths, and block-monotone path witnesses.

A block-monotone path of depth ``k`` and block-size ``s`` interleaves
endpoints and blocks as p_1 < V_1 < p_2 < ... < V_k < p_{k+1}, where every
``v`` in ``V_i`` sees both spoke edges (p_i, v) and (v, p_{i+1}) in the
witness color.  The finder below searches, per color, for chains whose
consecutive pairs have at least ``s`` qualifying middle vertices; this is the
constructive counterpart of the positive-fraction path results and powers
the depth-1 counting construction as well.

Both searches rest on one kernel, the middle counts: with U the strictly
upper-triangular 0/1 matrix of one color, counts = U @ U.  It is computed in
float32 tiles of ``_TILE`` rows and columns, and only the tiles on or above
the diagonal, since the rest of the product is zero: about n^3/6
multiply-adds instead of n^3.  Every partial sum is an integer at most n,
and n stays far below 2^24 (the generators stop at ``MAX_VERTICES``), so
float32 holds the counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _WIDTH, DEC, INC, BlockWitness, Sequence, longest_chain, trace_chain
from .core import require_int
from .errors import InvalidInputError

__all__ = [
    "PairColoring",
    "BlockPathWitness",
    "coloring_from_sequence",
    "gen_recursive_coloring",
    "gen_random_coloring",
    "longest_monochromatic_path",
    "depth1_block_path",
    "find_block_path",
    "validate_block_path",
    "path_witness_to_blocks",
]

RED = 1
BLUE = 2

MAX_COLORS = 2**15 - 1  # colors are stored as int16

# The generators refuse more vertices than this, before allocating the n x n
# color matrix (2**14 vertices already take 512 MB as int16).
MAX_VERTICES = 2**14

_TILE = 256  # rows and columns per tile of the middle-count product


@dataclass(frozen=True)
class PairColoring:
    """A total coloring of the pairs of [n] with colors 1..q, stored densely."""

    n: int
    q: int
    matrix: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (self.n, self.n):
            raise InvalidInputError(
                f"color matrix shape {m.shape} does not match n={self.n}"
            )
        if np.triu((m < 1) | (m > self.q), 1).any():
            raise InvalidInputError(f"colors must lie in 1..{self.q}")
        object.__setattr__(self, "matrix", m)

    def color(self, i: int, j: int) -> int:
        if not (1 <= i < j <= self.n):
            raise InvalidInputError(f"need 1 <= i < j <= {self.n}, got ({i}, {j})")
        return int(self.matrix[i - 1, j - 1])

    def pairs(self):
        """Iterate (i, j, color) over all pairs, 1-based, i < j."""
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                yield i, j, int(self.matrix[i - 1, j - 1])


def _coloring(n: int, q: int, matrix: np.ndarray) -> PairColoring:
    matrix = np.asarray(matrix, dtype=np.int16)
    matrix = np.triu(matrix, 1)
    matrix = matrix + matrix.T  # symmetric storage; diagonal zero
    return PairColoring(n, q, matrix)


def coloring_from_sequence(seq: Sequence) -> PairColoring:
    """Two-color encoding of a sequence: color 1 for increasing pairs,
    color 2 for decreasing ones."""
    vals = np.asarray(seq.values)
    n = len(vals)
    inc = vals[None, :] > vals[:, None]
    matrix = np.where(inc, RED, BLUE)
    return _coloring(n, 2, matrix)


def gen_recursive_coloring(k: int, q: int) -> PairColoring:
    """The blown-up recursive coloring on k**q vertices: level-r copies are
    glued with a fresh color, so color(i, j) is one plus the most significant
    base-k digit where i-1 and j-1 differ."""
    require_int(k=k, q=q)
    if k < 1 or not 1 <= q <= MAX_COLORS:
        raise InvalidInputError(f"need k >= 1 and q in 1..{MAX_COLORS}")
    # k >= 2 and q >= 15 already give k**q >= 2**15, so k**q stays small here
    if k > 1 and (q >= MAX_VERTICES.bit_length() or k**q > MAX_VERTICES):
        raise InvalidInputError(f"k**q must be at most {MAX_VERTICES} vertices")
    n = k**q
    v = np.arange(n)
    matrix = np.zeros((n, n), dtype=np.int16)
    for level in range(q):
        digit = (v // k**level) % k
        differ = digit[None, :] != digit[:, None]
        matrix = np.where(differ, level + 1, matrix)
    return _coloring(n, q, matrix)


def gen_random_coloring(n: int, q: int, seed: int) -> PairColoring:
    """Uniform random coloring; deterministic per seed."""
    require_int(n=n, q=q, seed=seed)
    if not 1 <= n <= MAX_VERTICES or not 1 <= q <= MAX_COLORS:
        raise InvalidInputError(
            f"need n in 1..{MAX_VERTICES} and q in 1..{MAX_COLORS}"
        )
    rng = np.random.default_rng(seed)
    matrix = rng.integers(1, q + 1, size=(n, n), dtype=np.int16)
    return _coloring(n, q, matrix)


def _upper_blocks(mask: np.ndarray):
    """``core.longest_chain`` blocks whose links u < v are read from
    ``mask[u, v]``."""
    n = len(mask)
    for lo in range(0, n, _WIDTH):
        hi = min(lo + _WIDTH, n)
        yield lo, hi, mask[:hi, lo:hi].T


def longest_monochromatic_path(c: PairColoring) -> tuple[int, list[int]]:
    """Exact longest monochromatic monotone path (length counts vertices),
    by a per-color DP over the vertex order.  Deterministic: the smallest
    color wins ties, and reconstruction prefers small vertex indices."""
    if c.n < 1:
        raise InvalidInputError("coloring must have at least one vertex")
    n = c.n
    best_color, best_path = 1, [0]
    for color in range(1, c.q + 1):
        adj = c.matrix == color  # u < v read from the upper triangle, adj[u, v]
        lengths, pred = longest_chain(n, _upper_blocks(adj))
        top = int(lengths.max())
        if top > len(best_path):
            # reconstruct from the smallest endpoint among maxima
            best_color, best_path = color, trace_chain(pred, int(np.argmax(lengths)))
    return best_color, [v + 1 for v in best_path]


@dataclass(frozen=True)
class BlockPathWitness:
    """A monochromatic block-monotone path: endpoints interleaved with
    blocks whose members see both spokes in ``color``."""

    color: int
    endpoints: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0


def validate_block_path(c: PairColoring, w: BlockPathWitness) -> bool:
    """Exact check of the interleaving, spoke-color, and equal-size
    conditions.  Out-of-range vertices raise; structural defects return
    False."""
    n = c.n
    members = list(w.endpoints) + [v for blk in w.blocks for v in blk]
    for v in members:
        if not (isinstance(v, (int, np.integer)) and 1 <= v <= n):
            raise InvalidInputError(f"vertex {v!r} out of range 1..{n}")
    if not (1 <= w.color <= c.q):
        raise InvalidInputError(f"color {w.color} out of range 1..{c.q}")
    p = w.endpoints
    if len(p) != len(w.blocks) + 1 or len(p) < 2:
        return False
    if any(a >= b for a, b in zip(p, p[1:])):
        return False
    sizes = {len(blk) for blk in w.blocks}
    if len(sizes) != 1 or sizes == {0}:
        return False
    if len(set(members)) != len(members):
        return False
    for i, blk in enumerate(w.blocks):
        lo, hi = p[i], p[i + 1]
        for v in blk:
            if not (lo < v < hi):
                return False
            if c.color(lo, v) != w.color or c.color(v, hi) != w.color:
                return False
    return True


def _middle_counts(c: PairColoring, color: int) -> np.ndarray:
    """counts[u, v] = number of x with u < x < v and both (u,x), (x,v) in
    ``color`` (0-based matrix indices), as float32; zero on and below the
    diagonal.

    counts = U @ U for the strictly upper-triangular 0/1 matrix U of the
    color, one ``_TILE`` x ``_TILE`` tile at a time and only for column
    blocks at or right of the row block.  Rows lo:hi and columns jlo:jhi
    need only x in lo:jhi, because U[u, x] = 0 for x <= u and U[x, v] = 0
    for x >= v.  Exact in float32: every partial sum is an integer at most
    n, and n < 2**24 for any n x n color matrix that fits in memory."""
    n = c.n
    upper = np.triu(c.matrix == color, 1).astype(np.float32)
    counts = np.zeros((n, n), dtype=np.float32)
    for lo in range(0, n, _TILE):
        hi = min(lo + _TILE, n)
        for jlo in range(lo, n, _TILE):
            jhi = min(jlo + _TILE, n)
            counts[lo:hi, jlo:jhi] = upper[lo:hi, lo:jhi] @ upper[lo:jhi, jlo:jhi]
    return counts


def depth1_block_path(c: PairColoring) -> BlockPathWitness | None:
    """The counting construction: bucket all monochromatic monotone 3-paths
    (u, x, v) by (color, u, v) and return the largest bucket as a depth-1
    witness.  Ties break toward the smallest (color, u, v); returns None when
    no 3-path exists."""
    best = None  # (count, color, u0, v0)
    for color in range(1, c.q + 1):
        counts = _middle_counts(c, color)
        top = int(counts.max(initial=0))
        if top > 0 and (best is None or top > best[0]):
            flat = int(np.argmax(counts == top))
            u0, v0 = divmod(flat, c.n)
            best = (top, color, u0, v0)
    if best is None:
        return None
    _, color, u0, v0 = best
    row = c.matrix[u0, u0 + 1 : v0]
    col = c.matrix[u0 + 1 : v0, v0]
    middles = np.nonzero((row == color) & (col == color))[0] + u0 + 2
    return BlockPathWitness(
        color, (u0 + 1, v0 + 1), (tuple(int(x) for x in middles),)
    )


def find_block_path(c: PairColoring, k: int, s: int) -> BlockPathWitness | None:
    """Search for a depth-k, block-size-s monochromatic block path.

    Per color, vertices u < v are linked when at least ``s`` middles x
    satisfy color(u,x) = color(x,v) = color; a longest-chain DP then looks
    for k+1 linked vertices.  The direct pair (u, v) itself is free to have
    any color.  Exact for this chain formulation; the smallest qualifying
    color wins."""
    require_int(k=k, s=s)
    if k < 1 or s < 1:
        raise InvalidInputError("k and s must be >= 1")
    n = c.n
    if n < k + 1:
        return None
    for color in range(1, c.q + 1):
        linked = _middle_counts(c, color) >= s
        lengths, pred = longest_chain(n, _upper_blocks(linked))
        if int(lengths.max()) >= k + 1:
            # the first endpoint reaching k+1 has a chain of exactly k+1
            end = int(np.argmax(lengths >= k + 1))
            chain = [v + 1 for v in trace_chain(pred, end)]
            blocks = []
            for u, v in zip(chain, chain[1:]):
                row = c.matrix[u - 1, u:v - 1]
                col = c.matrix[u:v - 1, v - 1]
                mids = np.nonzero((row == color) & (col == color))[0] + u + 1
                blocks.append(tuple(int(x) for x in mids[:s]))
            return BlockPathWitness(color, tuple(chain), tuple(blocks))
    return None


def path_witness_to_blocks(w: BlockPathWitness) -> BlockWitness:
    """Map a block-path witness over a sequence-derived coloring to a plain
    sequence block witness: drop the endpoints, keep the blocks, direction by
    color (1 = increasing pairs, 2 = decreasing)."""
    direction = INC if w.color == RED else DEC
    return BlockWitness(direction, tuple(tuple(blk) for blk in w.blocks))
