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
upper-triangular 0/1 matrix of one color, counts = U @ U.  It comes as a
stream of ``_TILE`` x ``_TILE`` tiles on or above the diagonal (the rest of
the product is zero), each computed on demand, in float32, and each with an
upper bound known before any tile is computed: the smaller of the most
color edges from a row of the tile to an x before its last column, and the
most color edges into a column of the tile from an x at or after its first
row.  No count exceeds either, and both maxima come from block sums of U in
O(n^2) time.  The depth-1 search computes tiles in decreasing bound until
no bound can win.  The chain search walks the column blocks from left to
right: in each it computes only the tiles whose bound reaches ``s``, runs
the longest-chain DP over the block's columns, and stops at the first
vertex whose chain reaches k+1 entries, leaving the later column blocks
uncomputed.  Every partial sum is an integer at most n, and n stays far
below 2^24 (the generators stop at ``MAX_VERTICES``), so float32 holds the
counts exactly.

The searches hold one color's U at a time, as float32 row strips of the
upper triangle (about 2 n^2 bytes), and build no n x n float32 matrix (the
chain search adds one column block's links, n x ``_TILE`` bools at most): at
``MAX_VERTICES`` the strips take about 0.5 GB beside the 512 MB int16 color
matrix, where an n x n float32 U and its product took 2 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _WIDTH, DEC, INC, BlockWitness, Sequence, chain_arrays, chain_block
from .core import integer, integers, longest_chain, require_seed, trace_chain
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
    """A total coloring of the pairs of [n] with colors 1..q.  ``matrix``
    holds color(i, j) at [i - 1, j - 1] for i < j, as int16; nothing reads
    the diagonal or below it.  An int16 matrix is kept without a copy; any
    other integer or float matrix must hold whole colors in 1..q above its
    diagonal, and is stored as an int16 copy."""

    n: int
    q: int
    matrix: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "n"))
        object.__setattr__(self, "q", integer(self.q, "q"))
        if not 1 <= self.q <= MAX_COLORS:
            raise InvalidInputError(f"need q in 1..{MAX_COLORS} colors, got q={self.q}")
        m = np.asarray(self.matrix)
        if m.shape != (self.n, self.n):
            raise InvalidInputError(
                f"color matrix shape {m.shape} does not match n={self.n}"
            )
        if m.dtype.kind not in "iuf":
            raise InvalidInputError(f"colors must be integers, got {m.dtype} entries")
        for lo in range(0, self.n, _TILE):  # row strips: no n x n temporaries
            strip = m[lo : lo + _TILE, lo:]  # its pairs are above its diagonal
            bad = (strip < 1) | (strip > self.q)
            if m.dtype.kind == "f":
                bad |= strip != np.floor(strip)  # a fraction, or NaN
            if np.triu(bad, 1).any():
                raise InvalidInputError(f"colors must be integers in 1..{self.q}")
        with np.errstate(invalid="ignore"):  # below the diagonal nothing is read
            object.__setattr__(self, "matrix", m.astype(np.int16, copy=False))

    def color(self, i: int, j: int) -> int:
        i, j = integer(i, "i"), integer(j, "j")
        if not (1 <= i < j <= self.n):
            raise InvalidInputError(f"need 1 <= i < j <= {self.n}, got ({i}, {j})")
        return int(self.matrix[i - 1, j - 1])


def _coloring(n: int, q: int, matrix: np.ndarray) -> PairColoring:
    """The coloring of ``matrix``'s upper triangle.  The matrix is the
    caller's own scratch: its diagonal and lower triangle are zeroed in
    place, one row strip at a time."""
    matrix = np.asarray(matrix, dtype=np.int16)
    for lo in range(0, n, _TILE):
        hi = min(lo + _TILE, n)
        np.copyto(matrix[lo:hi, :hi], 0, where=np.tri(hi - lo, hi, lo, dtype=bool))
    return PairColoring(n, q, matrix)


def coloring_from_sequence(seq: Sequence) -> PairColoring:
    """Two-color encoding of a sequence: color 1 for increasing pairs,
    color 2 for decreasing ones."""
    vals = np.asarray(seq.values)
    n = len(vals)
    matrix = np.full((n, n), BLUE, dtype=np.int16)
    for lo in range(0, n, _TILE):  # row strips: no n x n temporaries
        strip = matrix[lo : lo + _TILE]
        np.copyto(strip, RED, where=vals[None, :] > vals[lo : lo + _TILE, None])
    return _coloring(n, 2, matrix)


def gen_recursive_coloring(k: int, q: int) -> PairColoring:
    """The blown-up recursive coloring on k**q vertices: level-r copies are
    glued with a fresh color, so color(i, j) is one plus the most significant
    base-k digit where i-1 and j-1 differ."""
    k, q = integer(k, "k"), integer(q, "q")
    if k < 1 or not 1 <= q <= MAX_COLORS:
        raise InvalidInputError(f"need k >= 1 and q in 1..{MAX_COLORS}")
    # k >= 2 and q >= 15 already give k**q >= 2**15, so k**q stays small here
    if k > 1 and (q >= MAX_VERTICES.bit_length() or k**q > MAX_VERTICES):
        raise InvalidInputError(f"k**q must be at most {MAX_VERTICES} vertices")
    n = k**q
    v = np.arange(n)
    digits = [(v // k**level) % k for level in range(q)]
    matrix = np.zeros((n, n), dtype=np.int16)
    for lo in range(0, n, _TILE):  # row strips: no n x n temporaries
        strip = matrix[lo : lo + _TILE]
        for level, digit in enumerate(digits):  # the highest level differing wins
            np.copyto(strip, level + 1, where=digit[None, :] != digit[lo : lo + _TILE, None])
    return _coloring(n, q, matrix)


def gen_random_coloring(n: int, q: int, seed: int) -> PairColoring:
    """Uniform random coloring; deterministic per seed."""
    n, q, seed = integer(n, "n"), integer(q, "q"), require_seed(seed)
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


def interleaved_path(w: BlockPathWitness) -> bool:
    """The part of a block path's validity that needs no coloring:
    p_1 < V_1 < p_2 < ... < V_k < p_{k+1} with k >= 1 blocks, all of one
    size s >= 1, and no vertex twice."""
    p = w.endpoints
    if len(p) != len(w.blocks) + 1 or len(p) < 2:
        return False
    if any(a >= b for a, b in zip(p, p[1:])):
        return False
    sizes = {len(blk) for blk in w.blocks}
    if len(sizes) != 1 or sizes == {0}:
        return False
    members = list(p) + [v for blk in w.blocks for v in blk]
    if len(set(members)) != len(members):
        return False
    return all(p[i] < v < p[i + 1] for i, blk in enumerate(w.blocks) for v in blk)


def validate_block_path(c: PairColoring, w: BlockPathWitness) -> bool:
    """Exact check of the interleaving, spoke-color, and equal-size
    conditions.  Out-of-range vertices raise; structural defects return
    False."""
    n = c.n
    for v in integers(list(w.endpoints) + [v for blk in w.blocks for v in blk], "a path vertex"):
        if not 1 <= v <= n:
            raise InvalidInputError(f"vertex {v!r} out of range 1..{n}")
    color = integer(w.color, "color")
    if not 1 <= color <= c.q:
        raise InvalidInputError(f"color {color!r} out of range 1..{c.q}")
    if not interleaved_path(w):
        return False
    p = w.endpoints
    return all(
        c.color(p[i], v) == w.color and c.color(v, p[i + 1]) == w.color
        for i, blk in enumerate(w.blocks)
        for v in blk
    )


class _MiddleTiles:
    """One color's middle counts M[u, v] (0-based), as ``size`` x ``size``
    tiles on or above the diagonal; the tiles below it are zero.

    ``order`` lists (bound, I, J) for the tile at rows I*size.. and columns
    J*size.., J >= I, by decreasing bound, ties by (I, J).  The bound is the
    smaller of the most color edges from a row u of the tile to an x before
    its last column, and the most color edges into a column v of the tile
    from an x at or after its first row; M[u, v] counts only x with both,
    so no entry of the tile exceeds it.  Both maxima come from block sums
    taken one row strip at a time, in O(n^2) time and O(n^2 / size) extra
    memory.

    Each strip's triangle U[lo:hi, lo:] is kept once as float32.  ``tile``
    adds the products of its row strip's x columns with the same x rows of
    each strip below it, x in lo:jhi, because U[u, x] = 0 for x <= u and
    U[x, v] = 0 for x >= v; it holds one tile and one product at a time."""

    def __init__(self, c: PairColoring, color: int):
        n, size = c.n, _TILE
        starts = np.arange(0, n, size)
        ends = np.minimum(starts + size, n)
        nb = len(starts)
        above = ~np.tri(size, dtype=bool)
        self.size = size
        self.strips = []  # strip I: U[lo:hi, lo:] as float32
        row_reach = np.zeros((nb, nb), dtype=np.int64)
        col_sums = np.zeros((nb, n), dtype=np.int64)  # color edges into v from strip I
        for block, (lo, hi) in enumerate(zip(starts, ends)):
            mask = c.matrix[lo:hi, lo:] == color
            mask[:, : hi - lo] &= above[: hi - lo, : hi - lo]
            strip = mask.astype(np.float32)
            self.strips.append(strip)
            # edges from each row u to an x before the last column of each
            # column block J >= I
            sums = np.add.reduceat(strip, starts[block:] - lo, axis=1)
            reach = np.cumsum(sums, axis=1) - strip[:, ends[block:] - lo - 1]
            row_reach[block, block:] = reach.max(axis=0)
            col_sums[block, lo:] = strip.sum(axis=0)
        # edges into each column v from an x at or after the first row of
        # block I
        into = np.cumsum(col_sums[::-1], axis=0)[::-1]
        col_reach = np.maximum.reduceat(into, starts, axis=1)
        rows, cols = np.triu_indices(nb)
        bounds = np.minimum(row_reach, col_reach)[rows, cols]
        order = np.lexsort((cols, rows, -bounds))
        self.order = [(int(bounds[i]), int(rows[i]), int(cols[i])) for i in order]

    def tile(self, row: int, col: int) -> np.ndarray:
        """Counts for rows row*size.. and columns col*size.., as float32,
        summed over the strips x in row..col one product at a time."""
        size = self.size
        lo, jlo = row * size, col * size
        jhi = jlo + self.strips[col].shape[0]
        left = self.strips[row]
        counts = np.zeros((len(left), jhi - jlo), dtype=np.float32)
        for x in range(row, col + 1):
            below = self.strips[x]
            xlo = x * size
            counts += left[:, xlo - lo : xlo - lo + len(below)] @ below[:, jlo - xlo : jhi - xlo]
        return counts


# the one per-color entry of both searches, looked up at each call, so a
# wrapper installed on the module attribute sees every call
_middle_counts = _MiddleTiles


def _best_cell(tiles: _MiddleTiles, beat: int) -> tuple[int, tuple[int, int]] | None:
    """(count, (u, v)) of the largest count above ``beat`` in a tile stream,
    the smallest (u, v) among ties; None when no count exceeds ``beat``.

    Tiles are visited in decreasing bound.  The visit stops at a bound below
    the count a tile must reach: above ``beat``, and at least the best count
    so far.  A tile whose bound equals the best count is still computed,
    since it may hold a tie at a smaller (u, v)."""
    least, at = beat + 1, None  # the count a tile must reach to matter
    for bound, row, col in tiles.order:
        if bound < least:
            break
        counts = tiles.tile(row, col)
        count = int(counts.max())
        if count < least:
            continue
        i, j = divmod(int(np.argmax(counts == count)), counts.shape[1])
        cell = (row * tiles.size + i, col * tiles.size + j)
        if at is None or count > least or cell < at:
            least, at = count, cell
    return None if at is None else (least, at)


def _middles(c: PairColoring, color: int, u: int, v: int) -> tuple[int, ...]:
    """The vertices x, u < x < v, with (u, x) and (x, v) both in ``color``;
    all 1-based."""
    row = c.matrix[u - 1, u : v - 1]
    col = c.matrix[u : v - 1, v - 1]
    return tuple(int(x) + u + 1 for x in np.nonzero((row == color) & (col == color))[0])


def depth1_block_path(c: PairColoring) -> BlockPathWitness | None:
    """The counting construction: bucket all monochromatic monotone 3-paths
    (u, x, v) by (color, u, v) and return the largest bucket as a depth-1
    witness.  Ties break toward the smallest (color, u, v); returns None when
    no 3-path exists.  A later color computes only the tiles that can beat
    the best count of the earlier ones."""
    best = None  # (count, color, u0, v0)
    for color in range(1, c.q + 1):
        found = _best_cell(_middle_counts(c, color), 0 if best is None else best[0])
        if found is not None:
            best = (found[0], color, *found[1])
    if best is None:
        return None
    _, color, u0, v0 = best
    u, v = u0 + 1, v0 + 1
    return BlockPathWitness(color, (u, v), (_middles(c, color, u, v),))


def _first_chain(c: PairColoring, color: int, k: int, s: int) -> list[int] | None:
    """The chain of k+1 linked vertices (0-based) that the longest-chain DP
    traces back from the first vertex reaching k+1, in ``color``; None when
    no vertex does.

    Column block J's links come from the tiles (I, J) whose bound reaches
    ``s``, written into one ``jhi`` x ``_TILE`` strip; no other tile holds a
    link.  The DP then runs over the block in ``_WIDTH`` sub-blocks that
    stop at its end, since a sub-block reads links into its own columns
    only.  Lengths and predecessors before a vertex never depend on links
    into later columns, so stopping at the first vertex that reaches k+1
    traces the chain the DP over all n vertices would."""
    tiles = _middle_counts(c, color)
    size = tiles.size
    linked_rows = [[] for _ in tiles.strips]  # per column block: rows to compute
    for bound, row, col in tiles.order:
        if bound < s:
            break
        linked_rows[col].append(row)
    lengths, pred = chain_arrays(c.n)
    for col, rows in enumerate(linked_rows):
        jlo = col * size
        jhi = jlo + len(tiles.strips[col])
        links = np.zeros((jhi, jhi - jlo), dtype=bool)  # links[u, v - jlo]
        for row in rows:
            links[row * size : (row + 1) * size] = tiles.tile(row, col) >= s
        for lo in range(jlo, jhi, _WIDTH):
            hi = min(lo + _WIDTH, jhi)
            chain_block(lengths, pred, lo, hi, links[:hi, lo - jlo : hi - jlo].T)
            reached = np.flatnonzero(lengths[lo:hi] > k)
            if len(reached):  # its chain has exactly k+1 entries
                return trace_chain(pred, lo + int(reached[0]))
    return None


def find_block_path(c: PairColoring, k: int, s: int) -> BlockPathWitness | None:
    """Search for a depth-k, block-size-s monochromatic block path.

    Per color, vertices u < v are linked when at least ``s`` middles x
    satisfy color(u,x) = color(x,v) = color; a longest-chain DP over the
    vertex order then looks for k+1 linked vertices, and the chain it
    traces back from the first vertex reaching k+1 is the path, each block
    the first ``s`` middles of its pair.  The direct pair (u, v) itself is
    free to have any color.  Exact for this chain formulation; the smallest
    qualifying color wins.  The DP walks the columns left to right and
    stops at that first vertex: it computes only the tiles whose bound
    reaches ``s`` in the column blocks up to it, and it holds one color's
    tiles and one column block's links at a time."""
    k, s = integer(k, "k"), integer(s, "s")
    if k < 1 or s < 1:
        raise InvalidInputError("k and s must be >= 1")
    if c.n < k + 1:
        return None
    for color in range(1, c.q + 1):
        found = _first_chain(c, color, k, s)
        if found is not None:
            chain = [v + 1 for v in found]
            blocks = tuple(
                _middles(c, color, u, v)[:s] for u, v in zip(chain, chain[1:])
            )
            return BlockPathWitness(color, tuple(chain), blocks)
    return None


def path_witness_to_blocks(w: BlockPathWitness) -> BlockWitness:
    """Map a block-path witness over a sequence-derived coloring to a plain
    sequence block witness: drop the endpoints, keep the blocks, direction by
    color (1 = increasing pairs, 2 = decreasing)."""
    direction = INC if w.color == RED else DEC
    return BlockWitness(direction, tuple(tuple(blk) for blk in w.blocks))
