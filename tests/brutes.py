"""Tiny brute-force reference implementations used only by the tests.

These are written in the most obvious way possible (nested loops, full
enumeration) and share no code with the package, so disagreement with the
library always means a genuine bug on one side.  ``best_gapped_s`` and
``rebuild_best_gapped`` are the exception: they replay the package's slower
two-pass route to a gapped witness (the block-size search, then a fresh
chain DP at that size) and pin the witness the bottleneck-table trace reads
off wherever the DP's chain has the target depth.
``reference_extract`` is the package's former ``extract_block_monotone``,
to check that keeping the larger of the cut monotone run and the exact
search never gives smaller blocks.
``reference_bottleneck_table`` is the package's former band loop (a
cumulative sum along each row, in-place log-step column sums and a stacked
complement per band), to pin the byte-lane kernel to the same table.
``two_pass_longest_monotone`` is the package's former ``longest_monotone``,
one patience pass and one rebuild per direction, to pin the one-pass
version to the same output.  ``brute_block_path`` replays the block-path
search over all n vertices (every link, then one chain DP) to pin the
column-by-column search to the same witness.  ``triple_signs_loop``
replays the avoid module's orientation sampling one triple at a time, to
pin the batched version to the same output.  ``rank_state`` builds the
partition loop's own state from planar points, ranked the way the loop
sees them, for the partition tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def naive_count_box(values, i_lo, i_hi, v_lo, v_hi):
    """Open-box count over the (1-based index, value) point set."""
    return sum(
        1
        for idx, v in enumerate(values, start=1)
        if i_lo < idx < i_hi and v_lo < v < v_hi
    )


def naive_is_gapped(values, i, j, s):
    """At least s entries strictly between positions i<j and values a_i,a_j."""
    lo, hi = sorted((values[i - 1], values[j - 1]))
    inside = sum(1 for x in range(i + 1, j) if lo < values[x - 1] < hi)
    return inside >= s


def brute_chain_tables(values, s, direction):
    """Enumerate every gapped chain by DFS; return (best length ending at
    each index, overall best).  Exponential on purpose."""
    n = len(values)
    sign = 1 if direction == "inc" else -1

    def ok(i, j):  # 0-based extension test
        if sign * (values[j] - values[i]) <= 0:
            return False
        lo, hi = sorted((values[i], values[j]))
        inside = sum(1 for x in range(i + 1, j) if lo < values[x] < hi)
        return inside >= s

    ending = [1] * n if n else []

    def walk(last, length):
        ending[last] = max(ending[last], length)
        for nxt in range(last + 1, n):
            if ok(last, nxt):
                walk(nxt, length + 1)

    for start in range(n):
        walk(start, 1)
    return ending, (max(ending) if n else 0)


def brute_trace(values, s, direction, length=None):
    """The 1-based s-gapped ``direction`` chain of ``length`` entries (the
    longest by default) that the chain DP's tie-breaks pick, from the
    lengths ``brute_chain_tables`` enumerates: it ends at the smallest index
    whose longest chain has at least ``length`` entries, and each earlier
    entry is the smallest index linked to the next one whose longest chain
    has at least as many entries as remain.  At the full length that is the
    smallest index with the maximum length, then each time the smallest
    valid predecessor one shorter.  () when no chain has ``length``
    entries."""
    ending, top = brute_chain_tables(values, s, direction)
    length = top if length is None else length
    sign = 1 if direction == "inc" else -1

    def linked(j, i):  # 1-based, j < i
        return sign * (values[i - 1] - values[j - 1]) > 0 and naive_is_gapped(values, j, i, s)

    chain = []
    for left in range(length, 0, -1):
        nxt = chain[-1] if chain else len(values) + 1
        pick = next(
            (
                j
                for j in range(1, nxt)
                if ending[j - 1] >= left and (not chain or linked(j, nxt))
            ),
            None,
        )
        if pick is None:
            return ()
        chain.append(pick)
    return tuple(reversed(chain))


def _dfs_longest(n, linked):
    """Most vertices on a chain u_1 < u_2 < ... with linked(u_i, u_{i+1}),
    by DFS from every start (0-based)."""
    best = 0

    def walk(last, length):
        nonlocal best
        best = max(best, length)
        for nxt in range(last + 1, n):
            if linked(last, nxt):
                walk(nxt, length + 1)

    for start in range(n):
        walk(start, 1)
    return best


def brute_monochromatic_path(matrix, q):
    """(vertex count, smallest colour reaching it) of the longest
    monochromatic monotone path.  Reads only ``matrix[u][v]`` with u < v."""
    n = len(matrix)
    best, best_color = 1, 1
    for color in range(1, q + 1):
        top = _dfs_longest(n, lambda u, v: matrix[u][v] == color)
        if top > best:
            best, best_color = top, color
    return best, best_color


def brute_block_path_color(matrix, q, k, s):
    """Smallest colour with k+1 vertices u_1 < ... < u_{k+1} where each
    consecutive pair has >= s middles x, both spokes (u, x), (x, v) in that
    colour; None when no colour has one.  Reads only the upper triangle."""
    n = len(matrix)
    for color in range(1, q + 1):

        def linked(u, v):
            mids = sum(
                1
                for x in range(u + 1, v)
                if matrix[u][x] == color and matrix[x][v] == color
            )
            return mids >= s

        if _dfs_longest(n, linked) >= k + 1:
            return color
    return None


def brute_middle_counts(matrix, color):
    """counts[u][v] = number of x with u < x < v and both (u, x), (x, v) in
    ``color``, accumulated one middle x at a time (0-based, int64).  Reads
    only the upper triangle."""
    import numpy as np

    m = np.asarray(matrix)
    n = len(m)
    counts = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        us = [u for u in range(x) if m[u, x] == color]
        vs = [v for v in range(x + 1, n) if m[x, v] == color]
        counts[np.ix_(us, vs)] += 1
    return counts


def brute_block_path(c, k, s):
    """(colour, endpoints, blocks) of the block path the package's search
    returns, rebuilt from the brute-force counts: per colour, link u < v at
    >= s middles, run ``brute_longest_chain`` over all n vertices, trace
    back from the first vertex whose chain reaches k+1, and keep the first
    s middles of each pair; the smallest colour with such a vertex wins.
    All 1-based; None when no colour has one."""
    m = np.asarray(c.matrix)
    for color in range(1, c.q + 1):
        linked = brute_middle_counts(m, color) >= s
        lengths, pred = brute_longest_chain(c.n, ((i, linked[:i, i]) for i in range(1, c.n)))
        ends = [v for v in range(c.n) if lengths[v] >= k + 1]
        if not ends:
            continue
        chain = [ends[0]]
        while pred[chain[-1]] >= 0:
            chain.append(pred[chain[-1]])
        chain.reverse()
        blocks = tuple(
            tuple(x + 1 for x in range(u + 1, v) if m[u, x] == color and m[x, v] == color)[:s]
            for u, v in zip(chain, chain[1:])
        )
        return color, tuple(v + 1 for v in chain), blocks
    return None


def brute_depth1(matrix, q):
    """(count, colour, u, v) of the largest middle count over every colour
    and pair u < v (0-based), the smallest (colour, u, v) among ties; None
    when every count is zero.  Reads only the upper triangle."""
    best = None
    for color in range(1, q + 1):
        counts = brute_middle_counts(matrix, color)
        for u, v in zip(*np.nonzero(counts)):
            key = (-int(counts[u, v]), color, int(u), int(v))
            if best is None or key < best:
                best = key
    return None if best is None else (-best[0], *best[1:])


def brute_longest_monotone_indices(values):
    """All longest monotone index lists (1-based), by full enumeration."""
    n = len(values)
    best, winners = 0, []
    for r in range(1, n + 1):
        found = []
        for combo in combinations(range(n), r):
            vs = [values[i] for i in combo]
            if all(a < b for a, b in zip(vs, vs[1:])) or all(
                a > b for a, b in zip(vs, vs[1:])
            ):
                found.append([i + 1 for i in combo])
        if found:
            best, winners = r, found
    return best, winners


def _lis_lex_smallest(vals):
    """0-based indices of the longest strictly increasing subsequence,
    breaking ties toward the lexicographically smallest index list."""
    n = len(vals)
    if n == 0:
        return []
    tails = []
    starts = [0] * n
    for i in range(n - 1, -1, -1):
        x = -vals[i]
        pos = bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
        starts[i] = pos
    buckets = [[] for _ in tails]
    for i, pos in enumerate(starts):
        buckets[pos].append(i)
    out = []
    cur = -1
    for bucket in reversed(buckets):
        cur = bucket[bisect_right(bucket, cur)]
        out.append(cur)
    return out


def two_pass_longest_monotone(values):
    """(direction, 1-based indices) of a longest strictly monotone
    subsequence, ties to "inc" then to the smallest index list: one full
    patience pass and rebuild per direction."""
    vals = list(values)
    inc = _lis_lex_smallest(vals)
    dec = _lis_lex_smallest([-v for v in vals])
    if len(inc) >= len(dec):
        return "inc", [i + 1 for i in inc]
    return "dec", [i + 1 for i in dec]


def all_transversals_monotone(values, blocks, want_inc):
    """Check every one-index-per-block transversal is monotone in the
    requested direction (1-based blocks)."""
    return all(
        all((values[b - 1] > values[a - 1]) == want_inc for a, b in zip(tr, tr[1:]))
        for tr in product(*blocks)
    )


def brute_point_witness(points, direction, blocks):
    """A block witness over 1-based point ids, by definition: non-empty
    blocks of one size s >= 1, no id twice, every point of a block strictly
    left of every point of the next block, and every transversal (one point
    per block) strictly y-monotone in ``direction``."""
    flat = [i for b in blocks for i in b]
    if not blocks or not blocks[0] or len({len(b) for b in blocks}) != 1:
        return False
    if len(set(flat)) != len(flat):
        return False
    for a, b in zip(blocks, blocks[1:]):
        if any(points[i - 1][0] >= points[j - 1][0] for i in a for j in b):
            return False
    return all_transversals_monotone([y for _, y in points], blocks, direction == "inc")


def brute_longest_chain(n, links):
    """Column-at-a-time longest chains over 0..n-1: ``links`` yields
    ``(i, mask)`` for i >= 1, ``mask[j]`` true when j < i may precede i.
    Returns (lengths, pred) with the smallest longest predecessor, -1 for
    none."""
    lengths = [1] * n
    pred = [-1] * n
    for i, mask in links:
        for j in range(i):
            if mask[j] and lengths[j] + 1 > lengths[i]:
                lengths[i], pred[i] = lengths[j] + 1, j
    return lengths, pred


def brute_interleavings(spans):
    """Span pairs (a1, a2), (b1, b2) with a1 < b1 < a2 < b2 or
    b1 < a1 < b2 < a2."""
    return sum(
        1
        for (a1, a2), (b1, b2) in combinations(spans, 2)
        if a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2
    )


def best_gapped_s(seq, depth):
    """Largest s admitting an s-gapped monotone chain of depth+1 entries, and
    its direction (INC when both directions reach it); (-1, None) when no
    monotone chain has depth+1 entries.  One bottleneck pass serves both
    directions."""
    from blockseq.extract import _bottleneck_table, _largest_s

    if len(seq) <= depth:
        return -1, None
    best, _ = _bottleneck_table(np.asarray(seq.values, dtype=float), depth)
    return _largest_s(best, depth)


def reference_bottleneck_table(vals, levels):
    """(best, bb) as ``extract._bottleneck_table`` gives them, by the
    package's former band loop, with the module's count type, ``_WIDTH``
    and ``_CELLS`` as they stand when called."""
    from blockseq import extract

    n = len(vals)
    dt = extract._count_dtype(n)
    r = np.empty(n, dtype=dt)
    r[np.argsort(vals)] = np.arange(n, dtype=dt)
    bb = np.empty(n, dtype=dt)
    below_lo = np.zeros(n, dtype=dt)
    best = np.full((2, levels + 1, n), -1, dtype=dt)
    best[:, 0] = n
    width = max(extract._WIDTH, extract._CELLS // max(n, 1))
    later = ~np.tri(min(width, n), dtype=bool, k=-1)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        rb = r[lo:hi, None]
        window = np.cumsum(rb > r[:hi], axis=1, dtype=dt)
        bb[lo:hi] = window[:, lo:hi].diagonal()
        if lo:
            below_lo[lo:hi] = window[:, lo - 1]
        np.subtract(bb[lo:hi, None], window, out=window)
        after = (rb < r[:hi]).astype(dt)
        step = 1
        while step < hi - lo:
            after[step:] += after[:-step]
            step *= 2
        after += below_lo[:hi]
        below_lo[:hi] = after[-1]
        window += bb[:hi]
        window -= after
        links = np.stack((window, ~window))
        np.copyto(links[:, :, lo:], -1, where=later[: hi - lo, : hi - lo])
        for L in range(1, levels + 1):
            np.minimum(best[:, L - 1, None, :hi], links).max(axis=2, out=best[:, L, lo:hi])
    return best, bb


def rebuild_best_gapped(seq, depth):
    """(s, witness) by the two-pass route: ``best_gapped_s``, then the chain
    ``gapped_chain_dp`` finds at s in that direction; (0, None) when s < 1."""
    from blockseq import chain_to_blocks, gapped_chain_dp

    s, d = best_gapped_s(seq, depth)
    if s < 1:
        return 0, None
    return s, chain_to_blocks(seq, gapped_chain_dp(seq, s, d))


def reference_extract(seq, k, c=None):
    """The former public extractor: once n >= (ck)^2, one-direction chain
    DPs at s = ceil(n/(ck)^2) in both directions, and the longer chain (INC
    on equal lengths) as blocks if it has k+1 entries; otherwise the
    longest monotone subsequence as blocks of one entry."""
    from blockseq import DEC, INC, BlockWitness, chain_to_blocks, gapped_chain_dp
    from blockseq import longest_monotone
    from blockseq.extract import DEFAULT_C

    c = DEFAULT_C if c is None else c
    n = len(seq)
    if n >= (c * k) ** 2:
        s = -(-n // (c * k) ** 2)
        inc, dec = gapped_chain_dp(seq, s, INC), gapped_chain_dp(seq, s, DEC)
        ch = inc if inc.length >= dec.length else dec
        if ch.length >= k + 1:
            return chain_to_blocks(seq, ch)
    direction, idx = longest_monotone(seq)
    return BlockWitness(direction, [(i,) for i in idx])


def triple_signs_loop(xs, ys, sample):
    """Orientation sign of every triple (a, b, c) of an evenly spread
    subsample of ``sample`` indices, a before b in the subsample and c any
    subsample index, in that loop order."""
    idx = np.linspace(0, len(xs) - 1, min(len(xs), sample)).astype(int)
    signs = []
    for ai, a in enumerate(idx):
        for b in idx[ai + 1 :]:
            for c in idx:
                cross = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (
                    xs[c] - xs[a]
                )
                signs.append(np.sign(cross))
    return np.array(signs)


def brute_balanced_line_exists(P, Q, m):
    """Whether some non-vertical line has exactly m points of P and m of Q
    strictly on one common side and no point on it, decided in exact
    rational arithmetic.

    The order of the values y - t x changes only at slopes t through two
    points, and a line that avoids every point can be tilted a little
    without crossing one, so one slope inside each open interval between
    consecutive critical slopes, plus one beyond each end, sees every
    achievable pair of counts."""
    P = [(Fraction(x), Fraction(y)) for x, y in P]
    Q = [(Fraction(x), Fraction(y)) for x, y in Q]
    n = len(P)
    pts = P + Q
    critical = sorted(
        {(b[1] - a[1]) / (b[0] - a[0]) for a, b in combinations(pts, 2) if a[0] != b[0]}
    )
    if not critical:
        slopes = [Fraction(0)]
    else:
        slopes = [critical[0] - 1, critical[-1] + 1]
        slopes += [(lo + hi) / 2 for lo, hi in zip(critical, critical[1:])]

    def gap(values, above):
        """Open interval of cuts with exactly ``above`` values over it."""
        desc = sorted(values, reverse=True)
        top = desc[above - 1] if above > 0 else None
        bottom = desc[above] if above < n else None
        return bottom, top

    for t in slopes:
        wp = [y - t * x for x, y in P]
        wq = [y - t * x for x, y in Q]
        for above in (m, n - m):
            (bp, tp), (bq, tq) = gap(wp, above), gap(wq, above)
            bottoms = [b for b in (bp, bq) if b is not None]
            tops = [v for v in (tp, tq) if v is not None]
            if not bottoms or not tops or max(bottoms) < min(tops):
                return True
    return False


def rank_state(pts, sides=(), odds=(), evens=(), up=True):
    """(ys, state): the partition loop's state over the planar points
    ``pts`` in rank space, as the loop runs.  The point at position p in
    x order gets id p and y rank ys[p].  Witnesses are (direction, [block
    ids, ...]) and odd parts id lists, given as 0-based indices into
    ``pts``."""
    from blockseq.partition import _State, _Wit

    n = len(pts)
    order = sorted(range(n), key=lambda i: pts[i][0])
    pos = {i: p for p, i in enumerate(order)}
    ys = np.empty(n, dtype=np.int64)
    ys[sorted(range(n), key=lambda p: pts[order[p]][1])] = np.arange(n)

    def ids(b):
        return np.asarray(sorted(pos[i] for i in b), dtype=np.int64)

    def wit(direction, blocks):
        return _Wit(direction, [ids(b) for b in blocks])

    state = _State(
        [wit(*w) for w in sides], [ids(o) for o in odds], [wit(*w) for w in evens], up
    )
    return ys, state


def _rank_witness_ok(ys, direction, blocks):
    """Equal non-empty blocks of distinct ids, each strictly right of the
    one before, with every rank strictly above (inc) or below (dec) every
    rank of the block before."""
    blocks = [[int(i) for i in b] for b in blocks]
    flat = [i for b in blocks for i in b]
    if direction not in ("inc", "dec") or not blocks or not blocks[0]:
        return False
    if len({len(b) for b in blocks}) != 1 or len(set(flat)) != len(flat):
        return False
    for a, b in zip(blocks, blocks[1:]):
        for i in a:
            for j in b:
                if j <= i or (ys[j] > ys[i]) != (direction == "inc"):
                    return False
    return True


def pattern_ok(ys, state, k):
    """Check a partition-loop state in rank space, the id of a point being
    its x position and ``ys[i]`` its y rank: ``state.sides`` and
    ``state.evens`` hold witnesses (``direction``, ``blocks``),
    ``state.odds`` raw id arrays, and ``state.up`` the staircase
    orientation.

    Every side and even part is a witness of depth >= k; all parts are
    disjoint; the staircase odd_0, even_0, odd_1, ..., odd_t moves
    strictly right and strictly up (or down) from each non-empty group to
    the next; and every point after a side (later sides, then the
    staircase) lies in one open quadrant of that side's points."""
    wits = list(state.sides) + list(state.evens)
    for w in wits:
        if len(w.blocks) < k or not _rank_witness_ok(ys, w.direction, w.blocks):
            return False
    if len(state.odds) != len(state.evens) + 1:
        return False
    groups = []
    for j, odd in enumerate(state.odds):
        groups.append([int(i) for i in odd])
        if j < len(state.evens):
            groups.append([int(i) for b in state.evens[j].blocks for i in b])
    sides = [[int(i) for b in w.blocks for i in b] for w in state.sides]
    flat = [i for g in sides + groups for i in g]
    if len(set(flat)) != len(flat):
        return False
    steps = [g for g in groups if g]
    for a, b in zip(steps, steps[1:]):
        for i in a:
            for j in b:
                if j <= i or (ys[j] > ys[i]) != bool(state.up):
                    return False
    for n_side, side in enumerate(sides):
        later = [i for g in sides[n_side + 1 :] + groups for i in g]
        quadrants = {
            (
                all(j > i for i in side) - all(j < i for i in side),
                all(ys[j] > ys[i] for i in side) - all(ys[j] < ys[i] for i in side),
            )
            for j in later
        }
        if len(quadrants) > 1 or any(0 in q for q in quadrants):
            return False
    return True
