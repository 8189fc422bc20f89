"""Tiny brute-force reference implementations used only by the tests.

These are written in the most obvious way possible (nested loops, full
enumeration) and share no code with the package, so disagreement with the
library always means a genuine bug on one side.
"""

from __future__ import annotations

from itertools import combinations, product


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


def all_transversals_monotone(values, blocks, want_inc):
    """Check every one-index-per-block transversal is monotone in the
    requested direction (1-based blocks)."""
    return all(
        all((values[b - 1] > values[a - 1]) == want_inc for a, b in zip(tr, tr[1:]))
        for tr in product(*blocks)
    )
