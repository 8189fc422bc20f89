from itertools import product
import math
import random
import tracemalloc

import numpy as np
import pytest

from blockseq import (
    DEC, INC, InvalidInputError, Sequence, gen_clustered, gen_es_extremal, gen_random,
    max_gapped_blocksize,
)
from blockseq import ramsey
from blockseq.core import validate_block_witness
from blockseq.ramsey import (
    BlockPathWitness,
    PairColoring,
    coloring_from_sequence,
    depth1_block_path,
    find_block_path,
    gen_random_coloring,
    gen_recursive_coloring,
    longest_monochromatic_path,
    path_witness_to_blocks,
    validate_block_path,
)
from brutes import (
    brute_block_path, brute_block_path_color, brute_depth1, brute_middle_counts,
    brute_monochromatic_path,
)


def mono_coloring(n, color=1, q=1):
    m = np.full((n, n), color, dtype=np.int16)
    np.fill_diagonal(m, 0)
    return PairColoring(n, q, m)


def upper_only(n, q, colors):
    """Coloring with ``colors`` (row-major over pairs u < v) in the upper
    triangle and zeros below, so reading the lower triangle finds nothing."""
    m = np.zeros((n, n), dtype=np.int16)
    m[np.triu_indices(n, 1)] = colors
    return PairColoring(n, q, m)


def pairs(c):
    """(i, j, color) over all pairs, 1-based, i < j."""
    return [(i, j, c.color(i, j)) for i in range(1, c.n + 1) for j in range(i + 1, c.n + 1)]


def brute_3path_count(c, color, u, v):
    return sum(
        1
        for x in range(u + 1, v)
        if c.color(u, x) == color and c.color(x, v) == color
    )


class TestColoringFromSequence:
    def test_sorted_all_red(self):
        c = coloring_from_sequence(Sequence([1, 2, 3, 4]))
        assert all(col == 1 for _, _, col in pairs(c))

    def test_reversed_all_blue(self):
        c = coloring_from_sequence(Sequence([4, 3, 2, 1]))
        assert all(col == 2 for _, _, col in pairs(c))

    def test_extremal_two(self):
        c = coloring_from_sequence(gen_es_extremal(2))
        blue = {(i, j) for i, j, col in pairs(c) if col == 2}
        assert blue == {(1, 2), (3, 4)}

    def test_color_accessor_bounds(self):
        c = coloring_from_sequence(Sequence([1, 2]))
        with pytest.raises(InvalidInputError):
            c.color(2, 1)
        with pytest.raises(InvalidInputError):
            c.color(1, 3)


class TestGenRecursiveColoring:
    def test_base_case(self):
        c = gen_recursive_coloring(2, 1)
        assert c.n == 2 and c.color(1, 2) == 1

    def test_two_two(self):
        c = gen_recursive_coloring(2, 2)
        assert c.n == 4
        assert c.color(1, 2) == 1 and c.color(3, 4) == 1
        for i, j in ((1, 3), (1, 4), (2, 3), (2, 4)):
            assert c.color(i, j) == 2

    def test_vertex_count(self):
        for k in (1, 2, 3):
            for q in (1, 2, 3):
                assert gen_recursive_coloring(k, q).n == k**q

    def test_path_length_exactly_k(self):
        for k in range(1, 5):
            for q in range(1, 4):
                color, path = longest_monochromatic_path(gen_recursive_coloring(k, q))
                assert len(path) == k, (k, q)


class TestColoringStrips:
    def test_random_coloring_is_the_upper_triangle_of_one_draw(self):
        n, q, seed = 2 * ramsey._TILE + 3, 3, 11
        draw = np.random.default_rng(seed).integers(1, q + 1, size=(n, n), dtype=np.int16)
        c = gen_random_coloring(n, q, seed)
        assert c.matrix.dtype == np.int16 and np.array_equal(c.matrix, np.triu(draw, 1))

    def test_peak_near_one_int16_matrix(self):
        """The lower triangle is zeroed and the colors checked in place, one
        row strip at a time: the traced peak stays near the 2 n^2 bytes of
        the matrix itself (the whole-matrix masks and copies took 7 n^2)."""
        n = 2048
        tracemalloc.start()
        try:
            gen_random_coloring(n, 3, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n

    @pytest.mark.parametrize("which", ["sequence", "recursive"])
    def test_sequence_and_recursive_colorings_peak_near_one_int16_matrix(self, which):
        """Both builders write the int16 matrix in place, one row strip at a
        time (a whole-matrix ``np.where`` took 11 n^2 and 5 n^2 bytes)."""
        n = 2048
        seq = gen_random(n, seed=1)
        tracemalloc.start()
        try:
            if which == "sequence":
                c = coloring_from_sequence(seq)
            else:
                c = gen_recursive_coloring(2, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert c.n == n and c.matrix.dtype == np.int16
        assert peak < 3 * n * n

    def test_sequence_and_recursive_colorings_by_definition(self):
        seq = gen_random(2 * ramsey._TILE + 3, seed=2)
        c = coloring_from_sequence(seq)
        v = np.asarray(seq.values)
        want = np.where(v[None, :] > v[:, None], ramsey.RED, ramsey.BLUE)
        assert np.array_equal(c.matrix, np.triu(want, 1))
        k, q = 3, 6
        c = gen_recursive_coloring(k, q)
        for i, j in ((100, 600), (0, 1), (5, 8), (242, 243)):  # 0-based, i < j
            differ = [lv for lv in range(q) if (i // k**lv) % k != (j // k**lv) % k]
            assert c.matrix[i, j] == 1 + max(differ)
        assert c.matrix[100, 600] == 6  # 100 = 010201, 600 = 211020 in base 3

    @pytest.mark.parametrize("row", [0, ramsey._TILE - 1, ramsey._TILE, 2 * ramsey._TILE + 1])
    def test_color_check_covers_every_strip(self, row):
        n = 2 * ramsey._TILE + 3
        matrix = np.full((n, n), 2, dtype=np.int16)
        matrix[np.tril_indices(n)] = 9  # below the diagonal nothing is read
        assert PairColoring(n, 2, matrix).color(1, n) == 2
        for bad in (0, 3):
            wrong = matrix.copy()
            wrong[row, n - 1] = bad
            with pytest.raises(InvalidInputError):
                PairColoring(n, 2, wrong)


    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf])
    def test_float_colors_must_be_whole_and_finite(self, bad):
        # 1.5 and NaN used to pass the range check, and color() truncated
        matrix = np.full((3, 3), 1.0)
        assert PairColoring(3, 2, matrix).color(1, 2) == 1
        matrix[0, 2] = bad
        with pytest.raises(InvalidInputError):
            PairColoring(3, 2, matrix)

    def test_only_the_upper_triangle_is_checked(self):
        matrix = np.full((3, 3), np.nan)
        matrix[np.triu_indices(3, 1)] = [1.0, 2.0, 2.0]
        c = PairColoring(3, 2, matrix)
        assert c.matrix.dtype == np.int16 and [c.color(1, 2), c.color(2, 3)] == [1, 2]

    @pytest.mark.parametrize("matrix", [np.full((3, 3), "1"), np.full((3, 3), True),
                                        np.full((3, 3), 1, dtype=object)])
    def test_non_numeric_colors_rejected(self, matrix):
        with pytest.raises(InvalidInputError):
            PairColoring(3, 2, matrix)

    def test_too_many_colors_rejected(self):
        with pytest.raises(InvalidInputError):
            PairColoring(2, ramsey.MAX_COLORS + 1, np.ones((2, 2), dtype=np.int64))

    def test_int16_matrix_kept_without_copy(self):
        c = gen_random_coloring(40, 3, seed=1)
        assert PairColoring(c.n, c.q, c.matrix).matrix is c.matrix
        wide = c.matrix.astype(np.int64)
        again = PairColoring(c.n, c.q, wide)
        assert again.matrix.dtype == np.int16 and np.array_equal(again.matrix, wide)


class TestVertexCap:
    def test_random_rejects_beyond_cap(self):
        with pytest.raises(InvalidInputError):
            gen_random_coloring(ramsey.MAX_VERTICES + 1, 2, seed=1)

    @pytest.mark.parametrize(
        "k, q", [(2, 15), (2, 30), (ramsey.MAX_VERTICES + 1, 1), (129, 2), (10**100, 14)]
    )
    def test_recursive_rejects_beyond_cap(self, k, q):
        with pytest.raises(InvalidInputError):
            gen_recursive_coloring(k, q)

    def test_recursive_one_vertex_for_any_q(self):
        assert gen_recursive_coloring(1, ramsey.MAX_COLORS).n == 1


class TestLongestMonochromaticPath:
    def test_single_color_full_path(self):
        color, path = longest_monochromatic_path(mono_coloring(6))
        assert color == 1 and path == [1, 2, 3, 4, 5, 6]

    def test_sequence_encoding_matches_monotone(self):
        c = coloring_from_sequence(gen_es_extremal(3))
        _, path = longest_monochromatic_path(c)
        assert len(path) == 3

    def test_root_lower_bound_random(self):
        for seed, (n, q) in enumerate([(50, 2), (125, 3), (200, 2), (81, 3)]):
            c = gen_random_coloring(n, q, seed=seed)
            _, path = longest_monochromatic_path(c)
            assert len(path) >= math.ceil(n ** (1.0 / q) - 1e-9)

    def test_path_is_monochromatic(self):
        c = gen_random_coloring(40, 3, seed=7)
        color, path = longest_monochromatic_path(c)
        for u, v in zip(path, path[1:]):
            assert u < v and c.color(u, v) == color

    def test_matches_dfs_on_every_two_coloring_of_five(self):
        for colors in product((1, 2), repeat=10):
            c = upper_only(5, 2, colors)
            color, path = longest_monochromatic_path(c)
            assert (len(path), color) == brute_monochromatic_path(c.matrix.tolist(), 2)
            for u, v in zip(path, path[1:]):
                assert u < v and c.color(u, v) == color


def dense_counts(tiles, n):
    """The n x n middle counts assembled from a tile stream."""
    counts = np.zeros((n, n), dtype=np.int64)
    for _, row, col in tiles.order:
        tile = tiles.tile(row, col)
        u0, v0 = row * tiles.size, col * tiles.size
        counts[u0 : u0 + tile.shape[0], v0 : v0 + tile.shape[1]] = tile
    return counts


class TestMiddleCounts:
    """The bounded tile stream behind both block-path searches."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_brute_force(self, n, q):
        c = gen_random_coloring(n, q, seed=n * 10 + q)
        blocks = -(-n // ramsey._TILE)
        for color in range(1, q + 1):
            tiles = ramsey._middle_counts(c, color)
            # every tile on or above the diagonal once, by decreasing bound,
            # ties by (row block, column block)
            keys = [(-bound, row, col) for bound, row, col in tiles.order]
            assert keys == sorted(keys)
            assert sorted(key[1:] for key in keys) == [
                (row, col) for row in range(blocks) for col in range(row, blocks)
            ]
            for bound, row, col in tiles.order:
                assert tiles.tile(row, col).max() <= bound
            assert np.array_equal(dense_counts(tiles, n), brute_middle_counts(c.matrix, color))

    def test_zero_on_and_below_diagonal(self):
        for n in (1, 2, 257, 600):
            counts = dense_counts(ramsey._middle_counts(mono_coloring(n), 1), n)
            assert not np.tril(counts).any()
            # one color everywhere: every x strictly between u and v counts
            u, v = np.triu_indices(n, 1)
            assert np.array_equal(counts[u, v], v - u - 1)

    @pytest.mark.parametrize("tile", [1, 7])
    def test_tile_size_leaves_results(self, monkeypatch, tile):
        colorings = [gen_random_coloring(n, q, seed=n + q) for n, q in ((9, 2), (40, 2), (57, 3))]
        colorings.append(coloring_from_sequence(gen_clustered(3, 6, inner="increasing", delta=0.1)))
        params = ((1, 1), (1, 4), (2, 2), (3, 1), (2, 5))

        def outputs():
            out = []
            for c in colorings:
                out.append(depth1_block_path(c))
                out.extend(find_block_path(c, k, s) for k, s in params)
                out.extend(
                    dense_counts(ramsey._middle_counts(c, x), c.n).tolist()
                    for x in range(1, c.q + 1)
                )
            return out

        want = outputs()
        monkeypatch.setattr(ramsey, "_TILE", tile)
        assert outputs() == want

    def test_ties_across_tiles_keep_smallest(self, monkeypatch):
        # with 4-vertex tiles, tied maxima of a 12-vertex coloring often sit
        # in different tiles, and sometimes in different colors
        monkeypatch.setattr(ramsey, "_TILE", 4)
        crossing = 0
        for seed in range(60):
            c = gen_random_coloring(12, 2, seed=seed)
            counts = {x: brute_middle_counts(c.matrix, x) for x in (1, 2)}
            top = max(int(m.max()) for m in counts.values())
            ties = sorted(
                (x, int(u), int(v)) for x in (1, 2) for u, v in zip(*np.nonzero(counts[x] == top))
            )
            crossing += len({(u // 4, v // 4) for _, u, v in ties}) > 1
            w = depth1_block_path(c)
            color, u, v = ties[0]
            assert (w.color, w.endpoints, w.block_size) == (color, (u + 1, v + 1), top)
        assert crossing >= 5


def brute_colorings():
    """Random colorings with q = 1-4, recursive colorings and
    sequence-derived colorings, all small enough for the brute force."""
    rng = random.Random(41)
    out = [gen_random_coloring(rng.randint(1, 40), rng.randint(1, 4), seed=t) for t in range(24)]
    out += [gen_recursive_coloring(k, q) for k, q in ((3, 3), (2, 5), (4, 2), (6, 2))]
    out += [coloring_from_sequence(gen_random(rng.randint(2, 40), seed=t)) for t in range(8)]
    out.append(coloring_from_sequence(gen_clustered(3, 6, inner="increasing", delta=0.1)))
    return out


def chain_color(c, k, s):
    """Smallest color with k+1 vertices, each consecutive pair with at least
    s middles, from the brute-force counts; None when no color has one."""
    for color in range(1, c.q + 1):
        linked = brute_middle_counts(c.matrix, color) >= s
        longest = [1] * c.n
        for v in range(c.n):
            for u in range(v):
                if linked[u, v]:
                    longest[v] = max(longest[v], longest[u] + 1)
        if max(longest) >= k + 1:
            return color
    return None


@pytest.mark.parametrize("tile", [1, 4, 7, 256])
class TestSearchesMatchBruteForce:
    """Both searches prune tiles by their bounds; the answers stay those
    of the full brute-force counts at every tile size."""

    def test_depth1(self, monkeypatch, tile):
        monkeypatch.setattr(ramsey, "_TILE", tile)
        found = 0
        for c in brute_colorings():
            want = brute_depth1(c.matrix, c.q)
            w = depth1_block_path(c)
            if want is None:
                assert w is None
                continue
            count, color, u, v = want
            assert (w.color, w.endpoints, w.block_size) == (color, (u + 1, v + 1), count)
            assert validate_block_path(c, w) is True
            found += 1
        assert found >= 30

    def test_find_block_path(self, monkeypatch, tile):
        monkeypatch.setattr(ramsey, "_TILE", tile)
        found = missed = 0
        for c in brute_colorings():
            top = (brute_depth1(c.matrix, c.q) or (0,))[0]
            for k, s in [(1, s) for s in range(1, top + 2)] + [(2, 1), (2, 3), (3, 2)]:
                want = chain_color(c, k, s)
                w = find_block_path(c, k, s)
                if want is None:
                    assert w is None
                    missed += 1
                    continue
                assert w is not None and w.color == want
                assert w.depth == k and w.block_size == s
                assert validate_block_path(c, w) is True
                found += 1
        assert found >= 100 and missed >= 30

    def test_find_block_path_witness_is_the_full_dp_one(self, monkeypatch, tile):
        """The search stops at the first vertex whose chain reaches k+1;
        its witness is the one a chain DP over every link of all n vertices
        traces back from there, at every tile size."""
        monkeypatch.setattr(ramsey, "_TILE", tile)
        found = 0
        for c in brute_colorings():
            top = (brute_depth1(c.matrix, c.q) or (0,))[0]
            for k, s in [(1, s) for s in range(1, top + 2)] + [(2, 1), (2, 3), (3, 2)]:
                want = brute_block_path(c, k, s)
                w = find_block_path(c, k, s)
                assert w == (None if want is None else BlockPathWitness(*want)), (c.n, k, s)
                found += want is not None
        assert found >= 100


def counted_tiles(monkeypatch):
    """Every tile stream built through ``ramsey._middle_counts``, each with
    a counter of the tiles computed from it."""
    streams, calls = [], {}
    kernel, tile = ramsey._middle_counts, ramsey._MiddleTiles.tile

    def building(c, color):
        tiles = kernel(c, color)
        streams.append(tiles)
        calls[id(tiles)] = []
        return tiles

    def counting(self, row, col):
        calls[id(self)].append((row, col))
        return tile(self, row, col)

    monkeypatch.setattr(ramsey, "_middle_counts", building)
    monkeypatch.setattr(ramsey._MiddleTiles, "tile", counting)
    return streams, calls


def reaching(tiles, s):
    return sorted((row, col) for bound, row, col in tiles.order if bound >= s)


class TestBlockPathStopsEarly:
    def test_found_path_leaves_later_tiles(self, monkeypatch):
        monkeypatch.setattr(ramsey, "_TILE", 32)
        streams, calls = counted_tiles(monkeypatch)
        w = find_block_path(gen_random_coloring(600, 2, seed=3), 2, 5)
        assert w is not None and w.color == 1 and len(streams) == 1
        done = calls[id(streams[0])]
        assert len(set(done)) == len(done) and set(done) <= set(reaching(streams[0], 5))
        assert 0 < len(done) < len(reaching(streams[0], 5))

    @pytest.mark.parametrize("big, q, tile", [(2, 7, 16), (3, 4, 8), (4, 3, 7)])
    def test_no_path_computes_each_reaching_tile_once(self, monkeypatch, big, q, tile):
        monkeypatch.setattr(ramsey, "_TILE", tile)
        streams, calls = counted_tiles(monkeypatch)
        assert find_block_path(gen_recursive_coloring(big, q), big, 1) is None
        assert len(streams) == q
        for tiles in streams:
            assert sorted(calls[id(tiles)]) == reaching(tiles, 1)
        assert sum(len(done) for done in calls.values()) > 0


class TestBlockPathMemory:
    @pytest.mark.parametrize("k, s, finds", [(3, 50, True), (2, 400, False)])
    def test_peak_below_one_and_a_half_int16_matrices(self, k, s, finds):
        """One color's float32 strips (about 2 n^2 bytes) and one column
        block's links live at a time; the n x n link matrix and the previous
        color's strips beside the next color's took 3.8 n^2 and 4.8 n^2."""
        n = 2048
        c = gen_random_coloring(n, 2, seed=8)
        tracemalloc.start()
        try:
            w = find_block_path(c, k, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (w is not None) == finds
        assert peak < 3 * n * n


class TestTileMemory:
    def test_top_right_tile_holds_no_column_gather(self):
        """``tile`` adds strip-by-strip products into one float32 tile: the
        top-right tile at n = 2048 allocates under three tiles' bytes,
        where gathering its column block took n x ``_TILE`` floats."""
        n, size = 2048, ramsey._TILE
        tiles = ramsey._MiddleTiles(gen_random_coloring(n, 2, seed=8), 1)
        last = len(tiles.strips) - 1
        tracemalloc.start()
        try:
            counts = tiles.tile(0, last)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (size, size) and counts.dtype == np.float32
        assert peak < 3 * size * size * 4


class TestDepth1Memory:
    def test_peak_below_one_float32_matrix(self):
        """The search holds float32 row strips of the upper triangle, never
        an n x n float32 matrix: its traced peak stays below 4 n^2 bytes."""
        n = 2048
        c = gen_random_coloring(n, 2, seed=8)
        tracemalloc.start()
        try:
            assert depth1_block_path(c) is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n


class TestMiddleCountsHook:
    """Both searches reach the kernel through the module attribute, once
    per color they examine, so a wrapper installed on
    ``ramsey._middle_counts`` sees every call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        kernel = ramsey._middle_counts

        def counting(c, color):
            seen.append(color)
            return kernel(c, color)

        monkeypatch.setattr(ramsey, "_middle_counts", counting)
        return seen

    def test_depth1_once_per_color(self, calls):
        for n, q in ((1, 2), (30, 3), (64, 4)):
            calls.clear()
            depth1_block_path(gen_random_coloring(n, q, seed=n))
            assert calls == list(range(1, q + 1))

    def test_find_block_path_once_per_examined_color(self, calls):
        rng = random.Random(5)
        stopped = exhausted = 0
        for trial in range(40):
            n, q = rng.randint(4, 40), rng.randint(1, 4)
            k, s = rng.randint(1, 3), rng.randint(1, 4)
            calls.clear()
            w = find_block_path(gen_random_coloring(n, q, seed=trial), k, s)
            last = q if w is None else w.color
            assert calls == list(range(1, last + 1))
            stopped += w is not None and w.color < q
            exhausted += w is None
        assert stopped >= 5 and exhausted >= 5

    def test_find_block_path_too_few_vertices_no_call(self, calls):
        assert find_block_path(gen_random_coloring(3, 2, seed=1), 3, 1) is None
        assert calls == []


class TestDepth1BlockPath:
    def test_triangle(self):
        w = depth1_block_path(mono_coloring(3))
        assert w == BlockPathWitness(1, (1, 3), ((2,),))
        assert validate_block_path(mono_coloring(3), w) is True

    def test_recursive_2_2_has_none(self):
        assert depth1_block_path(gen_recursive_coloring(2, 2)) is None

    def test_bucket_equals_enumeration(self):
        rng = random.Random(13)
        for trial in range(12):
            n = rng.randint(3, 50)
            c = gen_random_coloring(n, 2, seed=trial)
            w = depth1_block_path(c)
            if w is None:
                for color in (1, 2):
                    for u in range(1, n + 1):
                        for v in range(u + 2, n + 1):
                            assert brute_3path_count(c, color, u, v) == 0
            else:
                u, v = w.endpoints
                got = brute_3path_count(c, w.color, u, v)
                assert got == w.block_size
                best = max(
                    brute_3path_count(c, color, a, b)
                    for color in (1, 2)
                    for a in range(1, n + 1)
                    for b in range(a + 2, n + 1)
                )
                assert got == best

    def test_large_random_bound(self):
        n, q = 3000, 2
        c = gen_random_coloring(n, q, seed=2026)
        w = depth1_block_path(c)
        assert w is not None
        assert w.block_size >= math.ceil(n / (q * 3 ** (3 * q)))
        assert validate_block_path(c, w) is True


class TestFindBlockPath:
    def test_monochromatic_complete(self):
        k, s = 3, 2
        n = (k + 1) + k * s
        c = mono_coloring(n)
        w = find_block_path(c, k, s)
        assert w is not None
        assert w.depth == k and w.block_size == s
        assert validate_block_path(c, w) is True

    def test_clustered_depth1(self):
        seq = gen_clustered(2, 2, inner="increasing", delta=0.1)
        c = coloring_from_sequence(seq)
        w = find_block_path(c, 1, 2)
        assert w is not None and w.color == 1
        assert validate_block_path(c, w) is True

    def test_recursive_2_2_depth2_none(self):
        assert find_block_path(gen_recursive_coloring(2, 2), 2, 1) is None

    def test_monotone_in_s(self):
        c = gen_random_coloring(60, 2, seed=3)
        for k in (1, 2):
            found = [find_block_path(c, k, s) is not None for s in range(1, 8)]
            assert found == sorted(found, reverse=True)

    def test_outputs_validate(self):
        for seed in range(6):
            c = gen_random_coloring(50, 2, seed=seed)
            for k, s in ((1, 3), (2, 2), (3, 1)):
                w = find_block_path(c, k, s)
                if w is not None:
                    assert w.depth == k and w.block_size == s
                    assert validate_block_path(c, w) is True

    def test_matches_dfs_on_small_colorings(self):
        rng = random.Random(29)
        found = missed = 0
        for trial in range(300):
            n, q = rng.randint(2, 8), rng.randint(1, 3)
            k, s = rng.randint(1, 3), rng.randint(1, 2)
            c = upper_only(n, q, [rng.randint(1, q) for _ in range(n * (n - 1) // 2)])
            want = brute_block_path_color(c.matrix.tolist(), q, k, s)
            w = find_block_path(c, k, s)
            if want is None:
                assert w is None
                missed += 1
                continue
            assert w is not None and w.color == want
            assert w.depth == k and w.block_size == s
            assert validate_block_path(c, w) is True
            found += 1
        assert found >= 30 and missed >= 30

    def test_bad_params(self):
        with pytest.raises(InvalidInputError):
            find_block_path(mono_coloring(3), 0, 1)
        with pytest.raises(InvalidInputError):
            find_block_path(mono_coloring(3), 1, 0)


class TestValidateBlockPath:
    def test_interleaving_violation(self):
        c = mono_coloring(6)
        w = BlockPathWitness(1, (1, 4), ((5,),))
        assert validate_block_path(c, w) is False

    def test_miscolored_spoke(self):
        n = 6
        m = np.full((n, n), 1, dtype=np.int16)
        np.fill_diagonal(m, 0)
        m[1, 3] = m[3, 1] = 2  # break spoke (2,4)
        c = PairColoring(n, 2, m)
        good = BlockPathWitness(1, (2, 5), ((3,),))
        bad = BlockPathWitness(1, (2, 5), ((4,),))
        assert validate_block_path(c, good) is True
        assert validate_block_path(c, bad) is False

    def test_out_of_range_raises(self):
        c = mono_coloring(4)
        with pytest.raises(InvalidInputError):
            validate_block_path(c, BlockPathWitness(1, (1, 9), ((2,),)))

    @pytest.mark.parametrize("color", ["1", 1.0, True, None, 0, 2])
    def test_color_must_be_an_integer_in_range(self, color):
        c = mono_coloring(4)
        with pytest.raises(InvalidInputError):
            validate_block_path(c, BlockPathWitness(color, (1, 3), ((2,),)))
        assert validate_block_path(c, BlockPathWitness(np.int64(1), (1, 3), ((2,),))) is True

    def test_vertices_must_be_integers(self):
        c = mono_coloring(4)
        assert validate_block_path(c, BlockPathWitness(1, (1, 3), ((2,),))) is True
        assert validate_block_path(
            c, BlockPathWitness(1, (np.int64(1), 3), ((np.int32(2),),))
        ) is True
        # True == 1 made a valid witness of this one; 1.0 read as out of range
        for bad in (True, 1.0, "1"):
            with pytest.raises(InvalidInputError, match="must be an int"):
                validate_block_path(c, BlockPathWitness(1, (bad, 3), ((2,),)))
            with pytest.raises(InvalidInputError, match="must be an int"):
                validate_block_path(c, BlockPathWitness(1, (1, 3), ((bad,),)))

    def test_unequal_blocks_false(self):
        c = mono_coloring(8)
        w = BlockPathWitness(1, (1, 4, 8), ((2,), (5, 6)))
        assert validate_block_path(c, w) is False


class TestPathWitnessToBlocks:
    def test_maps_to_valid_sequence_witness(self):
        rng = random.Random(99)
        for trial in range(25):
            n = rng.randint(8, 40)
            seq = Sequence(rng.sample(range(500), n))
            c = coloring_from_sequence(seq)
            for k, s in ((1, 2), (2, 1), (2, 2)):
                w = find_block_path(c, k, s)
                if w is None:
                    continue
                bw = path_witness_to_blocks(w)
                assert bw.direction == (INC if w.color == 1 else DEC)
                assert bw.depth == k and bw.block_size == s
                assert validate_block_witness(seq, bw) is True

    def test_block_paths_of_a_sequence_are_its_gapped_chains(self):
        """The sequence <-> coloring bridge: on a sequence's coloring a
        depth-k, block-size-s path exists exactly when s <= s*, the largest
        gapped block-size of ``max_gapped_blocksize``; at s* it takes color 1
        exactly when the search's direction is INC, and its blocks are a
        valid witness over the sequence."""
        rng = random.Random(113)
        cases = 0
        for trial in range(60):
            k = rng.randint(1, 4)
            n = rng.randint(k + 1, 60)
            seq = gen_random(n, seed=rng.randrange(10**6))
            c = coloring_from_sequence(seq)
            s_star, w = max_gapped_blocksize(seq, k)
            for s in range(1, s_star + 2):
                path = find_block_path(c, k, s)
                assert (path is not None) == (s <= s_star), (n, k, s)
                cases += 1
                if path is None:
                    continue
                if s == s_star:
                    assert (path.color == 1) == (w.direction == INC)
                assert validate_block_witness(seq, path_witness_to_blocks(path)) is True
        assert cases > 200
