from itertools import product
import math
import random

import numpy as np
import pytest

from blockseq import DEC, INC, InvalidInputError, Sequence, gen_clustered, gen_es_extremal
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
from brutes import brute_block_path_color, brute_monochromatic_path


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


def brute_3path_count(c, color, u, v):
    return sum(
        1
        for x in range(u + 1, v)
        if c.color(u, x) == color and c.color(x, v) == color
    )


class TestColoringFromSequence:
    def test_sorted_all_red(self):
        c = coloring_from_sequence(Sequence([1, 2, 3, 4]))
        assert all(col == 1 for _, _, col in c.pairs())

    def test_reversed_all_blue(self):
        c = coloring_from_sequence(Sequence([4, 3, 2, 1]))
        assert all(col == 2 for _, _, col in c.pairs())

    def test_extremal_two(self):
        c = coloring_from_sequence(gen_es_extremal(2))
        blue = {(i, j) for i, j, col in c.pairs() if col == 2}
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
