from itertools import permutations
import math
import os
import random
import time

import numpy as np

import pytest

from blockseq import (
    DEC,
    INC,
    InvalidInputError,
    PreconditionError,
    Sequence,
    build_counter,
    chain_to_blocks,
    default_c,
    extract_block_monotone,
    gapped_chain_dp,
    gen_clustered,
    gen_es_extremal,
    gen_random,
    is_gapped_pair,
    longest_monotone,
    max_gapped_blocksize,
    validate_block_witness,
)
from blockseq.extract import best_gapped_s
from blockseq.oracle import max_blocksize_exact
from blockseq.partition import PointSet, _best_gapped, _frame_of, validate_point_witness
from brutes import brute_chain_tables, naive_is_gapped


class TestGappedChainDP:
    def test_s_zero_is_lis(self):
        ch = gapped_chain_dp(Sequence([1, 3, 2, 4]), 0, INC)
        assert ch.length == 3

    def test_sorted_gap_two(self):
        ch = gapped_chain_dp(Sequence(range(1, 11)), 2, INC)
        assert ch.length == 4
        assert list(ch.chain) == [1, 4, 7, 10]

    def test_clustered_gap_two(self):
        seq = gen_clustered(2, 2, inner="increasing", delta=0.1)
        assert gapped_chain_dp(seq, 2, INC).length == 2

    def test_empty_sequence(self):
        ch = gapped_chain_dp(Sequence([]), 1, INC)
        assert ch.length == 0
        assert ch.chain == ()

    def test_decreasing_direction(self):
        ch = gapped_chain_dp(Sequence(range(10, 0, -1)), 2, DEC)
        assert ch.length == 4

    def test_chain_pairs_are_gapped(self):
        rng = random.Random(31)
        for trial in range(40):
            n = rng.randint(1, 30)
            vals = rng.sample(range(300), n)
            seq = Sequence(vals)
            c = build_counter(seq)
            s = rng.randint(0, 3)
            for d in (INC, DEC):
                ch = gapped_chain_dp(seq, s, d)
                picked = [seq.value(i) for i in ch.chain]
                if d == INC:
                    assert picked == sorted(picked)
                else:
                    assert picked == sorted(picked, reverse=True)
                for a, b in zip(ch.chain, ch.chain[1:]):
                    assert is_gapped_pair(c, seq, a, b, s)

    def test_matches_exponential_search(self):
        rng = random.Random(37)
        for trial in range(60):
            n = rng.randint(0, 12)
            vals = rng.sample(range(60), n)
            seq = Sequence(vals)
            for s in range(0, 4):
                for d in (INC, DEC):
                    ch = gapped_chain_dp(seq, s, d)
                    ending, best = brute_chain_tables(vals, s, d)
                    assert ch.length == best
                    assert list(ch.dp_lengths) == ending
                    # pred: the smallest valid predecessor one shorter (1-based, 0 = none)
                    sign = 1 if d == INC else -1
                    for i in range(n):
                        want = next(
                            (
                                j + 1
                                for j in range(i)
                                if sign * (vals[i] - vals[j]) > 0
                                and naive_is_gapped(vals, j + 1, i + 1, s)
                                and ending[j] == ending[i] - 1
                            ),
                            0,
                        )
                        assert ch.dp_pred[i] == want

    def test_length_non_increasing_in_s(self):
        for seed in range(8):
            seq = gen_random(60, seed=seed)
            for d in (INC, DEC):
                lengths = [gapped_chain_dp(seq, s, d).length for s in range(6)]
                assert lengths == sorted(lengths, reverse=True)


class TestChainToBlocks:
    def test_sorted_windows(self):
        seq = Sequence(range(1, 11))
        ch = gapped_chain_dp(seq, 2, INC)
        w = chain_to_blocks(seq, ch)
        assert w.direction == INC
        assert w.blocks == ((2, 3), (5, 6), (8, 9))
        assert w.depth == 3 and w.block_size == 2
        assert validate_block_witness(seq, w) is True

    def test_minimal_chain(self):
        seq = Sequence([5, 1, 3, 2, 4, 0.5])
        ch = gapped_chain_dp(seq, 2, INC)
        assert ch.length >= 2
        w = chain_to_blocks(seq, ch)
        assert w.depth == ch.length - 1
        assert validate_block_witness(seq, w) is True

    def test_always_validates(self):
        rng = random.Random(41)
        for trial in range(40):
            n = rng.randint(5, 40)
            seq = Sequence(rng.sample(range(500), n))
            for s in (1, 2):
                for d in (INC, DEC):
                    ch = gapped_chain_dp(seq, s, d)
                    if ch.length >= 2:
                        w = chain_to_blocks(seq, ch)
                        assert w.depth == ch.length - 1
                        assert w.block_size == s
                        assert validate_block_witness(seq, w) is True

    def test_short_chain_rejected(self):
        seq = Sequence([2, 1])
        ch = gapped_chain_dp(seq, 1, INC)  # only singleton chains exist
        assert ch.length == 1
        with pytest.raises(InvalidInputError):
            chain_to_blocks(seq, ch)


class TestExtractBlockMonotone:
    def test_small_fallback(self):
        seq = Sequence([2, 4, 1, 5, 3])
        w = extract_block_monotone(seq, 3)
        assert w.block_size == 1
        assert w.depth == 3
        assert validate_block_witness(seq, w) is True

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            extract_block_monotone(Sequence([2, 1, 4, 3]), 3)

    def test_sorted_twelve(self):
        seq = Sequence(range(1, 13))
        w = extract_block_monotone(seq, 3)
        assert validate_block_witness(seq, w) is True
        assert w.depth >= 3 and w.block_size >= 1
        assert max_blocksize_exact(seq, 3) == 4

    def test_invalid_k_and_c(self):
        seq = gen_random(10, seed=0)
        with pytest.raises(InvalidInputError):
            extract_block_monotone(seq, 0)
        with pytest.raises(InvalidInputError):
            extract_block_monotone(seq, 2, c=0)

    def test_real_branch_with_lowered_c(self):
        # lowering c brings the non-fallback branch within desk reach:
        # n=400, k=2, c=3 -> threshold (ck)^2 = 36 <= n, s = ceil(400/36) = 12
        seq = gen_random(400, seed=9)
        w = extract_block_monotone(seq, 2, c=3)
        assert validate_block_witness(seq, w) is True
        assert w.depth >= 2
        if w.block_size > 1:
            assert w.block_size >= math.ceil(400 / (3 * 2) ** 2)

    def test_env_var_constant(self):
        os.environ["BLOCKSEQ_C"] = "3"
        try:
            assert default_c() == 3
            seq = gen_random(400, seed=9)
            w1 = extract_block_monotone(seq, 2)
            w2 = extract_block_monotone(seq, 2, c=3)
            assert w1 == w2
        finally:
            del os.environ["BLOCKSEQ_C"]
        assert default_c() == 40

    def test_env_var_rejects_garbage(self):
        os.environ["BLOCKSEQ_C"] = "fast"
        try:
            with pytest.raises(InvalidInputError):
                default_c()
        finally:
            del os.environ["BLOCKSEQ_C"]

    def test_depth_and_size_contract_bulk(self):
        rng = random.Random(53)
        for trial in range(25):
            k = rng.randint(1, 4)
            n = rng.randint((k - 1) ** 2 + 1, 120)
            seq = Sequence(rng.sample(range(2000), n))
            w = extract_block_monotone(seq, k)
            assert validate_block_witness(seq, w) is True
            assert w.depth >= k

    def test_runtime_trend(self):
        # soft n^2 log n check: doubling n should stay under ~4.6x
        def run(n):
            seq = gen_random(n, seed=n)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                extract_block_monotone(seq, 2, c=2)
                best = min(best, time.perf_counter() - t0)
            return best

        run(1000)  # untimed warm-up, so first-call costs land in no ratio
        t1, t2, t4 = run(1000), run(2000), run(4000)
        assert t2 / max(t1, 1e-9) < 4.6 or t2 < 0.05
        assert t4 / max(t2, 1e-9) < 4.6 or t4 < 0.05


class TestBestGappedS:
    def test_matches_brute_on_all_small_permutations(self):
        for n in range(1, 8):
            for perm in permutations(range(1, n + 1)):
                longest = {}  # (s, direction) -> brute longest s-gapped chain
                for d in (INC, DEC):
                    s = 0
                    while s == 0 or longest[s - 1, d] >= 2:
                        longest[s, d] = brute_chain_tables(perm, s, d)[1]
                        s += 1
                for depth in (1, 2, 3):
                    reached = [sd for sd, length in longest.items() if length > depth]
                    want = max((s for s, _ in reached), default=-1)
                    want_d = None
                    if want >= 0:
                        want_d = INC if (want, INC) in reached else DEC
                    assert best_gapped_s(Sequence(perm), depth) == (want, want_d)

    def test_partition_search_is_exact(self):
        # s reaches depth+1 and s+1 does not, INC preferred on ties
        rng = random.Random(83)
        for trial in range(12):
            n = rng.randint(20, 400)
            pts = PointSet(zip(rng.sample(range(10 * n), n), rng.sample(range(10 * n), n)))
            fr = _frame_of(pts)
            ids = np.sort(np.asarray(rng.sample(range(n), rng.randint(10, n)), dtype=np.int64))
            sub = fr.subseq(fr.by_x(ids))
            k = rng.randint(2, 4)
            for depth in (k, k + 1, 3 * k):
                s, wit = _best_gapped(fr, ids, depth)

                def reach(s, d):
                    return gapped_chain_dp(sub, s, d).length >= depth + 1

                assert not any(reach(s + 1, d) for d in (INC, DEC))
                if s == 0:
                    assert wit is None
                    continue
                assert reach(s, wit.direction)
                assert wit.direction == (INC if reach(s, INC) else DEC)
                w = wit.public()
                assert w.depth >= depth and w.block_size == s
                assert validate_point_witness(pts, w) is True


class TestMaxGappedBlocksize:
    def test_sorted_ten(self):
        seq = Sequence(range(1, 11))
        s_star, w = max_gapped_blocksize(seq, 3)
        assert s_star == 2
        assert w is not None
        assert w.depth >= 3 and w.block_size == 2
        assert validate_block_witness(seq, w) is True

    def test_no_room_for_gaps(self):
        seq = Sequence(range(1, 8))
        s_star, w = max_gapped_blocksize(seq, 6)
        assert s_star == 0 and w is None

    def test_too_short_is_error(self):
        with pytest.raises(InvalidInputError):
            max_gapped_blocksize(Sequence([1, 2, 3]), 3)

    def test_matches_descending_scan(self):
        # bottleneck-pass result == largest s whose chain reaches k+1, found
        # by linear scan from above
        rng = random.Random(61)
        for trial in range(15):
            n = rng.randint(6, 40)
            k = rng.randint(1, 3)
            if n <= k:
                continue
            seq = Sequence(rng.sample(range(400), n))
            s_star, w = max_gapped_blocksize(seq, k)
            best = 0
            for s in range((n - k - 1) // k, 0, -1):
                if max(
                    gapped_chain_dp(seq, s, INC).length,
                    gapped_chain_dp(seq, s, DEC).length,
                ) >= k + 1:
                    best = s
                    break
            assert s_star == best
            if best:
                assert w.block_size == best and w.depth >= k
                assert validate_block_witness(seq, w) is True

    def test_clustered_tightness_vs_oracle(self):
        # the blown-up extremal fixture: gapped-chain route is capped near
        # n/k^2 while the unconstrained oracle maximum is k*s
        for k, s in ((2, 4), (3, 3)):
            seq = gen_clustered(k, s, inner="decreasing", delta=0.2)
            s_star, w = max_gapped_blocksize(seq, k)
            n = len(seq)
            assert s_star <= math.ceil(n / k**2)
            assert max_blocksize_exact(seq, k) == k * s
