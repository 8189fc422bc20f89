from itertools import permutations
import math
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
from blockseq import extract
from blockseq.errors import SearchFailedError
from blockseq.extract import _best_gapped, _bottleneck_table, _traced_chain
from blockseq.extract import _window_blocks, _window_row
from blockseq.oracle import max_blocksize_exact
from brutes import best_gapped_s, brute_chain_tables, naive_count_box, naive_is_gapped
from brutes import rebuild_best_gapped


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

    @pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 65, 300])
    def test_joint_mode_is_the_longer_direction(self, n):
        seqs = [gen_random(n, seed=n)]
        if n:
            seqs += [gen_clustered(3, max(1, n // 9), inner, seed=n)
                     for inner in ("increasing", "decreasing", "seeded-random")]
        for seq in seqs:
            for s in range(8):
                inc, dec = gapped_chain_dp(seq, s, INC), gapped_chain_dp(seq, s, DEC)
                got = gapped_chain_dp(seq, s, None)
                want = inc if inc.length >= dec.length else dec
                for name in ("direction", "s", "chain", "dp_lengths", "dp_pred"):
                    assert getattr(got, name) == getattr(want, name), (len(seq), s, name)

    def test_joint_mode_tie_goes_to_inc(self):
        # 3 2 1 4 5: the DEC chain (3, 2, 1) ends first, the INC chain
        # (3, 4, 5) has as many entries
        seq = Sequence([3, 2, 1, 4, 5])
        assert gapped_chain_dp(seq, 0, DEC).length == gapped_chain_dp(seq, 0, INC).length == 3
        assert gapped_chain_dp(seq, 0, None) == gapped_chain_dp(seq, 0, INC)

    @pytest.mark.parametrize("s", [True, 1.5, 2.0, "2", None])
    def test_non_integer_s_rejected(self, s):
        with pytest.raises(InvalidInputError):
            gapped_chain_dp(gen_random(20, seed=1), s, INC)

    def test_unknown_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            gapped_chain_dp(gen_random(20, seed=1), 1, "up")


class TestWindowBlocks:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 65, 100])
    def test_matches_naive_box_counts(self, n):
        vals = list(gen_random(n, seed=n).values)
        columns = []
        for lo, hi, window in _window_blocks(np.asarray(vals)):
            assert window.shape == (hi - lo, hi)
            for i in range(lo, hi):
                columns.append(i)
                for j in range(i):
                    a, b = sorted((vals[j], vals[i]))
                    count = naive_count_box(vals, j + 1, i + 1, a, b)
                    want = count if vals[j] < vals[i] else ~count
                    assert window[i - lo, j] == want
        assert columns == list(range(n))

    def test_narrow_type_wraps_exactly(self, monkeypatch):
        # at n=120 the partial sums reach 2n and wrap around in int8, while
        # every window (at most n in size) fits, so the windows stay exact
        vals = np.asarray(gen_random(120, seed=7).values)

        def windows(dtype):
            monkeypatch.setattr(extract, "_count_dtype", lambda n: dtype)
            return [
                window[c, : lo + c].astype(np.int64)
                for lo, hi, window in _window_blocks(vals)
                for c in range(hi - lo)
            ]

        want, got = windows(np.int64), windows(np.int8)
        assert len(got) == len(want) == 120
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize(
        "name, value",
        [("_WIDTH", 1), ("_WIDTH", 7), ("_count_dtype", lambda n: np.int32)],
    )
    def test_block_width_and_count_type_leave_results(self, monkeypatch, name, value):
        rng = random.Random(89)
        seqs = [gen_random(n, seed=rng.randrange(10**6)) for n in (1, 2, 7, 31, 33, 64, 150, 300)]
        seqs.append(gen_clustered(3, 5, inner="decreasing", delta=0.2))

        def outputs():
            out = []
            for seq in seqs:
                for d in (INC, DEC):
                    for s in (0, 1, 3):
                        ch = gapped_chain_dp(seq, s, d)
                        out.append((ch.chain, ch.dp_lengths, ch.dp_pred))
                out.extend(best_gapped_s(seq, depth) for depth in (1, 2, 4))
                out.extend(max_gapped_blocksize(seq, k) for k in (1, 2, 4) if len(seq) > k)
            return out

        want = outputs()
        monkeypatch.setattr(extract, name, value)
        if name == "_WIDTH":  # the bottleneck table's bands shrink to _WIDTH too
            monkeypatch.setattr(extract, "_CELLS", 0)
        assert outputs() == want

    @staticmethod
    def _rows(vals, width):
        return [
            window[c, : lo + c].astype(np.int64)
            for lo, hi, window in _window_blocks(vals, None, width)
            for c in range(hi - lo)
        ]

    @staticmethod
    def _table(monkeypatch, vals, levels, width):
        # width = max(_WIDTH, _CELLS // n): _CELLS = 0 leaves exactly _WIDTH
        monkeypatch.setattr(extract, "_WIDTH", width)
        monkeypatch.setattr(extract, "_CELLS", 0)
        return _bottleneck_table(vals, levels)

    @pytest.mark.parametrize("n", [1, 2, 31, 33, 100, 300])
    def test_band_width_leaves_rows_and_table(self, monkeypatch, n):
        vals = np.asarray(gen_random(n, seed=n + 11).values)
        want_rows = self._rows(vals, 32)
        wants = {levels: _bottleneck_table(vals, levels) for levels in (1, 3, 10)}
        for width in (1, 7, 32, n):  # n: one band covers every column
            rows = self._rows(vals, width)
            assert len(rows) == n and all(np.array_equal(g, w) for g, w in zip(rows, want_rows))
            for levels, (best, bb) in wants.items():
                got_best, got_bb = self._table(monkeypatch, vals, levels, width)
                assert np.array_equal(got_best, best) and np.array_equal(got_bb, bb)

    def test_default_bands_are_capped_by_cells(self, monkeypatch):
        # the bands of a 300-entry table span _CELLS // 300 = 54 columns
        vals = np.asarray(gen_random(300, seed=5).values)
        widths = []
        original = extract._window_blocks

        def recorded(vals, bb, width):
            widths.append(width)
            return original(vals, bb, width)

        monkeypatch.setattr(extract, "_window_blocks", recorded)
        _bottleneck_table(vals, 3)
        assert widths == [extract._CELLS // 300] and widths[0] > extract._WIDTH

    def test_narrow_type_wraps_exactly_in_one_band(self, monkeypatch):
        # the log-step carry's partial sums wrap in int8 at n=120 too
        vals = np.asarray(gen_random(120, seed=7).values)

        def run(dtype):
            monkeypatch.setattr(extract, "_count_dtype", lambda n: dtype)
            best, bb = self._table(monkeypatch, vals, 4, 120)
            return self._rows(vals, 120), best.astype(np.int64), bb.astype(np.int64)

        (want_rows, want_best, want_bb), (rows, best, bb) = run(np.int64), run(np.int8)
        assert len(rows) == 120 and all(np.array_equal(g, w) for g, w in zip(rows, want_rows))
        assert np.array_equal(best, want_best) and np.array_equal(bb, want_bb)


class TestWindowRow:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100])
    def test_matches_naive_box_counts_and_block_rows(self, n):
        vals = np.asarray(gen_random(n, seed=n + 3).values)
        bb = np.empty(n, dtype=extract._count_dtype(n))
        rows = [
            window[c, : lo + c].copy()
            for lo, hi, window in _window_blocks(vals, bb)
            for c in range(hi - lo)
        ]
        for e in range(n):
            row = _window_row(vals, bb, e)
            assert row.dtype == np.int64 and np.array_equal(row, rows[e])
            for j in range(e):
                a, b = sorted((vals[j], vals[e]))
                count = naive_count_box(list(vals), j + 1, e + 1, a, b)
                assert row[j] == (count if vals[j] < vals[e] else ~count)

    def test_wide_sum_under_narrow_counts(self, monkeypatch):
        # bb[e] + bb[j] reaches 2n, past int8 at n=120, while each bb fits
        vals = np.asarray(gen_random(120, seed=9).values)

        def rows(dtype):
            monkeypatch.setattr(extract, "_count_dtype", lambda n: dtype)
            bb = np.empty(len(vals), dtype=dtype)
            for _ in _window_blocks(vals, bb):
                pass
            return [_window_row(vals, bb, e) for e in range(len(vals))]

        want, got = rows(np.int64), rows(np.int8)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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

    @pytest.mark.parametrize("k, c", [(True, 2), (2.5, 2), ("3", 2), (3, True), (3, 2.0), (3, "2")])
    def test_non_integer_k_and_c_rejected(self, k, c):
        # True would otherwise pass as k = 1 (or c = 1) and pick a shallower witness
        with pytest.raises(InvalidInputError):
            extract_block_monotone(gen_random(400, seed=9), k, c=c)

    def test_one_window_pass_for_both_directions(self, monkeypatch):
        seq = gen_random(400, seed=9)  # n >= (ck)^2 = 36: the DP route
        calls = {"dp": 0, "windows": 0}

        def counted(name, key):
            original = getattr(extract, name)

            def wrapper(*args):
                calls[key] += 1
                return original(*args)

            monkeypatch.setattr(extract, name, wrapper)

        counted("gapped_chain_dp", "dp")
        counted("_window_blocks", "windows")
        w = extract_block_monotone(seq, 2, c=3)
        assert calls == {"dp": 1, "windows": 1}
        assert validate_block_witness(seq, w) is True and w.block_size == 12

    def test_real_branch_with_lowered_c(self):
        # lowering c brings the non-fallback branch within desk reach:
        # n=400, k=2, c=3 -> threshold (ck)^2 = 36 <= n, s = ceil(400/36) = 12
        seq = gen_random(400, seed=9)
        w = extract_block_monotone(seq, 2, c=3)
        assert validate_block_witness(seq, w) is True
        assert w.depth >= 2
        if w.block_size > 1:
            assert w.block_size >= math.ceil(400 / (3 * 2) ** 2)

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
            seq = Sequence(rng.sample(range(10 * n), rng.randint(10, n)))
            k = rng.randint(2, 4)
            for depth in (k, k + 1, 3 * k):
                s, ch = _best_gapped(seq, depth)

                def reach(s, d):
                    return gapped_chain_dp(seq, s, d).length >= depth + 1

                assert not any(reach(s + 1, d) for d in (INC, DEC))
                if s == 0:
                    assert ch is None
                    continue
                assert reach(s, ch.direction)
                assert ch.direction == (INC if reach(s, INC) else DEC)
                w = chain_to_blocks(seq, ch)
                assert w.depth >= depth and w.block_size == s
                assert validate_block_witness(seq, w) is True


class TestMaxGappedBlocksize:
    def test_sorted_ten(self):
        seq = Sequence(range(1, 11))
        s_star, w = max_gapped_blocksize(seq, 3)
        assert s_star == 2
        assert w is not None
        assert w.depth >= 3 and w.block_size == 2
        assert validate_block_witness(seq, w) is True

    def test_no_room_for_gaps(self, monkeypatch):
        # depth+1 entries and depth gaps of s >= 1 need n > 2k: up to n = 2k
        # the size guard answers before any table is built
        tables = []
        table = extract._bottleneck_table

        def counted(*args):
            tables.append(args)
            return table(*args)

        monkeypatch.setattr(extract, "_bottleneck_table", counted)
        for k in range(1, 7):
            for n in range(k + 1, 2 * k + 1):
                assert max_gapped_blocksize(Sequence(range(1, n + 1)), k) == (0, None)
        assert tables == []
        s_star, w = max_gapped_blocksize(Sequence(range(1, 10)), 4)
        assert (s_star, w.depth) == (1, 4) and len(tables) == 1

    def test_direction_of_s_wins_ties(self):
        # both directions reach s=1 at depth 5; the DEC chain at s=1 is longer,
        # but the witness comes from the direction of s, INC on ties
        seq = gen_random(55, seed=0)
        assert best_gapped_s(seq, 5) == (1, INC)
        assert gapped_chain_dp(seq, 1, DEC).length > gapped_chain_dp(seq, 1, INC).length
        s_star, w = max_gapped_blocksize(seq, 5)
        assert (s_star, w.direction, w.depth) == (1, INC, 5)
        assert validate_block_witness(seq, w) is True

    def test_too_short_is_error(self):
        with pytest.raises(InvalidInputError):
            max_gapped_blocksize(Sequence([1, 2, 3]), 3)

    @pytest.mark.parametrize("k", [True, 2.5, 3.0, "3"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InvalidInputError):
            max_gapped_blocksize(gen_random(60, seed=1), k)

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


def _trace_inputs():
    rng = random.Random(101)
    seqs = [gen_random(n, seed=rng.randrange(10**6)) for n in range(8, 81, 3)]
    seqs += [gen_random(300, seed=5), gen_random(1000, seed=6)]
    for k, s in ((2, 9), (3, 4), (4, 5)):
        for inner in ("increasing", "decreasing", "seeded-random"):
            seqs.append(gen_clustered(k, s, inner, seed=k + s))
    return seqs


# inputs whose longest chain at s* is longer than the target depth, so that
# the witness comes from a chain DP, not from the bottleneck table
FALLBACKS = [(gen_random(14, seed=133), 3), (gen_clustered(4, 5, "increasing"), 5)]


class TestTracedWitness:
    @pytest.fixture
    def routes(self, monkeypatch):
        """Counts of witnesses traced off the table and rebuilt by a DP."""
        seen = {"traced": 0, "dp": 0}

        def counted(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args):
                seen[key] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(extract, "_traced_chain", "traced")
        counted(extract, "gapped_chain_dp", "dp")
        return seen

    def test_partition_search_matches_rebuild(self, routes):
        for seq in _trace_inputs():
            for depth in range(1, 7):
                s, ch = _best_gapped(seq, depth)
                got = (s, None if ch is None else chain_to_blocks(seq, ch))
                assert got == rebuild_best_gapped(seq, depth)
        assert routes["traced"] > 100 and routes["dp"] > 0

    def test_blocksize_matches_rebuild(self, routes):
        for seq in _trace_inputs():
            for k in range(1, 7):
                if len(seq) > k:
                    assert max_gapped_blocksize(seq, k) == rebuild_best_gapped(seq, k)
        assert routes["traced"] > 100 and routes["dp"] > 0

    @pytest.mark.parametrize("seq, depth", FALLBACKS)
    def test_longer_chain_falls_back_to_the_dp(self, routes, seq, depth):
        s, ch = _best_gapped(seq, depth)
        assert routes == {"traced": 0, "dp": 1}
        w = chain_to_blocks(seq, ch)
        assert w.depth > depth
        assert (s, w) == rebuild_best_gapped(seq, depth)
        assert max_gapped_blocksize(seq, depth) == (s, w)

    def test_missing_predecessor_is_a_typed_failure(self):
        vals = np.asarray(gen_random(40, seed=2).values)
        best, bb = _bottleneck_table(vals, 3)
        s = int(best[0, 2].max())
        assert s >= 1
        best[0, 1] = -1  # no chain of two entries leads to the level-2 end
        with pytest.raises(SearchFailedError):
            _traced_chain(vals, best, bb, s, INC)
