import importlib
import math
import random
import tracemalloc

from hypothesis import example, given, settings, strategies as hs
import numpy as np
import pytest

import blockseq
from blockseq import (
    DEC,
    INC,
    BlockWitness,
    InvalidInputError,
    Sequence,
    find_block_path,
    gen_clustered,
    gen_es_extremal,
    gen_grid_clusters,
    gen_point_cloud,
    gen_random,
    gen_random_coloring,
    gen_recursive_coloring,
    inversion_stats,
    longest_monotone,
    validate_block_witness,
)
from blockseq.biarc import (
    UPPER_ARCS,
    OrderedGraph,
    Page,
    partition_multiset,
    spine_crossing,
)
from blockseq import cli
from blockseq.core import MAX_ENTRIES, longest_chain
from blockseq.rangecount import build_counter, is_gapped_pair
from blockseq.svg import render_pages
from brutes import (
    all_transversals_monotone,
    brute_longest_chain,
    brute_longest_monotone_indices,
    two_pass_longest_monotone,
)


class TestSequence:
    def test_basic_fields(self):
        s = Sequence([3.0, 1.0, 2.0])
        assert s.n == 3
        assert s.value(1) == 3.0
        assert s.value(3) == 2.0
        assert len(s) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            Sequence([1.0, 2.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Sequence([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            Sequence([float("inf"), 0.0])

    @pytest.mark.parametrize("big", [10**400, -(10**400)])
    def test_rejects_integers_beyond_float_range(self, big):
        # float(10**400) raises OverflowError, not a value error
        with pytest.raises(InvalidInputError, match="finite"):
            Sequence([big, 1])

    @pytest.mark.parametrize("values", [["a"], None, [[1.0]], [1.0, None]])
    def test_rejects_non_reals_with_typed_error(self, values):
        with pytest.raises(InvalidInputError):
            Sequence(values)

    def test_empty_allowed(self):
        assert Sequence([]).n == 0

    def test_value_range_check(self):
        s = Sequence([1.0, 2.0])
        with pytest.raises(InvalidInputError):
            s.value(0)
        with pytest.raises(InvalidInputError):
            s.value(3)


class TestValidateBlockWitness:
    def test_sorted_increasing_blocks(self):
        seq = Sequence([1, 2, 3, 4])
        w = BlockWitness(INC, ((1, 2), (3, 4)))
        assert validate_block_witness(seq, w) is True

    def test_interleaved_values_still_valid(self):
        # all four transversals of [[1,2],[3,4]] over (2,1,4,3) increase
        seq = Sequence([2, 1, 4, 3])
        w = BlockWitness(INC, ((1, 2), (3, 4)))
        assert validate_block_witness(seq, w) is True

    def test_positional_separation_violated(self):
        seq = Sequence([2, 1, 4, 3])
        w = BlockWitness(INC, ((1, 3), (2, 4)))
        assert validate_block_witness(seq, w) is False

    def test_out_of_range_is_error_not_false(self):
        seq = Sequence([2, 1, 4, 3])
        with pytest.raises(InvalidInputError):
            validate_block_witness(seq, BlockWitness(INC, ((1, 2), (3, 5))))

    def test_unequal_block_sizes_rejected(self):
        seq = Sequence([1, 2, 3, 4])
        assert validate_block_witness(seq, BlockWitness(INC, ((1,), (3, 4)))) is False

    @pytest.mark.parametrize("bad", [1.5, 2.0, "a", "2", None, True])
    def test_non_integer_indices_rejected(self, bad):
        # 1.5 used to be stored as 1, so the witness validated
        with pytest.raises(InvalidInputError):
            BlockWitness(INC, ((bad,),))

    def test_numpy_integer_indices_accepted(self):
        w = BlockWitness(INC, ((np.int64(1), np.int32(2)), (np.uint8(3), 4)))
        assert w.blocks == ((1, 2), (3, 4)) and type(w.blocks[0][0]) is int
        assert validate_block_witness(Sequence([1, 2, 3, 4]), w) is True

    def test_decreasing_direction(self):
        seq = Sequence([4, 3, 2, 1])
        assert validate_block_witness(seq, BlockWitness(DEC, ((1, 2), (3, 4)))) is True
        assert validate_block_witness(seq, BlockWitness(INC, ((1, 2), (3, 4)))) is False

    def test_agrees_with_transversal_enumeration(self):
        # library check == literal all-transversals check on small witnesses
        rng = random.Random(7)
        for trial in range(200):
            n = rng.randint(4, 10)
            vals = rng.sample(range(100), n)
            seq = Sequence(vals)
            k = rng.randint(2, 3)
            s = rng.randint(1, min(2, n // k))
            idx = sorted(rng.sample(range(1, n + 1), k * s))
            blocks = tuple(
                tuple(idx[b * s : (b + 1) * s]) for b in range(k)
            )
            for d, inc in ((INC, True), (DEC, False)):
                got = validate_block_witness(seq, BlockWitness(d, blocks))
                want = all_transversals_monotone(vals, blocks, inc)
                assert got == want


class TestLongestMonotone:
    def test_sorted(self):
        assert longest_monotone(Sequence([1, 2, 3])) == (INC, [1, 2, 3])

    def test_extremal_length(self):
        # S(3) admits nothing longer than 3 in either direction
        d, idx = longest_monotone(gen_es_extremal(3))
        assert len(idx) == 3

    def test_small_derived_length(self):
        d, idx = longest_monotone(Sequence([2, 4, 1, 5, 3]))
        assert len(idx) == 3

    def test_empty_is_error(self):
        with pytest.raises(InvalidInputError):
            longest_monotone(Sequence([]))

    def test_singleton(self):
        assert longest_monotone(Sequence([5.0])) == (INC, [1])

    def test_tie_prefers_increasing_then_lex(self):
        # (2,1): one increasing and one decreasing singleton ... and the
        # decreasing pair; decreasing wins on length
        assert longest_monotone(Sequence([2, 1])) == (DEC, [1, 2])
        # (1,2) vs (2,1) tie at length 1 cannot happen; force a real tie:
        # (3,1,4,2) has increasing (1,4)->(3,4) etc and decreasing pairs
        d, idx = longest_monotone(Sequence([3, 1, 4, 2]))
        assert d == INC and len(idx) == 2
        assert idx == [1, 3]  # lexicographically smallest optimum

    def test_matches_enumeration_and_tiebreak(self):
        rng = random.Random(11)
        for trial in range(150):
            n = rng.randint(1, 8)
            vals = rng.sample(range(50), n)
            best, winners = brute_longest_monotone_indices(vals)
            d, idx = longest_monotone(Sequence(vals))
            assert len(idx) == best
            picked = [vals[i - 1] for i in idx]
            assert picked == sorted(picked) or picked == sorted(picked, reverse=True)
            inc_winners = [
                w
                for w in winners
                if [vals[i - 1] for i in w] == sorted(vals[i - 1] for i in w)
            ]
            if inc_winners:
                assert d == INC
                assert idx == min(inc_winners)
            else:
                assert d == DEC
                assert idx == min(winners)

    @settings(max_examples=300, deadline=None)
    @given(hs.lists(hs.integers(-40, 40), min_size=1, max_size=60, unique=True))
    @example([2, 1])
    @example([1, 2, 3])
    @example(list(gen_es_extremal(4).values))
    @example(list(gen_es_extremal(7).values))
    @example([-v for v in gen_es_extremal(5).values])
    def test_one_pass_matches_two_passes(self, vals):
        assert longest_monotone(Sequence(vals)) == two_pass_longest_monotone(vals)

    def test_sqrt_lower_bound(self):
        for seed in range(10):
            seq = gen_random(40, seed=seed)
            _, idx = longest_monotone(seq)
            assert len(idx) >= math.isqrt(len(seq) - 1) + 1


class TestLongestChain:
    @pytest.mark.parametrize("width", [1, 7, 32])
    def test_blocks_match_column_reference(self, width):
        # entries with j >= i hold random junk, which the kernel must ignore
        rng = np.random.default_rng(width)
        for n in (1, 2, 31, 32, 33, 100, 257):
            for density in (0.05, 0.5, 1.0):
                ok = rng.random((n, n)) < density
                blocks = (
                    (lo, min(lo + width, n), ok[lo : lo + width, : lo + width])
                    for lo in range(0, n, width)
                )
                lengths, pred = longest_chain(n, blocks)
                want = brute_longest_chain(n, ((i, ok[i]) for i in range(1, n)))
                assert (lengths.tolist(), pred.tolist()) == want


class TestInversionStats:
    def test_sorted(self):
        st = inversion_stats(Sequence([1, 2, 3, 4]))
        assert st.decreasing_pairs == 0
        assert st.increasing_pairs == 6

    def test_reversed(self):
        st = inversion_stats(Sequence([3, 2, 1]))
        assert st.decreasing_pairs == 3
        assert st.increasing_pairs == 0

    def test_extremal_two(self):
        st = inversion_stats(gen_es_extremal(2))
        assert st.decreasing_pairs == 2
        assert not st.is_eps_increasing(2 / 16)
        assert st.is_eps_increasing(2 / 16 + 1e-9)

    def test_pair_total(self):
        rng = random.Random(3)
        for trial in range(50):
            n = rng.randint(0, 12)
            st = inversion_stats(Sequence(rng.sample(range(40), n)))
            assert st.increasing_pairs + st.decreasing_pairs == n * (n - 1) // 2

    def test_monotone_classification(self):
        st = inversion_stats(Sequence([1, 2, 4, 3]))
        assert st.is_eps_monotone(2 / 16)
        assert not st.is_eps_decreasing(1 / 16)


class TestGenerators:
    def test_es_extremal_small(self):
        assert gen_es_extremal(1).values == (1,)
        assert gen_es_extremal(2).values == (2, 1, 4, 3)
        assert gen_es_extremal(3).values == (3, 2, 1, 6, 5, 4, 9, 8, 7)

    def test_es_extremal_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            gen_es_extremal(0)

    def test_es_runs_form_witness(self):
        # the k descending runs, taken as blocks, give a decreasing-direction
        # depth-k block-size-k witness
        for k in (2, 3, 5):
            seq = gen_es_extremal(k)
            blocks = tuple(
                tuple(range(b * k + 1, (b + 1) * k + 1)) for b in range(k)
            )
            assert validate_block_witness(seq, BlockWitness(INC, blocks)) is True

    def test_clustered_structure(self):
        seq = gen_clustered(2, 2, inner="increasing", delta=0.1)
        vals = seq.values
        assert len(vals) == 8
        centers = [2, 2, 1, 1, 4, 4, 3, 3]
        for v, c in zip(vals, centers):
            assert abs(v - c) < 0.1
        for a, b in zip(vals[::2], vals[1::2]):
            assert a < b  # inner=increasing within each cluster

    def test_clustered_inner_modes(self):
        dec = gen_clustered(2, 3, inner="decreasing", delta=0.2)
        for t in range(0, 12, 3):
            chunk = dec.values[t : t + 3]
            assert list(chunk) == sorted(chunk, reverse=True)
        r1 = gen_clustered(2, 3, inner="seeded-random", delta=0.2, seed=5)
        r2 = gen_clustered(2, 3, inner="seeded-random", delta=0.2, seed=5)
        assert r1.values == r2.values

    def test_clustered_s_one_is_extremal(self):
        assert gen_clustered(3, 1, inner="decreasing").values == tuple(
            float(v) for v in gen_es_extremal(3).values
        )

    def test_clustered_delta_bound(self):
        with pytest.raises(InvalidInputError):
            gen_clustered(2, 2, inner="increasing", delta=0.5)

    def test_clustered_delta_below_float_spacing_is_refused(self):
        # 1 +- 3e-18 rounds to 1.0 for both offsets of the first cluster
        with pytest.raises(InvalidInputError, match="distinct"):
            gen_clustered(1, 2, delta=1e-17)

    def test_clustered_bad_inner(self):
        with pytest.raises(InvalidInputError):
            gen_clustered(2, 2, inner="sideways")

    def test_random_deterministic(self):
        a = gen_random(5, seed=42)
        b = gen_random(5, seed=42)
        assert a.values == b.values
        assert sorted(a.values) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_random_empty(self):
        assert gen_random(0, seed=1).n == 0


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: gen_random(MAX_ENTRIES + 1), id="gen_random"),
        pytest.param(lambda: gen_clustered(1, MAX_ENTRIES + 1), id="gen_clustered"),
        # the smallest k with k^2 > MAX_ENTRIES
        pytest.param(lambda: gen_es_extremal(2**11 + 1), id="gen_es_extremal"),
        pytest.param(lambda: gen_point_cloud(MAX_ENTRIES + 1), id="gen_point_cloud"),
        pytest.param(lambda: gen_grid_clusters(1, MAX_ENTRIES + 1), id="gen_grid_clusters"),
        # vertices plus edges
        pytest.param(lambda: cli._random_graph(MAX_ENTRIES, 1, 0), id="cli-graph"),
    ],
)
def test_generators_refuse_past_the_entry_cap_before_allocating(make):
    """One entry beyond the cap fails with a typed error; the traced peak
    stays far below the 8 bytes per entry any output array would take."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="at most"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


_COLORING = gen_random_coloring(12, 2, seed=0)


@pytest.mark.parametrize(
    "func, args",
    [
        pytest.param(find_block_path, (_COLORING, 2.5, 1), id="find_block_path-k"),
        pytest.param(find_block_path, (_COLORING, 2, 1.0), id="find_block_path-s"),
        pytest.param(find_block_path, (_COLORING, True, True), id="find_block_path-bools"),
        pytest.param(gen_random, (10.0,), id="gen_random-n"),
        pytest.param(gen_random, (10, 1.5), id="gen_random-seed"),
        pytest.param(gen_random, (True,), id="gen_random-bool"),
        pytest.param(gen_es_extremal, (3.0,), id="gen_es_extremal-k"),
        pytest.param(gen_clustered, (2.0, 3), id="gen_clustered-k"),
        pytest.param(gen_clustered, (2, 3.5), id="gen_clustered-s"),
        pytest.param(gen_clustered, (2, 3, "seeded-random", 0.25, 0.5), id="gen_clustered-seed"),
        pytest.param(gen_random_coloring, (12.0, 2, 0), id="gen_random_coloring-n"),
        pytest.param(gen_random_coloring, (12, 2.0, 0), id="gen_random_coloring-q"),
        pytest.param(gen_random_coloring, (12, 2, 0.5), id="gen_random_coloring-seed"),
        pytest.param(gen_recursive_coloring, (2.0, 3), id="gen_recursive_coloring-k"),
        pytest.param(gen_recursive_coloring, (2, 3.0), id="gen_recursive_coloring-q"),
        pytest.param(gen_recursive_coloring, (2, True), id="gen_recursive_coloring-bool"),
        pytest.param(gen_point_cloud, (10.0,), id="gen_point_cloud-n"),
        pytest.param(gen_point_cloud, (10, 2.5), id="gen_point_cloud-seed"),
        pytest.param(gen_grid_clusters, (2.0, 3), id="gen_grid_clusters-k"),
        pytest.param(gen_grid_clusters, (2, 3.0), id="gen_grid_clusters-per_cluster"),
        pytest.param(gen_grid_clusters, (2, 3, 1.5), id="gen_grid_clusters-seed"),
    ],
)
def test_public_integer_arguments_reject_floats_and_bools(func, args):
    with pytest.raises(InvalidInputError, match="must be an int"):
        func(*args)


_SEQ4 = Sequence([4.0, 1.0, 2.0, 3.0])

# one call per integer argument, with ``v`` in that argument's place
INTEGER_GUARDED = {
    "OrderedGraph-n": lambda v: OrderedGraph(v, ()),
    "Page-split_b": lambda v: Page(((1, 3),), UPPER_ARCS, v, (((1.0, 3.0), None),)),
    "partition_multiset-k": lambda v: partition_multiset([1, 2, 3], v),
    "spine_crossing-l": lambda v: spine_crossing(v, 3, 2, 4),
    "spine_crossing-r": lambda v: spine_crossing(1, v, 2, 4),
    "spine_crossing-b": lambda v: spine_crossing(1, 3, v, 4),
    "spine_crossing-n": lambda v: spine_crossing(1, 3, 2, v),
    "render_pages-n": lambda v: render_pages(v, []),
    "is_gapped_pair-i": lambda v: is_gapped_pair(build_counter(_SEQ4), _SEQ4, v, 4, 1),
    "is_gapped_pair-j": lambda v: is_gapped_pair(build_counter(_SEQ4), _SEQ4, 1, v, 1),
    "is_gapped_pair-s": lambda v: is_gapped_pair(build_counter(_SEQ4), _SEQ4, 1, 4, v),
}


@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3"])
@pytest.mark.parametrize("call", INTEGER_GUARDED.values(), ids=INTEGER_GUARDED.keys())
def test_graph_render_and_range_integer_arguments_reject_non_ints(call, value):
    with pytest.raises(InvalidInputError, match="must be an int"):
        call(value)


@pytest.mark.parametrize(
    "module", ["core", "extract", "partition", "avoid", "biarc", "ramsey", "rangecount", "errors"]
)
def test_submodule_exports_are_package_exports(module):
    sub = importlib.import_module(f"blockseq.{module}")
    for name in sub.__all__:
        assert name in blockseq.__all__, name
        assert getattr(blockseq, name) is getattr(sub, name), name
