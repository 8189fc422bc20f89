"""Tests for the block-monotone partition machinery."""

import math
import random

from hypothesis import example, given, settings, strategies as hs
import numpy as np
import pytest

from blockseq.core import (
    BlockWitness,
    Sequence,
    gen_clustered,
    gen_random,
    longest_monotone,
    validate_block_witness,
)
from blockseq.errors import InvalidInputError
from blockseq.extract import DEFAULT_C, _best_gapped
from blockseq.partition import _extract_best, _frame_of
from blockseq.partition import (
    Configuration,
    Pattern,
    PointSet,
    flatten_deep,
    flatten_wide,
    greedy_partition,
    partition_point_set,
    partition_sequence,
    points_to_seq,
    pullout,
    seq_to_points,
    step_pattern,
    validate_configuration,
    validate_pattern,
    validate_point_witness,
)


def jitter_box(rng, x0, y0, count, w=8.0, h=8.0):
    return [(x0 + w * rng.random(), y0 + h * rng.random()) for _ in range(count)]


def build_wide_pattern(seed, s=45, ny=200):
    """Eight sides (k=2) in a down-right chain, all up-left of a random Y."""
    rng = random.Random(seed)
    pts = []
    sides = []
    for i in range(8):
        bx = 10.0 * (2 * i)
        by = 300.0 - 18.0 * i
        b1 = jitter_box(rng, bx, by + 9, s, w=4, h=4)
        b2 = jitter_box(rng, bx + 5, by, s, w=4, h=4)
        start = len(pts) + 1
        pts.extend(b1 + b2)
        sides.append(
            BlockWitness(
                "dec",
                (tuple(range(start, start + s)), tuple(range(start + s, start + 2 * s))),
            )
        )
    ystart = len(pts) + 1
    pts.extend(jitter_box(rng, 200.0, 40.0, ny, w=60, h=60))
    cfg = Configuration((tuple(range(ystart, ystart + ny)),), (), "up-right")
    return PointSet(pts), Pattern(tuple(sides), cfg)


def build_deep_pattern(seed, s=34):
    """Full-depth staircase (t=k=2): one big odd part, two witnessed evens."""
    rng = random.Random(seed)
    pts = []
    ids = lambda a, b: tuple(range(a, b))
    pts.extend(jitter_box(rng, 0.0, 0.0, 300, w=40, h=40))
    odd0 = ids(1, 301)
    st = len(pts) + 1
    pts.extend(jitter_box(rng, 50.0, 50.0, s, w=4, h=4))
    pts.extend(jitter_box(rng, 56.0, 56.0, s, w=4, h=4))
    e0 = BlockWitness("inc", (ids(st, st + s), ids(st + s, st + 2 * s)))
    st = len(pts) + 1
    pts.extend(jitter_box(rng, 64.0, 64.0, 4, w=2, h=2))
    odd1 = ids(st, st + 4)
    st = len(pts) + 1
    pts.extend(jitter_box(rng, 70.0, 70.0, s, w=4, h=4))
    pts.extend(jitter_box(rng, 76.0, 76.0, s, w=4, h=4))
    e1 = BlockWitness("inc", (ids(st, st + s), ids(st + s, st + 2 * s)))
    st = len(pts) + 1
    pts.extend(jitter_box(rng, 84.0, 84.0, 4, w=2, h=2))
    odd2 = ids(st, st + 4)
    cfg = Configuration((odd0, odd1, odd2), (e0, e1), "up-right")
    return PointSet(pts), Pattern((), cfg)


def assert_exact_cover(lp, n):
    cover = list(lp.remainder)
    for ids_, w in lp.parts:
        assert tuple(sorted(w.indices())) == ids_
        cover.extend(ids_)
    assert sorted(cover) == list(range(1, n + 1))


# ---------------------------------------------------------------------------
# embeddings


def test_seq_to_points_examples():
    p = seq_to_points(Sequence([5, 1]))
    assert p.points == ((1.0, 5.0), (2.0, 1.0))
    assert seq_to_points(Sequence([])).points == ()


def test_points_round_trip():
    seq = gen_random(40, seed=9)
    assert points_to_seq(seq_to_points(seq)).values == seq.values


def test_pointset_rejects_duplicate_coordinates():
    with pytest.raises(InvalidInputError):
        PointSet(((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(InvalidInputError):
        PointSet(((0.0, 1.0), (2.0, 1.0)))


# ---------------------------------------------------------------------------
# pullout


def test_pullout_small_input_is_identity():
    p = seq_to_points(gen_random(4, seed=0))
    parts, rest = pullout(p, 3)
    assert parts == [] and rest.points == p.points


def test_pullout_sorted_single_part():
    p = seq_to_points(Sequence(list(range(1, 51))))
    for k in (2, 3, 7):
        parts, rest = pullout(p, k)
        assert len(parts) == 1
        assert parts[0].block_size == 50 // k
        assert len(rest) == 50 % k
        assert validate_point_witness(p, parts[0])


def test_pullout_random_bound():
    p = seq_to_points(gen_random(1000, seed=11))
    parts, rest = pullout(p, 4)
    assert len(rest) <= max(1000 / 4, 9)
    # one part per round, so the round ceiling bounds the part count
    assert len(parts) <= math.ceil(2 * 4 * math.log2(4)) + 2
    seen = []
    for w in parts:
        assert validate_point_witness(p, w)
        assert w.depth >= 4
        seen.extend(w.indices())
    assert len(set(seen)) == len(seen)


def test_pullout_invalid_k():
    with pytest.raises(InvalidInputError):
        pullout(seq_to_points(gen_random(10, seed=1)), 1)


NON_INTEGER_K = [True, 2.5, 3.0, "3"]


@pytest.mark.parametrize("k", NON_INTEGER_K)
def test_pullout_rejects_non_integer_k(k):
    with pytest.raises(InvalidInputError):
        pullout(seq_to_points(gen_random(40, seed=1)), k)


@pytest.mark.parametrize("k", NON_INTEGER_K)
def test_partition_point_set_rejects_non_integer_k(k):
    with pytest.raises(InvalidInputError):
        partition_point_set(seq_to_points(gen_random(40, seed=1)), k)


@pytest.mark.parametrize("k", NON_INTEGER_K)
def test_partition_sequence_rejects_non_integer_k(k):
    with pytest.raises(InvalidInputError):
        partition_sequence(gen_random(40, seed=1), k)


@pytest.mark.parametrize("k", NON_INTEGER_K)
def test_greedy_partition_rejects_non_integer_k(k):
    with pytest.raises(InvalidInputError):
        greedy_partition(gen_random(40, seed=1), k)


# ---------------------------------------------------------------------------
# configuration / pattern validation


def test_configuration_vacuous_t0():
    p = seq_to_points(gen_random(12, seed=3))
    cfg = Configuration((tuple(range(1, 13)),), (), "up-right")
    assert validate_configuration(p, cfg, 3)


def test_configuration_three_part_staircase():
    p = PointSet(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
    cfg = Configuration(((1,), (3,)), (BlockWitness("inc", ((2,),)),), "up-right")
    assert validate_configuration(p, cfg, 1) is True
    bad = PointSet(((0.0, 0.0), (1.0, 1.0), (2.0, -2.0)))
    assert validate_configuration(bad, cfg, 1) is False


def test_configuration_rejections():
    p = seq_to_points(Sequence([1, 2, 3, 4, 5, 6]))
    wit = BlockWitness("inc", ((3,), (4,)))
    good = Configuration(((1, 2), (5, 6)), (wit,), "up-right")
    assert validate_configuration(p, good, 2)
    # depth below k
    assert not validate_configuration(p, Configuration(((1, 2), (5, 6)), (BlockWitness("inc", ((3, 4),)),), "up-right"), 2)
    # overlapping odd/even parts
    assert not validate_configuration(p, Configuration(((1, 2, 3), (5, 6)), (wit,), "up-right"), 2)
    # wrong orientation for increasing data
    assert not validate_configuration(p, Configuration(((1, 2), (5, 6)), (wit,), "down-right"), 2)
    with pytest.raises(InvalidInputError):
        validate_configuration(p, Configuration(((1,), (2,)), (), "sideways"), 2)
    # block-size threshold: at k=1 an odd part of more than (3c)^2 = 120^2
    # points needs blocks of ceil(|odd| / 120^2) = 2, so a singleton fails
    m = (3 * DEFAULT_C) ** 2
    big = seq_to_points(Sequence(list(range(1, m + 4))))
    one = (BlockWitness("inc", ((m + 2,),)),)
    assert validate_configuration(big, Configuration((tuple(range(2, m + 2)), (m + 3,)), one, "up-right"), 1)
    assert not validate_configuration(big, Configuration((tuple(range(1, m + 2)), (m + 3,)), one, "up-right"), 1)


def test_pattern_validation_and_quadrant_violation():
    p9 = seq_to_points(gen_random(9, seed=2))
    pat = Pattern((), Configuration((tuple(range(1, 10)),), (), "up-right"))
    assert validate_pattern(p9, pat, 2)
    # a side overlapping the configuration region breaks the quadrant rule
    p = seq_to_points(Sequence([1, 10, 2, 9, 3, 8, 4, 7]))
    side = BlockWitness("dec", ((2,), (4,)))
    cfg = Configuration(((1, 3, 5, 6, 7, 8),), (), "up-right")
    assert not validate_pattern(p, Pattern((side,), cfg), 1)


# ---------------------------------------------------------------------------
# step_pattern


def test_step_small_nine_points():
    p9 = seq_to_points(gen_random(9, seed=2))
    pat = Pattern((), Configuration((tuple(range(1, 10)),), (), "up-right"))
    parts, residue, leftovers, outcome = step_pattern(p9, pat, 2)
    assert outcome == "small"
    assert residue == tuple(range(1, 10))
    assert parts == [] and leftovers == ()


def test_step_precondition_errors():
    p, pat = build_wide_pattern(0)
    with pytest.raises(InvalidInputError):
        step_pattern(p, pat, 2)  # l = 4k is out of range for a step
    # overlapping parts never validate
    bad = Pattern(
        (),
        Configuration(((1, 2, 3), (3, 4)), (BlockWitness("inc", ((5,), (6,))),), "up-right"),
    )
    with pytest.raises(InvalidInputError):
        step_pattern(seq_to_points(Sequence([1, 2, 3, 4, 5, 6, 7])), bad, 1)


def test_step_t0_is_never_widened():
    for seed in range(6):
        seq = gen_random(120, seed=seed)
        p = seq_to_points(seq)
        pat = Pattern((), Configuration((tuple(range(1, 121)),), (), "up-right"))
        parts, nxt, leftovers, outcome = step_pattern(p, pat, 2)
        assert outcome in ("small", "deepened")
        k, c = 2, DEFAULT_C
        assert len(leftovers) <= 9 * c * c * k * k + 3 * k


def test_step_conserves_points_and_validates_successor():
    seq = gen_random(300, seed=42)
    p = seq_to_points(seq)
    pat = Pattern((), Configuration((tuple(range(1, 301)),), (), "up-right"))
    seen_outcomes = []
    covered = []
    for _ in range(24):
        parts, nxt, leftovers, outcome = step_pattern(p, pat, 2)
        seen_outcomes.append(outcome)
        for w in parts:
            assert validate_point_witness(p, w)
            covered.extend(w.indices())
        covered.extend(leftovers)
        if outcome == "small":
            covered.extend(nxt)
            break
        assert validate_pattern(p, nxt, 2)
        pat = nxt
        if pat.l >= 8 or pat.t >= 2:
            covered.extend(i for w in pat.sides for i in w.indices())
            for o in pat.config.odd_parts:
                covered.extend(o)
            covered.extend(i for w in pat.config.even_parts for i in w.indices())
            break
    assert "deepened" in seen_outcomes
    assert "widened" in seen_outcomes
    assert sorted(covered) == list(range(1, 301))


# ---------------------------------------------------------------------------
# flatten endgames


def test_flatten_wrong_shapes_raise():
    p9 = seq_to_points(gen_random(9, seed=2))
    pat = Pattern((), Configuration((tuple(range(1, 10)),), (), "up-right"))
    with pytest.raises(InvalidInputError):
        flatten_wide(p9, pat, 2)
    with pytest.raises(InvalidInputError):
        flatten_deep(p9, pat, 2)


def test_flatten_wide_trivial_branch_keeps_existing_witnesses():
    p, pat = build_wide_pattern(3, s=10, ny=30)
    assert validate_pattern(p, pat, 2)
    parts, leftovers = flatten_wide(p, pat, 2)
    # every side survives unchanged and the odd part is left over
    assert parts == list(pat.config.even_parts + pat.sides)
    assert leftovers == pat.config.odd_parts[0]
    cover = sorted([i for w in parts for i in w.indices()] + list(leftovers))
    assert cover == list(range(1, len(p) + 1))


def test_flatten_deep_pulls_odd_parts_at_depth_k_plus_one():
    p, pat = build_deep_pattern(1)
    assert validate_pattern(p, pat, 2)
    parts, leftovers = flatten_deep(p, pat, 2)
    evens = list(pat.config.even_parts)
    assert parts[-2:] == evens
    pulled = parts[:-2]
    assert pulled  # the 300-point odd part yields depth-3 witnesses
    for w in pulled:
        assert w.depth == 3 and validate_point_witness(p, w)
    odd_ids = {i for o in pat.config.odd_parts for i in o}
    assert set(leftovers) <= odd_ids
    cover = sorted([i for w in parts for i in w.indices()] + list(leftovers))
    assert cover == list(range(1, len(p) + 1))


# ---------------------------------------------------------------------------
# best extraction on subsets


@hs.composite
def point_subsets(draw):
    """A point set with distinct coordinates and a subset of its ids."""
    n = draw(hs.integers(1, 60))
    ys = draw(hs.permutations(range(n)))
    xs = draw(hs.permutations(range(n)))
    ids = draw(hs.sets(hs.integers(0, n - 1), max_size=n))
    return PointSet(zip(xs, ys)), np.asarray(sorted(ids), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(point_subsets(), hs.integers(1, 5))
@example((seq_to_points(gen_random(3000, seed=1)), np.arange(3000, dtype=np.int64)), 3)
def test_extract_best_is_the_larger_of_lis_cut_and_gapped_search(subset, depth):
    pts, ids = subset
    fr = _frame_of(pts)
    wit = _extract_best(fr, ids, depth)
    if len(ids) <= (depth - 1) ** 2:
        assert wit is None
        return
    w = wit.public()
    assert validate_point_witness(pts, w) is True
    assert w.depth >= depth
    assert set(w.indices()) <= {int(i) + 1 for i in ids}
    seq = fr.subseq(fr.by_x(ids))
    s, _ = _best_gapped(seq, depth)
    assert w.block_size == max(len(longest_monotone(seq)[1]) // depth, s)


# ---------------------------------------------------------------------------
# full partitions


def test_partition_sorted_and_reversed_single_part():
    for k in (2, 3, 5):
        lp = partition_sequence(Sequence(list(range(1, 101))), k)
        assert lp.metrics["parts"] == 1 and lp.remainder == ()
        assert lp.parts[0][1].direction == "inc"
    lp = partition_sequence(Sequence(list(range(100, 0, -1))), 3)
    assert lp.metrics["parts"] == 1 and lp.parts[0][1].direction == "dec"
    lg = greedy_partition(Sequence(list(range(100, 0, -1))), 3)
    assert lg.metrics["parts"] == 1


def test_partition_small_input_all_remainder():
    lp = partition_sequence(gen_random(4, seed=1), 3)
    assert lp.parts == () and sorted(lp.remainder) == [1, 2, 3, 4]


def test_partition_invalid_k():
    seq = gen_random(10, seed=0)
    for fn in (partition_sequence, greedy_partition):
        with pytest.raises(InvalidInputError):
            fn(seq, 1)
    with pytest.raises(InvalidInputError):
        partition_point_set(seq_to_points(seq), 0)


def test_partition_random_bulk_invariants():
    for n, k, seed in [(40, 2, 0), (120, 3, 1), (300, 2, 2), (300, 4, 3)]:
        seq = gen_random(n, seed=seed)
        lp = partition_sequence(seq, k)
        assert_exact_cover(lp, n)
        for _, w in lp.parts:
            assert validate_block_witness(seq, w)
            assert w.depth >= k
        assert len(lp.remainder) <= (k - 1) ** 2
        assert lp.metrics["iterations"] <= 12 * k


def test_partition_random_10000_k3():
    seq = gen_random(10000, seed=60)
    lp = partition_sequence(seq, 3)
    assert_exact_cover(lp, 10000)
    for _, w in lp.parts:
        assert validate_block_witness(seq, w) and w.depth >= 3
    assert len(lp.remainder) <= 4
    assert lp.metrics["iterations"] <= 36


def test_partition_lt_metric_progression():
    seq = gen_random(1000, seed=1003)
    lp = partition_sequence(seq, 3)
    hist = lp.metrics["lt_history"]
    assert len(hist) >= 3
    sums = [l + t for l, t in hist]
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert all(sums[i + 2] > sums[i] for i in range(len(sums) - 2))


def test_partition_clustered_pinned_counts():
    seq = gen_clustered(3, 3, inner="increasing")
    lp = partition_sequence(seq, 3)
    assert_exact_cover(lp, 27)
    assert len(lp.remainder) <= 4
    # pinned on first run; the pipeline is deterministic
    assert lp.metrics["parts"] == 3


def test_partition_deterministic():
    seq = gen_random(500, seed=31)
    a = partition_sequence(seq, 2)
    b = partition_sequence(seq, 2)
    assert a.parts == b.parts and a.remainder == b.remainder


def test_greedy_partition_bound_and_cover():
    for n, k, seed in [(1000, 2, 5), (1000, 3, 6), (300, 4, 7)]:
        seq = gen_random(n, seed=seed)
        lp = greedy_partition(seq, k)
        assert_exact_cover(lp, n)
        for _, w in lp.parts:
            assert validate_block_witness(seq, w) and w.depth >= k
        assert len(lp.remainder) <= (k - 1) ** 2
        assert lp.metrics["parts"] <= 2 * k * math.log2(n) + k
