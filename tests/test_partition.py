"""Tests for the block-monotone partition machinery."""

import math
import random

from hypothesis import example, given, settings, strategies as hs
import numpy as np
import pytest

from blockseq.core import (
    Sequence,
    gen_clustered,
    gen_random,
    longest_monotone,
    validate_block_witness,
)
from blockseq.errors import InvalidInputError
from blockseq.extract import DEFAULT_C, _best_gapped
from blockseq.partition import (
    _State,
    _Wit,
    _extract_best,
    _flatten_deep,
    _flatten_wide,
    _frame_of,
    _pullout_ids,
    _step,
)
from blockseq.partition import (
    PointSet,
    greedy_partition,
    partition_point_set,
    partition_sequence,
    seq_to_points,
    validate_point_witness,
)
from brutes import pattern_ok


def jitter_box(rng, x0, y0, count, w=8.0, h=8.0):
    return [(x0 + w * rng.random(), y0 + h * rng.random()) for _ in range(count)]


def as_state(pts, sides, odds, evens, up=True):
    """(PointSet, frame, loop state) over ``pts``.  Witnesses are
    (direction, [block ids, ...]) and odd parts are id lists, all 0-based."""
    p = PointSet(pts)
    fr = _frame_of(p)
    ids = lambda b: fr.by_x(np.asarray(b, dtype=np.int64))
    wit = lambda d, blocks: _Wit(d, [ids(b) for b in blocks])
    st = _State([wit(*w) for w in sides], [ids(o) for o in odds], [wit(*w) for w in evens], up)
    return p, fr, st


def seq_state(seq):
    """(PointSet, frame, start state) of the loop on a sequence: one odd part."""
    return as_state(seq_to_points(seq).points, [], [range(len(seq))], [])


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
        start = len(pts)
        pts.extend(b1 + b2)
        sides.append(("dec", (range(start, start + s), range(start + s, start + 2 * s))))
    ystart = len(pts)
    pts.extend(jitter_box(rng, 200.0, 40.0, ny, w=60, h=60))
    return as_state(pts, sides, [range(ystart, ystart + ny)], [])


def build_deep_pattern(seed, s=34):
    """Full-depth staircase (t=k=2): one big odd part, two witnessed evens."""
    rng = random.Random(seed)
    pts = []
    pts.extend(jitter_box(rng, 0.0, 0.0, 300, w=40, h=40))
    odd0 = range(0, 300)
    st = len(pts)
    pts.extend(jitter_box(rng, 50.0, 50.0, s, w=4, h=4))
    pts.extend(jitter_box(rng, 56.0, 56.0, s, w=4, h=4))
    e0 = ("inc", (range(st, st + s), range(st + s, st + 2 * s)))
    st = len(pts)
    pts.extend(jitter_box(rng, 64.0, 64.0, 4, w=2, h=2))
    odd1 = range(st, st + 4)
    st = len(pts)
    pts.extend(jitter_box(rng, 70.0, 70.0, s, w=4, h=4))
    pts.extend(jitter_box(rng, 76.0, 76.0, s, w=4, h=4))
    e1 = ("inc", (range(st, st + s), range(st + s, st + 2 * s)))
    st = len(pts)
    pts.extend(jitter_box(rng, 84.0, 84.0, 4, w=2, h=2))
    odd2 = range(st, st + 4)
    return as_state(pts, [], [odd0, odd1, odd2], [e0, e1])


def state_ids(st):
    """Every 0-based id held by a loop state."""
    ids = [i for w in st.sides + st.evens for i in w.ids().tolist()]
    return ids + [i for o in st.odds for i in o.tolist()]


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


@pytest.mark.parametrize("points", [[("a", 1)], [(1, 2, 3)], [1.0], None])
def test_pointset_rejects_non_pairs_with_typed_error(points):
    with pytest.raises(InvalidInputError):
        PointSet(points)


def test_pointset_rejects_duplicate_coordinates():
    with pytest.raises(InvalidInputError):
        PointSet(((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(InvalidInputError):
        PointSet(((0.0, 1.0), (2.0, 1.0)))


# ---------------------------------------------------------------------------
# pull-out rounds


def test_pullout_small_input_is_identity():
    p, fr, _ = seq_state(gen_random(4, seed=0))
    parts, rest = _pullout_ids(fr, np.arange(4), 3)
    assert parts == [] and rest.tolist() == [0, 1, 2, 3]


def test_pullout_sorted_single_part():
    p, fr, _ = seq_state(Sequence(list(range(1, 51))))
    for k in (2, 3, 7):
        parts, rest = _pullout_ids(fr, np.arange(50), k)
        assert len(parts) == 1
        assert parts[0].size == 50 // k
        assert len(rest) == 50 % k
        assert validate_point_witness(p, parts[0].public())


def test_pullout_random_bound():
    p, fr, _ = seq_state(gen_random(1000, seed=11))
    parts, rest = _pullout_ids(fr, np.arange(1000), 4)
    assert len(rest) <= max(1000 / 4, 9)
    # one part per round, so the round ceiling bounds the part count
    assert len(parts) <= math.ceil(2 * 4 * math.log2(4)) + 2
    seen = []
    for wit in parts:
        w = wit.public()
        assert validate_point_witness(p, w)
        assert w.depth >= 4
        seen.extend(w.indices())
    assert len(set(seen)) == len(seen)


NON_INTEGER_K = [True, 2.5, 3.0, "3"]


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
# the loop-state check (brutes.pattern_ok) on hand-built states


def test_configuration_vacuous_t0():
    _, fr, st = seq_state(gen_random(12, seed=3))
    assert pattern_ok(fr.xs, fr.ys, st, 3)


def test_configuration_three_part_staircase():
    staircase = ([[0], [2]], [("inc", [[1]])])
    _, fr, st = as_state(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), [], *staircase)
    assert pattern_ok(fr.xs, fr.ys, st, 1) is True
    _, fr, st = as_state(((0.0, 0.0), (1.0, 1.0), (2.0, -2.0)), [], *staircase)
    assert pattern_ok(fr.xs, fr.ys, st, 1) is False


def test_configuration_rejections():
    pts = seq_to_points(Sequence([1, 2, 3, 4, 5, 6])).points

    def ok(odds, evens, up=True):
        _, fr, st = as_state(pts, [], odds, evens, up)
        return pattern_ok(fr.xs, fr.ys, st, 2)

    wit = ("inc", [[2], [3]])
    assert ok([[0, 1], [4, 5]], [wit])
    # depth below k
    assert not ok([[0, 1], [4, 5]], [("inc", [[2, 3]])])
    # overlapping odd/even parts
    assert not ok([[0, 1, 2], [4, 5]], [wit])
    # wrong orientation for increasing data
    assert not ok([[0, 1], [4, 5]], [wit], up=False)
    # one odd part more than even parts
    assert not ok([[0, 1]], [wit])


def test_pattern_validation_and_quadrant_violation():
    _, fr, st = seq_state(gen_random(9, seed=2))
    assert pattern_ok(fr.xs, fr.ys, st, 2)
    # a side overlapping the configuration region breaks the quadrant rule
    pts = seq_to_points(Sequence([1, 10, 2, 9, 3, 8, 4, 7])).points
    _, fr, st = as_state(pts, [("dec", [[1], [3]])], [[0, 2, 4, 5, 6, 7]], [])
    assert not pattern_ok(fr.xs, fr.ys, st, 1)


# ---------------------------------------------------------------------------
# one round of the loop (_step)


def test_step_small_nine_points():
    _, fr, st = seq_state(gen_random(9, seed=2))
    parts, residue, leftovers, outcome = _step(fr, st, 2)
    assert outcome == "small"
    assert residue.tolist() == list(range(9))
    assert parts == [] and len(leftovers) == 0


def test_step_t0_is_never_widened():
    for seed in range(6):
        _, fr, st = seq_state(gen_random(120, seed=seed))
        parts, nxt, leftovers, outcome = _step(fr, st, 2)
        assert outcome in ("small", "deepened")
        k, c = 2, DEFAULT_C
        assert len(leftovers) <= 9 * c * c * k * k + 3 * k


def test_step_conserves_points_and_validates_successor():
    p, fr, st = seq_state(gen_random(300, seed=42))
    seen_outcomes = []
    covered = []
    for _ in range(24):
        parts, nxt, leftovers, outcome = _step(fr, st, 2)
        seen_outcomes.append(outcome)
        for w in parts:
            assert validate_point_witness(p, w.public())
            covered.extend(w.ids().tolist())
        covered.extend(leftovers.tolist())
        if outcome == "small":
            covered.extend(nxt.tolist())
            break
        assert pattern_ok(fr.xs, fr.ys, nxt, 2)
        st = nxt
        if st.l >= 8 or st.t >= 2:
            covered.extend(state_ids(st))
            break
    assert "deepened" in seen_outcomes
    assert "widened" in seen_outcomes
    assert sorted(covered) == list(range(300))


# ---------------------------------------------------------------------------
# flatten endgames


def test_flatten_wide_trivial_branch_keeps_existing_witnesses():
    p, fr, st = build_wide_pattern(3, s=10, ny=30)
    assert pattern_ok(fr.xs, fr.ys, st, 2)
    parts, leftovers = _flatten_wide(st)
    # every side survives unchanged and the odd part is left over
    assert [w.public() for w in parts] == [w.public() for w in st.evens + st.sides]
    assert leftovers.tolist() == st.odds[0].tolist()
    cover = sorted([i for w in parts for i in w.ids().tolist()] + leftovers.tolist())
    assert cover == list(range(len(p)))


def test_flatten_deep_pulls_odd_parts_at_depth_k_plus_one():
    p, fr, st = build_deep_pattern(1)
    assert pattern_ok(fr.xs, fr.ys, st, 2)
    parts, leftovers = _flatten_deep(fr, st, 2)
    assert [w.public() for w in parts[-2:]] == [w.public() for w in st.evens]
    pulled = parts[:-2]
    assert pulled  # the 300-point odd part yields depth-3 witnesses
    for wit in pulled:
        w = wit.public()
        assert w.depth == 3 and validate_point_witness(p, w)
    odd_ids = {i for o in st.odds for i in o.tolist()}
    assert set(leftovers.tolist()) <= odd_ids
    cover = sorted([i for w in parts for i in w.ids().tolist()] + leftovers.tolist())
    assert cover == list(range(len(p)))


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
