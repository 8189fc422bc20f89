"""Tests for balanced-line search and mutually avoiding families."""

from fractions import Fraction
import math

from hypothesis import assume, example, given, settings, strategies as hs
import numpy as np
import pytest

import blockseq.avoid as avoid
from blockseq.avoid import (
    AvoidingWitness,
    Line,
    balanced_line,
    check_avoiding,
    gen_grid_clusters,
    gen_point_cloud,
    mutually_avoiding_sets,
)
from blockseq.errors import InvalidInputError, PreconditionError, SearchFailedError
from blockseq.oracle import brute_avoiding_transversals
from blockseq.partition import PointSet
from brutes import brute_balanced_line_exists, triple_signs_loop

FOUR_P = PointSet([(0, 1), (2, 3)])
FOUR_Q = PointSet([(0, -1), (2, -3)])
X_AXIS = Line(0.0, 0.0)


def side_counts(H, pts, side):
    vals = [H.signed(x, y) for x, y in pts.points]
    assert all(v != 0.0 for v in vals), "a point lies on the line"
    want_positive = side == "upper"
    return sum(1 for v in vals if (v > 0.0) == want_positive)


def assert_balanced(P, Q, m, H, side):
    assert side in ("upper", "lower")
    assert side_counts(H, P, side) == m
    assert side_counts(H, Q, side) == m


def random_small_witness(rng):
    """k <= 2 and block sizes <= 3, alternating between arbitrary clouds
    (usually not avoiding) and flat well-separated strips (usually
    avoiding), so both outcomes occur."""
    k = int(rng.integers(1, 3))
    s = int(rng.integers(1, 4))
    half = k * s
    if rng.random() < 0.5:
        pts = rng.uniform(0.0, 100.0, size=(2 * half, 2))
    else:
        a = np.stack([rng.uniform(0, 4, half), rng.uniform(0, 0.1, half)], 1)
        b = np.stack(
            [100 + rng.uniform(0, 4, half), 50 + rng.uniform(0, 0.1, half)], 1
        )
        pts = np.concatenate([a, b])
    blocks = [
        tuple(map(tuple, pts[i * s : (i + 1) * s])) for i in range(2 * k)
    ]
    return AvoidingWitness(blocks[:k], blocks[k:], s / (2.0 * half))


def test_line_validation():
    with pytest.raises(InvalidInputError):
        Line(float("inf"), 0.0)
    with pytest.raises(InvalidInputError):
        Line(1.0, float("nan"))
    assert Line(2, -1).signed(3.0, 6.0) == 1.0


def test_witness_validation():
    good = AvoidingWitness((((0, 0),),), (((1, 2),),), 0.5)
    assert good.k == 1
    with pytest.raises(InvalidInputError):
        AvoidingWitness((((0, 0),),), (((1, 2),), ((3, 4),)), 0.5)
    with pytest.raises(InvalidInputError):
        AvoidingWitness((((0, 0),), ()), (((1, 2),), ((3, 4),)), 0.5)
    with pytest.raises(InvalidInputError):
        AvoidingWitness(
            (((0, 0), (5, 5)), ((6, 6),)), (((1, 2),), ((3, 4),)), 0.5
        )
    with pytest.raises(InvalidInputError):
        AvoidingWitness((((0, 0),),), (((0, 0),),), 0.5)


def test_balanced_line_m_equals_n():
    H, side = balanced_line(FOUR_P, FOUR_Q, X_AXIS, 2)
    assert side == "upper"
    assert side_counts(H, FOUR_P, side) == 2
    assert side_counts(H, FOUR_Q, side) == 2


def test_balanced_line_four_point_example():
    H, side = balanced_line(FOUR_P, FOUR_Q, X_AXIS, 1)
    assert_balanced(FOUR_P, FOUR_Q, 1, H, side)


def test_balanced_line_not_separated():
    mixed_p = PointSet([(0, 1), (2, -3)])
    mixed_q = PointSet([(0, -1), (2, 3)])
    with pytest.raises(InvalidInputError):
        balanced_line(mixed_p, mixed_q, X_AXIS, 1)
    with pytest.raises(InvalidInputError):
        balanced_line(FOUR_P, PointSet([(0, 0), (2, -3)]), X_AXIS, 1)


def test_balanced_line_bad_args():
    with pytest.raises(InvalidInputError):
        balanced_line(FOUR_P, PointSet([(0, -1)]), X_AXIS, 1)
    for m in (0, 3, "1"):
        with pytest.raises(InvalidInputError):
            balanced_line(FOUR_P, FOUR_Q, X_AXIS, m)


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3"])
def test_balanced_line_rejects_non_int_m(bad):
    with pytest.raises(InvalidInputError, match="m must be an int"):
        balanced_line(FOUR_P, FOUR_Q, X_AXIS, bad)


@pytest.mark.parametrize("bad", [True, 2.5, 3.0, "3"])
def test_pipeline_rejects_non_int_k_before_the_line_search(monkeypatch, bad):
    def no_search(*args):
        raise AssertionError("balanced_line ran before k was checked")

    monkeypatch.setattr(avoid, "balanced_line", no_search)
    with pytest.raises(InvalidInputError, match="k must be an int"):
        mutually_avoiding_sets(gen_point_cloud(200, seed=0), bad)


def test_balanced_line_random_counts():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        P = PointSet(
            np.stack([rng.uniform(0, 100, n), rng.uniform(1, 50, n)], 1)
        )
        Q = PointSet(
            np.stack([rng.uniform(0, 100, n), rng.uniform(-50, -1, n)], 1)
        )
        m = int(rng.integers(1, n + 1))
        H, side = balanced_line(P, Q, X_AXIS, m)
        assert_balanced(P, Q, m, H, side)


def test_balanced_line_four_and_thirty_points():
    H, side = balanced_line(FOUR_P, FOUR_Q, X_AXIS, 1)
    assert_balanced(FOUR_P, FOUR_Q, 1, H, side)
    rng = np.random.default_rng(11)
    P = PointSet(np.stack([rng.uniform(0, 9, 30), rng.uniform(1, 9, 30)], 1))
    Q = PointSet(np.stack([rng.uniform(0, 9, 30), rng.uniform(-9, -1, 30)], 1))
    for m in (1, 5, 15, 29):
        H, side = balanced_line(P, Q, X_AXIS, m)
        assert_balanced(P, Q, m, H, side)


@hs.composite
def grid_halves(draw):
    """Two n-point integer sets, n <= 8, on either side of a line of random
    rational slope p/q that no integer point lies on; shared x across the
    sets and collinear points are common."""
    n = draw(hs.integers(1, 8))
    p, q = draw(hs.integers(-4, 4)), draw(hs.integers(1, 3))
    base = [Fraction(2 * p * x + 1, 2 * q) for x in range(-6, 7)]

    def half(above):
        xs = draw(hs.lists(hs.integers(-6, 6), min_size=n, max_size=n, unique=True))
        ds = draw(hs.lists(hs.integers(0, 5), min_size=n, max_size=n))
        ys = [
            math.ceil(base[x + 6]) + d if above else math.floor(base[x + 6]) - d
            for x, d in zip(xs, ds)
        ]
        assume(len(set(ys)) == n)
        return list(zip(xs, ys))

    upper, lower = half(True), half(False)
    P, Q = (upper, lower) if draw(hs.booleans()) else (lower, upper)
    return P, Q, Line(p / q, 1 / (2 * q))


def exact_side_counts(H, pts):
    """Points strictly above and below H, in exact rational arithmetic."""
    t, c = Fraction(H.slope), Fraction(H.intercept)
    vals = [Fraction(y) - (t * x + c) for x, y in pts]
    return sum(v > 0 for v in vals), sum(v < 0 for v in vals)


@settings(max_examples=150, deadline=None)
@given(grid_halves())
# at m = 2 every balancing line has its two points above it and a slope
# below L's: only the half-turn of directions searched second holds one
@example(([(1, -1), (2, -3), (0, 0)], [(-1, 3), (-2, 5), (0, 1)], Line(-1.0, 0.25)))
# four collinear points: no line has one point of each on a side
@example(([(2, 0), (3, 1)], [(0, -2), (1, -1)], Line(-1 / 3, 1 / 6)))
def test_balanced_line_fails_only_without_a_line(halves):
    P, Q, L = halves
    n = len(P)
    for m in range(1, n + 1):
        exists = brute_balanced_line_exists(P, Q, m)
        try:
            H, side = balanced_line(PointSet(P), PointSet(Q), L, m)
        except SearchFailedError:
            assert not exists, m
            continue
        assert exists, m
        (above_p, below_p), (above_q, below_q) = (
            exact_side_counts(H, P), exact_side_counts(H, Q)
        )
        assert above_p + below_p == n and above_q + below_q == n
        want = (m, m) if side == "upper" else (n - m, n - m)
        assert (above_p, above_q) == want


def test_triple_signs_matches_loop():
    rng = np.random.default_rng(4)
    for n in (3, 47, 48, 2000):
        xs, ys = rng.uniform(0, 1000, (2, n))
        want = triple_signs_loop(xs, ys, avoid._TRIPLE_SAMPLE)
        assert np.array_equal(avoid._triple_signs(xs, ys), want)


def test_check_avoiding_examples():
    w = AvoidingWitness(
        (((0, 0),), ((1, 1),)), (((10, 0.4),), ((11, 0.6),)), 0.25
    )
    assert check_avoiding(w)
    straddle = AvoidingWitness(
        (((0, 0),), ((2, 0),)), (((1, 1),), ((1, -1),)), 0.25
    )
    assert not check_avoiding(straddle)
    singletons = AvoidingWitness((((0, 0),),), (((5, 7),),), 0.5)
    assert check_avoiding(singletons)


def test_check_avoiding_collinear():
    w = AvoidingWitness(
        (((0, 0),), ((2, 2),)), (((1, 1),), ((4, 0),)), 0.25
    )
    with pytest.raises(InvalidInputError):
        check_avoiding(w)


def test_check_matches_brute_force():
    rng = np.random.default_rng(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(10_000):
        w = random_small_witness(rng)
        try:
            got = check_avoiding(w)
        except InvalidInputError:
            with pytest.raises(InvalidInputError):
                brute_avoiding_transversals(w)
            continue
        assert got == brute_avoiding_transversals(w)
        outcomes[got] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


def test_pipeline_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        mutually_avoiding_sets(gen_point_cloud(200, seed=0), 0)
    with pytest.raises(InvalidInputError):
        mutually_avoiding_sets(gen_point_cloud(96, seed=0), 2)


@pytest.mark.parametrize("n", [30, 40, 60, 130])
def test_pipeline_rejects_collinear_points(n):
    P = PointSet([(i, 2 * i + 1) for i in range(n)])
    with pytest.raises(InvalidInputError, match="general position"):
        mutually_avoiding_sets(P, 1)
    if n >= 24 * 4 + 6:
        with pytest.raises(InvalidInputError, match="general position"):
            mutually_avoiding_sets(P, 2)


@pytest.mark.filterwarnings("error")
def test_pipeline_rejects_overflowing_coordinates_before_any_product():
    pts = np.array(gen_point_cloud(30, seed=3).points)
    pts[4, 0] = 1e308
    with pytest.raises(PreconditionError, match="orientation products"):
        mutually_avoiding_sets(PointSet(pts), 1)
    pts[4, 0] = -np.nextafter(avoid._MAX_COORD, math.inf)
    with pytest.raises(PreconditionError):
        mutually_avoiding_sets(PointSet(pts), 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 5])
def test_pipeline_at_the_coordinate_bound(seed):
    # a cloud spread over [-2^510, 2^510], corners included, runs warning-free
    pts = (np.array(gen_point_cloud(200, seed=seed).points) / 500.0 - 1.0) * avoid._MAX_COORD
    pts[0] = (avoid._MAX_COORD, -avoid._MAX_COORD)
    w = mutually_avoiding_sets(PointSet(pts), 2)
    assert w.k == 2 and check_avoiding(w)


def test_pipeline_size_boundary():
    # the slab holds n // 6 points and its depth 2k+1 extraction needs more
    # than 4k^2 of them, so 24k^2 + 6 is the smallest accepted size
    for k in (1, 2, 3):
        least = 24 * k * k + 6
        with pytest.raises(InvalidInputError, match=f"at least {least} points"):
            mutually_avoiding_sets(gen_point_cloud(least - 1, seed=34), k)
        for seed in (0, 34):
            w = mutually_avoiding_sets(gen_point_cloud(least, seed=seed), k)
            assert w.k == k
            assert check_avoiding(w)


def test_pipeline_k1_vacuous():
    w = mutually_avoiding_sets(gen_point_cloud(30, seed=2), 1)
    assert w.k == 1
    assert check_avoiding(w)


def test_pipeline_2000_pinned():
    p = gen_point_cloud(2000, seed=7)
    w = mutually_avoiding_sets(p, 2)
    assert check_avoiding(w)
    assert len(w.a_blocks[0]) == 15
    assert len(w.b_blocks[0]) == 6
    assert w.guarantee == 6 / 2000
    pts = set(p.points)
    for block in w.a_blocks + w.b_blocks:
        assert pts.issuperset(block)
    again = mutually_avoiding_sets(p, 2)
    assert again == w


def test_pipeline_many_seeds():
    for seed in range(6):
        for k in (2, 3):
            w = mutually_avoiding_sets(gen_point_cloud(700, seed=seed), k)
            assert check_avoiding(w)
            assert len({len(b) for b in w.a_blocks}) == 1
            assert len({len(b) for b in w.b_blocks}) == 1


def test_grid_cluster_sizes_bounded():
    beta = 0.15
    for k in (2, 3):
        p = gen_grid_clusters(k, 30, seed=1)
        w = mutually_avoiding_sets(p, k)
        assert check_avoiding(w)
        cap = beta * len(p) / k**2
        assert len(w.a_blocks[0]) <= cap
        assert len(w.b_blocks[0]) <= cap


def test_generators():
    p = gen_point_cloud(50, seed=5)
    assert len(p) == 50
    assert p == gen_point_cloud(50, seed=5)
    g = gen_grid_clusters(3, 4, seed=0)
    assert len(g) == 36
    with pytest.raises(InvalidInputError):
        gen_point_cloud(0)
    with pytest.raises(InvalidInputError):
        gen_grid_clusters(2, 3, jitter=0.7)
    for box in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="box"):
            gen_point_cloud(5, box=box)
