"""Tests for balanced-line search and mutually avoiding families."""

import math

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
from blockseq.errors import InvalidInputError, SearchFailedError
from blockseq.oracle import brute_avoiding_transversals
from blockseq.partition import PointSet
from brutes import probe_slopes_loop, triple_signs_loop

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


def test_balanced_line_pair_scan_fallback(monkeypatch):
    monkeypatch.setattr(avoid, "_PROBE_CAP", 0)
    H, side = balanced_line(FOUR_P, FOUR_Q, X_AXIS, 1)
    assert_balanced(FOUR_P, FOUR_Q, 1, H, side)
    rng = np.random.default_rng(11)
    P = PointSet(np.stack([rng.uniform(0, 9, 30), rng.uniform(1, 9, 30)], 1))
    Q = PointSet(np.stack([rng.uniform(0, 9, 30), rng.uniform(-9, -1, 30)], 1))
    for m in (1, 5, 15, 29):
        H, side = balanced_line(P, Q, X_AXIS, m)
        assert_balanced(P, Q, m, H, side)


def separated_coords(rng, n):
    """Coordinates of two n-point sets strictly above and below the x-axis."""
    px, qx = rng.uniform(0, 100, (2, n))
    py = rng.uniform(1, 50, n)
    qy = rng.uniform(-50, -1, n)
    return px, py, qx, qy


def test_probe_directions_matches_loop(monkeypatch):
    rng = np.random.default_rng(8)
    outcomes = {True: 0, False: 0}
    full = avoid._PROBE_CELLS
    # caps: a multiple of the batch, a partial last batch, a single slope,
    # none at all, and the default; cells: full batches and 3-row batches
    for cap, cells in ((128, full), (100, full), (1, full), (0, full),
                       (avoid._PROBE_CAP, 100)):
        monkeypatch.setattr(avoid, "_PROBE_CAP", cap)
        monkeypatch.setattr(avoid, "_PROBE_CELLS", cells)
        for n in (1, 2, 3, 4, 7, 30, 61):
            for m in sorted({1, max(1, n - 1), max(1, n // 2), n}):
                px, py, qx, qy = separated_coords(rng, n)
                got = avoid._probe_directions(px, py, qx, qy, m, n)
                want = probe_slopes_loop(px, py, qx, qy, m, n, cap)
                if got is None:
                    assert want is None
                else:
                    H, side = got
                    assert (H.slope, H.intercept, side) == want
                outcomes[got is None] += 1
    assert outcomes[True] > 10 and outcomes[False] > 10


def test_probe_slopes_round_like_math_tan():
    # np.tan and math.tan round the 41st slope draw differently; only that
    # slope falls in this instance's window of width about 3.4e-4
    draws = np.random.default_rng(1).uniform(-1.57, 1.57, 41)
    t0 = math.tan(draws[40])
    assert np.tan(draws)[40] != t0
    qx = np.array([0.0, 1.0])
    qy = np.array([-1.0, -1.0 - t0])
    px = np.array([1e4, 1e4 + 1.0])
    py = -1.0 + t0 * 1e4 + np.array([1.0, -1.0])
    H, side = avoid._probe_directions(px, py, qx, qy, 1, 2)
    assert H.slope == t0
    assert (H.slope, H.intercept, side) == probe_slopes_loop(
        px, py, qx, qy, 1, 2, avoid._PROBE_CAP
    )


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
