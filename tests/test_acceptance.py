"""Acceptance gate: one test per shipped guarantee, ten in total.

Each test is self-contained (own seeds, own tolerances) and asserts the
contract the package ships with, so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line per criterion.  Pinned integers were
produced by a first run cross-checked against the brute-force references in
`brutes.py` / `blockseq.oracle` and frozen; a drift in any of them is a
behavior change, not noise.
"""

import gc
import json
import math
import pathlib
import random
import statistics
import time
from collections import deque
from itertools import permutations

import numpy as np

from blockseq import (
    AvoidingWitness,
    BIARCS,
    DEC,
    INC,
    InvalidInputError,
    OrderedGraph,
    Page,
    Sequence,
    UPPER_ARCS,
    biarc,
    check_avoiding,
    count_page_crossings,
    depth1_block_path,
    extract_block_monotone,
    gapped_chain_dp,
    gen_clustered,
    gen_es_extremal,
    gen_point_cloud,
    gen_random,
    gen_random_coloring,
    gen_recursive_coloring,
    greedy_partition,
    longest_monochromatic_path,
    longest_monotone,
    max_gapped_blocksize,
    mutually_avoiding_sets,
    paginate,
    partition_sequence,
    validate_block_path,
    validate_block_witness,
)
from blockseq.cli import run
from blockseq.oracle import (
    brute_avoiding_transversals,
    brute_crossings_geometric,
    brute_longest_monotone,
    max_blocksize_exact,
)
from blockseq.rangecount import build_counter, count_open_box
from brutes import brute_chain_tables

# Pinned regression values (first oracle-verified run, see module docstring).
CLUSTERED_S_STAR = {(2, 4): 2, (2, 8): 6, (3, 4): 2, (3, 8): 6}
PARTITION_PARTS = {
    (1000, 2): 29,
    (1000, 3): 40,
    (1000, 5): 38,
    (10000, 2): 32,
    (10000, 3): 64,
    (10000, 5): 119,
}
# Page-count bound constant per pagination depth: the conservative (max
# over n) pinned partition part count for that k.
C_K = {
    k: max(v for (_, kk), v in PARTITION_PARTS.items() if kk == k)
    for k in (2, 3, 5)
}


def test_criterion_01_monotone_floor_and_brute_equality():
    t0 = time.perf_counter()
    # floor: every permutation of 50 entries has a monotone run of >= 8
    for seed in range(1000):
        _, ids = longest_monotone(gen_random(50, seed=seed))
        assert len(ids) >= 8
    # exactness: agree with the exponential reference on every small fixture
    fixtures = [gen_random(n, seed=seed) for n in range(1, 21) for seed in range(5)]
    fixtures += [gen_es_extremal(k) for k in (2, 3, 4)]
    fixtures += [
        gen_clustered(k, s, inner=inner)
        for k, s in ((2, 2), (2, 4), (3, 2))
        for inner in ("increasing", "decreasing")
    ]
    for seq in fixtures:
        assert len(seq) <= 20
        _, ids = longest_monotone(seq)
        assert len(ids) == brute_longest_monotone(seq)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_extraction_validity_and_scaling():
    # untimed warm-up run, so first-call costs never land in a measured run
    extract_block_monotone(gen_random(200, seed=99), 2, c=2)

    for n in (100, 1000, 4000):
        for k in range(2, 7):
            seq = gen_random(n, seed=10 * k + 1)
            for c in (None, 2):
                w = extract_block_monotone(seq, k, c)
                assert validate_block_witness(seq, w)
                assert w.depth >= k
            # non-fallback branch: c=2 keeps (ck)^2 below n for most cells
            if n >= (2 * k) ** 2:
                w = extract_block_monotone(seq, k, 2)
                assert w.block_size >= math.ceil(n / (2 * k) ** 2)

    def best_time(n):
        seq = gen_random(n, seed=5)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            extract_block_monotone(seq, 3, c=2)
            times.append(time.perf_counter() - t0)
        return min(times)

    t1000, t2000, t4000 = best_time(1000), best_time(2000), best_time(4000)
    assert t2000 / t1000 <= 4.6, (t1000, t2000)
    assert t4000 / t2000 <= 4.6, (t2000, t4000)


def test_criterion_03_dp_matches_exhaustive_chain_search():
    queries = mismatches = 0

    def compare(vals):
        nonlocal queries, mismatches
        seq = Sequence(vals)
        for s in (1, 2, 3):
            for direction in (INC, DEC):
                _, brute_best = brute_chain_tables(vals, s, direction)
                if gapped_chain_dp(seq, s, direction).length != brute_best:
                    mismatches += 1
                queries += 1

    # every pattern up to length 7, exhaustively
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            compare([float(x) for x in perm])
    # seeded distinct-value sequences covering lengths 8..12
    rng = random.Random(20260823)
    for _ in range(10_800):
        n = rng.randint(8, 12)
        compare([float(x) for x in rng.sample(range(1, 1000), n)])

    assert queries >= 100_000, queries
    assert mismatches == 0


def test_criterion_04_clustered_blocksize_gap():
    for (k, s), pinned in CLUSTERED_S_STAR.items():
        seq = gen_clustered(k, s, inner="decreasing")
        n = len(seq)
        assert n == k * k * s
        s_star, w = max_gapped_blocksize(seq, k)
        assert s_star == pinned
        assert s_star <= s  # the gapped route is capped at n/k^2 exactly
        assert validate_block_witness(seq, w) and w.depth >= k
        # independent confirmation: the exponential DFS agrees on the
        # largest feasible gap
        vals = list(seq.values)
        feasible = [
            g
            for g in range(1, (n - k - 1) // k + 1)
            if max(
                brute_chain_tables(vals, g, INC)[1],
                brute_chain_tables(vals, g, DEC)[1],
            )
            >= k + 1
        ]
        assert max(feasible) == s_star
        # contrast: unconstrained blocks reach the full k*s runs
        assert max_blocksize_exact(seq, k) == k * s


def test_criterion_05_ramsey_paths():
    # the recursive product coloring is exactly tight
    for q in (1, 2, 3):
        for k in (1, 2, 3, 4):
            coloring = gen_recursive_coloring(k, q)
            color, path = longest_monochromatic_path(coloring)
            assert len(path) == k
            assert all(a < b for a, b in zip(path, path[1:]))
            assert all(
                coloring.color(a, b) == color for a, b in zip(path, path[1:])
            )
    # random colorings never dip below the guaranteed exponent
    for q in (2, 3):
        for n in (81, 125):
            for seed in range(10):
                coloring = gen_random_coloring(n, q, seed=seed)
                _, path = longest_monochromatic_path(coloring)
                assert len(path) >= math.ceil(n ** (1.0 / q))
    # depth-1 block path on a large random 2-coloring
    coloring = gen_random_coloring(3000, 2, seed=0)
    w = depth1_block_path(coloring)
    assert w is not None and validate_block_path(coloring, w)
    assert w.block_size >= 3  # ceil(N / (q * 3^(3q))) at N=3000, q=2


def test_criterion_06_partition_cover_and_pinned_counts():
    for (n, k), pinned in PARTITION_PARTS.items():
        seq = gen_random(n, seed=k)
        t0 = time.perf_counter()
        lp = partition_sequence(seq, k)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0

        covered = sorted(
            [i for ids, _ in lp.parts for i in ids] + list(lp.remainder)
        )
        assert covered == list(range(1, n + 1))
        for ids, w in lp.parts:
            assert validate_block_witness(seq, w)
            assert w.depth >= k
            assert list(ids) == sorted(i for b in w.blocks for i in b)
        assert len(lp.remainder) <= (k - 1) ** 2
        assert lp.metrics["iterations"] <= 12 * k
        sums = [l + t for l, t in lp.metrics["lt_history"]]
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert all(sums[i + 2] > sums[i] for i in range(len(sums) - 2))
        assert lp.metrics["parts"] == len(lp.parts) == pinned

        g = greedy_partition(seq, k)
        assert len(g.parts) <= 2 * k * math.log2(n) + k


def test_criterion_07_avoiding_families():
    for n in (500, 2000):
        for k in (2, 3):
            for seed in range(5):
                w = mutually_avoiding_sets(gen_point_cloud(n, seed=seed), k)
                assert check_avoiding(w)
    # randomized agreement with the transversal-enumeration reference
    rng = np.random.default_rng(424242)
    compared = 0
    outcomes = {True: 0, False: 0}
    attempts = 0
    while compared < 10_000:
        attempts += 1
        assert attempts < 60_000
        k = int(rng.integers(1, 3))
        s = int(rng.integers(1, 4))
        half = k * s
        if rng.random() < 0.5:
            pts = rng.uniform(0.0, 100.0, size=(2 * half, 2))
        else:
            a = np.stack([rng.uniform(0, 4, half), rng.uniform(0, 0.1, half)], 1)
            b = np.stack(
                [100 + rng.uniform(0, 4, half), 50 + rng.uniform(0, 0.1, half)],
                1,
            )
            pts = np.concatenate([a, b])
        blocks = [
            tuple(map(tuple, pts[i * s : (i + 1) * s])) for i in range(2 * k)
        ]
        w = AvoidingWitness(blocks[:k], blocks[k:], s / (2.0 * half))
        try:
            got = check_avoiding(w)
        except InvalidInputError:
            continue
        assert got == brute_avoiding_transversals(w)
        outcomes[got] += 1
        compared += 1
    assert outcomes[True] > 100 and outcomes[False] > 100


def _random_graph(rng, n, m):
    ranks = sorted(rng.sample(range(n * (n - 1) // 2), m))
    edges = []
    for t in ranks:
        l, rem = 1, t
        while rem >= n - l:
            rem -= n - l
            l += 1
        edges.append((l, l + rem + 1))
    return OrderedGraph(n, tuple(sorted(edges)))


def test_criterion_08_pagination_budgets_and_geometry():
    rng = random.Random(20260823)
    # pair every partition part with the layout built from it (FIFO: the
    # builder lays out all of a split's parts before recursing)
    queue = deque()
    orig_pm = biarc.partition_multiset
    orig_layout = biarc._layout

    def pm_recording(values, k):
        parts, deleted = orig_pm(values, k)
        queue.extend((w.depth, w.block_size) for w in parts)
        queue.extend((1, 1) for _ in deleted)
        return parts, deleted

    def checked_layout(edges, b, n, is_biarc):
        layout = orig_layout(edges, b, n, is_biarc)
        page = Page(edges, BIARCS if is_biarc else UPPER_ARCS, b, layout)
        depth, size = queue.popleft()
        assert count_page_crossings(page) <= depth * math.comb(size, 2)
        return layout

    biarc.partition_multiset = pm_recording
    biarc._layout = checked_layout
    try:
        for m, n in ((200, 60), (2000, 120)):
            g = _random_graph(rng, n, m)
            for eps in (0.5, 0.2):
                queue.clear()
                pp = paginate(g, eps)
                assert not queue

                got = sorted(e for p in pp.pages for e in p.edges)
                assert got == sorted(g.edges)
                for p in pp.pages:
                    assert count_page_crossings(p) <= eps * p.size**2

                k = max(2, math.ceil(1 / eps))
                bound = (C_K[k] + (k - 1) ** 2) * math.ceil(math.log2(m))
                assert len(pp.pages) <= bound

                # per-pair geometric recount on sampled two-edge sub-pages
                big = [p for p in pp.pages if p.size >= 2]
                for _ in range(500):
                    p = big[rng.randrange(len(big))]
                    i, j = sorted(rng.sample(range(p.size), 2))
                    entries = (p.layout[i], p.layout[j])
                    style = (
                        BIARCS
                        if any(e[1] is not None for e in entries)
                        else UPPER_ARCS
                    )
                    sub = Page(
                        (p.edges[i], p.edges[j]), style, p.split_b, entries
                    )
                    assert count_page_crossings(sub) == brute_crossings_geometric(
                        sub
                    )
    finally:
        biarc.partition_multiset = orig_pm
        biarc._layout = orig_layout


def test_criterion_09_range_counter_exactness_and_build_trend():
    n = 5000
    seq = gen_random(n, seed=3)
    counter = build_counter(seq)
    rng = np.random.default_rng(42)
    q = 100_000
    a1, a2 = rng.integers(0, n + 1, q), rng.integers(0, n + 2, q)
    i_lo, i_hi = np.minimum(a1, a2), np.maximum(a1, a2) + 1
    b1, b2 = rng.uniform(0, n + 1, q), rng.uniform(0, n + 1, q)
    v_lo, v_hi = np.minimum(b1, b2), np.maximum(b1, b2) + 1e-9

    got = np.fromiter(
        (
            count_open_box(counter, int(a), int(b), float(c), float(d))
            for a, b, c, d in zip(i_lo, i_hi, v_lo, v_hi)
        ),
        dtype=np.int64,
        count=q,
    )
    vals = np.asarray(seq.values)
    idx = np.arange(1, n + 1)
    naive = np.empty(q, dtype=np.int64)
    for lo in range(0, q, 2000):
        hi = min(lo + 2000, q)
        inside = (
            (idx[None, :] > i_lo[lo:hi, None])
            & (idx[None, :] < i_hi[lo:hi, None])
            & (vals[None, :] > v_lo[lo:hi, None])
            & (vals[None, :] < v_hi[lo:hi, None])
        )
        naive[lo:hi] = inside.sum(axis=1)
    assert int((got != naive).sum()) == 0

    # Each round builds both sizes back to back and the test takes the median
    # round's ratio, with the collector off as timeit does: the machine's
    # speed shifts between rounds, and a collection can land in any build.
    big = gen_random(2 * n, seed=3)
    ratios = []
    gc.disable()
    try:
        for _ in range(7):
            t0 = time.perf_counter()
            build_counter(seq)
            t1 = time.perf_counter()
            build_counter(big)
            ratios.append((time.perf_counter() - t1) / (t1 - t0))
    finally:
        gc.enable()
    assert statistics.median(ratios) <= 2.4


def test_criterion_10_cli_byte_determinism(tmp_path):
    def pipeline(root: pathlib.Path):
        root.mkdir(exist_ok=True)
        f = lambda name: str(root / name)
        cmds = [
            ["gen", "--kind", "sequence", "--n", "300", "--seed", "11",
             "--out", f("seq.json")],
            ["gen", "--kind", "points", "--n", "500", "--seed", "12",
             "--out", f("pts.json")],
            ["gen", "--kind", "graph", "--n", "50", "--m", "260", "--seed",
             "13", "--out", f("graph.json")],
            ["extract", "--k", "3", "--c", "2", "--in", f("seq.json"),
             "--out", f("wit.json")],
            ["partition", "--k", "2", "--in", f("seq.json"),
             "--out", f("part.json")],
            ["gen", "--kind", "coloring", "--n", "60", "--q", "2",
             "--seed", "14", "--out", f("col.json")],
            ["ramsey", "--mode", "search", "--in", f("col.json"),
             "--out", f("path.json")],
            ["avoid", "--k", "2", "--in", f("pts.json"),
             "--out", f("avoid.json")],
            ["paginate", "--epsilon", "0.4", "--in", f("graph.json"),
             "--out", f("pages.json"), "--svg", f("pages.svg")],
            ["render", "--in", f("pages.json"), "--out", f("render.svg")],
        ]
        for argv in cmds:
            res = run(argv)
            assert res.exit_code == 0, (argv, res.log)
        verify = run(["verify", "--all", str(root)])
        assert verify.exit_code == 0
        return sorted(
            e for e in (json.dumps(x, sort_keys=True) for x in verify.log)
        )

    log_a = pipeline(tmp_path / "a")
    log_b = pipeline(tmp_path / "b")

    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert names_a == names_b and len(names_a) == 11
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    # verify's structured output is deterministic too, path prefix aside
    strip = lambda lines, tag: [x.replace(tag, "") for x in lines]
    assert strip(log_a, str(tmp_path / "a")) == strip(log_b, str(tmp_path / "b"))
