"""Tests for ordered-graph pagination with per-page crossing budgets."""

import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from blockseq import biarc
from blockseq.biarc import (
    BIARCS,
    UPPER_ARCS,
    OrderedGraph,
    Page,
    PagePartition,
    count_page_crossings,
    half_split,
    paginate,
    partition_multiset,
    spine_crossing,
)
from blockseq.cli import _random_graph
from blockseq.core import DEC, INC, gen_random
from blockseq.errors import InvalidInputError, PreconditionError
from blockseq.oracle import brute_crossings_geometric
from brutes import brute_interleavings

PATH5 = OrderedGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
STAR5 = OrderedGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
NESTED4 = OrderedGraph(8, ((1, 8), (2, 7), (3, 6), (4, 5)))


def arc_page(edges, b=1):
    layout = tuple(((float(l), float(r)), None) for l, r in edges)
    return Page(tuple(edges), UPPER_ARCS, b, layout)


def biarc_page(edges, b, n):
    layout = []
    for l, r in edges:
        c = spine_crossing(l, r, b, n)
        layout.append(((float(l), c), (c, float(r))))
    return Page(tuple(edges), BIARCS, b, tuple(layout))


def random_graph(rng, n, m):
    pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = rng.choice(len(pool), size=m, replace=False)
    return OrderedGraph(n, tuple(pool[i] for i in sorted(picked)))


def spanning_edges(rng, b, n, m):
    """Random distinct edges that all span b, in lex order."""
    pool = [(i, j) for i in range(1, b + 1) for j in range(b + 1, n + 1)]
    picked = rng.choice(len(pool), size=m, replace=False)
    return tuple(pool[i] for i in sorted(picked))


def interleave(s, t):
    (a1, a2), (b1, b2) = s, t
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def assert_part_valid(values, witness, k):
    blocks = witness.blocks
    assert len(blocks) >= k
    assert len({len(b) for b in blocks}) == 1
    assert all(blocks)
    for earlier, later in zip(blocks, blocks[1:]):
        assert max(earlier) < min(later)
        evals = [values[i - 1] for i in earlier]
        lvals = [values[i - 1] for i in later]
        if witness.direction == INC:
            assert max(evals) <= min(lvals)
        else:
            assert min(evals) >= max(lvals)


def test_ordered_graph_validation():
    g = OrderedGraph(3, ((1, 2), (1, 3)))
    assert g.n == 3 and g.edges == ((1, 2), (1, 3))
    with pytest.raises(InvalidInputError):
        OrderedGraph(3, ((1, 2), (1, 2)))
    with pytest.raises(InvalidInputError):
        OrderedGraph(3, ((2, 1),))
    with pytest.raises(InvalidInputError):
        OrderedGraph(3, ((1, 4),))
    with pytest.raises(InvalidInputError):
        OrderedGraph(0, ())
    with pytest.raises(InvalidInputError):
        OrderedGraph(3, ((1, 1),))


def test_half_split_examples():
    assert half_split(PATH5) == 3
    assert half_split(OrderedGraph(2, ((1, 2),))) == 1
    assert half_split(STAR5) == 3


def test_half_split_balances_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = random_graph(rng, n, m)
        b = half_split(g)
        left = sum(1 for _, r in g.edges if r <= b)
        right = sum(1 for l, _ in g.edges if l > b)
        assert 2 * left <= m
        assert 2 * right <= m


def test_half_split_is_the_largest_balanced_vertex():
    """The closed form agrees with a sweep over every vertex."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        g = random_graph(rng, n, m)
        sweep = max(b for b in range(1, n + 1) if 2 * sum(r <= b for _, r in g.edges) <= m)
        assert half_split(g) == sweep


def test_half_split_costs_nothing_per_spine_vertex():
    tracemalloc.start()
    try:
        b = half_split(OrderedGraph(10**10, ((1, 2), (2, 7), (4, 6))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b == 5 and peak < 64 * 1024


def test_half_split_needs_edges():
    with pytest.raises(InvalidInputError):
        half_split(OrderedGraph(3, ()))


def test_spine_crossing_value_and_range():
    assert spine_crossing(2, 7, 4, 10) == pytest.approx(4.765, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        b = int(rng.integers(1, n))
        l = int(rng.integers(1, b + 1))
        r = int(rng.integers(b + 1, n + 1))
        c = spine_crossing(l, r, b, n)
        assert b < c < b + 1
    with pytest.raises(InvalidInputError):
        spine_crossing(5, 7, 4, 10)
    with pytest.raises(InvalidInputError):
        spine_crossing(2, 4, 4, 10)
    with pytest.raises(InvalidInputError):
        spine_crossing(2, 11, 4, 10)
    with pytest.raises(InvalidInputError):
        spine_crossing(2.0, 7, 4, 10)


def test_spine_crossings_distinct_and_reverse_lex():
    n, b = 30, 15
    rng = np.random.default_rng(6)
    edges = spanning_edges(rng, b, n, 60)
    cs = [spine_crossing(l, r, b, n) for l, r in edges]
    assert len(set(cs)) == len(cs)
    assert all(x > y for x, y in zip(cs, cs[1:]))


def test_partition_multiset_all_equal():
    parts, deleted = partition_multiset([5.0] * 6, 2)
    assert deleted == ()
    assert len(parts) == 1
    assert parts[0].direction == INC
    assert sorted(i for blk in parts[0].blocks for i in blk) == list(range(1, 7))
    assert_part_valid([5.0] * 6, parts[0], 2)


def test_partition_multiset_decreasing():
    values = list(range(10, 0, -1))
    parts, deleted = partition_multiset(values, 2)
    assert deleted == ()
    assert len(parts) == 1
    assert parts[0].direction == DEC
    assert_part_valid(values, parts[0], 2)


def test_partition_multiset_bipartite_rights():
    rng = np.random.default_rng(5)
    edges = spanning_edges(rng, 15, 30, 80)
    rights = [r for _, r in edges]
    parts, deleted = partition_multiset(rights, 4)
    assert len(deleted) <= 9
    covered = sorted(deleted)
    for w in parts:
        assert_part_valid(rights, w, 4)
        covered.extend(i for blk in w.blocks for i in blk)
    assert sorted(covered) == list(range(1, len(rights) + 1))


def test_partition_multiset_large_random_within_part_cap():
    # a cut longest monotone run alone leaves blocks of about 2*sqrt(m)/k
    # points, which at this size needs more parts than the cap allows; every
    # extraction must also run the exact gapped search
    values = gen_random(8000, seed=3).values
    parts, deleted = partition_multiset(values, 2)
    assert biarc._part_cap(2) == 48
    assert len(parts) <= biarc._part_cap(2)
    assert len(deleted) <= 1
    covered = sorted([i for w in parts for blk in w.blocks for i in blk] + list(deleted))
    assert covered == list(range(1, len(values) + 1))


def test_partition_multiset_validation():
    assert partition_multiset([], 2) == ((), ())
    with pytest.raises(InvalidInputError):
        partition_multiset([1.0, 2.0], 1)
    with pytest.raises(InvalidInputError):
        partition_multiset([1.0, 2.0], "2")
    with pytest.raises(InvalidInputError):
        partition_multiset([1.0, float("nan")], 2)
    with pytest.raises(InvalidInputError):
        partition_multiset([1.0, True], 2)


def test_partition_multiset_ranks_big_ints_exactly():
    # float(2**53 + 1) == float(2**53): a float64 cast would tie them and rank
    # them by position, as if increasing; 10**400 has no float at all
    assert partition_multiset([2**53 + 1, 2**53], 2) == partition_multiset([2, 1], 2)
    assert partition_multiset([10**400, 1], 2) == partition_multiset([2, 1], 2)


ONE_ARC = (((1.0, 2.0), None),)

# public constructor calls that once raised an untyped error or accepted bad input
BAD_CALLS = {
    "page edge of three ints": lambda: Page([(1, 2, 3)], UPPER_ARCS, 1, ONE_ARC),
    "page edge not a pair": lambda: Page([1], UPPER_ARCS, 1, ONE_ARC),
    "page layout entry not a pair": lambda: Page([(1, 2)], UPPER_ARCS, 1, [5]),
    "page span of a string": lambda: Page(
        [(1, 4)], BIARCS, 2, [((1.0, "x"), ("x", 4.0))]
    ),
    "page edges not iterable": lambda: Page(None, UPPER_ARCS, 1, ONE_ARC),
    "partition epsilon a string": lambda: PagePartition((arc_page(((1, 2),)),), "0.5", (0,)),
    "partition epsilon a bool": lambda: PagePartition((arc_page(((1, 2),)),), True, (0,)),
    "partition epsilon None": lambda: PagePartition((arc_page(((1, 2),)),), None, (0,)),
    "partition epsilon a list": lambda: PagePartition((arc_page(((1, 2),)),), [0.5], (0,)),
    "partition metrics None": lambda: PagePartition((arc_page(((1, 2),)),), 0.5, None),
    "multiset values an int": lambda: partition_multiset(5, 2),
    "graph edges None": lambda: OrderedGraph(3, None),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_public_constructors_raise_typed_errors(case):
    with pytest.raises(InvalidInputError):
        BAD_CALLS[case]()


def test_paginate_single_edge():
    pp = paginate(OrderedGraph(2, ((1, 2),)), 0.3)
    assert len(pp.pages) == 1
    assert pp.pages[0].edges == ((1, 2),)
    assert pp.pages[0].style == UPPER_ARCS
    assert pp.metrics == (0,)


def test_paginate_nested_matching_no_crossings():
    pp = paginate(NESTED4, 0.5)
    assert pp.total_crossings == 0
    assert all(c == 0 for c in pp.metrics)
    drawn = sorted(e for p in pp.pages for e in p.edges)
    assert drawn == sorted(NESTED4.edges)


def test_crossing_count_examples():
    assert count_page_crossings(arc_page(((1, 4), (2, 6)))) == 1
    assert count_page_crossings(arc_page(((1, 6), (2, 5)))) == 0
    # Biarcs meeting the spine between b=4 and 5 on a 10-vertex spine:
    # with rights in lex order the lower spans nest, so no crossing; an
    # inversion in the rights makes the lower spans interleave.
    straight = biarc_page(((1, 5), (2, 6)), 4, 10)
    assert count_page_crossings(straight) == 0
    inverted = biarc_page(((1, 6), (2, 5)), 4, 10)
    up1, up2 = inverted.upper_spans()
    lo1, lo2 = inverted.lower_spans()
    assert not interleave(up1, up2) and up1[0] < up2[0] < up2[1] < up1[1]
    assert interleave(lo1, lo2)
    assert count_page_crossings(inverted) == 1


@pytest.mark.parametrize("chunk", [5, 256])
def test_interleavings_match_pair_loop(monkeypatch, chunk):
    # small integer endpoints, so many spans share an endpoint or repeat
    monkeypatch.setattr(biarc, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(150):
        m = int(rng.integers(0, 40))
        ends = np.sort(rng.integers(0, 25, size=(m, 2)), axis=1)
        spans = [(float(a), float(b)) for a, b in ends if a < b]
        assert biarc._interleavings(spans) == brute_interleavings(spans)


def test_crossings_match_geometric_oracle():
    rng = np.random.default_rng(3)
    pairs = 0
    seen_nonzero = False
    for _ in range(12):
        n, b = 60, 30
        m = int(rng.integers(10, 28))
        page = biarc_page(spanning_edges(rng, b, n, m), b, n)
        combinatorial = count_page_crossings(page)
        assert combinatorial == brute_crossings_geometric(page)
        seen_nonzero = seen_nonzero or combinatorial > 0
        pairs += 2 * math.comb(m, 2)
    for _ in range(6):
        m = int(rng.integers(8, 20))
        page = arc_page(spanning_edges(rng, 25, 50, m))
        assert count_page_crossings(page) == brute_crossings_geometric(page)
        pairs += math.comb(m, 2)
    assert pairs >= 500
    assert seen_nonzero


def blocky_rights(base_windows, pattern):
    """Rights values grouped in windows, scrambled inside each window."""
    return [base + off for base in base_windows for off in pattern]


def test_cross_block_pairs_never_cross_explicit():
    # Six blocks of four edges: rights nondecreasing across blocks but
    # scrambled inside, so every crossing stays within one block.
    n, b = 70, 30
    pattern = (3, 1, 2, 0)  # 5 inversions per block
    rights = blocky_rights([31 + 6 * j for j in range(6)], pattern)
    edges = tuple((i + 1, r) for i, r in enumerate(rights))
    blocks = tuple(tuple(range(4 * j + 1, 4 * j + 5)) for j in range(6))
    page = biarc_page(edges, b, n)
    uppers, lowers = page.upper_spans(), page.lower_spans()
    for blk_a, blk_b in combinations(blocks, 2):
        for i in blk_a:
            for j in blk_b:
                assert not interleave(uppers[i - 1], uppers[j - 1])
                assert not interleave(lowers[i - 1], lowers[j - 1])
    assert count_page_crossings(page) == 6 * 5
    assert count_page_crossings(page) <= len(blocks) * math.comb(4, 2)
    assert brute_crossings_geometric(page) == 6 * 5

    # Nonincreasing variant on plain upper arcs: crossing pairs are the
    # rising pairs inside a block, one per window for this pattern.
    rights_dec = blocky_rights([61 - 6 * j for j in range(6)], pattern)
    edges_dec = tuple((i + 1, r) for i, r in enumerate(rights_dec))
    page_dec = arc_page(edges_dec, b)
    uppers = page_dec.upper_spans()
    for blk_a, blk_b in combinations(blocks, 2):
        for i in blk_a:
            for j in blk_b:
                assert not interleave(uppers[i - 1], uppers[j - 1])
    assert count_page_crossings(page_dec) == 6 * 1
    assert brute_crossings_geometric(page_dec) == 6 * 1


def test_cross_block_pairs_never_cross_partitioned():
    rng = np.random.default_rng(11)
    n, b, k = 300, 150, 3
    edges = spanning_edges(rng, b, n, 120)
    rights = [r for _, r in edges]
    parts, _ = partition_multiset(rights, k)
    checked = 0
    for w in parts:
        ids = sorted(i for blk in w.blocks for i in blk)
        pos = {i: t for t, i in enumerate(ids)}
        part_edges = tuple(edges[i - 1] for i in ids)
        if w.direction == INC:
            page = biarc_page(part_edges, b, n)
        else:
            page = arc_page(part_edges, b)
        uppers = page.upper_spans()
        lowers = page.lower_spans() or uppers
        for blk_a, blk_b in combinations(w.blocks, 2):
            for i in blk_a:
                for j in blk_b:
                    assert not interleave(uppers[pos[i]], uppers[pos[j]])
                    assert not interleave(lowers[pos[i]], lowers[pos[j]])
                    checked += 1
        s = len(w.blocks[0])
        assert count_page_crossings(page) <= len(w.blocks) * math.comb(s, 2)
    assert checked > 50


def test_paginate_random_large():
    rng = np.random.default_rng(0)
    g = random_graph(rng, 120, 2000)
    eps = 0.2
    pp = paginate(g, eps)
    drawn = sorted(e for p in pp.pages for e in p.edges)
    assert drawn == sorted(g.edges)
    for page, count in zip(pp.pages, pp.metrics):
        assert count == count_page_crossings(page)
        assert count <= eps * page.size**2
    k = math.ceil(1 / eps)
    cap = math.ceil(12 * k * k * max(1.0, math.log2(k))) + (k - 1) ** 2
    assert len(pp.pages) <= cap * math.ceil(math.log2(len(g.edges)))
    assert len(pp.pages) == 159
    assert paginate(g, eps) == pp


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paginate_dense_graph_within_budgets(seed):
    # the graph `gen --kind graph --n 400 --m 8000 --seed N` writes; its
    # partition pools once broke partition_multiset's part cap
    g = random_graph(np.random.default_rng(seed), 400, 8000)
    eps = 0.5
    pp = paginate(g, eps)
    drawn = sorted(e for p in pp.pages for e in p.edges)
    assert drawn == sorted(g.edges)
    for page, count in zip(pp.pages, pp.metrics):
        assert count == count_page_crossings(page)
        assert count <= eps * page.size**2


def test_paginate_page_count_bound_sweep():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 60, 400)
    for eps in (1.0, 0.5, 0.34, 0.25):
        pp = paginate(g, eps)
        k = max(2, math.ceil(1 / eps))
        cap = math.ceil(12 * k * k * max(1.0, math.log2(k))) + (k - 1) ** 2
        assert len(pp.pages) <= cap * math.ceil(math.log2(len(g.edges)))
        drawn = sorted(e for p in pp.pages for e in p.edges)
        assert drawn == sorted(g.edges)


def test_paginate_validation():
    with pytest.raises(InvalidInputError):
        paginate(PATH5, 0.0)
    with pytest.raises(InvalidInputError):
        paginate(PATH5, 1.5)
    with pytest.raises(InvalidInputError):
        paginate(PATH5, "0.5")
    with pytest.raises(InvalidInputError):
        paginate(PATH5, True)
    with pytest.raises(InvalidInputError):
        paginate(OrderedGraph(4, ()), 0.5)


@pytest.mark.parametrize("epsilon", [10**400, -(10**400)])
def test_paginate_rejects_integer_epsilon_beyond_float_range(epsilon):
    with pytest.raises(InvalidInputError, match="epsilon"):
        paginate(OrderedGraph(3, ((1, 2), (2, 3))), epsilon)


@pytest.mark.parametrize("epsilon", [1e-300, 5e-324])
def test_paginate_tiny_epsilon_draws_singleton_pages(epsilon):
    # 1/epsilon overflows the part cap at 1e-300 and is inf at 5e-324; any
    # k with (k - 1)^2 >= |E| gives the same singleton pages as k = |E| + 1
    triangle = OrderedGraph(3, ((1, 2), (2, 3), (1, 3)))
    pp = paginate(triangle, epsilon)
    assert pp.epsilon == epsilon
    assert sorted(p.edges for p in pp.pages) == [((1, 2),), ((1, 3),), ((2, 3),)]
    assert pp.metrics == (0, 0, 0)
    assert [p.edges for p in pp.pages] == [p.edges for p in paginate(triangle, 0.01).pages]


def test_partition_multiset_huge_depth_deletes_everything():
    # a depth far past sqrt(n) leaves every entry to the remainder, and the
    # part cap of such a depth must not overflow a float
    assert partition_multiset([1, 2, 2, 3], 10**200) == ((), (1, 2, 3, 4))


def test_page_validation():
    good = biarc_page(((1, 6), (2, 5)), 4, 10)
    assert good.size == 2
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), "lower-arcs", 1, (((1.0, 4.0), None),))
    with pytest.raises(InvalidInputError):
        Page(((1, 4), (2, 5)), UPPER_ARCS, 1, (((1.0, 4.0), None),))
    with pytest.raises(InvalidInputError):
        Page(((2, 5), (1, 4)), UPPER_ARCS, 1,
             (((2.0, 5.0), None), ((1.0, 4.0), None)))
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), UPPER_ARCS, 1, (((1.0, 3.5), None),))
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), UPPER_ARCS, 0, (((1.0, 4.0), None),))
    with pytest.raises(InvalidInputError):
        Page((), UPPER_ARCS, 1, ())
    # biarc halves must meet at one point inside the edge
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), BIARCS, 2, (((1.0, 2.5), (2.6, 4.0)),))
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), BIARCS, 2, (((1.0, 5.0), (5.0, 4.0)),))
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), BIARCS, 2, (((1.0, 4.0), None),))
    with pytest.raises(InvalidInputError):
        Page(((1, 4), (2, 4)), BIARCS, 2,
             (((1.0, 2.5), (2.5, 4.0)), ((2.0, 2.5), (2.5, 4.0))))
    with pytest.raises(InvalidInputError):
        Page(((1, 4),), UPPER_ARCS, 1, (((1.0, 2.5), (2.5, 4.0)),))


def test_page_partition_validation():
    one = arc_page(((1, 4), (2, 6)))
    assert PagePartition((one,), 0.5, (1,)).total_crossings == 1
    with pytest.raises(InvalidInputError):
        PagePartition((one,), 0.2, (1,))  # budget 0.2 * 4 < 1 crossing
    with pytest.raises(InvalidInputError):
        PagePartition((one, one), 0.5, (1, 1))
    with pytest.raises(InvalidInputError):
        PagePartition((one,), 0.5, (1, 0))
    with pytest.raises(InvalidInputError):
        PagePartition((one,), 0.5, (-1,))
    with pytest.raises(InvalidInputError):
        PagePartition((one,), 1.5, (1,))
    with pytest.raises(InvalidInputError):
        PagePartition((), 0.5, ())




def test_paginate_builds_one_page_per_returned_page(monkeypatch):
    """paginate builds each page it returns once, through the trusted
    constructor, and never through the checking one."""
    built, checked = [], []
    trusted, page_init = Page._trusted, Page.__init__

    def counting_trusted(*args):
        built.append(args[0])
        return trusted(*args)

    def counting_init(self, *args):
        checked.append(args[0])
        page_init(self, *args)

    monkeypatch.setattr(Page, "_trusted", counting_trusted)
    monkeypatch.setattr(Page, "__init__", counting_init)
    rng = np.random.default_rng(5)
    pairs = [(l, r) for l in range(1, 41) for r in range(l + 1, 41)]
    picked = rng.choice(len(pairs), size=300, replace=False)
    pp = paginate(OrderedGraph(40, sorted(pairs[i] for i in picked)), 0.5)
    assert len(pp.pages) > 1
    assert len(built) == len(pp.pages)
    assert checked == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paginate_pages_pass_every_page_check(seed):
    """paginate builds its pages unchecked: each one equals the page the
    checking constructor builds from the same fields."""
    rng = np.random.default_rng(seed)
    for n, m in ((12, 30), (60, 400), (200, 1500)):
        graph = random_graph(rng, n, m)
        for epsilon in (1, 0.5, 0.25, 0.1):
            for page in paginate(graph, epsilon).pages:
                assert Page(page.edges, page.style, page.split_b, page.layout) == page


# Two biarcs of one page whose spine crossings are 1/(2n^2) apart, below float
# resolution near b + 1 from n = 10^6, and a 10^8-vertex graph that fails too.
TIED_AT_1E6 = OrderedGraph(10**6, [(333333, 666666), (333333, 666667), (1, 2)])
TIED_AT_1E8 = OrderedGraph(10**8, [(1, 2), (2, 7), (2, 8), (4, 6), (6, 7)])


def test_paginate_refuses_spines_whose_crossings_tie_in_floats():
    for graph in (TIED_AT_1E6, TIED_AT_1E8):
        with pytest.raises(PreconditionError, match=f"spine of {graph.n} vertices"):
            paginate(graph, 0.5)
    # the same shape a tenth as long still draws, its crossings distinct
    pp = paginate(OrderedGraph(10**5, [(33333, 66666), (33333, 66667), (1, 2)]), 0.5)
    assert sorted(e for page in pp.pages for e in page.edges) == [
        (1, 2), (33333, 66666), (33333, 66667)
    ]
    pp = paginate(OrderedGraph(10**7, TIED_AT_1E8.edges), 0.5)
    assert sum(page.size for page in pp.pages) == len(TIED_AT_1E8.edges)


def test_paginate_refuses_a_biarc_rounded_onto_its_edge_end():
    """paginate's own check of its unchecked pages: on a 10^9-vertex spine
    the biarc of (1, n) crosses at n - 1/n - 1/(2n), which rounds to n: a
    spine too long for the graph, not invalid input."""
    n = 10**9
    with pytest.raises(PreconditionError, match=f"spine of {n} vertices"):
        paginate(OrderedGraph(n, [(1, n), (n // 2, n)]), 0.5)


def test_build_pages_splits_without_rechecking_edges(monkeypatch):
    """Each recursion node hands half_split (through the module attribute)
    a sub-graph of the checked input without building an OrderedGraph."""
    rng = np.random.default_rng(9)
    graph = random_graph(rng, 60, 400)
    built, seen = [], []
    graph_init, split = OrderedGraph.__init__, biarc.half_split

    def counting_init(self, *args):
        built.append(args)
        graph_init(self, *args)

    def recording_split(g):
        seen.append(g)
        return split(g)

    monkeypatch.setattr(OrderedGraph, "__init__", counting_init)
    monkeypatch.setattr(biarc, "half_split", recording_split)
    pp = paginate(graph, 0.25)
    assert built == [] and len(seen) > 10
    assert all(g.n == 60 and set(g.edges) <= set(graph.edges) for g in seen)
    assert sorted(e for page in pp.pages for e in page.edges) == sorted(graph.edges)


# repr of paginate(g, epsilon) for the graph `gen --kind graph --n N --m M
# --seed S` writes, hashed
PAGES_SHA256 = {
    (200, 4000, 1, 0.5): "fb8b43342b7427e2735fe91269a50e1586481b69a4bd0ef5b83f82f98d773e03",
    (200, 4000, 1, 0.25): "89b968f16114bae928d9c7d17b72e824f1a4fbe5084a0816e77bd4e654bd66bd",
    (200, 4000, 2, 0.5): "4570c595fa0e899b27ead05635cc687e4ffb0731242cb0cd01669899b6ce6b6e",
    (200, 4000, 2, 0.25): "5b27cc5d5f7b73f2281d83d0674f68d5969ab3d5d1b7e3c369c2cb8106196235",
    (60, 500, 1, 0.2): "22f507bc3b73919b7b66d72dec81259392a137316c468758115362d674808f0e",
}


@pytest.mark.parametrize("n, m, seed, epsilon", sorted(PAGES_SHA256))
def test_paginate_pinned(n, m, seed, epsilon):
    got = repr(paginate(_random_graph(n, m, seed), epsilon)).encode()
    assert hashlib.sha256(got).hexdigest() == PAGES_SHA256[n, m, seed, epsilon]
