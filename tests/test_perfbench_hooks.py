"""The benchmark's tracer finds every function it patches, and puts each one
back: a renamed or deleted patch point would make ``--trace 1`` raise."""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)


def test_traced_extract_runs_the_search_not_the_dp(monkeypatch):
    """A traced extract records its ``core.longest_monotone`` run and the
    search's ``extract.chain_to_blocks`` under its ``extract`` span, and no
    chain DP, so the benchmark's ``extract.dp_*`` counters and its
    range-counter cross-check read 0 for it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import blockseq

    tracer = tracing.Tracer()
    try:
        tracer.install()
        blockseq.extract_block_monotone(blockseq.gen_random(1000, seed=1), 3, c=2)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    for name in ("extract", "core.longest_monotone", "extract.chain_to_blocks"):
        assert names.count(name) == 1, name
    assert "extract.dp" not in names
    assert tracer.counts["dp_cells"] == 0
    check = tracer.cross_check()
    assert (check["rangecount.queries"], check["rangecount.mismatches"]) == (0, 0)


def test_traced_avoid_records_one_balanced_line_span(monkeypatch):
    """``avoid.balanced_line_s`` only measures the line search while
    ``mutually_avoiding_sets`` calls it through the module attribute."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import blockseq

    tracer = tracing.Tracer()
    try:
        tracer.install()
        blockseq.mutually_avoiding_sets(blockseq.gen_point_cloud(200, 1), 2)
    finally:
        tracer.remove()
    assert [span[0] for span in tracer.spans].count("avoid.balanced_line") == 1


def test_traced_avoid_reaches_extraction_and_longest_monotone(monkeypatch):
    """``avoid.extract_s`` and the ``core.longest_monotone`` metrics under it
    see both of the pipeline's extractions and their fallback runs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import blockseq

    cloud = blockseq.gen_point_cloud(2000, 3)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        blockseq.mutually_avoiding_sets(cloud, 3)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    assert names.count("avoid") == 1
    assert names.count("avoid.extract") == 2
    assert names.count("core.longest_monotone") >= 1


def test_traced_cli_extract_records_one_extract_span(monkeypatch, tmp_path):
    """``cli.inproc_extract_s`` holds an ``extract`` span only while
    ``cmd_extract`` calls the extractor through ``cli.extract_block_monotone``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    from blockseq import cli

    seq, wit = str(tmp_path / "seq.json"), str(tmp_path / "wit.json")
    assert cli.run(["gen", "--kind", "sequence", "--n", "200", "--out", seq]).exit_code == 0
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.run(["extract", "--k", "2", "--in", seq, "--out", wit]).exit_code == 0
    finally:
        tracer.remove()
    assert [span[0] for span in tracer.spans].count("extract") == 1


def test_traced_partition_greedy_and_paginate_reach_their_layers(monkeypatch):
    """``partition.*``, ``greedy.*`` and the per-layer ``extract``/``core``
    metrics under them only measure what the partition calls through the
    names the tracer patches; a refactor that calls around them would zero
    those metrics silently."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import blockseq
    from blockseq.biarc import OrderedGraph

    seq, small = blockseq.gen_random(1000, seed=1), blockseq.gen_random(500, seed=2)
    graph = OrderedGraph(12, [(1, 5), (2, 9), (3, 4), (3, 12), (6, 10), (7, 8), (8, 11)])
    # large enough that pagination reaches the gapped-chain search
    pairs = [(l, r) for l in range(1, 61) for r in range(l + 1, 61)]
    picked = np.random.default_rng(3).choice(len(pairs), size=400, replace=False)
    searched = OrderedGraph(60, sorted(pairs[i] for i in picked))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        blockseq.partition_sequence(seq, 3)
        blockseq.greedy_partition(small, 3)
        blockseq.paginate(graph, 0.5)
        blockseq.paginate(searched, 0.25)
    finally:
        tracer.remove()
    under = {}  # root op name -> names of the spans it ran
    for name, _, _, _, root in tracer.spans:
        under.setdefault(tracer.spans[root][0], []).append(name)
    assert sorted(under) == ["greedy", "paginate", "partition"]
    for op in ("partition", "greedy"):
        for layer in ("core.longest_monotone", "extract.search", "extract.chain_to_blocks"):
            assert under[op].count(layer) > 0, (op, layer)
    assert under["paginate"].count("biarc.half_split") > 0
    for layer in ("biarc.multiset", "partition", "extract.search",
                  "core.longest_monotone", "biarc.crossings"):
        assert under["paginate"].count(layer) > 0, layer
