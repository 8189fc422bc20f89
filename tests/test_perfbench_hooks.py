"""The benchmark's tracer finds every function it patches, and puts each one
back: a renamed or deleted patch point would make ``--trace 1`` raise."""

from pathlib import Path

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


def test_traced_extract_is_one_dp_and_cross_checks(monkeypatch):
    """The benchmark's ``extract.dp_*`` counters and its range-counter
    cross-check only see DP calls made through ``extract.gapped_chain_dp``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    import blockseq

    tracer = tracing.Tracer()
    try:
        tracer.install()
        blockseq.extract_block_monotone(blockseq.gen_random(1000, seed=1), 3, c=2)
    finally:
        tracer.remove()
    assert [span[0] for span in tracer.spans].count("extract.dp") == 1
    assert tracer.counts["dp_cells"] == 1000**2
    check = tracer.cross_check()
    assert check["rangecount.queries"] > 0
    assert check["rangecount.mismatches"] == 0


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
