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
