"""The benchmark's per-layer tracer still finds every boundary it wraps."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_builds_a_patch_for_every_boundary(monkeypatch):
    # the tracer looks each wrapped name up when it builds its patches,
    # so a renamed or deleted entry point fails here, not in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    patches = tracing.Tracer().patches()
    assert len(patches) == 19
    for owner, attr, wrapper in patches:
        assert callable(getattr(owner, attr)) and callable(wrapper)
