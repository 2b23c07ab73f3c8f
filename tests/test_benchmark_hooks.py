"""The benchmark's traced runs wrap package functions by module attribute
(perfbench/tracing.py); every name they wrap must still exist."""

from pathlib import Path

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_tracing_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.HOOKS
    for module, attr, span, _ in tracing.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {span})"
