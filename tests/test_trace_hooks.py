"""The benchmark's span hooks still find every name they wrap or read."""
from pathlib import Path

from diraclab import radial

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spans_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    solve = radial.lowest_gap_eigenvalue_radial
    with spans.installed(spans.Tracer()):
        assert radial.lowest_gap_eigenvalue_radial is not solve
    assert radial.lowest_gap_eigenvalue_radial is solve
