"""The benchmark's span hooks still find every name they wrap or read."""
import time
from pathlib import Path

from diraclab import charges, gaussian, multicenter, radial

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spans_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    solve = radial.lowest_gap_eigenvalue_radial
    with spans.installed(spans.Tracer()):
        assert radial.lowest_gap_eigenvalue_radial is not solve
    assert radial.lowest_gap_eigenvalue_radial is solve


def test_spans_see_the_3d_hot_path(monkeypatch):
    # a refactor that bypasses a wrapped name reads zero here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    evaluations = []
    init = gaussian.GridEvaluation.__init__

    def counted(self, *args, **kwargs):
        evaluations.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gaussian.GridEvaluation, "__init__", counted)
    tracer = spans.Tracer()
    start = time.perf_counter()
    with spans.installed(tracer):
        mu = charges.atoms([(0, 0, 0), (1, 0, 0)], [0.2, 0.2])
        basis = gaussian.default_spinor_basis(mu, n_s=4)
        grid = gaussian.grid_for_basis(basis, 24, 9)
        assert multicenter.solve_gap(basis, mu, grid).converged
    metrics = spans.layer_metrics(tracer.spans, time.perf_counter() - start)
    # one whole-grid tabulation per evaluation: tabulating per block, or
    # under another name, would hide the table's cost from tabulate_s
    tabulations = [s for s in tracer.spans
                   if s.name == "gaussian.values_and_gradients"]
    assert len(evaluations) == 1
    assert len(tabulations) == len(evaluations)
    assert metrics["gaussian.gram_calls"] >= 1
    assert metrics["gaussian.tabulate_mb"] > 0
    assert metrics["rootfind.evals"] >= 1
