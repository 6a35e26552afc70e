"""Spans around diraclab's public layer functions, installed from outside.

`installed(tracer)` rebinds each traced function wherever a diraclab
module holds it (package namespace, importing modules, class attributes)
and restores the originals on exit, so untraced passes run the program
exactly as shipped.  No file of the package changes.

A span's self time is its duration minus the time of the spans it
directly contains.  `layer_metrics` turns the spans of one pass into the
per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; `op` tags spans with the running operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.op, time.perf_counter(), parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += record.duration

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span among `names`."""
        for index in reversed(self._open):
            if self.spans[index].name in names:
                return self.spans[index].name
        return None

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "op": s.op, "start": s.start, "end": s.end,
                 "parent": s.parent, "self_s": s.self_s, "counts": s.counts}
                for s in self.spans]


class _Proxy:
    """A module stand-in that overrides some attributes of the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, original, replacement):
        """Rebind `original` in every loaded diraclab module that holds it."""
        for name, module in list(sys.modules.items()):
            if name != "diraclab" and not name.startswith("diraclab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _timed(tracer: Tracer, name: str, fn, counts=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
            if counts is not None:
                span.counts.update(counts(args, out))
            return out
    return wrapper


UNITS = {
    "gaussian.gram_s": "s",
    "gaussian.gram_calls": "count",
    "gaussian.gram_gflop": "GFLOP_computed",
    "gaussian.tabulate_s": "s",
    "gaussian.tabulate_mb": "MB_computed",
    "gaussian.integrals_s": "s",
    "gaussian.grid_s": "s",
    "gaussian.grid_points": "count",
    "gaussian.basis_size": "count",
    "gaussian.retained_rank": "count",
    "charges.potential_grid_s": "s",
    "multicenter.solve_s": "s",
    "multicenter.mu_min_s": "s",
    "multicenter.eigen_s": "s",
    "multicenter.crosscheck_s": "s",
    "rootfind.evals": "count",
    "radial.operator_s": "s",
    "radial.mu_min_s": "s",
    "radial.banded_eig_s": "s",
    "radial.polish_s": "s",
    "hardy.quotient_s": "s",
    "experiments.driver_s": "s",
    "cli.overhead_s": "s",
    "trace.covered_share": "1",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# the solve whose root find an evaluation belongs to
_MU_MIN_SPAN = {"multicenter.solve_gap": "multicenter.mu_min",
                "radial.solve": "radial.mu_min"}


@contextmanager
def installed(tracer: Tracer):
    from diraclab import (_rootfind, charges, cli, experiments, gaussian,
                          hardy, multicenter, radial)

    def timed(name, fn, counts=None):
        return _timed(tracer, name, fn, counts)

    solve_monotone_gap = _rootfind.solve_monotone_gap

    def traced_root_find(mu_of_lambda, *args, **kwargs):
        owner = tracer.enclosing(_MU_MIN_SPAN)
        evaluate = timed(_MU_MIN_SPAN.get(owner, "rootfind.mu_min"),
                         mu_of_lambda)
        with tracer.span("rootfind.solve") as span:
            out = solve_monotone_gap(evaluate, *args, **kwargs)
            span.counts["evals"] = len(out.trace)
        return out

    def tabulated_bytes(args, out):
        basis, pts = args[:2]
        return {"bytes": 4 * len(pts) * basis.n * 8}

    def gram_flops(args, out):
        evaluation, c = args[:2]
        return {"flops": 12 * len(c) * evaluation.basis.scalar.n ** 2}

    def basis_counts(args, out):
        return {"basis_size": out.scalar.n,
                "retained_rank": out.orthogonalizer.shape[1]}

    patches = _Patches()
    try:
        for name, fn in (
                ("cli.main", cli.main),
                ("experiments.run_experiment", experiments.run_experiment),
                ("multicenter.solve_gap", multicenter.solve_gap),
                ("multicenter.rkb_cross_check", multicenter.rkb_cross_check),
                ("hardy.hardy_quotient_min", hardy.hardy_quotient_min),
                ("radial.solve", radial.lowest_gap_eigenvalue_radial),
                ("radial.derivative_matrix", radial.derivative_matrix),
                ("charges.potential_grid", charges.potential_grid)):
            patches.function(fn, timed(name, fn))
        patches.function(solve_monotone_gap, traced_root_find)
        patches.function(gaussian.grid_for_basis, timed(
            "gaussian.grid_for_basis", gaussian.grid_for_basis,
            lambda args, out: {"grid_points": out.size}))
        patches.function(gaussian.default_spinor_basis, timed(
            "gaussian.default_spinor_basis", gaussian.default_spinor_basis,
            basis_counts))
        scalar = gaussian.ScalarBasis
        for attr in ("overlap_matrix", "grad_dot_matrix", "potential_matrix"):
            patches.set(scalar, attr,
                        timed(f"gaussian.{attr}", getattr(scalar, attr)))
        patches.set(scalar, "values_and_gradients", timed(
            "gaussian.values_and_gradients", scalar.values_and_gradients,
            tabulated_bytes))
        patches.set(gaussian.GridEvaluation, "weighted_grad_blocks", timed(
            "gaussian.weighted_grad_blocks",
            gaussian.GridEvaluation.weighted_grad_blocks, gram_flops))
        patches.set(radial, "sla", _Proxy(radial.sla, eigvals_banded=timed(
            "radial.eigvals_banded", radial.sla.eigvals_banded)))
        patches.set(radial, "spla", _Proxy(radial.spla, splu=timed(
            "radial.splu", radial.spla.splu)))
        yield tracer
    finally:
        patches.restore()


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took `wall` seconds."""
    def pick(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.duration for name in names for s in pick(name))

    def self_total(*names):
        return sum(s.self_s for name in names for s in pick(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in pick(name))

    gram = "gaussian.weighted_grad_blocks"
    tabulate = "gaussian.values_and_gradients"
    return {
        "gaussian.gram_s": total(gram),
        "gaussian.gram_calls": len(pick(gram)),
        "gaussian.gram_gflop": count(gram, "flops") / 1e9,
        "gaussian.tabulate_s": total(tabulate),
        "gaussian.tabulate_mb": count(tabulate, "bytes") / 1e6,
        "gaussian.integrals_s": total("gaussian.overlap_matrix",
                                      "gaussian.grad_dot_matrix",
                                      "gaussian.potential_matrix"),
        "gaussian.grid_s": self_total("gaussian.grid_for_basis",
                                      "gaussian.default_spinor_basis"),
        "gaussian.grid_points": count("gaussian.grid_for_basis",
                                      "grid_points"),
        "gaussian.basis_size": count("gaussian.default_spinor_basis",
                                     "basis_size"),
        "gaussian.retained_rank": count("gaussian.default_spinor_basis",
                                        "retained_rank"),
        "charges.potential_grid_s": total("charges.potential_grid"),
        "multicenter.solve_s": total("multicenter.solve_gap"),
        "multicenter.mu_min_s": total("multicenter.mu_min"),
        "multicenter.eigen_s": self_total("multicenter.mu_min"),
        "multicenter.crosscheck_s": total("multicenter.rkb_cross_check"),
        "rootfind.evals": count("rootfind.solve", "evals"),
        "radial.operator_s": total("radial.derivative_matrix"),
        "radial.mu_min_s": total("radial.mu_min"),
        "radial.banded_eig_s": total("radial.eigvals_banded"),
        "radial.polish_s": total("radial.splu"),
        "hardy.quotient_s": total("hardy.hardy_quotient_min"),
        "experiments.driver_s": self_total("experiments.run_experiment"),
        "cli.overhead_s": self_total("cli.main"),
        "trace.covered_share": sum(s.duration for s in spans
                                   if s.parent is None) / wall,
        "trace.spans": len(spans),
    }
