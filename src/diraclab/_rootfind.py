"""Root solve for gap equations h(lam) = mu_min(lam) - lam.

mu_min is nonincreasing in lam, so h is strictly decreasing and has at
most one root.  Monotonicity buys three accelerations on top of plain
bisection, all unconditionally safe:

* clamping: after evaluating mu at lam, the root lies in [lam, mu] when
  h(lam) > 0 and in [mu, lam] when h(lam) < 0, so mu itself tightens the
  bracket (a fixed-point step fused into bisection);
* a one-sample certificate: given a `start` inside (lo, hi), that clamp
  alone brackets the root whenever mu(start) stays inside (lo, hi), and
  the ends lo and hi are then never evaluated (an end is sampled only
  on a side the clamp leaves open, so the below-gap and no-root outcomes
  are decided exactly as without a start);
* proposals strictly inside the bracket: Newton steps
  l - h/(mu'(l) - 1) from the last sample, with the slope mu' supplied
  by the caller.  On a convex or concave h they approach from one side
  at full speed, so they are not interrupted.

h(lo) < 0 gives a below-gap result and h(hi) > 0 raises
NoGapEigenvalueError.  Otherwise one loop samples h.  While the bracket
is wider than lam_tol, a pass takes the Newton proposal (else the
midpoint) and, when that fails to halve the bracket, one midpoint, which
with clamping always does; the width after each such pass is recorded so
callers can assert the contraction.  Inside lam_tol, a pass is one polish
sample, at most MAX_POLISH of them, until the smallest residual meets
residual_tol.

Both gap solvers (radial and 3D) share this contract: the tolerances
(SolveConfig, checked once here), the eigenvector of each sample and the
result (GapSolution, with its row's flags and diagnostics), which each
solver extends by its own fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigError, NoGapEigenvalueError

# Samples taken inside a lam_tol bracket to bring the residual down.
MAX_POLISH = 8


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and sample budget of a gap solve; each solver's subclass
    sets its own defaults."""

    lam_tol: float
    residual_tol: float
    max_iterations: int = 60

    def __post_init__(self):
        if self.lam_tol <= 0.0 or self.residual_tol <= 0.0:
            raise ConfigError("tolerances must be positive")
        if self.max_iterations < 4:
            raise ConfigError("iteration budget too small")


@dataclass
class GapSolution:
    """Outcome of one monotone root solve: `below_gap` when h(lo) < 0,
    `trace` holds every sample (lam, h(lam)), `widths` the bracket width
    after each pass wider than lam_tol, `vector` the eigenvector of the
    sample at lambda1 (None below the gap)."""

    below_gap: bool
    lambda1: float
    residual: float
    trace: tuple[tuple[float, float], ...]
    bracket: tuple[float, float]
    converged: bool
    widths: tuple[float, ...]
    vector: Any

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def flags(self) -> tuple[str, ...]:
        """below-gap, or unconverged for a solve short of its tolerances."""
        if self.below_gap:
            return ("below-gap",)
        return () if self.converged else ("unconverged",)

    @property
    def diagnostics(self) -> dict:
        """First sample, sample count, residual, final bracket width."""
        return {"start": self.trace[0][0], "iterations": self.iterations,
                "residual": self.residual,
                "bracket_width": self.bracket[1] - self.bracket[0]}

    def to_json(self) -> dict:
        keys = ("lambda1", "residual", "iterations", "below_gap", "converged")
        return {key: getattr(self, key) for key in keys}


def solve_monotone_gap(mu_of_lambda: Callable[[float], tuple[float, Any]],
                       lo: float, hi: float, *, config: SolveConfig,
                       start: float,
                       slope: Callable[[float, Any], float]) -> GapSolution:
    """Root of mu(lam) - lam in [lo, hi]; see the module docstring.

    `mu_of_lambda(lam)` returns mu and its eigenvector, `slope(lam, vector)`
    mu'(lam) from the vector of that same sample.  `start` (ignored unless
    lo < start < hi) is the first sample.  Raises NoGapEigenvalueError
    when h(hi) > 0: no eigenvalue has entered the gap.
    """
    vectors: dict[float, Any] = {}
    trace: list[tuple[float, float]] = []
    a, b = lo, hi

    def step(lam: float) -> float:
        """Sample h at lam and clamp the bracket with it."""
        nonlocal a, b
        mu, vectors[lam] = mu_of_lambda(lam)
        hv = mu - lam
        trace.append((lam, hv))
        end = hv + lam  # mu as the trace records it
        # the rounded end may pass the opposite one by an ulp; it stops
        # there, so the bracket never inverts
        if hv > 0.0:
            a = max(a, lam)
            b = min(b, max(end, a))
        elif hv < 0.0:
            b = min(b, lam)
            a = max(a, min(end, b))
        else:
            a = b = lam
        return hv

    started = lo < start < hi
    if started:
        step(start)
    if a == lo:
        h_lo = step(lo)
        if h_lo < 0.0:
            return GapSolution(True, lo, abs(h_lo), tuple(trace), (lo, hi),
                               False, (), None)
    if (not started or b == hi) and step(hi) > 0.0:
        raise NoGapEigenvalueError(
            f"no eigenvalue has entered the gap: h({hi}) = {trace[-1][1]} > 0")

    lam_tol, residual_tol = config.lam_tol, config.residual_tol
    max_iter = config.max_iterations
    guard = 1e-3 * lam_tol
    widths: list[float] = [b - a]

    def propose() -> float:
        """Newton step from the last sample, or the midpoint when that
        step leaves the bracket."""
        l2, h2 = trace[-1]
        cand = l2 + h2 / (1.0 - slope(l2, vectors[l2]))
        # with the exact slope the step lands in the clamp interval of its
        # own sample; there it is moved off the bracket ends
        if a <= cand <= b:
            cand = min(max(cand, a + 2.0 * guard), b - 2.0 * guard)
        if a + guard < cand < b - guard:
            return cand
        return 0.5 * (a + b)

    polish = 0
    while len(trace) < max_iter:
        width = b - a
        if width <= lam_tol:
            if polish == MAX_POLISH or min(
                    abs(hv) for _, hv in trace) <= residual_tol:
                break
            polish += 1
        cand = propose()
        # clamping leaves every sample on or outside the bracket, so only
        # a midpoint rounded onto (or past) a sampled end repeats one
        if cand in vectors:
            break
        step(cand)
        if width > lam_tol:
            if b - a > max(0.5 * width, lam_tol) and len(trace) < max_iter:
                step(0.5 * (a + b))
            widths.append(b - a)

    best = min(trace, key=lambda s: abs(s[1]))
    ok = (b - a) <= lam_tol and abs(best[1]) <= residual_tol
    return GapSolution(False, best[0], abs(best[1]), tuple(trace), (a, b), ok,
                       tuple(widths), vectors[best[0]])
