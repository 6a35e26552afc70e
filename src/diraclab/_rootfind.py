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

Every main-loop iteration is guaranteed to at least halve the bracket: a
proposal that fails to do so is followed by one midpoint evaluation,
which (with clamping) always does.  The post-iteration widths are recorded
so callers can assert the contraction.

Both gap solvers (radial and 3D) share this contract: the tolerances
(SolveConfig, checked once here), the eigenvector of each sample and the
result (GapSolution), which each solver extends by its own fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import ConfigError

OK = "ok"
BELOW_GAP = "below-gap"
NO_ROOT = "no-root"


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
    """Outcome of one monotone root solve: `trace` holds every sample
    (lam, h(lam)), `widths` the bracket width after each main-loop pass,
    `vector` the eigenvector of the sample at lambda1 (None unless OK)."""

    status: str
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
    def below_gap(self) -> bool:
        return self.status == BELOW_GAP

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
    lo < start < hi) is the first sample.
    """
    vectors: dict[float, Any] = {}
    trace: list[tuple[float, float]] = []
    a, b = lo, hi

    # every sample ends up on or outside the bracket, so a lam strictly
    # inside it is new; other lams are checked against `vectors` first
    def step(lam: float) -> float:
        """Sample h at lam and clamp the bracket with it."""
        nonlocal a, b
        mu, vectors[lam] = mu_of_lambda(lam)
        hv = mu - lam
        trace.append((lam, hv))
        end = hv + lam  # mu as the trace records it
        if hv > 0.0:
            a, b = max(a, lam), min(b, end)
        elif hv < 0.0:
            a, b = max(a, end), min(b, lam)
        else:
            a = b = lam
        return hv

    started = lo < start < hi
    if started:
        step(start)
    if a == lo:
        h_lo = step(lo)
        if h_lo < 0.0:
            return GapSolution(BELOW_GAP, lo, abs(h_lo), tuple(trace),
                               (lo, hi), False, (), None)
    if not started or b == hi:
        h_hi = step(hi)
        if h_hi > 0.0:
            return GapSolution(NO_ROOT, hi, abs(h_hi), tuple(trace),
                               (lo, hi), False, (), None)

    lam_tol, residual_tol = config.lam_tol, config.residual_tol
    max_iter = config.max_iterations
    guard = 1e-3 * lam_tol
    widths: list[float] = [b - a]

    def propose() -> float | None:
        l2, h2 = trace[-1]
        cand = l2 + h2 / (1.0 - slope(l2, vectors[l2]))
        # with the exact slope the step lands in the clamp interval of its
        # own sample; there it is moved off the bracket ends
        if a <= cand <= b:
            cand = min(max(cand, a + 2.0 * guard), b - 2.0 * guard)
        if a + guard < cand < b - guard and cand not in vectors:
            return cand
        return None

    while b - a > lam_tol and len(trace) < max_iter:
        width = b - a
        cand = propose()
        if cand is None:
            cand = 0.5 * (a + b)
            if cand in vectors:
                cand = a + 0.37 * (b - a)
                if cand in vectors or not a < cand < b:
                    break
        if step(cand) == 0.0:
            widths.append(b - a)
            break
        if b - a > 0.5 * width and b - a > lam_tol and len(trace) < max_iter:
            step(0.5 * (a + b))
        widths.append(b - a)

    best = min(trace, key=lambda s: abs(s[1]))
    polish = 0
    while abs(best[1]) > residual_tol and polish < 8 and len(trace) < max_iter:
        cand = propose()
        if cand is None:
            cand = 0.5 * (a + b)
            if cand in vectors:
                break
        hv = step(cand)
        if abs(hv) < abs(best[1]):
            best = (cand, hv)
        polish += 1

    ok = (b - a) <= lam_tol and abs(best[1]) <= residual_tol
    return GapSolution(OK, best[0], abs(best[1]), tuple(trace), (a, b), ok,
                       tuple(widths), vectors[best[0]])
