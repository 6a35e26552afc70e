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
  l - h/(mu'(l) - 1) from the last sample when the caller gives the slope
  mu', else secant steps through the last two samples.  Two consecutive
  same-side secant landings force a midpoint step, as regula falsi can
  creep in from one side; Newton steps on a convex or concave h approach
  from one side at full speed, so they are not interrupted.

There are two call patterns: mu alone (the radial solver; both ends are
sampled first, then secant steps) and mu with a start and its slope (the
3D solver; the certificate and Newton steps).

Every main-loop iteration is guaranteed to at least halve the bracket: a
proposal that fails to do so is followed by one midpoint evaluation,
which (with clamping) always does.  The post-iteration widths are recorded
so callers can assert the contraction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

OK = "ok"
BELOW_GAP = "below-gap"
NO_ROOT = "no-root"


@dataclass
class GapRootSolve:
    """Outcome of one monotone root solve."""

    status: str
    lam: float
    residual: float
    iterations: int
    trace: list[tuple[float, float]] = field(default_factory=list)
    bracket: tuple[float, float] = (0.0, 0.0)
    converged: bool = False
    widths: list[float] = field(default_factory=list)


def solve_monotone_gap(mu_of_lambda: Callable[[float], float],
                       lo: float, hi: float, *,
                       lam_tol: float, residual_tol: float,
                       max_iter: int, start: float | None = None,
                       slope: Callable[[float], float] | None = None
                       ) -> GapRootSolve:
    """Root of mu_of_lambda(lam) - lam in [lo, hi]; see the module docstring.

    `start` (ignored unless lo < start < hi) is the first sample and
    `slope(lam)` returns mu'(lam) at a lam already sampled; the two come
    together or not at all.
    """
    if (start is None) != (slope is None):
        raise ValueError("solve_monotone_gap takes start and slope together")
    cache: dict[float, float] = {}
    trace: list[tuple[float, float]] = []
    a, b = lo, hi

    def h(lam: float) -> float:
        if lam not in cache:
            cache[lam] = mu_of_lambda(lam) - lam
            trace.append((lam, cache[lam]))
        return cache[lam]

    def clamp(lam: float, hv: float) -> None:
        nonlocal a, b
        mu = hv + lam
        if hv > 0.0:
            a, b = max(a, lam), min(b, mu)
        elif hv < 0.0:
            a, b = max(a, mu), min(b, lam)
        else:
            a = b = lam

    started = start is not None and lo < start < hi
    if started:
        clamp(start, h(start))
    if a == lo:
        h_lo = h(lo)
        if h_lo < 0.0:
            return GapRootSolve(BELOW_GAP, lo, abs(h_lo), len(trace), trace,
                                (lo, hi), False)
        clamp(lo, h_lo)
    if not started or b == hi:
        h_hi = h(hi)
        if h_hi > 0.0:
            return GapRootSolve(NO_ROOT, hi, abs(h_hi), len(trace), trace,
                                (lo, hi), False)
        clamp(hi, h_hi)

    prev = trace[-2] if len(trace) > 1 else None
    last = trace[-1]
    guard = 1e-3 * lam_tol
    same_side = 0
    widths: list[float] = [b - a]

    def propose() -> float | None:
        l2, h2 = last
        if slope is None:
            if prev is None or h2 == prev[1]:
                return None
            l1, h1 = prev
            cand = l2 - h2 * (l2 - l1) / (h2 - h1)
        else:
            cand = l2 + h2 / (1.0 - slope(l2))
            # with the exact slope the step lands in the clamp interval of
            # its own sample; there it is moved off the bracket ends
            if a <= cand <= b:
                cand = min(max(cand, a + 2.0 * guard), b - 2.0 * guard)
        if a + guard < cand < b - guard and cand not in cache:
            return cand
        return None

    def step(cand: float) -> float:
        nonlocal prev, last, same_side
        hv = h(cand)
        clamp(cand, hv)
        same_side = same_side + 1 if (hv > 0.0) == (last[1] > 0.0) else 0
        prev, last = last, (cand, hv)
        return hv

    while b - a > lam_tol and len(trace) < max_iter:
        width = b - a
        cand = propose() if slope is not None or same_side < 2 else None
        if cand is None:
            same_side = 0
            cand = 0.5 * (a + b)
            if cand in cache:
                cand = a + 0.37 * (b - a)
                if cand in cache or not a < cand < b:
                    break
        if step(cand) == 0.0:
            widths.append(b - a)
            break
        if b - a > 0.5 * width and b - a > lam_tol and len(trace) < max_iter:
            same_side = 0
            step(0.5 * (a + b))
        widths.append(b - a)

    best = min(trace, key=lambda s: abs(s[1]))
    polish = 0
    while abs(best[1]) > residual_tol and polish < 8 and len(trace) < max_iter:
        cand = propose()
        if cand is None:
            cand = 0.5 * (a + b)
            if cand in cache:
                break
        hv = step(cand)
        if abs(hv) < abs(best[1]):
            best = (cand, hv)
        polish += 1

    ok = (b - a) <= lam_tol and abs(best[1]) <= residual_tol
    return GapRootSolve(OK, best[0], abs(best[1]), len(trace), trace,
                        (a, b), ok, widths)
