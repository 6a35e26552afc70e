"""Independent reference values for the analytic code paths.

Everything here deliberately avoids the package's own formulas and grids:
scipy.integrate.quad, scipy.special.erf, or plain Gauss-Legendre rules on
textbook parametrizations.  The weighted gradient Grams take tabulated
gradients and sum them in one unblocked pass per component.  Accuracy is
well past the tolerances asserted in the tests that consume these.
"""
import warnings

import numpy as np
from scipy import integrate, special


def boys_reference(m: int, t: float) -> float:
    """F_m(t) = int_0^1 u^(2m) exp(-t u^2) du by adaptive quadrature."""
    with warnings.catch_warnings():
        # the requested epsabs sits at roundoff on purpose
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(lambda u: u ** (2 * m) * np.exp(-t * u * u),
                                0.0, 1.0, epsabs=1e-16, epsrel=1e-14,
                                limit=200)
    return val


def shell_potential_reference(r: float, radius: float,
                              strength: float = 1.0) -> float:
    """Spherical average of strength/|r e_z - radius*omega|, r != radius."""
    val, _ = integrate.quad(
        lambda t: 0.5 / np.sqrt(r * r + radius * radius - 2.0 * r * radius * t),
        -1.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=400)
    return strength * val


def ball_potential_reference(r: float, radius: float,
                             strength: float = 1.0) -> float:
    """Uniform-ball potential via spheres centered on the probe point.

    In spherical coordinates around the probe, 1/|x - p| cancels one
    power of the Jacobian, leaving int u * (solid-angle fraction of the
    probe sphere of radius u inside the ball) du.  The fraction is the
    spherical-cap formula; breakpoints |radius - r| and radius + r split
    the integral into smooth pieces.
    """
    def fraction(u: float) -> float:
        if u <= abs(radius - r):
            return 1.0 if r < radius else 0.0
        if u >= radius + r:
            return 0.0
        return 0.5 * (1.0 - (r * r + u * u - radius * radius)
                      / (2.0 * r * u))

    cuts = sorted({0.0, abs(radius - r), radius + r})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        val, _ = integrate.quad(lambda u: u * fraction(u), lo, hi,
                                epsabs=1e-14, epsrel=1e-13)
        total += val
    return strength * 3.0 / radius ** 3 * total


def gaussian_overlap_reference(a, A, b, B) -> float:
    """int exp(-a|x-A|^2) exp(-b|x-B|^2) dx as three 1D quadratures."""
    total = 1.0
    for Ai, Bi in zip(A, B):
        val, _ = integrate.quad(
            lambda x, Ai=Ai, Bi=Bi: np.exp(-a * (x - Ai) ** 2
                                           - b * (x - Bi) ** 2),
            -np.inf, np.inf, epsabs=1e-15, epsrel=1e-13)
        total *= val
    return total


def gaussian_grad_dot_reference(a, A, b, B) -> float:
    """int grad exp(-a|x-A|^2) . grad exp(-b|x-B|^2) dx by 1D quadratures.

    The integrand separates by axis: the k-th gradient product is the 1D
    integral of the two x_k-derivatives times the plain 1D overlaps along
    the other two axes.
    """
    def quad(f):
        val, _ = integrate.quad(f, -np.inf, np.inf, epsabs=1e-15,
                                epsrel=1e-13)
        return val

    plain, deriv = [], []
    for Ai, Bi in zip(A, B):
        def ga(x, Ai=Ai):
            return np.exp(-a * (x - Ai) ** 2)

        def gb(x, Bi=Bi):
            return np.exp(-b * (x - Bi) ** 2)

        plain.append(quad(lambda x: ga(x) * gb(x)))
        deriv.append(quad(lambda x, Ai=Ai, Bi=Bi: 4.0 * a * b * (x - Ai)
                          * (x - Bi) * ga(x) * gb(x)))
    return sum(deriv[k] * plain[(k + 1) % 3] * plain[(k + 2) % 3]
               for k in range(3))


def gaussian_attraction_reference(a, A, b, B, C) -> float:
    """int exp(-a|x-A|^2) exp(-b|x-B|^2) / |x-C| dx.

    Gaussian product with center P, then the erf identity
    int exp(-p|x-P|^2)/|x-C| dx = (pi/p)^(3/2) erf(sqrt(p) d)/d with
    d = |P-C| (limit 2 pi/p at d = 0), using scipy's erf.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    p = a + b
    P = (a * A + b * B) / p
    pref = np.exp(-a * b / p * float(np.sum((A - B) ** 2)))
    d = float(np.linalg.norm(P - C))
    if d < 1e-14:
        return pref * 2.0 * np.pi / p
    return pref * (np.pi / p) ** 1.5 * float(special.erf(np.sqrt(p) * d)) / d


def values_and_gradients(scalar, pts, floor):
    """Values (m, n) and three gradient component arrays, one primitive
    column at a time; values below `floor` are set to 0 first."""
    vals = np.empty((len(pts), scalar.n))
    grads = [np.empty((len(pts), scalar.n)) for _ in range(3)]
    for k, g in enumerate(scalar.primitives):
        dx = pts - np.asarray(g.center)[None, :]
        r2 = np.einsum("ij,ij->i", dx, dx)
        e = g.norm * np.exp(-g.exponent * r2)
        e[e < floor] = 0.0
        vals[:, k] = e
        for d in range(3):
            grads[d][:, k] = -2.0 * g.exponent * dx[:, d] * e
    return vals, grads


def weighted_grad_dot(grads, c) -> np.ndarray:
    """sum_k int c d_k g_i d_k g_j from tabulated gradients, in one pass."""
    return sum(g.T @ (c[:, None] * g) for g in grads)


def weighted_grad_cross(grads, c, axis=None) -> list:
    """Antisymmetric cross Grams int c (d_a g_i d_b g_j - d_b g_i d_a g_j).

    With the axis of a reduced grid, only their component along it,
    axis_k (axis . cross): the part that grid keeps.
    """
    out = []
    for a, b in ((1, 2), (2, 0), (0, 1)):
        m1 = grads[a].T @ (c[:, None] * grads[b])
        out.append(m1 - m1.T)
    if axis is not None:
        along = np.tensordot(axis, out, 1)
        out = [a_k * along for a_k in axis]
    return out


def point_dirac_lambda(nu: float) -> float:
    """Closed-form lowest gap eigenvalue for a point charge nu."""
    return float(np.sqrt(1.0 - nu * nu))


def hydrogenic_energy(nu: float) -> float:
    """Closed-form nonrelativistic ground energy for a point charge nu."""
    return -0.5 * nu * nu
