"""Exception types shared across the package."""


class ChargeModelError(ValueError):
    """Invalid charge-distribution data (strengths, radii, positions)."""


class SingularLocationError(ChargeModelError):
    """Potential requested at (or too close to) a point-charge location."""


class MergedAtomTooHeavyError(ChargeModelError):
    """Point mass at one position (coincident atoms, point layers at the
    origin, or atoms a pushforward merged) sums to a strength above 1."""


class NoGapEigenvalueError(RuntimeError):
    """No eigenvalue inside the gap for the requested problem."""


class UncertifiedEigenvalueError(RuntimeError):
    """The inertia test does not confirm an eigenvalue as the lowest."""


class IllConditionedBasisError(RuntimeError):
    """Metric factorization failed or condition cap exceeded after filtering."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""
