"""Core domain types: effect estimates and normal priors. The study row
`Study`, the posterior summary, the log OR from 2x2 counts and the study-table
reader are in `meta`, beside `pool`, so that only a meta process compiles them.

Effects live on the log odds ratio scale throughout; odds-ratio-scale
values only appear at I/O boundaries via exp/log.
"""

import math
from collections import namedtuple

from .errors import DataError, NonexistenceError
from .statfn import (DEFAULT_ALPHA, DEFAULT_LEVEL, alpha_for_level, critical_excess,
                     critical_z, interval, two_sided_p)


def _checked_make(cls, values):
    # namedtuple's _make, which _replace calls, would skip __new__'s checks
    return cls(*values)


class EffectEstimate(namedtuple("EffectEstimate", "theta_hat se")):
    """A normally distributed point estimate (log OR) with standard error."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, theta_hat: float, se: float):
        if not (math.isfinite(theta_hat) and math.isfinite(se)):
            raise DataError("estimate and se must be finite")
        if se <= 0.0:
            raise DataError(f"standard error must be positive, got {se!r}")
        if math.isinf(theta_hat / se):
            raise DataError(f"z = estimate / se overflows: {theta_hat!r} / {se!r}")
        # tuple's own __new__: namedtuple's would add a Python call
        return tuple.__new__(cls, (theta_hat, se))

    @property
    def z(self) -> float:
        return self.theta_hat / self.se

    @property
    def p_value(self) -> float:
        return two_sided_p(self.z)

    @property
    def precision(self) -> float:
        se2 = self.se * self.se
        precision = 1.0 / se2 if se2 > 0.0 else math.inf
        if precision == math.inf:
            raise NonexistenceError(f"precision 1/se^2 is outside the floating-point range "
                                    f"for se = {self.se!r}")
        return precision

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return ci_limits(self, level)

    def significant(self, alpha: float = DEFAULT_ALPHA) -> bool:
        return critical_excess(self.theta_hat, self.se, alpha)[0] > 0

    @classmethod
    def from_ci(cls, lower: float, upper: float,
                level: float = DEFAULT_LEVEL) -> "EffectEstimate":
        """Reconstruct an estimate from a symmetric confidence interval."""
        if upper <= lower:
            raise DataError(f"need lower < upper, got ({lower!r}, {upper!r})")
        z_crit = critical_z(alpha_for_level(level))
        theta_hat, se = 0.5 * (lower + upper), (upper - lower) / (2.0 * z_crit)
        if math.isinf(theta_hat) or math.isinf(se):   # halves only on overflow: they round if subnormal
            theta_hat, se = 0.5 * lower + 0.5 * upper, (0.5 * upper - 0.5 * lower) / z_crit
        if math.isfinite(theta_hat) and not 0.0 < se < math.inf:
            raise NonexistenceError(f"standard error of the interval ({lower!r}, {upper!r}) "
                                    "is outside the floating-point range")
        return cls(theta_hat, se)


class NormalPrior(namedtuple("NormalPrior", "mean variance")):
    """Normal prior on the log OR scale."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, variance: float):
        if variance <= 0.0 or not math.isfinite(variance):
            raise DataError(f"prior variance must be positive, got {variance!r}")
        return tuple.__new__(cls, (mean, variance))

    @property
    def precision(self) -> float:
        return 1.0 / self.variance

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)


def ci_limits(estimate: EffectEstimate, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric confidence limits for the estimate at the given level."""
    return interval(estimate.theta_hat, estimate.se, level)


def __getattr__(name: str):
    # PEP 562: `from revbayes.model import Study` is public, and perfbench's tracer reads it
    if name == "Study":
        from .meta import Study
        return Study
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
