"""Core domain types: studies, effect estimates, normal priors and posteriors.
The study-table reader is in `meta`, beside `pool`, its only consumer.

Effects live on the log odds ratio scale throughout; odds-ratio-scale
values only appear at I/O boundaries via exp/log.
"""

import math
from itertools import repeat
from operator import add, mul, sub, truediv
from typing import NamedTuple

from .errors import DataError, NonexistenceError
from .statfn import (DEFAULT_ALPHA, DEFAULT_LEVEL, FLOAT_MIN, alpha_for_level,
                     critical_excess, critical_z, two_sided_p)


def _checked_make(cls, values):
    # namedtuple's _make, which _replace calls, would skip __new__'s checks
    return cls(*values)


class EffectEstimate(NamedTuple("EffectEstimate", [("theta_hat", float), ("se", float)])):
    """A normally distributed point estimate (log OR) with standard error."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, theta_hat: float, se: float):
        self = super().__new__(cls, theta_hat, se)
        if not (math.isfinite(self.theta_hat) and math.isfinite(self.se)):
            raise DataError("estimate and se must be finite")
        if self.se <= 0.0:
            raise DataError(f"standard error must be positive, got {self.se!r}")
        if math.isinf(self.theta_hat / self.se):
            raise DataError(f"z = estimate / se overflows: {self.theta_hat!r} / {self.se!r}")
        return self

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
        return critical_excess(self.z, alpha) > 0.0

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


class Study(NamedTuple("Study", [
        ("id", str), ("events_treatment", "int | None"), ("n_treatment", "int | None"),
        ("events_control", "int | None"), ("n_control", "int | None"),
        ("estimate", "float | None"), ("se", "float | None")])):
    """One trial: either 2x2 outcome counts or a precomputed estimate."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, id, events_treatment=None, n_treatment=None, events_control=None,
                n_control=None, estimate=None, se=None):
        self = super().__new__(cls, id, events_treatment, n_treatment,
                               events_control, n_control, estimate, se)
        if self[1:5].count(None) not in (0, 4):
            raise DataError(f"study {self.id!r}: supply all four counts or none")
        has_counts = None not in self[1:5]
        has_estimate = self.estimate is not None and self.se is not None
        if has_counts == has_estimate:
            raise DataError(f"study {self.id!r}: supply either all four counts "
                            "or estimate+se, not both or neither")
        if has_counts:
            if self.events_treatment < 0 or self.events_control < 0:
                raise DataError(f"study {self.id!r}: negative event count")
            if self.n_treatment <= 0 or self.n_control <= 0:
                raise DataError(f"study {self.id!r}: arm sizes must be positive")
            if (self.events_treatment > self.n_treatment
                    or self.events_control > self.n_control):
                raise DataError(f"study {self.id!r}: events exceed arm size")
        else:
            if self.se <= 0:
                raise DataError(f"study {self.id!r}: se must be positive")
        return self

    @property
    def has_counts(self) -> bool:
        return self.events_treatment is not None

    def effect_estimate(self) -> EffectEstimate:
        if self.has_counts:
            return estimate_from_counts(self)
        try:
            return EffectEstimate(self.estimate, self.se)
        except DataError as exc:
            raise DataError(f"study {self.id!r}: {exc}") from None


class NormalPrior(NamedTuple("NormalPrior", [("mean", float), ("variance", float)])):
    """Normal prior on the log OR scale."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, variance: float):
        self = super().__new__(cls, mean, variance)
        if self.variance <= 0.0 or not math.isfinite(self.variance):
            raise DataError(f"prior variance must be positive, got {self.variance!r}")
        return self

    @property
    def precision(self) -> float:
        return 1.0 / self.variance

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)


class PosteriorSummary(NamedTuple("PosteriorSummary", [("mean", float), ("precision", float)])):
    """Posterior mean and precision from forward normal updating."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, precision: float):
        self = super().__new__(cls, mean, precision)
        if self.precision <= 0.0:
            raise DataError(f"posterior precision must be positive, got {self.precision!r}")
        return self

    @property
    def sd(self) -> float:
        return 1.0 / math.sqrt(self.precision)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)

    def as_estimate(self) -> EffectEstimate:
        return EffectEstimate(self.mean, self.sd)


def estimate_from_counts(study: Study) -> EffectEstimate:
    """Log odds ratio and its standard error from 2x2 counts.

    All four cells must be positive; continuity corrections are deliberately
    not applied, so zero-cell studies must supply estimate+se directly.
    """
    if not study.has_counts:
        raise DataError(f"study {study.id!r} carries no counts")
    (theta,), (se,) = theta_se(*zip(study[1:]))
    if math.isnan(theta):
        raise DataError(f"study {study.id!r}: zero cell in the 2x2 table; "
                        "supply estimate and se directly instead")
    if math.isnan(se):
        raise NonexistenceError(f"study {study.id!r}: its counts are outside the "
                                "floating-point range")
    return EffectEstimate(theta, se)


def theta_se(events_t, n_t, events_c, n_c, estimate, se) -> tuple:
    """(log OR, se) columns from the columns of a table's Study fields: pool
    passes a table's, and estimate_from_counts one study's. From counts, each
    takes one correctly rounded quotient of exact integer products:
    log1p((ad - bc)/bc) for an odds ratio within (1/2, 2), else log(ad/bc),
    scaled by a power of two where it leaves the normal range, and
    sqrt((ad(b + c) + bc(a + d))/(ad bc)). Each step is a map or a
    comprehension over the count columns, so no call or tuple is made per
    study. It never raises: both are nan at a zero cell, and se where its
    square is not a normal float. Estimate columns pass as they are; in a list
    of Study that mixes the schemas, each counts row is taken alone."""
    if None in events_t:   # the estimate schema, or a list of Study that mixes the two
        if events_t.count(None) == len(events_t):
            return estimate, se
        theta, se = list(estimate), list(se)
        for i, cells in enumerate(zip(events_t, n_t, events_c, n_c)):
            if cells[0] is not None:
                (theta[i],), (se[i],) = theta_se(*zip(cells), (), ())
        return theta, se
    a, c = events_t, events_c
    b, d = list(map(sub, n_t, a)), list(map(sub, n_c, c))
    ad, bc = list(map(mul, a, d)), list(map(mul, b, c))
    numerator = map(add, map(mul, ad, map(add, b, c)), map(mul, bc, map(add, a, d)))
    denominator = list(map(mul, ad, bc))
    if not all(denominator):   # a zero cell: 0/1 makes its variance 0.0, so its se nan
        numerator = map(mul, numerator, map(bool, denominator))
        denominator = map(max, denominator, repeat(1))
    variance = list(map(truediv, numerator, denominator))
    se = list(map(math.sqrt, variance))
    if min(variance, default=FLOAT_MIN) < FLOAT_MIN:
        se = [s if v >= FLOAT_MIN else math.nan for s, v in zip(se, variance)]
    # the odds ratio r = ad/bc is below 2^1021 where ad >> 1020 < bc, so it raises no
    # OverflowError, and a zero cell's is 0.0 or inf; past the normal range,
    # ad / (bc 2^k) is within (1/2, 2)
    theta = [math.log1p((x - y) / y) if 0.5 < (r := x / y if x >> 1020 < y else math.inf) < 2.0
             else math.log(r) if FLOAT_MIN <= r < math.inf
             else math.nan if not (x and y)
             else math.log(x / (y << k) if (k := x.bit_length() - y.bit_length()) > 0
                           else (x << -k) / y) + k * math.log(2.0)
             for x, y in zip(ad, bc)]
    return theta, se


def interval(center: float, sd: float,
             level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric normal interval center -/+ z_crit * sd at the given level."""
    half = critical_z(alpha_for_level(level)) * sd
    return center - half, center + half


def ci_limits(estimate: EffectEstimate, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric confidence limits for the estimate at the given level."""
    return interval(estimate.theta_hat, estimate.se, level)
