"""Scalar functions that more than one module calls: the normal quantile,
critical values, the symmetric normal interval, and the p-value and minimum
Bayes factors of a z-value. A column of p-values, bounded exps or limits is a
map of the scalar, its one home. Lambert W and the root finder are bf's alone.

Everything here is a pure function of its arguments and safe to call from
any number of threads. Its bounded functools.lru_caches hold alpha_for_level and
critical_z over the levels, alphas and just-inverted p-values that callers ask
for again, and critical_excess over the findings whose analyses ask for it again:
its record holds the integer ratios of theta, se and z_crit, which no analysis forms again.
norm_quantile calls the standard library's C AS241 from _statistics, so that
no process imports the statistics module (with fractions and decimal behind
it) for one function.
"""

import functools
import math
import sys

from .errors import DataError

try:   # the C AS241 behind NormalDist().inv_cdf, without importing statistics
    from _statistics import _normal_dist_inv_cdf
except ImportError:   # an interpreter built without _statistics, such as PyPy
    from statistics import _normal_dist_inv_cdf

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Largest t with exp(t) finite.
LOG_MAX = math.log(sys.float_info.max)
# Smallest normal float: a product below it keeps fewer than 53 bits.
FLOAT_MIN = sys.float_info.min
DEFAULT_LEVEL, DEFAULT_ALPHA = 0.95, 0.05   # the alpha is alpha_for_level(DEFAULT_LEVEL)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF, by Wichura's AS241 (Appl. Stat. 37:477,
    1988): the standard library's own routine, so the bits are
    NormalDist().inv_cdf's."""
    if not (0.0 < p < 1.0):   # the C routine checks nothing: nan in, nan out
        raise ValueError(f"norm_quantile requires 0 < p < 1, got {p!r}")
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def two_sided_z(alpha: float) -> float:
    """|z| with two-sided p-value alpha, Phi^-1(1 - alpha/2). Taken from the
    lower tail, as 1 - alpha/2 rounds, plus one Newton step on
    erfc(x / sqrt(2)) / 2 = alpha / 2."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha!r}")
    if alpha == 5e-324:   # alpha / 2 rounds to 0; the correctly rounded root
        return 38.48540833556734
    half = alpha / 2.0
    x = -norm_quantile(half)
    return x + (0.5 * two_sided_p(x) - half) / norm_pdf(x)


@functools.lru_cache(maxsize=16)
def critical_z(alpha: float) -> float:
    """two_sided_z(alpha), memoised: callers ask for the same levels and p-values again."""
    return two_sided_z(alpha)


@functools.lru_cache(maxsize=16)
def alpha_for_level(level: float) -> float:
    """1 - level for the decimal m / 10^k of the level's shortest repr, as it was written, as
    (10^k - m) / 10^k in one rounding: 0.05 for 0.95, whose float is 0.9499999999999999556."""
    mantissa, _, exponent = repr(float(level)).partition("e")
    scale = 10 ** (len(mantissa.partition(".")[2]) - int(exponent or 0))
    alpha = (scale - int(mantissa.replace(".", ""))) / scale if 0.0 < level < 1.0 else 1.0
    if alpha < 1.0:
        return alpha
    raise DataError(f"level must be in (0,1), with 1 - level a float below 1, got {level!r}")


def interval(center: float, sd: float,
             level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric normal interval center -/+ z_crit * sd at the given level."""
    half = critical_z(alpha_for_level(level)) * sd
    return center - half, center + half


@functools.lru_cache(maxsize=16)
def critical_excess(theta: float, se: float, alpha: float) -> tuple:
    """A finding's record (E, Y^2, (a, b), (c, d), (p, q)): r - 1 = E/Y^2 for r = (theta/(se
    z_crit))^2 of the floats taken as exact, so significant iff E > 0, and the integer ratios
    theta = a/b, se = c/d and z_crit = p/q that it is formed from. Memoised, for each analysis."""
    (a, b), (c, d) = theta.as_integer_ratio(), se.as_integer_ratio()
    p, q = critical_z(alpha).as_integer_ratio()
    x, y = a * d * q, b * c * p
    return (x - y) * (x + y), y * y, (a, b), (c, d), (p, q)


def exact_quotient(n: int, d: int, shift: int = 0) -> float:
    """n 2^shift / d for d > 0 in one rounding, or its infinite limit past the float range."""
    try:
        return (n << shift) / d if shift >= 0 else n / (d << -shift)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def exp_or_inf(x: float) -> float:
    """exp(x), or inf past the float range (x > LOG_MAX) instead of OverflowError."""
    return math.exp(x) if x <= LOG_MAX else math.inf


def two_sided_p(z: float) -> float:
    """Two-sided normal p-value of a z statistic."""
    return math.erfc(abs(z) / _SQRT2)


def min_bf_local(z: float) -> float:
    """Minimum BF01 over all mean-zero normal alternatives."""
    if not math.isfinite(z):
        raise DataError(f"z must be finite, got {z!r}")
    if abs(z) <= 1.0:
        return 1.0
    bf = abs(z) * math.exp(-z * z / 2.0) * math.sqrt(math.e)
    if bf < FLOAT_MIN:
        # e^(-z^2/2) rounded as a subnormal, to few bits: round once instead
        bf = math.exp(math.log(abs(z)) + 0.5 - z * z / 2.0)
    return bf


def min_bf_els(z: float) -> float:
    """Minimum BF01 over all possible priors (simple alternative at the MLE)."""
    if not math.isfinite(z):
        raise DataError(f"z must be finite, got {z!r}")
    return math.exp(-z * z / 2.0)

