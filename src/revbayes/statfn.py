"""Scalar functions that more than one module calls: the normal quantile,
critical values, and the p-value and minimum Bayes factors of a z-value, with
column forms of two of them. Lambert W and the root finder are bf's alone.

Everything here is a pure function of its arguments and safe to call from
any number of threads. The caches are alpha_for_level's and critical_z's:
bounded functools.lru_caches over the few levels a process uses, their alphas,
and the p-values fpr has just inverted, which each calibration asks for again.
norm_quantile calls the standard library's C AS241 from _statistics, so that
no process imports the statistics module (with fractions and decimal behind
it) for one function.
"""

import functools
import math
import sys
from itertools import repeat
from operator import truediv

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
    return x + (0.5 * math.erfc(x / _SQRT2) - half) / norm_pdf(x)


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


def critical_excess(z: float, alpha: float) -> float:
    """r - 1 for r = z^2/z_crit^2, from |z| - z_crit, exact near r = 1 (Sterbenz). Significant
    iff positive; sceptical g = 1/(r - 1), advocacy m = 2/(1 - r), fail-safe N = n (r - 1)."""
    z_crit = critical_z(alpha)
    return (abs(z) - z_crit) / z_crit * ((abs(z) + z_crit) / z_crit)


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


def exp_or_inf_column(xs) -> list:
    """[exp_or_inf(x) for x in xs], bit for bit, with no Python call per item:
    one map of math.exp where no x is past LOG_MAX. The sum finds a nan,
    whose exp_or_inf is inf, where max can skip one after a number."""
    if xs and max(xs) <= LOG_MAX and not math.isnan(sum(xs)):
        return list(map(math.exp, xs))
    return list(map(exp_or_inf, xs))


def two_sided_p_column(zs) -> list:
    """[two_sided_p(z) for z in zs], bit for bit, by maps of builtins."""
    return list(map(math.erfc, map(truediv, map(abs, zs), repeat(_SQRT2))))
