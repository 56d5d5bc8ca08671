"""Scalar special functions (the normal quantile, both real branches of
Lambert W on log x), column forms of two of them, and root finding used by
the analysis modules.

Everything here is a pure function of its arguments and safe to call from
any number of threads. The caches are alpha_for_level's and critical_z's:
bounded functools.lru_caches over the few levels a process uses, their alphas,
and the p-values fpr has just inverted, which each calibration asks for again.
norm_quantile calls the standard library's C AS241 from _statistics, so that
no process imports the statistics module (with fractions and decimal behind
it) for one function.
"""

import enum
import functools
import math
import sys
from itertools import repeat
from operator import truediv
from typing import Callable

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
# Cap on find_root's steps; from the package's starts Newton needs far fewer.
_FIND_ROOT_MAX_ITER = 200
DEFAULT_LEVEL, DEFAULT_ALPHA = 0.95, 0.05   # the alpha is alpha_for_level(DEFAULT_LEVEL)


class Branch(enum.Enum):
    """Branch selector for the real Lambert W function."""

    PRINCIPAL = "principal"  # W0, w >= -1
    SECONDARY = "secondary"  # W-1, w <= -1


# the members as globals: on Python 3.11 Branch.SECONDARY costs ~100 ns a lookup
PRINCIPAL, SECONDARY = Branch


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


def lambert_w_log(log_x: float, branch: Branch = PRINCIPAL) -> float:
    """Real Lambert W of -x, given log_x = log x: the w solving
    w + log(-w) = log_x, in [-1, 0) on the principal branch and w <= -1 on
    the secondary.

    Taking log x keeps arguments exact whose x underflows (x = e^-1600).
    Defined for log_x <= -1 (x <= 1/e); up to 1e-14 above -1 is taken as
    representation noise at the branch point. Halley iteration, whose step
    is the same on both branches, from the branch-point series of Corless
    et al. (1996, Adv. Comput. Math. 5:329) near -1 and from
    log_x - log(-log_x) (W-1) or -x (W0) below; W0 is -x itself for
    x < 2^-53.
    """
    if not math.isfinite(log_x):
        raise ValueError(f"lambert_w_log requires finite input, got {log_x!r}")
    if log_x >= -1.0:
        if log_x > -1.0 + 1e-14:
            raise ValueError(f"lambert_w_log requires log x <= -1, got {log_x!r}")
        return -1.0
    secondary = branch is SECONDARY
    if log_x > -2.0:
        p = math.sqrt(-2.0 * math.expm1(1.0 + log_x))
        p = -p if secondary else p
        w = -1.0 + p * (1.0 - p / 3.0 * (1.0 - 11.0 / 24.0 * p))
    elif secondary:
        w = log_x - math.log(-log_x)
    else:
        w = -math.exp(log_x)
        if w > -2.0 ** -53:
            return w  # -x - x^2 - ... rounds to -x, also where x underflows
    for _ in range(50):
        f = w + math.log(-w) - log_x
        wp1 = w + 1.0
        step = f * w / wp1 / (1.0 + f / (2.0 * wp1 * wp1))
        w -= step
        if abs(step) < 1e-14 * -w:
            break
    return w


def find_root(f: Callable[[float], tuple[float, float]], lo: float, hi: float,
              x0: float, f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Bracketed Newton root finder; f(x) returns (f(x), f'(x)).

    Requires f(lo), f(hi) of opposite sign (or zero) and lo <= x0 <= hi. A caller that knows
    the sign of f(lo) or f(hi) passes any number of it as f_lo or f_hi (only the sign is read,
    and the number is printed if the ends do not bracket), and f is not evaluated there. Newton
    steps from x0; each evaluation shrinks the bracket, and a step leaving it bisects instead.
    Stops once a step is within 2 ulp of x, when the bracket is 4 ulp wide, or f is exactly 0.
    """
    f_lo = f(lo)[0] if f_lo is None else f_lo
    f_hi = f(hi)[0] if f_hi is None else f_hi
    if f_lo > 0.0 < f_hi or f_lo < 0.0 > f_hi:   # f_lo * f_hi can underflow to 0
        raise ValueError(f"find_root: interval [{lo}, {hi}] does not bracket a root "
                         f"(f(lo)={f_lo!r}, f(hi)={f_hi!r})")
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    x = x0
    for _ in range(_FIND_ROOT_MAX_ITER):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        step = fx / slope if slope else math.inf
        tol = 2.0 * math.ulp(x)
        # Step test first: a roundoff step onto a bracket end would bisect.
        if abs(step) <= tol:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * tol:
                return x
    return x
