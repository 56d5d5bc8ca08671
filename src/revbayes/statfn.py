"""Scalar special functions (normal CDF and quantile, both real branches of
Lambert W on log x) and root finding used by the analysis modules.

Everything here is a pure function of its arguments and safe to call from
any number of threads. The one cache is critical_z's: a bounded
functools.lru_cache over the few significance levels a process uses.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from statistics import NormalDist
from typing import Callable

_SQRT2 = math.sqrt(2.0)
# Largest t with exp(t) finite.
LOG_MAX = math.log(sys.float_info.max)
# Cap on find_root's steps; from the package's starts Newton needs far fewer.
_FIND_ROOT_MAX_ITER = 200


class Branch(enum.Enum):
    """Branch selector for the real Lambert W function."""

    PRINCIPAL = "principal"  # W0, w >= -1
    SECONDARY = "secondary"  # W-1, w <= -1


def norm_cdf(x: float) -> float:
    """Standard normal CDF Phi(x) via the complementary error function."""
    if not math.isfinite(x):
        raise ValueError(f"norm_cdf requires finite input, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


_STD_NORMAL = NormalDist()


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF, by Wichura's AS241 (Appl. Stat. 37:477,
    1988), which the statistics module runs in C."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"norm_quantile requires 0 < p < 1, got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


def two_sided_z(alpha: float) -> float:
    """|z| with two-sided p-value alpha, Phi^-1(1 - alpha/2). Taken from the
    lower tail, as 1 - alpha/2 rounds, plus one Newton step on
    erfc(x / sqrt(2)) / 2 = alpha / 2."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0,1), got {alpha!r}")
    x = -norm_quantile(alpha / 2.0)
    return x + (0.5 * math.erfc(x / _SQRT2) - alpha / 2.0) / norm_pdf(x)


@functools.lru_cache(maxsize=16)
def critical_z(alpha: float) -> float:
    """two_sided_z(alpha), memoised: callers ask for the same few levels again."""
    return two_sided_z(alpha)


def critical_ratio(z: float, alpha: float) -> float:
    """r = z^2 / z_crit^2. Significant iff r > 1; sceptical g = 1/(r - 1),
    advocacy m = 2/(1 - r) and fail-safe N = n (r - 1) are closed forms of r."""
    z_crit = critical_z(alpha)
    return z * z / (z_crit * z_crit)


def exp_or_inf(x: float) -> float:
    """exp(x), or inf past the float range (x > LOG_MAX) instead of OverflowError."""
    return math.exp(x) if x <= LOG_MAX else math.inf


def two_sided_p(z: float) -> float:
    """Two-sided normal p-value of a z statistic."""
    return math.erfc(abs(z) / _SQRT2)


def lambert_w_log(log_x: float, branch: Branch = Branch.PRINCIPAL) -> float:
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
    secondary = branch is Branch.SECONDARY
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
              x0: float) -> float:
    """Bracketed Newton root finder; f(x) returns (f(x), f'(x)).

    Requires f(lo) and f(hi) of opposite sign (or zero), and lo <= x0 <= hi.
    Newton steps from x0; each evaluation shrinks the bracket, and a step that
    would leave it bisects instead. Stops once a step is within 2 ulp of x,
    when the bracket is 4 ulp wide, or when f is exactly zero.
    """
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    if f_lo * f_hi > 0.0:
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
