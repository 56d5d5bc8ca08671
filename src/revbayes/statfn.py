"""Scalar special functions and root finding used by the analysis modules.

Everything here is a pure function of its arguments and safe to call from
any number of threads. The one cache is critical_z's: a bounded
functools.lru_cache over the few significance levels a process uses.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from typing import Callable

_SQRT2 = math.sqrt(2.0)
_INV_E = math.exp(-1.0)
# Largest t with exp(t) finite.
LOG_MAX = math.log(sys.float_info.max)
# Cap on find_root's steps; the brackets the package passes narrow to the
# stopping width in far fewer.
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


# Acklam-style rational approximation for the normal quantile; accurate to
# about 1e-9 on its own, refined below by Newton steps against norm_cdf.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def _quantile_seed(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def norm_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Rational-approximation seed followed by Newton refinement against
    norm_cdf, so the round trip norm_cdf(norm_quantile(p)) = p holds to
    better than 1e-12 over the usable range.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"norm_quantile requires 0 < p < 1, got {p!r}")
    x = _quantile_seed(p)
    for _ in range(3):
        err = norm_cdf(x) - p
        if err == 0.0:
            break
        step = err / norm_pdf(x)
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


@functools.lru_cache(maxsize=16)
def critical_z(alpha: float) -> float:
    """Two-sided critical value Phi^-1(1 - alpha/2) at significance level
    alpha, memoised: callers ask for the same few levels again and again."""
    return norm_quantile(1.0 - alpha / 2.0)


def exp_or_inf(x: float) -> float:
    """exp(x), or inf past the float range (x > LOG_MAX) instead of OverflowError."""
    return math.exp(x) if x <= LOG_MAX else math.inf


def chisq1_tail(t: float) -> float:
    """P(chi-square with 1 df >= t) = 2 * (1 - Phi(sqrt(t)))."""
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"chisq1_tail requires t >= 0, got {t!r}")
    return math.erfc(math.sqrt(t / 2.0))


def two_sided_p(z: float) -> float:
    """Two-sided normal p-value of a z statistic."""
    return math.erfc(abs(z) / _SQRT2)


def lambert_w(x: float, branch: Branch = Branch.PRINCIPAL) -> float:
    """Real Lambert W: solve w * exp(w) = x on the requested branch.

    Principal branch is defined for x >= -1/e (w >= -1); the secondary
    branch for -1/e <= x < 0 (w <= -1) and is computed by lambert_wm1_log.
    Halley iteration from a branch-appropriate seed.
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w requires finite input, got {x!r}")
    if x < -_INV_E:
        # Tolerate representation noise right at the branch point.
        if x > -_INV_E - 1e-15:
            return -1.0
        raise ValueError(f"lambert_w undefined for x < -1/e, got {x!r}")
    if x == -_INV_E:
        return -1.0
    if branch is Branch.SECONDARY:
        if x >= 0.0:
            raise ValueError("secondary branch requires -1/e <= x < 0")
        return lambert_wm1_log(math.log(-x))
    if x == 0.0:
        return 0.0
    if abs(x) < 0.5:
        w = x * (1.0 - x)  # series seed near zero
    elif x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)  # asymptotic seed for large x
    else:
        w = math.log(x)

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) < 1e-14 * max(1.0, abs(w)):
            break
    return w


def lambert_wm1_log(log_x: float) -> float:
    """Secondary-branch Lambert W of -x, given log_x = log x: the w <= -1
    solving w + log(-w) = log_x.

    Taking log x keeps arguments exact whose x underflows (x = e^-1600).
    Defined for log_x <= -1 (x <= 1/e); up to 1e-14 above -1 is taken as
    representation noise at the branch point. Halley iteration from the
    branch-point series seed near -1 and from log_x - log(-log_x) below.
    """
    if not math.isfinite(log_x):
        raise ValueError(f"lambert_wm1_log requires finite input, got {log_x!r}")
    if log_x >= -1.0:
        if log_x > -1.0 + 1e-14:
            raise ValueError(f"secondary branch requires log x <= -1, got {log_x!r}")
        return -1.0
    if log_x > -2.0:
        p = -math.sqrt(-2.0 * math.expm1(1.0 + log_x))
        w = -1.0 + p * (1.0 - p / 3.0 * (1.0 - 11.0 / 24.0 * p))
    else:
        w = log_x - math.log(-log_x)
    for _ in range(50):
        f = w + math.log(-w) - log_x
        wp1 = w + 1.0
        step = f * w / wp1 / (1.0 + f / (2.0 * wp1 * wp1))
        w -= step
        if abs(step) < 1e-14 * -w:
            break
    return w


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Brent-style bracketing root finder.

    Requires f(lo) and f(hi) of opposite sign (or zero). Terminates when the
    bracket narrows to 4 ulp, 4 * eps * |x| at every scale, or f is exactly zero.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"find_root: interval [{lo}, {hi}] does not bracket a root "
                         f"(f(lo)={fa!r}, f(hi)={fb!r})")
    c, fc = a, fa
    d = e = b - a
    rel, tiny = 2.0 * sys.float_info.epsilon, sys.float_info.min
    for _ in range(_FIND_ROOT_MAX_ITER):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(rel * abs(b), tiny)
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if fb == 0.0:
            return b
    return b
