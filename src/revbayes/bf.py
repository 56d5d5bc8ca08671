"""Bayes-factor-based credibility analysis: minimum Bayes factors,
sufficiently sceptical prior variances via Lambert W, advocacy priors with
fixed coefficient of variation, and the Bayes factor for intrinsic
credibility.

All Bayes factors are oriented as BF01 (null over alternative); display
layers may invert to "1/x" strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonexistenceError
from .model import EffectEstimate, NormalPrior, interval
from .statfn import (LOG_MAX, Branch, exp_or_inf, find_root, lambert_w,
                     lambert_wm1_log)


@dataclass(frozen=True)
class BfScepticalSolution:
    """Both relative prior variances g at which BF01 equals the cut-off."""

    g_small: float
    g_large: float
    gamma: float
    # 95% prior credible interval of the small-g (sceptical) prior, OR scale;
    # only available when the estimate's standard error is known.
    prior_interval_or: tuple[float, float] | None = None


@dataclass(frozen=True)
class BfAdvocacySolution:
    """Both advocacy priors (fixed CV) at which BF01 equals the cut-off."""

    m_small: float
    tau_small: float
    m_large: float
    tau_large: float
    gamma: float
    cv: float

    @property
    def recommended_m(self) -> float:
        """The root closer to zero: the more conservative choice."""
        return self.m_small


def bf01_sceptical(z: float, g: float) -> float:
    """BF01 for the point null against a mean-zero normal prior with
    relative variance g."""
    if g <= 0.0:
        raise ValueError(f"relative prior variance must be positive, got {g!r}")
    return math.sqrt(1.0 + g) * math.exp(-(g / (1.0 + g)) * z ** 2 / 2.0)


def min_bf_local(z: float) -> float:
    """Minimum BF01 over all mean-zero normal alternatives."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if abs(z) <= 1.0:
        return 1.0
    return abs(z) * math.exp(-z ** 2 / 2.0) * math.sqrt(math.e)


def min_bf_els(z: float) -> float:
    """Minimum BF01 over all possible priors (simple alternative at the MLE)."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    return math.exp(-z ** 2 / 2.0)


def sceptical_g_for_gamma(z: float, gamma: float,
                          se: float | None = None) -> BfScepticalSolution:
    """Both relative prior variances making the finding just non-compelling
    at the cut-off gamma.

    The small solution (secondary Lambert branch) is the sceptical prior;
    the large one (principal branch) represents ignorance. A prior interval
    on the OR scale is attached when the standard error is supplied.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0,1), got {gamma!r}")
    floor = min_bf_local(z)
    if floor > gamma:
        raise NonexistenceError(
            f"no sceptical prior reaches BF01 = {gamma:.4g}: the attainable "
            f"minimum is {floor:.4g}")
    # 1 + g = -z^2 / W(-x) with x = (z^2/gamma^2) e^(-z^2), which underflows
    # from |z| ~ 27: W-1 takes log x, and as W(-x) e^W(-x) = -x, the large
    # root is 1 + g = gamma^2 e^(z^2 + W0(-x)), W0(-x) -> 0 as x -> 0.
    log_x = 2.0 * math.log(abs(z)) - 2.0 * math.log(gamma) - z ** 2
    q_small = lambert_wm1_log(log_x)
    q_large = lambert_w(-math.exp(log_x), Branch.PRINCIPAL)
    g_small = -z ** 2 / q_small - 1.0
    log_large = z ** 2 + 2.0 * math.log(gamma) + q_large
    g_large = math.expm1(log_large) if log_large <= LOG_MAX else math.inf
    # Branch-point roundoff can leave g marginally below the tangency value.
    g_small = max(g_small, 1e-15)
    g_large = max(g_large, g_small)
    interval_or = None
    if se is not None:
        lo, hi = interval(0.0, math.sqrt(g_small) * se)
        interval_or = (exp_or_inf(lo), exp_or_inf(hi))
    return BfScepticalSolution(g_small=g_small, g_large=g_large, gamma=gamma,
                               prior_interval_or=interval_or)


def bf01_normal_prior(estimate: EffectEstimate, prior: NormalPrior) -> float:
    """BF01 for the point null against a general normal prior."""
    if not (prior.variance > 0.0 and math.isfinite(prior.variance)):
        raise ValueError("prior variance must be positive and finite")
    s2 = estimate.se ** 2
    t2 = prior.variance
    quad = (estimate.theta_hat ** 2 / s2
            - (estimate.theta_hat - prior.mean) ** 2 / (s2 + t2))
    return math.sqrt(1.0 + t2 / s2) * math.exp(-0.5 * quad)


def z_gamma(gamma: float) -> float:
    """Evidential weight z(gamma) of data whose all-priors minimum BF01
    equals gamma."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0,1], got {gamma!r}")
    return math.sqrt(-2.0 * math.log(gamma))


def advocacy_for_gamma(estimate: EffectEstimate, gamma: float) -> BfAdvocacySolution:
    """Both advocacy priors (relative mean m, sd = |mu|/z(gamma)) at which
    BF01 equals the cut-off gamma.

    The family fixes the coefficient of variation to 1/z(gamma), leaving m
    as the only free parameter. BF01(m) falls from 1 at m = 0+ to a single
    minimum and then grows without bound; both roots around the minimum are
    returned, ordered by |m|.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0,1), got {gamma!r}")
    if estimate.theta_hat == 0.0:
        raise NonexistenceError("advocacy prior undefined for a zero point estimate")
    cv = 1.0 / z_gamma(gamma)
    z2 = estimate.z ** 2
    k = (cv * estimate.z) ** 2
    log_gamma = math.log(gamma)

    # h(m) = log BF01(m) - log gamma, with tau^2 / se^2 = k m^2. From m = 1
    # on it is written in w = 1/m and t = log m (h_log), finite for every m;
    # h(1) is h_log(0), so the two large-root brackets agree on its sign.
    def h(m: float) -> float:
        if m >= 1.0:
            return h_log(math.log(m))
        return (0.5 * math.log1p(k * m * m)
                - 0.5 * z2 * m * (2.0 + (k - 1.0) * m) / (1.0 + k * m * m) - log_gamma)

    def h_log(t: float) -> float:
        w = math.exp(-t)
        return (t + 0.5 * math.log(k + w * w) - 0.5 * z2
                + 0.5 * z2 * (w - 1.0) ** 2 / (w * w + k) - log_gamma)

    # dBF01/dm = 0 is k^2 m^3 + k z^2 m^2 + (k - k z^2 + z^2) m - z^2 = 0,
    # here divided by z^2. Its coefficients change sign once, so it has one
    # positive root, and p(0) = -1 < 0 < p(1) = cv^2 (k + 1).
    m_min = find_root(
        lambda m: (k * cv ** 2 * m + k) * m * m + (1.0 + cv ** 2 - k) * m - 1.0,
        0.0, 1.0)
    h_min = h(m_min)
    if h_min > 0.0:
        raise NonexistenceError(
            f"no advocacy prior reaches BF01 = {gamma:.4g}: the family's "
            f"minimum is {gamma * math.exp(h_min):.4g} (at m = {m_min:.4g})")

    # h(0) = -log gamma > 0. For m >= 1, log BF01 >= log m + log(k)/2 - z^2/2,
    # so h(e^t) >= 0 at t_hi = z^2/2 + log gamma - log(k)/2; h(1) < 0 puts
    # t_hi above log(1 + 1/k)/2 > 0.
    m_small = find_root(h, 0.0, m_min)
    if h(1.0) >= 0.0:
        m_large = find_root(h, m_min, 1.0)
    else:
        t_hi = 0.5 * z2 + log_gamma - 0.5 * math.log(k)
        t_large = find_root(h_log, 0.0, t_hi)
        m_large = exp_or_inf(t_large)

    theta = abs(estimate.theta_hat)
    return BfAdvocacySolution(
        m_small=m_small, tau_small=cv * m_small * theta,
        m_large=m_large, tau_large=cv * m_large * theta,
        gamma=gamma, cv=cv)


def advocacy_prior_interval_or(estimate: EffectEstimate, m: float,
                               gamma: float) -> tuple[float, float]:
    """Prior credible interval on the OR scale for an advocacy solution,
    taken at the level whose critical value is z(gamma); one endpoint is
    exactly 1 by construction."""
    mu = m * estimate.theta_hat
    return (exp_or_inf(mu - abs(mu)), exp_or_inf(mu + abs(mu)))


def bf12_sceptical_vs_optimistic(z: float, g: float) -> float:
    """BF contrasting the sceptical prior with relative variance g to the
    optimistic prior centred at the estimate with its own variance."""
    if g <= 0.0:
        raise ValueError(f"relative prior variance must be positive, got {g!r}")
    return math.sqrt(2.0 / (1.0 + g)) * math.exp(-z ** 2 / (2.0 * (1.0 + g)))


def bf_intrinsic(estimate: EffectEstimate) -> float:
    """Smallest cut-off gamma at which the finding is intrinsically credible
    under the sceptical-vs-optimistic contrast.

    BF01(z, g) = BF12(z, g) at the sceptical g. With v = z^2 / (1 + g) this
    reads v e^-v = x = z^2 e^(-z^2/2) / sqrt(2), so v = -W(-x) on the
    secondary branch (v >= 1, i.e. g at or below the BF01 minimiser
    z^2 - 1). W takes log x, as x underflows from |z| ~ 38.
    """
    z = estimate.z
    if abs(z) <= 1.0:
        raise NonexistenceError(
            "no cut-off admits a sceptical prior: |z| does not exceed 1")
    log_x = 2.0 * math.log(abs(z)) - z ** 2 / 2.0 - 0.5 * math.log(2.0)
    if log_x > -1.0:
        raise NonexistenceError("no admissible cut-off for intrinsic credibility")
    v = -lambert_wm1_log(log_x)
    return bf01_sceptical(z, z ** 2 / v - 1.0)
