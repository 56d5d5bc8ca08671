"""Analysis of Credibility: sceptical and advocacy priors, intrinsic
credibility, replication-direction probability, and prior-to-data
conversion into equivalent hypothetical trials."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonexistenceError
from .model import DEFAULT_LEVEL, EffectEstimate, NormalPrior, PriorRole
from .statfn import LOG_MAX, critical_ratio, critical_z, exp_or_inf, two_sided_p

DEFAULT_ALPHA = 1.0 - DEFAULT_LEVEL


@dataclass(frozen=True)
class ScepticalAnalysis:
    """Sufficiently sceptical prior for a significant finding."""

    g: float                 # relative prior variance tau^2 / sigma^2
    tau2: float
    limit: float             # scepticism limit S on the log OR scale
    critical_interval_or: tuple[float, float]

    def prior(self) -> NormalPrior:
        return NormalPrior(0.0, self.tau2, PriorRole.SCEPTICAL)


@dataclass(frozen=True)
class AdvocacyAnalysis:
    """Advocacy prior for a non-significant finding."""

    m: float                 # relative prior mean mu / theta_hat
    mu: float
    tau: float
    limit: float             # advocacy limit AL = 2 * mu
    cv: float                # tau / |mu| = 1 / z_crit

    def prior(self) -> NormalPrior:
        return NormalPrior(self.mu, self.tau * self.tau, PriorRole.ADVOCACY)


@dataclass(frozen=True)
class CredibilityVerdict:
    credible: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.credible


@dataclass(frozen=True)
class EquivalentTrial:
    """Hypothetical two-arm trial carrying the same information as a prior."""

    events_per_arm: float
    patients_per_arm: float | None = None
    allocation_ratio: float = 1.0
    # ((events, patients) treatment, (events, patients) control), unrounded
    per_arm_detail: tuple[tuple[float, float], tuple[float, float]] | None = None


def sceptical_relative_variance(z: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Relative variance g of the sceptical prior pulling a significant
    finding back to the credibility boundary."""
    ratio = critical_ratio(z, alpha)
    if ratio <= 1.0:
        raise NonexistenceError(
            f"sufficiently sceptical prior undefined: finding not significant "
            f"at alpha={alpha} (z={z:.4g})")
    return 1.0 / (ratio - 1.0)


def scepticism_limit(lower: float, upper: float) -> float:
    """Half-width S of the critical prior interval, from the CI limits."""
    if lower * upper <= 0.0:
        raise NonexistenceError(
            "scepticism limit requires a significant interval (limits of the same sign)")
    return (upper - lower) * (upper - lower) / (4.0 * math.sqrt(upper * lower))


def sceptical_analysis(estimate: EffectEstimate,
                       alpha: float = DEFAULT_ALPHA) -> ScepticalAnalysis:
    """Full sceptical-prior analysis of a significant estimate."""
    g = sceptical_relative_variance(estimate.z, alpha)
    tau2 = g * (estimate.se * estimate.se)
    limit = critical_z(alpha) * math.sqrt(tau2)
    return ScepticalAnalysis(g=g, tau2=tau2, limit=limit,
                             critical_interval_or=(exp_or_inf(-limit), exp_or_inf(limit)))


def advocacy_limit(lower: float, upper: float) -> float:
    """Far quantile AL of the advocacy prior, from non-significant CI limits."""
    if lower * upper >= 0.0:
        raise NonexistenceError(
            "advocacy limit requires a non-significant interval (limits straddling zero)")
    if lower + upper == 0.0:
        raise NonexistenceError("advocacy limit undefined for a zero point estimate")
    return -(upper + lower) / (2.0 * upper * lower) * ((upper - lower) * (upper - lower))


def advocacy_prior(estimate: EffectEstimate,
                   alpha: float = DEFAULT_ALPHA) -> AdvocacyAnalysis:
    """Advocacy prior pushing a non-significant finding to just credible.

    The prior's quantile nearer zero sits exactly at zero, so its
    coefficient of variation is fixed at 1/z_crit.
    """
    ratio = critical_ratio(estimate.z, alpha)
    if ratio >= 1.0:
        raise NonexistenceError(
            f"advocacy prior undefined: finding significant at alpha={alpha}")
    if estimate.theta_hat == 0.0:
        raise NonexistenceError("advocacy prior undefined for a zero point estimate")
    m = 2.0 / (1.0 - ratio)
    mu = m * estimate.theta_hat
    z_crit = critical_z(alpha)
    tau = abs(mu) / z_crit
    return AdvocacyAnalysis(m=m, mu=mu, tau=tau, limit=2.0 * mu, cv=1.0 / z_crit)


# Intrinsic credibility is r = z^2/z_crit^2 > factor: with the sceptical g = 1/(r - 1),
# the prior flavour's z^2 > z_crit^2 g is r^2 - r - 1 > 0, so r > phi (the golden
# ratio), and the predictive flavour's z^2/(1 + g) > z_crit^2 is r > 2.
_INTRINSIC_FACTOR = {"prior_based": (1.0 + math.sqrt(5.0)) / 2.0, "predictive_based": 2.0}


def _intrinsic_factor(flavor: str) -> float:
    if flavor not in _INTRINSIC_FACTOR:
        raise ValueError(f"unknown flavor {flavor!r}")
    return _INTRINSIC_FACTOR[flavor]


def intrinsic_credibility(estimate: EffectEstimate,
                          alpha: float = DEFAULT_ALPHA,
                          flavor: str = "predictive_based") -> CredibilityVerdict:
    """Can the finding withstand the sceptical prior derived from itself?

    flavor "prior_based": the estimate must lie outside the critical prior
    interval. flavor "predictive_based": the prior-predictive tail
    probability of the estimate must fall below alpha.
    """
    factor = _intrinsic_factor(flavor)
    ratio = critical_ratio(estimate.z, alpha)
    if ratio <= 1.0:
        return CredibilityVerdict(False, "not significant at this level")
    return CredibilityVerdict(ratio > factor)


def intrinsic_boundary_p(alpha: float = DEFAULT_ALPHA,
                         flavor: str = "predictive_based") -> float:
    """Largest two-sided p-value that is still intrinsically credible at
    this alpha: that of the z with z^2 = factor * z_crit^2."""
    return two_sided_p(math.sqrt(_intrinsic_factor(flavor)) * critical_z(alpha))


def credibility_ratio(lower: float, upper: float) -> float:
    """Ratio of the CI limits, the quick check for intrinsic credibility."""
    if lower * upper <= 0.0:
        raise NonexistenceError(
            "credibility ratio requires a significant interval (limits of the same sign)")
    return max(abs(upper / lower), abs(lower / upper))


def credibility_ratio_bound() -> float:
    """Critical credibility ratio implied by the predictive-based boundary.

    At that boundary z = sqrt(2) z_crit, so the ratio of the CI limits,
    (z + z_crit) / (z - z_crit), is (1 + sqrt(2))^2 at every alpha.
    """
    return 3.0 + 2.0 * math.sqrt(2.0)


def p_intrinsic(z: float) -> float:
    """Smallest level at which the finding is intrinsically credible."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    return two_sided_p(z / math.sqrt(2.0))


def p_rep(z: float) -> float:
    """Probability that a replication estimate shares the original's sign."""
    return 1.0 - p_intrinsic(z) / 2.0


def equivalent_trial(prior: NormalPrior,
                     event_rate: float | None = None,
                     patients_per_arm: float | None = None) -> EquivalentTrial:
    """Convert a normal prior into the hypothetical two-arm trial whose data
    carry the same information.

    A mean-zero prior with variance tau^2 corresponds to 2/tau^2 events per
    arm of arbitrarily large arms; pass either patients_per_arm for finite
    arms or event_rate to fix the per-arm event fraction. For a nonzero mean
    only event_rate applies: a target control event rate selects among the
    integer-event constructions that match the prior mean and variance exactly.
    """
    tau2 = prior.variance
    if not (tau2 > 0.0 and math.isfinite(tau2)):
        raise ValueError("prior variance must be positive and finite")
    if event_rate is not None and not (0.0 < event_rate < 1.0):
        raise ValueError(f"event rate must be in (0,1), got {event_rate!r}")
    mu = prior.mean
    if patients_per_arm is not None and (mu != 0.0 or event_rate is not None):
        raise ValueError("patients_per_arm applies only to a mean-zero prior "
                         "without an event rate")

    if mu == 0.0:
        if event_rate is not None:
            n = 2.0 / (tau2 * event_rate * (1.0 - event_rate))
            return EquivalentTrial(events_per_arm=event_rate * n, patients_per_arm=n)
        if patients_per_arm is not None:
            # events e per arm of N patients: 2/e + 2/(N-e) = tau^2
            n = float(patients_per_arm)
            disc = n * n - 8.0 * n / tau2
            if disc < 0.0:
                raise ValueError(
                    f"no trial with {patients_per_arm} patients per arm carries "
                    f"as little information as variance {tau2:.4g}")
            return EquivalentTrial(events_per_arm=0.5 * (n - math.sqrt(disc)),
                                   patients_per_arm=n)
        return EquivalentTrial(events_per_arm=2.0 / tau2)

    if abs(mu) > LOG_MAX:
        raise NonexistenceError(
            f"no equivalent trial: the allocation ratio exp({mu:.6g}) is "
            f"outside the floating-point range")
    allocation = math.exp(mu)
    if event_rate is None:
        # large-arm limit: non-event cells contribute nothing to the variance
        return EquivalentTrial(events_per_arm=2.0 / tau2, allocation_ratio=allocation)

    # Equal event counts e in both arms; non-event cells b (treatment) and
    # d (control) solve {log(d/b) = mu, 2/e + 1/b + 1/d = tau^2}. The
    # control rate e/(e+d) rises with e and equals the target at e_star, so
    # the closest integer construction is one of its two neighbours.
    def control_cells(e: float) -> float:
        return (1.0 + allocation) / (tau2 - 2.0 / e)

    e_star = (2.0 + (1.0 + allocation) * event_rate / (1.0 - event_rate)) / tau2
    if math.isinf(e_star):
        raise NonexistenceError(
            f"no equivalent trial: its event count is outside the "
            f"floating-point range (prior variance {tau2:.6g})")
    e_floor = math.floor(e_star)
    feasible = [float(e) for e in (e_floor, e_floor + 1) if e > 0 and tau2 - 2.0 / e > 0.0]
    e = min(feasible, key=lambda e: abs(e / (e + control_cells(e)) - event_rate))
    d = control_cells(e)
    b = (1.0 + 1.0 / allocation) / (tau2 - 2.0 / e)
    return EquivalentTrial(
        events_per_arm=e,
        allocation_ratio=allocation,
        per_arm_detail=((e, e + b), (e, e + d)),
    )
