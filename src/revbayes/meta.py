"""Fixed-effect meta-analysis with reverse-updated leave-one-out priors,
prior-predictive conflict checks, and fail-safe N."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, NonexistenceError
from .model import DEFAULT_LEVEL, EffectEstimate, PosteriorSummary, Study
from .statfn import chisq1_tail, critical_z


@dataclass(frozen=True)
class StudyDiagnostics:
    study_id: str
    estimate: EffectEstimate
    # None when the study stands alone: the leave-one-out prior is flat
    leave_one_out_prior: PosteriorSummary | None
    t_box: float
    p_box: float


@dataclass(frozen=True)
class MetaResult:
    pooled: PosteriorSummary
    per_study: tuple[StudyDiagnostics, ...]

    @property
    def n_studies(self) -> int:
        return len(self.per_study)


@dataclass(frozen=True)
class FailSafeResult:
    n_exact: float
    n_integer: int
    significant: bool
    reason: str | None = None


def forward_update(prior_mean: float, prior_precision: float,
                   estimate: EffectEstimate,
                   level: float = DEFAULT_LEVEL) -> PosteriorSummary:
    """One step of conjugate normal updating; zero precision is a flat prior."""
    if prior_precision < 0.0:
        raise ValueError(f"prior precision must be nonnegative, got {prior_precision!r}")
    kappa = estimate.precision
    if prior_precision == 0.0:
        return PosteriorSummary(estimate.theta_hat, kappa, level)
    post_precision = prior_precision + kappa
    post_mean = (prior_mean * prior_precision + estimate.theta_hat * kappa) / post_precision
    return PosteriorSummary(post_mean, post_precision, level)


def reverse_update(posterior: PosteriorSummary,
                   estimate: EffectEstimate) -> PosteriorSummary:
    """Invert one updating step: the prior that produced this posterior."""
    kappa = estimate.precision
    prior_precision = posterior.precision - kappa
    if prior_precision <= 0.0:
        raise NonexistenceError(
            "posterior precision not greater than observational precision")
    prior_mean = (posterior.mean * posterior.precision
                  - estimate.theta_hat * kappa) / prior_precision
    return PosteriorSummary(prior_mean, prior_precision, posterior.level)


def box_check(estimate: EffectEstimate,
              prior: PosteriorSummary) -> tuple[float, float]:
    """Prior-predictive conflict check of an estimate against a normal prior.

    Returns the standardized discrepancy and its two-sided tail probability
    under the prior-predictive distribution.
    """
    if prior.precision <= 0.0:
        raise ValueError("prior precision must be positive")
    t_box = (estimate.theta_hat - prior.mean) / math.sqrt(
        estimate.se ** 2 + 1.0 / prior.precision)
    return t_box, chisq1_tail(t_box ** 2)


def pool(studies: list[Study], level: float = DEFAULT_LEVEL) -> MetaResult:
    """Fixed-effect pooling by iterated forward updating from a flat prior.

    Per-study leave-one-out priors come from reverse updating the full
    posterior, which is identical to re-pooling the remaining studies.
    """
    if not studies:
        raise DataError("meta-analysis requires at least one study")
    ids = [s.id for s in studies]
    if len(set(ids)) != len(ids):
        raise DataError("study ids must be unique")
    estimates = [s.effect_estimate() for s in studies]

    mean, precision = 0.0, 0.0
    for est in estimates:
        post = forward_update(mean, precision, est, level)
        mean, precision = post.mean, post.precision
    pooled = PosteriorSummary(mean, precision, level)

    per_study = []
    for study, est in zip(studies, estimates):
        if len(estimates) == 1:
            # the leave-one-out prior is flat: no conflict check possible
            loo = None
            t_box, p_box = math.nan, math.nan
        else:
            loo = reverse_update(pooled, est)
            t_box, p_box = box_check(est, loo)
        per_study.append(StudyDiagnostics(study.id, est, loo, t_box, p_box))
    return MetaResult(pooled, tuple(per_study))


def failsafe_n(meta: MetaResult, level: float = DEFAULT_LEVEL) -> FailSafeResult:
    """Number of unpublished average-precision null studies needed to make
    the pooled estimate non-significant at the level."""
    alpha = 1.0 - level
    z_crit = critical_z(alpha)
    pooled_z = meta.pooled.mean * math.sqrt(meta.pooled.precision)
    if pooled_z ** 2 <= z_crit ** 2:
        return FailSafeResult(0.0, 0, significant=False,
                              reason="pooled estimate not significant at this level")
    n_exact = meta.n_studies * (pooled_z ** 2 / z_crit ** 2 - 1.0)
    return FailSafeResult(n_exact, math.ceil(n_exact), significant=True)
