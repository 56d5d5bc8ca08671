"""Fixed-effect meta-analysis with leave-one-out priors, prior-predictive
conflict checks, and fail-safe N."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DataError, NonexistenceError
from .model import DEFAULT_LEVEL, EffectEstimate, PosteriorSummary, Study
from .statfn import critical_ratio, two_sided_p


class StudyDiagnostics(NamedTuple):
    study_id: str
    estimate: EffectEstimate
    # None when the study stands alone: the leave-one-out prior is flat
    leave_one_out_prior: PosteriorSummary | None
    t_box: float
    p_box: float


class MetaResult(NamedTuple):
    pooled: PosteriorSummary
    per_study: tuple[StudyDiagnostics, ...]

    @property
    def n_studies(self) -> int:
        return len(self.per_study)


class FailSafeResult(NamedTuple):
    n_exact: float
    n_integer: int
    significant: bool
    reason: str | None = None


def _combine(mean_a: float, precision_a: float,
             mean_b: float, precision_b: float) -> tuple[float, float]:
    """Precision-weighted pool of two normal summaries; zero precision is flat."""
    if precision_a == 0.0:
        return mean_b, precision_b
    if precision_b == 0.0:
        return mean_a, precision_a
    precision = precision_a + precision_b
    return (mean_a * precision_a + mean_b * precision_b) / precision, precision


def forward_update(prior_mean: float, prior_precision: float,
                   estimate: EffectEstimate) -> PosteriorSummary:
    """One step of conjugate normal updating; zero precision is a flat prior."""
    if prior_precision < 0.0:
        raise ValueError(f"prior precision must be nonnegative, got {prior_precision!r}")
    return PosteriorSummary(*_combine(prior_mean, prior_precision,
                                      estimate.theta_hat, estimate.precision))


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
    return PosteriorSummary(prior_mean, prior_precision)


def box_check(estimate: EffectEstimate,
              prior: PosteriorSummary) -> tuple[float, float]:
    """Prior-predictive conflict check of an estimate against a normal prior.

    Returns the standardized discrepancy and its two-sided tail probability
    under the prior-predictive distribution.
    """
    t_box = (estimate.theta_hat - prior.mean) / math.sqrt(
        estimate.se * estimate.se + 1.0 / prior.precision)
    return t_box, two_sided_p(t_box)


def pool(studies: list[Study]) -> MetaResult:
    """Fixed-effect pooling by iterated forward updating from a flat prior.

    Each study's leave-one-out prior pools the studies before it (a forward
    pass) with the studies after it (a backward pass), so no study is
    subtracted back out of the pooled posterior.
    """
    if not studies:
        raise DataError("meta-analysis requires at least one study")
    ids = [s.id for s in studies]
    if len(set(ids)) != len(ids):
        raise DataError("study ids must be unique")
    estimates = [s.effect_estimate() for s in studies]
    try:
        precisions = [est.precision for est in estimates]
    except NonexistenceError:
        # 1/se^2 falls as se grows, so the smallest se is past the range
        study, est = min(zip(studies, estimates), key=lambda pair: pair[1].se)
        raise NonexistenceError(
            f"no pooled estimate: study {study.id!r} has se = {est.se!r}, whose "
            f"precision 1/se^2 is outside the floating-point range") from None

    before = [(0.0, 0.0)]
    for est, precision in zip(estimates, precisions):
        before.append(_combine(*before[-1], est.theta_hat, precision))
    pooled = PosteriorSummary(*before.pop())
    if pooled.precision == math.inf:
        raise NonexistenceError(
            f"no pooled estimate: the pooled precision, the sum of 1/se^2 over "
            f"{len(studies)} studies, is outside the floating-point range")

    per_study = []
    after = (0.0, 0.0)
    for study, est, precision, prefix in zip(reversed(studies), reversed(estimates),
                                             reversed(precisions), reversed(before)):
        loo_mean, loo_precision = _combine(*prefix, *after)
        loo = PosteriorSummary(loo_mean, loo_precision) if loo_precision > 0.0 else None
        t_box, p_box = (math.nan, math.nan) if loo is None else box_check(est, loo)
        per_study.append(StudyDiagnostics(study.id, est, loo, t_box, p_box))
        after = _combine(*after, est.theta_hat, precision)
    per_study.reverse()
    return MetaResult(pooled, tuple(per_study))


def failsafe_n(meta: MetaResult, level: float = DEFAULT_LEVEL) -> FailSafeResult:
    """Number of unpublished average-precision null studies needed to make
    the pooled estimate non-significant at the level."""
    pooled_z = meta.pooled.mean * math.sqrt(meta.pooled.precision)
    ratio = critical_ratio(pooled_z, 1.0 - level)
    if ratio <= 1.0:
        return FailSafeResult(0.0, 0, significant=False,
                              reason="pooled estimate not significant at this level")
    n_exact = meta.n_studies * (ratio - 1.0)
    if not math.isfinite(n_exact):
        raise NonexistenceError(
            f"no fail-safe N: for pooled z = {pooled_z:.6g} it is outside "
            f"the floating-point range")
    return FailSafeResult(n_exact, math.ceil(n_exact), significant=True)
