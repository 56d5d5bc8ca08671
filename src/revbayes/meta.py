"""Fixed-effect meta-analysis with leave-one-out priors, prior-predictive
conflict checks, and fail-safe N."""

from __future__ import annotations

import math
from operator import truediv
from typing import NamedTuple

from .errors import DataError, NonexistenceError
from .model import DEFAULT_LEVEL, EffectEstimate, PosteriorSummary, Study, StudyTable, theta_se
from .statfn import critical_ratio, two_sided_p


class StudyDiagnostics(NamedTuple):
    study_id: str
    estimate: EffectEstimate
    # None when the study stands alone: the leave-one-out prior is flat
    leave_one_out_prior: PosteriorSummary | None
    t_box: float
    p_box: float


class MetaResult(NamedTuple):
    """The pooled posterior and one column per study quantity, in table
    order. A study that stands alone has loo_precision 0.0 (a flat
    leave-one-out prior) and t_box and p_box nan."""
    pooled: PosteriorSummary
    ids: tuple[str, ...]
    theta: tuple[float, ...]
    se: tuple[float, ...]
    loo_mean: tuple[float, ...]
    loo_precision: tuple[float, ...]
    t_box: tuple[float, ...]
    p_box: tuple[float, ...]

    @property
    def n_studies(self) -> int:
        return len(self.ids)

    @property
    def per_study(self) -> tuple[StudyDiagnostics, ...]:
        """The columns as one record per study, built on each access."""
        return tuple(StudyDiagnostics(sid, EffectEstimate(theta, se),
                                      PosteriorSummary(mean, precision) if precision > 0.0
                                      else None, t_box, p_box)
                     for sid, theta, se, mean, precision, t_box, p_box in zip(*self[1:]))


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
        raise DataError(f"prior precision must be nonnegative, got {prior_precision!r}")
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


def pool(studies: StudyTable | list[Study]) -> MetaResult:
    """Fixed-effect pooling by iterated forward updating from a flat prior.

    Each study's leave-one-out prior pools the studies before it (a forward
    pass) with the studies after it (a backward pass), so no study is
    subtracted back out of the pooled posterior. The work runs on columns:
    a StudyTable's own, or a list of Study transposed once, and the floats
    that theta_se, which never raises, maps them to. If a z or se is not
    finite, each study builds its estimate in table order, so the first bad
    one raises the error that Study.effect_estimate gives it, naming it.
    """
    columns = studies.columns if isinstance(studies, StudyTable) else tuple(zip(*studies))
    if not columns:
        raise DataError("meta-analysis requires at least one study")
    ids = columns[0]
    if not isinstance(studies, StudyTable):   # read_study_table has checked a table's ids
        seen: set[str] = set()
        for sid in ids:
            if sid in seen:
                raise DataError(f"study ids must be unique: {sid!r} is repeated")
            seen.add(sid)
    theta, se = zip(*map(theta_se, *columns[1:]))
    if not (all(map(math.isfinite, map(truediv, theta, se))) and all(map(math.isfinite, se))):
        for study in studies:
            study.effect_estimate()   # the first bad study raises its own error
    # 1/se^2 falls as se grows: if any precision leaves the float range, the smallest se's does
    i = se.index(min(se))
    if se[i] * se[i] == 0.0 or 1.0 / (se[i] * se[i]) == math.inf:
        raise NonexistenceError(
            f"no pooled estimate: study {ids[i]!r} has se = {se[i]!r}, whose "
            f"precision 1/se^2 is outside the floating-point range")
    precisions = [1.0 / (s * s) for s in se]

    before = [(0.0, 0.0)]
    for t, precision in zip(theta, precisions):
        before.append(_combine(*before[-1], t, precision))
    if not 0.0 < before[-1][1] < math.inf:   # 0 where every se * se overflows
        raise NonexistenceError(
            f"no pooled estimate: the pooled precision, the sum of 1/se^2 over "
            f"{len(studies)} studies, is outside the floating-point range")
    pooled = PosteriorSummary(*before.pop())

    loo = []
    after = (0.0, 0.0)
    for t, precision, prefix in zip(reversed(theta), reversed(precisions), reversed(before)):
        loo.append(_combine(*prefix, *after))
        after = _combine(*after, t, precision)
    loo_mean, loo_precision = zip(*reversed(loo))
    # the prior-predictive conflict check of each study against its leave-one-out prior
    t_box = tuple((t - m) / math.sqrt(s * s + 1.0 / k) if k > 0.0 else math.nan
                  for t, s, m, k in zip(theta, se, loo_mean, loo_precision))
    return MetaResult(pooled, tuple(ids), theta, se, loo_mean, loo_precision,
                      t_box, tuple(map(two_sided_p, t_box)))


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
