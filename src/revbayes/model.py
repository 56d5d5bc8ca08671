"""Core domain types: studies, effect estimates, normal priors, posteriors,
and the study-table reader.

Effects live on the log odds ratio scale throughout; odds-ratio-scale
values only appear at I/O boundaries via exp/log.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

from .errors import DataError
from .statfn import critical_z, two_sided_p

DEFAULT_LEVEL = 0.95


class PriorRole(enum.Enum):
    SCEPTICAL = "sceptical"
    ADVOCACY = "advocacy"
    FLAT = "flat"
    GENERIC = "generic"


@dataclass(frozen=True)
class EffectEstimate:
    """A normally distributed point estimate (log OR) with standard error."""

    theta_hat: float
    se: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_hat) and math.isfinite(self.se)):
            raise ValueError("estimate and se must be finite")
        if self.se <= 0.0:
            raise ValueError(f"standard error must be positive, got {self.se!r}")

    @property
    def z(self) -> float:
        return self.theta_hat / self.se

    @property
    def p_value(self) -> float:
        return two_sided_p(self.z)

    @property
    def precision(self) -> float:
        return 1.0 / self.se ** 2

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return ci_limits(self, level)

    def significant(self, alpha: float = 1.0 - DEFAULT_LEVEL) -> bool:
        return self.z ** 2 > critical_z(alpha) ** 2

    @classmethod
    def from_ci(cls, lower: float, upper: float,
                level: float = DEFAULT_LEVEL) -> "EffectEstimate":
        """Reconstruct an estimate from a symmetric confidence interval."""
        if upper <= lower:
            raise ValueError(f"need lower < upper, got ({lower!r}, {upper!r})")
        if not (0.0 < level < 1.0):
            raise ValueError(f"level must be in (0,1), got {level!r}")
        z_crit = critical_z(1.0 - level)
        return cls(theta_hat=0.5 * (lower + upper),
                   se=(upper - lower) / (2.0 * z_crit))


@dataclass(frozen=True)
class Study:
    """One trial: either 2x2 outcome counts or a precomputed estimate."""

    id: str
    events_treatment: int | None = None
    n_treatment: int | None = None
    events_control: int | None = None
    n_control: int | None = None
    estimate: float | None = None
    se: float | None = None

    def __post_init__(self):
        counts = (self.events_treatment, self.n_treatment,
                  self.events_control, self.n_control)
        has_counts = all(v is not None for v in counts)
        has_estimate = self.estimate is not None and self.se is not None
        if has_counts == has_estimate:
            raise DataError(f"study {self.id!r}: supply either all four counts "
                            "or estimate+se, not both or neither")
        if has_counts:
            if self.events_treatment < 0 or self.events_control < 0:
                raise DataError(f"study {self.id!r}: negative event count")
            if self.n_treatment <= 0 or self.n_control <= 0:
                raise DataError(f"study {self.id!r}: arm sizes must be positive")
            if (self.events_treatment > self.n_treatment
                    or self.events_control > self.n_control):
                raise DataError(f"study {self.id!r}: events exceed arm size")
        else:
            if self.se <= 0:
                raise DataError(f"study {self.id!r}: se must be positive")

    @property
    def has_counts(self) -> bool:
        return self.events_treatment is not None

    def effect_estimate(self) -> EffectEstimate:
        if self.has_counts:
            return estimate_from_counts(self)
        return EffectEstimate(self.estimate, self.se)


@dataclass(frozen=True)
class NormalPrior:
    """Normal prior on the log OR scale, tagged with its role."""

    mean: float
    variance: float
    role: PriorRole = PriorRole.GENERIC

    def __post_init__(self):
        if self.role is PriorRole.FLAT:
            if not math.isinf(self.variance):
                raise ValueError("flat prior is encoded as infinite variance")
        elif self.variance <= 0.0 or not math.isfinite(self.variance):
            raise ValueError(f"prior variance must be positive, got {self.variance!r}")
        if self.role is PriorRole.SCEPTICAL and self.mean != 0.0:
            raise ValueError("sceptical prior must have mean zero")

    @property
    def precision(self) -> float:
        return 0.0 if self.role is PriorRole.FLAT else 1.0 / self.variance

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean and precision from forward normal updating."""

    mean: float
    precision: float
    level: float = DEFAULT_LEVEL

    def __post_init__(self):
        if self.precision <= 0.0:
            raise ValueError(f"posterior precision must be positive, got {self.precision!r}")
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"level must be in (0,1), got {self.level!r}")

    @property
    def sd(self) -> float:
        return 1.0 / math.sqrt(self.precision)

    def ci(self, level: float | None = None) -> tuple[float, float]:
        return interval(self.mean, self.sd, self.level if level is None else level)

    def as_estimate(self) -> EffectEstimate:
        return EffectEstimate(self.mean, self.sd)


def estimate_from_counts(study: Study) -> EffectEstimate:
    """Log odds ratio and its standard error from 2x2 counts.

    All four cells must be positive; continuity corrections are deliberately
    not applied, so zero-cell studies must supply estimate+se directly.
    """
    if not study.has_counts:
        raise DataError(f"study {study.id!r} carries no counts")
    a = study.events_treatment
    b = study.n_treatment - a
    c = study.events_control
    d = study.n_control - c
    if min(a, b, c, d) <= 0:
        raise DataError(f"study {study.id!r}: zero cell in the 2x2 table; "
                        "supply estimate and se directly instead")
    theta = math.log((a / b) / (c / d))
    se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
    return EffectEstimate(theta, se)


def reverse_prior_odds(posterior_odds: float, likelihood_ratio: float) -> float:
    """Prior odds implied by fixed posterior odds and a likelihood ratio."""
    if not (posterior_odds > 0.0 and math.isfinite(posterior_odds)):
        raise ValueError(f"posterior odds must be positive and finite, got {posterior_odds!r}")
    if not (likelihood_ratio > 0.0 and math.isfinite(likelihood_ratio)):
        raise ValueError(f"likelihood ratio must be positive and finite, got {likelihood_ratio!r}")
    return posterior_odds / likelihood_ratio


def forward_odds(prior_odds: float, likelihood_ratio: float) -> float:
    """Posterior odds from prior odds and a likelihood ratio."""
    if not (prior_odds > 0.0 and math.isfinite(prior_odds)):
        raise ValueError(f"prior odds must be positive and finite, got {prior_odds!r}")
    if not (likelihood_ratio > 0.0 and math.isfinite(likelihood_ratio)):
        raise ValueError(f"likelihood ratio must be positive and finite, got {likelihood_ratio!r}")
    return prior_odds * likelihood_ratio


def interval(center: float, sd: float,
             level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric normal interval center -/+ z_crit * sd at the given level."""
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0,1), got {level!r}")
    half = critical_z(1.0 - level) * sd
    return center - half, center + half


def ci_limits(estimate: EffectEstimate, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric confidence limits for the estimate at the given level."""
    return interval(estimate.theta_hat, estimate.se, level)


# header -> (cell parser, error noun, Study constructor from id and cells)
_SCHEMAS = (
    (["id", "events_t", "n_t", "events_c", "n_c"], int, "non-integer count",
     lambda sid, cells: Study(sid, *cells)),
    (["id", "estimate", "se"], float, "non-numeric value",
     lambda sid, cells: Study(sid, estimate=cells[0], se=cells[1])),
)


def read_study_table(path: str) -> list[Study]:
    """Parse a study CSV; the header selects the counts or estimate schema."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file (header row required)")
    header = [h.strip() for h in rows[0]]
    for names, parse, noun, make in _SCHEMAS:
        if header == names:
            break
    else:
        raise DataError(f"{path}: unrecognized header {header!r}; expected "
                        f"{_SCHEMAS[0][0]} or {_SCHEMAS[1][0]}")
    studies: list[Study] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(names):
            raise DataError(f"{path}:{lineno}: expected {len(names)} columns, got {len(row)}")
        try:
            cells = [parse(c) for c in row[1:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {noun}: {exc}") from exc
        studies.append(make(row[0].strip(), cells))
    if not studies:
        raise DataError(f"{path}: no data rows")
    ids = [s.id for s in studies]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate study ids")
    return studies
