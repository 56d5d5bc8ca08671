"""Core domain types: studies, effect estimates, normal priors, posteriors,
and the study-table reader.

Effects live on the log odds ratio scale throughout; odds-ratio-scale
values only appear at I/O boundaries via exp/log.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import le
from typing import NamedTuple

from .errors import DataError, NonexistenceError
from .statfn import critical_ratio, critical_z, two_sided_p

DEFAULT_LEVEL = 0.95
_TINY = 2.2250738585072014e-308   # the smallest normal float


def _checked_make(cls, values):
    # namedtuple's _make, which _replace calls, would skip __new__'s checks
    return cls(*values)


class EffectEstimate(NamedTuple("EffectEstimate", [("theta_hat", float), ("se", float)])):
    """A normally distributed point estimate (log OR) with standard error."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, theta_hat: float, se: float):
        self = super().__new__(cls, theta_hat, se)
        if not (math.isfinite(self.theta_hat) and math.isfinite(self.se)):
            raise DataError("estimate and se must be finite")
        if self.se <= 0.0:
            raise DataError(f"standard error must be positive, got {self.se!r}")
        if math.isinf(self.theta_hat / self.se):
            raise DataError(f"z = estimate / se overflows: {self.theta_hat!r} / {self.se!r}")
        return self

    @property
    def z(self) -> float:
        return self.theta_hat / self.se

    @property
    def p_value(self) -> float:
        return two_sided_p(self.z)

    @property
    def precision(self) -> float:
        se2 = self.se * self.se
        precision = 1.0 / se2 if se2 > 0.0 else math.inf
        if precision == math.inf:
            raise NonexistenceError(f"precision 1/se^2 is outside the floating-point range "
                                    f"for se = {self.se!r}")
        return precision

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return ci_limits(self, level)

    def significant(self, alpha: float = 1.0 - DEFAULT_LEVEL) -> bool:
        return critical_ratio(self.z, alpha) > 1.0

    @classmethod
    def from_ci(cls, lower: float, upper: float,
                level: float = DEFAULT_LEVEL) -> "EffectEstimate":
        """Reconstruct an estimate from a symmetric confidence interval."""
        if upper <= lower:
            raise DataError(f"need lower < upper, got ({lower!r}, {upper!r})")
        if not (0.0 < level < 1.0):
            raise DataError(f"level must be in (0,1), got {level!r}")
        z_crit = critical_z(1.0 - level)
        return cls(theta_hat=0.5 * (lower + upper),
                   se=(upper - lower) / (2.0 * z_crit))


class Study(NamedTuple("Study", [
        ("id", str), ("events_treatment", "int | None"), ("n_treatment", "int | None"),
        ("events_control", "int | None"), ("n_control", "int | None"),
        ("estimate", "float | None"), ("se", "float | None")])):
    """One trial: either 2x2 outcome counts or a precomputed estimate."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, id, events_treatment=None, n_treatment=None, events_control=None,
                n_control=None, estimate=None, se=None):
        self = super().__new__(cls, id, events_treatment, n_treatment,
                               events_control, n_control, estimate, se)
        if self[1:5].count(None) not in (0, 4):
            raise DataError(f"study {self.id!r}: supply all four counts or none")
        has_counts = None not in self[1:5]
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
        return self

    @property
    def has_counts(self) -> bool:
        return self.events_treatment is not None

    def effect_estimate(self) -> EffectEstimate:
        if self.has_counts:
            return estimate_from_counts(self)
        try:
            return EffectEstimate(self.estimate, self.se)
        except DataError as exc:
            raise DataError(f"study {self.id!r}: {exc}") from None


class StudyTable(Sequence):
    """A read-only sequence of Study, held as one column per Study field (the
    other schema's all None). Indexing builds the Study, and a slice the list
    of them, so that reading and pooling a table build none. read_study_table
    makes it from rows that pass every check, unique ids included, and pool
    relies on that."""

    def __init__(self, columns: tuple):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        fields = [column[index] for column in self.columns]
        return list(map(Study, *fields)) if isinstance(index, slice) else Study(*fields)


class NormalPrior(NamedTuple("NormalPrior", [("mean", float), ("variance", float)])):
    """Normal prior on the log OR scale."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, variance: float):
        self = super().__new__(cls, mean, variance)
        if self.variance <= 0.0 or not math.isfinite(self.variance):
            raise DataError(f"prior variance must be positive, got {self.variance!r}")
        return self

    @property
    def precision(self) -> float:
        return 1.0 / self.variance

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)


class PosteriorSummary(NamedTuple("PosteriorSummary", [("mean", float), ("precision", float)])):
    """Posterior mean and precision from forward normal updating."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, precision: float):
        self = super().__new__(cls, mean, precision)
        if self.precision <= 0.0:
            raise DataError(f"posterior precision must be positive, got {self.precision!r}")
        return self

    @property
    def sd(self) -> float:
        return 1.0 / math.sqrt(self.precision)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)

    def as_estimate(self) -> EffectEstimate:
        return EffectEstimate(self.mean, self.sd)


def estimate_from_counts(study: Study) -> EffectEstimate:
    """Log odds ratio and its standard error from 2x2 counts.

    All four cells must be positive; continuity corrections are deliberately
    not applied, so zero-cell studies must supply estimate+se directly.
    """
    if not study.has_counts:
        raise DataError(f"study {study.id!r} carries no counts")
    theta, se = theta_se(*study[1:])
    if math.isnan(theta):
        raise DataError(f"study {study.id!r}: zero cell in the 2x2 table; "
                        "supply estimate and se directly instead")
    if math.isnan(se):
        raise NonexistenceError(f"study {study.id!r}: its counts are outside the "
                                "floating-point range")
    return EffectEstimate(theta, se)


def theta_se(events_t, n_t, events_c, n_c, estimate, se) -> tuple[float, float]:
    """(log OR, se) from one study's Study fields; pool maps it over columns.
    From counts, each takes one correctly rounded quotient of exact integer
    products: log1p((ad - bc)/bc) for an odds ratio within (1/2, 2), else
    log(ad/bc), scaled by a power of two where it leaves the normal range,
    and sqrt((ad(b + c) + bc(a + d))/(ad bc)). It never raises: both are nan
    at a zero cell, and se where its square is not a normal float."""
    if events_t is None:
        return estimate, se
    a, b, c, d = events_t, n_t - events_t, events_c, n_c - events_c
    ad, bc = a * d, b * c
    if not (ad and bc):
        return math.nan, math.nan
    variance = (ad * (b + c) + bc * (a + d)) / (ad * bc)
    se = math.sqrt(variance) if variance >= _TINY else math.nan
    ratio = ad / bc if ad >> 1020 < bc else math.inf   # ad/bc < 2^1021, no OverflowError
    if 0.5 < ratio < 2.0:
        return math.log1p((ad - bc) / bc), se
    if _TINY <= ratio < math.inf:
        return math.log(ratio), se
    k = ad.bit_length() - bc.bit_length()   # ad / (bc 2^k) is within (1/2, 2)
    return math.log(ad / (bc << k) if k > 0 else (ad << -k) / bc) + k * math.log(2.0), se


def interval(center: float, sd: float,
             level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric normal interval center -/+ z_crit * sd at the given level."""
    if not (0.0 < level < 1.0):
        raise DataError(f"level must be in (0,1), got {level!r}")
    half = critical_z(1.0 - level) * sd
    return center - half, center + half


def ci_limits(estimate: EffectEstimate, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
    """Symmetric confidence limits for the estimate at the given level."""
    return interval(estimate.theta_hat, estimate.se, level)


# header, cell parser, error noun, and the Study fields that the cells after the id fill
_SCHEMAS = (
    (["id", "events_t", "n_t", "events_c", "n_c"], int, "non-integer count", slice(1, 5)),
    (["id", "estimate", "se"], float, "non-numeric value", slice(5, 7)),
)


def read_study_table(path: str) -> StudyTable:
    """Parse a study CSV; the header selects the counts or estimate schema.
    The table is read and checked as columns; if a check fails, it is read
    again row by row, which names the first bad row by its line."""
    import csv   # here, so that only `meta` pays for it in a cold process
    try:
        # utf-8-sig drops the byte order mark that Excel's "CSV UTF-8" writes
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if (table := _read_columns(csv.reader(fh))) is None:
                fh.seek(0)
                table = StudyTable(tuple(zip(*_parse_studies(path, reader := csv.reader(fh)))))
            return table
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:   # its position is within a block, not the file
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except csv.Error as exc:   # a field past csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def _read_columns(reader) -> StudyTable | None:
    """The table, read and checked a column at a time. None where a row holds
    only blanks or fails any check of _parse_studies or Study: _parse_studies,
    reading row by row, then raises the first bad row's error."""
    import csv
    try:
        header = next(reader, [])
        # a ValueError unless the header is one schema's
        (names, parse, _, fields), = [s for s in _SCHEMAS if s[0] == [h.strip() for h in header]]
        rows = list(filter(None, reader))   # empty lines, which _parse_studies skips too
        if set(map(len, rows)) != {len(names)}:
            return None
        ids, *cells = zip(*rows)
        del rows   # the row lists, as each column's strings go once it is converted
        for k in range(len(cells)):
            cells[k] = list(map(parse, cells[k]))
    except (ValueError, csv.Error):   # UnicodeDecodeError is a ValueError
        return None
    columns = [list(map(str.strip, ids))] + [[None] * len(ids)] * (len(Study._fields) - 1)
    columns[fields] = cells
    valid = (not any(map((0.0).__ge__, cells[-1])) if parse is float   # se > 0
             # events >= 0, arm sizes > 0 and events <= arm sizes
             else min(map(min, cells[::2])) >= 0 and min(map(min, cells[1::2])) > 0
             and all(map(le, cells[0], cells[1])) and all(map(le, cells[2], cells[3])))
    return StudyTable(tuple(columns)) if valid and len(set(columns[0])) == len(ids) else None


def _parse_studies(path: str, reader) -> list[Study]:
    if (first := next(reader, None)) is None:
        raise DataError(f"{path}: empty file (header row required)")
    header = [h.strip() for h in first]
    for names, parse, noun, fields in _SCHEMAS:
        if header == names:
            break
    else:
        raise DataError(f"{path}: unrecognized header {header!r}; expected "
                        f"{_SCHEMAS[0][0]} or {_SCHEMAS[1][0]}")
    studies: list[Study] = []
    lines: dict[str, int] = {}   # study id -> its row's line
    for row in reader:
        lineno = reader.line_num   # the physical line the row ends on, as in csv.Error's
        if not any(map(str.strip, row)):
            continue
        if len(row) != len(names):
            raise DataError(f"{path}:{lineno}: expected {len(names)} columns, got {len(row)}")
        try:
            cells = list(map(parse, row[1:]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {noun}: {exc}") from exc
        study = Study(row[0].strip(), *[None] * (fields.start - 1), *cells)
        if (first_line := lines.setdefault(study.id, lineno)) != lineno:
            raise DataError(f"{path}:{lineno}: duplicate study id {study.id!r}, "
                            f"first on line {first_line}")
        studies.append(study)
    if not studies:
        raise DataError(f"{path}: no data rows")
    return studies
