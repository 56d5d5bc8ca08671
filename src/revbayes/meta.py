"""The study row `Study`, its table reader, the log OR from 2x2 counts, and
fixed-effect meta-analysis of its tables into posterior summaries, with
leave-one-out priors, prior-predictive conflict checks, and fail-safe N."""

import io
import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import repeat
from operator import add, le, lshift, mul, sub, truediv

from _csv import field_size_limit   # csv's own; csv loads only for a table that needs it

from .errors import DataError, NonexistenceError
from .model import EffectEstimate, _checked_make, interval
from .statfn import (DEFAULT_LEVEL, FLOAT_MIN, alpha_for_level, critical_excess,
                     two_sided_p_column)


class PosteriorSummary(namedtuple("PosteriorSummary", "mean precision")):
    """Posterior mean and precision from forward normal updating."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, mean: float, precision: float):
        self = tuple.__new__(cls, (mean, precision))
        if precision <= 0.0:
            raise DataError(f"posterior precision must be positive, got {precision!r}")
        if not (math.isfinite(mean) and precision < math.inf):   # a nan precision too
            raise DataError(f"posterior mean and precision must be finite, got {self!r}")
        return self

    @property
    def sd(self) -> float:
        return 1.0 / math.sqrt(self.precision)

    def ci(self, level: float = DEFAULT_LEVEL) -> tuple[float, float]:
        return interval(self.mean, self.sd, level)

    def as_estimate(self) -> EffectEstimate:
        return EffectEstimate(self.mean, self.sd)


class StudyDiagnostics(namedtuple("StudyDiagnostics",
                                  "study_id estimate leave_one_out_prior t_box p_box")):
    """One study's row of a MetaResult; leave_one_out_prior is None when the
    study stands alone, as its leave-one-out prior is flat."""

    __slots__ = ()


class MetaResult(namedtuple("MetaResult",
                            "pooled ids theta se loo_mean loo_precision t_box p_box")):
    """The pooled posterior and one column per study quantity, in table
    order. A study that stands alone has loo_precision 0.0 (a flat
    leave-one-out prior) and t_box and p_box nan."""

    __slots__ = ()

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


class FailSafeResult(namedtuple("FailSafeResult", "n_exact n_integer significant reason",
                                defaults=(None,))):
    """Fail-safe N, exact and rounded up, or 0 and why if the pool is not significant."""

    __slots__ = ()


def _integers(column) -> tuple:
    """(k, the ints x 2^k of the column), k >= 0 the least that makes each an
    integer. Where some x 2^k passes 2^1024, as with 5e-324 beside 1.0, and
    ldexp would overflow, each 53-bit significand is shifted instead."""
    least = min(column)
    top = max(max(column), -least)
    if least <= 0.0:   # then the least nonzero magnitude takes a scan of its own
        least = min(map(abs, filter(None, column)), default=1.0)
    k = max(0, 53 - math.frexp(least)[1])
    if math.frexp(top)[1] + k <= 1024:
        return k, list(map(math.trunc, map(math.ldexp, column, repeat(k))))
    return k, [int(math.ldexp(m, 53)) << e + k - 53 if m else 0
               for m, e in map(math.frexp, column)]


def _exact_pool(theta, precisions) -> tuple:
    """Precision-weighted pooling of finite theta and w columns: the pooled mean
    and precision, and the leave-one-out mean and precision columns, each the
    pool of every other row. Precision 0.0 is flat, and a pool of no weight has
    mean 0.0. The sums of theta w and w are exact, as integers over a power of
    two each, so no row is subtracted in floating point and each value is one
    correctly rounded int/int quotient. Raises OverflowError past the float range."""
    (a, t), (b, w) = map(_integers, (theta, precisions))
    tw, w = [0, *map(mul, t, w)], [0, *w]   # leaving out no row, then each row
    rest_tw, rest_w = map(sub, repeat(sum(tw)), tw), list(map(sub, repeat(sum(w)), w))
    means = tuple(map(truediv, rest_tw, map(lshift, rest_w, repeat(a))) if all(rest_w)
                  else (n / (d << a) if d else 0.0 for n, d in zip(rest_tw, rest_w)))
    precisions = tuple(map(truediv, rest_w, repeat(1 << b)))
    return means[0], precisions[0], means[1:], precisions[1:]


def forward_update(prior_mean: float, prior_precision: float,
                   estimate: EffectEstimate) -> PosteriorSummary:
    """One step of conjugate normal updating; zero precision is a flat prior."""
    if not prior_precision >= 0.0:
        raise DataError(f"prior precision must be nonnegative, got {prior_precision!r}")
    if not math.isfinite(prior_mean):
        raise DataError(f"prior mean must be finite, got {prior_mean!r}")
    try:
        mean, precision = _exact_pool((prior_mean, estimate.theta_hat),
                                      (prior_precision, estimate.precision))[:2]
    except OverflowError:   # an inf prior precision, or a sum past the float range
        raise NonexistenceError(f"the posterior precision, prior {prior_precision!r} plus "
                                f"1/se^2 = {estimate.precision!r}, is outside the "
                                f"floating-point range") from None
    if precision == 0.0:   # a flat prior, and a study whose 1/se^2 underflows to 0
        raise NonexistenceError(f"posterior is flat: the prior is flat and 1/se^2 is 0.0 "
                                f"for se = {estimate.se!r}")
    return PosteriorSummary(mean, precision)


def reverse_update(posterior: PosteriorSummary,
                   estimate: EffectEstimate) -> PosteriorSummary:
    """Invert one updating step: the prior that produced this posterior."""
    kappa = estimate.precision
    if posterior.precision - kappa <= 0.0:   # the pool divides by that sum
        raise NonexistenceError(
            "posterior precision not greater than observational precision")
    try:
        return PosteriorSummary(*_exact_pool((posterior.mean, estimate.theta_hat),
                                             (posterior.precision, -kappa))[:2])
    except OverflowError:
        raise NonexistenceError(f"the prior mean of {posterior!r} less 1/se^2 = {kappa!r} "
                                f"is outside the floating-point range") from None


class Study(namedtuple("Study", "id events_treatment n_treatment events_control n_control "
                                "estimate se")):
    """One trial: either 2x2 outcome counts or a precomputed estimate."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, id, events_treatment=None, n_treatment=None, events_control=None,
                n_control=None, estimate=None, se=None):
        self = tuple.__new__(cls, (id, events_treatment, n_treatment,
                                   events_control, n_control, estimate, se))
        if self[1:5].count(None) not in (0, 4):
            raise DataError(f"study {self.id!r}: supply all four counts or none")
        has_counts = None not in self[1:5]
        has_estimate = self.estimate is not None and self.se is not None
        if has_counts == has_estimate:
            raise DataError(f"study {self.id!r}: supply either all four counts "
                            "or estimate+se, not both or neither")
        if has_counts:
            # a bool is an int, but not a count
            if not all(isinstance(count, int) and not isinstance(count, bool)
                       for count in self[1:5]):
                raise DataError(f"study {self.id!r}: non-integer count in {self[1:5]!r}")
            if self.events_treatment < 0 or self.events_control < 0:
                raise DataError(f"study {self.id!r}: negative event count")
            if self.n_treatment <= 0 or self.n_control <= 0:
                raise DataError(f"study {self.id!r}: arm sizes must be positive")
            if (self.events_treatment > self.n_treatment
                    or self.events_control > self.n_control):
                raise DataError(f"study {self.id!r}: events exceed arm size")
        elif not all(isinstance(value, (int, float)) and not isinstance(value, bool)
                     for value in self[5:]):
            raise DataError(f"study {self.id!r}: non-numeric value in {self[5:]!r}")
        elif self.se <= 0:
            raise DataError(f"study {self.id!r}: se must be positive")
        else:
            try:   # an int past the float range, on which every float step would raise
                float(self.estimate), float(self.se)
            except OverflowError:
                raise DataError(f"study {self.id!r}: estimate or se is outside the "
                                "floating-point range") from None
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


def estimate_from_counts(study: Study) -> EffectEstimate:
    """Log odds ratio and its standard error from 2x2 counts.

    All four cells must be positive; continuity corrections are deliberately
    not applied, so zero-cell studies must supply estimate+se directly.
    """
    if not study.has_counts:
        raise DataError(f"study {study.id!r} carries no counts")
    (theta,), (se,) = theta_se(*zip(study[1:5]))
    if math.isnan(theta):
        raise DataError(f"study {study.id!r}: zero cell in the 2x2 table; "
                        "supply estimate and se directly instead")
    if math.isnan(se):
        raise NonexistenceError(f"study {study.id!r}: its counts are outside the "
                                "floating-point range")
    return EffectEstimate(theta, se)


def theta_se(events_t, n_t, events_c, n_c) -> tuple:
    """(log OR, se) columns from a table's four count columns: pool passes a
    counts table's, and estimate_from_counts one study's. Each takes one
    correctly rounded quotient of exact integer products:
    log1p((ad - bc)/bc) for an odds ratio within (1/2, 2), else log(ad/bc),
    scaled by a power of two where it leaves the normal range, and
    sqrt((ad(b + c) + bc(a + d))/(ad bc)). Each step is a map or a
    comprehension over the count columns, so no call or tuple is made per
    study. It never raises: both are nan at a zero cell, and se where its
    square is not a normal float."""
    a, c = events_t, events_c
    b, d = list(map(sub, n_t, a)), list(map(sub, n_c, c))
    ad, bc = list(map(mul, a, d)), list(map(mul, b, c))
    numerator = map(add, map(mul, ad, map(add, b, c)), map(mul, bc, map(add, a, d)))
    denominator = list(map(mul, ad, bc))
    if not all(denominator):   # a zero cell: 0/1 makes its variance 0.0, so its se nan
        numerator = map(mul, numerator, map(bool, denominator))
        denominator = map(max, denominator, repeat(1))
    variance = list(map(truediv, numerator, denominator))
    se = list(map(math.sqrt, variance))
    if min(variance, default=FLOAT_MIN) < FLOAT_MIN:
        se = [s if v >= FLOAT_MIN else math.nan for s, v in zip(se, variance)]
    # the odds ratio r = ad/bc is below 2^1021 where ad >> 1020 < bc, so it raises no
    # OverflowError, and a zero cell's is 0.0 or inf; past the normal range,
    # ad / (bc 2^k) is within (1/2, 2)
    theta = [math.log1p((x - y) / y) if 0.5 < (r := x / y if x >> 1020 < y else math.inf) < 2.0
             else math.log(r) if FLOAT_MIN <= r < math.inf
             else math.nan if not (x and y)
             else math.log(x / (y << k) if (k := x.bit_length() - y.bit_length()) > 0
                           else (x << -k) / y) + k * math.log(2.0)
             for x, y in zip(ad, bc)]
    return theta, se


def pool(studies: StudyTable | list[Study]) -> MetaResult:
    """Fixed-effect pooling, as forward updating from a flat prior, with the
    float weights w = 1/(se se). One _exact_pool gives the pooled posterior and
    each study's leave-one-out prior, the pool of every other study (flat for a
    study that stands alone), each the exact pool of those weights correctly
    rounded. The work runs on columns, a StudyTable's own or a list of Study
    transposed once: theta_se's of a counts table, which never raises, or an
    estimate table's own. A list that mixes the schemas, or a table with a z
    or se that is not finite, goes study by study through
    Study.effect_estimate in table order, so the first bad study raises its
    own error, naming it.
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
    # a counts table through theta_se, and an estimate table as it is
    theta, se = (theta_se(*columns[1:5]) if None not in columns[1]
                 else columns[5:] if None not in columns[5] else ((), ()))
    if not (theta and all(map(math.isfinite, map(truediv, theta, se)))
            and all(map(math.isfinite, se))):
        # a list that mixes the schemas, or a bad study: study by study, in
        # table order, so that the first bad one raises its own error
        theta, se = zip(*map(Study.effect_estimate, studies))
    theta, se = map(tuple, (theta, se))
    # 1/se^2 falls as se grows: if any precision leaves the float range, the smallest se's does
    i = se.index(min(se))
    if se[i] * se[i] == 0.0 or 1.0 / (se[i] * se[i]) == math.inf:
        raise NonexistenceError(
            f"no pooled estimate: study {ids[i]!r} has se = {se[i]!r}, whose "
            f"precision 1/se^2 is outside the floating-point range")
    precisions = [1.0 / (s * s) for s in se]

    try:
        mean, precision, loo_mean, loo_precision = _exact_pool(theta, precisions)
    except OverflowError:
        precision = math.inf
    if not 0.0 < precision < math.inf:   # 0 where every se * se overflows
        raise NonexistenceError(
            f"no pooled estimate: the pooled precision, the sum of 1/se^2 over "
            f"{len(studies)} studies, is outside the floating-point range")
    # the prior-predictive conflict check of each study against its leave-one-out prior
    t_box = tuple((t - m) / math.sqrt(s * s + 1.0 / k) if k > 0.0 else math.nan
                  for t, s, m, k in zip(theta, se, loo_mean, loo_precision))
    return MetaResult(PosteriorSummary(mean, precision), tuple(ids), theta, se, loo_mean,
                      loo_precision, t_box, tuple(two_sided_p_column(t_box)))


def failsafe_n(meta: MetaResult, level: float = DEFAULT_LEVEL) -> FailSafeResult:
    """Number of unpublished average-precision null studies needed to make
    the pooled estimate non-significant at the level."""
    pooled_z = meta.pooled.mean * math.sqrt(meta.pooled.precision)
    excess = critical_excess(pooled_z, alpha_for_level(level))
    if excess <= 0.0:
        return FailSafeResult(0.0, 0, significant=False,
                              reason="pooled estimate not significant at this level")
    n_exact = meta.n_studies * excess
    if not math.isfinite(n_exact):
        raise NonexistenceError(
            f"no fail-safe N: for pooled z = {pooled_z:.6g} it is outside "
            f"the floating-point range")
    return FailSafeResult(n_exact, math.ceil(n_exact), significant=True)


# header, cell parser, error noun, and the Study fields that the cells after the id fill
_SCHEMAS = (
    (["id", "events_t", "n_t", "events_c", "n_c"], int, "non-integer count", slice(1, 5)),
    (["id", "estimate", "se"], float, "non-numeric value", slice(5, 7)),
)


def read_study_table(path: str) -> StudyTable:
    """Parse a study CSV; the header selects the counts or estimate schema.
    The table is split at its commas and checked as columns. A text that
    needs csv's rules, or that fails a check, is read by csv's row parser
    instead, which names the first bad row by its line."""
    try:
        # utf-8-sig drops the byte order mark that Excel's "CSV UTF-8" writes
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:   # row by row, a bad row before the bad byte is named
                fh.seek(0)
                return _read_rows(path, fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if (table := _read_columns(text)) is not None:
        return table
    return _read_rows(path, io.StringIO(text, newline=""))


def _read_rows(path: str, fh) -> StudyTable:
    """The table that _parse_studies reads from fh row by row, or the first
    bad row's error, naming its line."""
    import csv   # here, so that only a table that the comma split cannot read pays for it
    try:
        return StudyTable(tuple(zip(*_parse_studies(path, reader := csv.reader(fh)))))
    except UnicodeDecodeError as exc:   # its position is within a block, not the file
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except csv.Error as exc:   # a field past csv.field_size_limit()
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc


def _read_columns(text: str) -> StudyTable | None:
    """The table, read and checked a column at a time: the rows are joined
    and split at their commas at once, with no object per row. None where
    csv would read the text otherwise (a quote, a NUL, a CR outside a CRLF,
    or a line past its field size limit), or where a row has another number
    of cells than the header, holds only blanks or fails any check of
    _parse_studies or Study: _read_rows reads such a text, naming its first bad row."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\0" in text or "\r" in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > field_size_limit():
        return None
    header = lines[0].split(",")
    rows = list(filter(None, lines[1:]))   # empty lines, which _parse_studies skips too
    del lines
    # with a "\n" cell between rows, every row has len(header) cells exactly when
    # those fall at every step-th cell
    cells, step = ",\n,".join(rows).split(","), len(header) + 1
    if len(cells) != len(rows) * step - 1 or cells[step - 1::step].count("\n") != len(rows) - 1:
        return None
    del rows
    schema = next((s for s in _SCHEMAS if s[0] == [h.strip() for h in header]), None)
    if schema is None:
        return None
    _, parse, _, fields = schema
    # rebinding cells frees the split, so that each column's strings go once it is converted
    ids, *cells = [cells[k::step] for k in range(len(header))]
    try:
        for k in range(len(cells)):
            cells[k] = list(map(parse, cells[k]))
    except ValueError:
        return None
    ids = list(map(str.strip, ids))
    columns = [ids] + [[None] * len(ids)] * (len(Study._fields) - 1)
    columns[fields] = cells
    valid = (not any(map((0.0).__ge__, cells[-1])) if parse is float   # se > 0
             # events >= 0, arm sizes > 0 and events <= arm sizes
             else min(map(min, cells[::2])) >= 0 and min(map(min, cells[1::2])) > 0
             and all(map(le, cells[0], cells[1])) and all(map(le, cells[2], cells[3])))
    return StudyTable(tuple(columns)) if valid and len(set(ids)) == len(ids) else None


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
