import copy
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, strategies as st

import oracles
from revbayes.ancred import (AdvocacyAnalysis, CredibilityVerdict, EquivalentTrial,
                             ScepticalAnalysis)
from revbayes.bf import BfAdvocacySolution, BfScepticalSolution
from revbayes.errors import DataError, NonexistenceError
from revbayes.meta import (FailSafeResult, MetaResult, PosteriorSummary, StudyDiagnostics,
                           StudyTable, estimate_from_counts, pool, theta_se)
from revbayes.model import EffectEstimate, NormalPrior, Study, ci_limits


class TestEstimateFromCounts:
    def test_recovery_style_counts(self):
        study = Study("trial", 95, 324, 283, 683)
        est = estimate_from_counts(study)
        # direct evaluation of log((a/b)/(c/d)) and sqrt(1/a+1/b+1/c+1/d)
        assert est.theta_hat == pytest.approx(
            math.log((95 / 229) / (283 / 400)), abs=1e-15)
        assert est.se == pytest.approx(
            math.sqrt(1 / 95 + 1 / 229 + 1 / 283 + 1 / 400), abs=1e-15)
        assert est.theta_hat == pytest.approx(-0.534, abs=5e-4)
        assert est.se == pytest.approx(0.1447, abs=5e-5)

    def test_identical_arms(self):
        est = estimate_from_counts(Study("null", 10, 30, 10, 30))
        assert est.theta_hat == 0.0

    def test_unit_cells(self):
        est = estimate_from_counts(Study("tiny", 1, 2, 1, 2))
        assert est.theta_hat == 0.0
        assert est.se == 2.0

    def test_zero_cell_rejected_with_guidance(self):
        with pytest.raises(DataError, match="estimate and se directly"):
            estimate_from_counts(Study("degenerate", 0, 10, 3, 10))

    def test_estimate_schema_rejected(self):
        with pytest.raises(DataError) as exc:
            estimate_from_counts(Study("est", estimate=0.1, se=0.2))
        assert str(exc.value) == "study 'est' carries no counts"

    def test_arm_swap_antisymmetry(self):
        a = estimate_from_counts(Study("x", 7, 40, 13, 55))
        b = estimate_from_counts(Study("x", 13, 55, 7, 40))
        assert a.theta_hat == pytest.approx(-b.theta_hat, abs=1e-15)
        assert a.se == b.se

    def test_last_digits_against_mpmath(self):
        # seeded counts up to 1e300: the log OR within 3 ulp and se within 1
        # ulp of mpmath at 60 digits, for odds ratios near 1, far from it and
        # past the float range, study by study and as the columns of one table
        rng = random.Random(2101)

        def cells(kind):
            if kind == "near":   # ad - bc is a few units of x y
                x, y = (int(10 ** rng.uniform(0, 150)) + 1 for _ in range(2))
                return x + rng.randint(0, 3), y, x, y + rng.randint(0, 3)
            if kind == "past":   # ad / bc below 1e-308 or above 1e308
                big = [int(10 ** rng.uniform(160, 300)) for _ in range(2)]
                small = [rng.randint(1, 100) for _ in range(2)]
                return ((big[0], *small, big[1]) if rng.random() < 0.5
                        else (small[0], *big, small[1]))
            return tuple(int(10 ** rng.uniform(0, rng.choice([3, 15, 300]))) + 1
                         for _ in range(4))

        rows = [cells(kind) for kind in ["far", "near", "past"] * 700]
        references = [oracles.log_or_se(*row) for row in rows]
        # the same cells as one table of 2 100 studies, through pool's columns
        counts = [(a, a + b, c, c + d) for a, b, c, d in rows]
        table = StudyTable((list(map(str, range(len(rows)))), *map(list, zip(*counts)),
                            [None] * len(rows), [None] * len(rows)))
        result = pool(table)
        for i, ((a, n_t, c, n_c), (theta, se)) in enumerate(zip(counts, references)):
            est = estimate_from_counts(Study("s", a, n_t, c, n_c))
            for got_theta, got_se in [est, (result.theta[i], result.se[i])]:
                assert abs(got_theta - theta) <= 3 * math.ulp(float(theta)), (a, n_t, c, n_c)
                assert abs(got_se - se) <= math.ulp(float(se)), (a, n_t, c, n_c)
        # a zero cell in the table: nan in its row alone, and pool names its study
        columns = [[*column[:1000], cell, *column[1000:]]
                   for column, cell in zip(table.columns, ["zero", 0, 5, 3, 4, None, None])]
        theta, se = theta_se(*columns[1:5])
        assert math.isnan(theta.pop(1000)) and math.isnan(se.pop(1000))
        assert (tuple(theta), tuple(se)) == (result.theta, result.se)
        with pytest.raises(DataError, match=r"^study 'zero': zero cell"):
            pool(StudyTable(tuple(columns)))


class TestStudyInvariants:
    def test_requires_exactly_one_form(self):
        with pytest.raises(DataError):
            Study("both", 1, 2, 1, 2, estimate=0.1, se=0.2)
        with pytest.raises(DataError):
            Study("neither")

    @pytest.mark.parametrize("counts", [(1,), (1, 2), (1, 2, 1), (None, 2, 1, 2)])
    def test_partial_counts_rejected(self, counts):
        for extra in ({}, {"estimate": 0.1, "se": 0.2}):
            with pytest.raises(DataError, match="all four counts or none"):
                Study("x", *counts, **extra)

    @pytest.mark.parametrize("counts", [(2.0, 10, 3, 10), (2, 10.0, 3, 10), (2, 10, "3", 10),
                                        (True, 10, 3, 10)])
    def test_non_integer_count_rejected(self, counts):
        # the log OR takes exact integer products of the counts
        with pytest.raises(DataError, match="study 'a': non-integer count"):
            pool([Study("a", *counts), Study("b", 3, 10, 4, 10)])

    @pytest.mark.parametrize("estimate, se", [("0.1", 0.2), (0.1, "0.2"), (0.1, [1]),
                                              (True, 0.2), (0.1, True)],
                             ids=["str estimate", "str se", "list se", "bool estimate",
                                  "bool se"])
    def test_non_numeric_estimate_rejected(self, estimate, se):
        with pytest.raises(DataError, match="study 'a': non-numeric value"):
            pool([Study("a", estimate=estimate, se=se), Study("b", estimate=0.2, se=0.3)])

    @pytest.mark.parametrize("estimate, se", [(10 ** 400, 1.0), (-(2 ** 1024 - 2 ** 970), 1.0),
                                              (0.1, 10 ** 400), (0.1, 2 ** 1024 - 2 ** 970)],
                             ids=["huge estimate", "estimate rounding to -2^1024",
                                  "huge se", "se rounding to 2^1024"])
    def test_int_past_the_float_range_rejected(self, estimate, se):
        # float() of such an int raises OverflowError, bare in every float step after
        message = "study 'a': estimate or se is outside the floating-point range"
        with pytest.raises(DataError, match=message):
            pool([Study("a", estimate=estimate, se=se), Study("b", estimate=0.2, se=0.3)])
        with pytest.raises(DataError, match=message):
            Study("a", estimate=estimate, se=se).effect_estimate()

    def test_largest_int_in_the_float_range_accepted(self):
        top = 2 ** 1024 - 2 ** 970 - 1   # rounds to the largest float, and one more past it
        assert pool([Study("a", estimate=top, se=10.0)]).pooled.mean == sys.float_info.max

    def test_events_bounded_by_arm(self):
        with pytest.raises(DataError):
            Study("bad", 11, 10, 1, 10)

    def test_estimate_form(self):
        est = Study("s", estimate=-0.4, se=0.2).effect_estimate()
        assert est.theta_hat == -0.4 and est.se == 0.2
        with pytest.raises(DataError):
            Study("s", estimate=-0.4, se=0.0)


class TestRecords:
    # the result records are immutable named tuples that validate when built
    def test_fields_cannot_be_assigned(self):
        est = EffectEstimate(1.0, 2.0)
        with pytest.raises(AttributeError):
            est.se = 3.0
        with pytest.raises(AttributeError):
            Study("s", estimate=0.1, se=0.2).id = "t"

    def test_equal_records_hash_equal(self):
        assert EffectEstimate(1.0, 2.0) == EffectEstimate(1.0, 2.0)
        assert hash(EffectEstimate(1.0, 2.0)) == hash(EffectEstimate(1.0, 2.0))
        assert len({NormalPrior(0.0, 1.0), NormalPrior(0.0, 1.0)}) == 1

    def test_repr(self):
        assert repr(EffectEstimate(1.0, 2.0)) == "EffectEstimate(theta_hat=1.0, se=2.0)"

    def test_invalid_input_raises_as_before(self):
        with pytest.raises(ValueError) as exc:
            EffectEstimate(0.1, 0.0)
        assert (type(exc.value), str(exc.value)) == (
            DataError, "standard error must be positive, got 0.0")
        with pytest.raises(DataError) as exc:
            Study("bad", 11, 10, 1, 10)
        assert str(exc.value) == "study 'bad': events exceed arm size"
        with pytest.raises(ValueError, match="posterior precision must be positive"):
            PosteriorSummary(0.0, -1.0)

    @pytest.mark.parametrize("mean, precision", [
        (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1e300),
    ])
    def test_posterior_summary_is_finite(self, mean, precision):
        with pytest.raises(DataError) as exc:
            PosteriorSummary(mean, precision)
        assert str(exc.value) == ("posterior mean and precision must be finite, got "
                                  f"PosteriorSummary(mean={mean!r}, precision={precision!r})")

    def test_replace_validates(self):
        est = EffectEstimate(1.0, 2.0)
        assert est._replace(se=4.0) == EffectEstimate(1.0, 4.0)
        with pytest.raises(ValueError, match="standard error must be positive"):
            est._replace(se=0.0)
        with pytest.raises(DataError, match="events exceed arm size"):
            Study("s", 1, 10, 1, 10)._replace(events_treatment=11)
        with pytest.raises(ValueError, match="prior variance must be positive"):
            NormalPrior(0.0, 1.0)._replace(variance=0.0)


_EST = EffectEstimate(-0.53, 0.145)
_POST = PosteriorSummary(-0.4, 25.0)
# one of each result record: its pinned repr and field defaults and, where
# the record checks its fields, a replacement that its check refuses
_RECORDS = [
    (_EST, "EffectEstimate(theta_hat=-0.53, se=0.145)", {}, {"se": 0.0}),
    (NormalPrior(0.0, 0.25), "NormalPrior(mean=0.0, variance=0.25)", {}, {"variance": 0.0}),
    (_POST, "PosteriorSummary(mean=-0.4, precision=25.0)", {}, {"precision": 0.0}),
    (StudyDiagnostics("a", _EST, _POST, 1.5, 0.13),
     "StudyDiagnostics(study_id='a', estimate=EffectEstimate(theta_hat=-0.53, se=0.145), "
     "leave_one_out_prior=PosteriorSummary(mean=-0.4, precision=25.0), t_box=1.5, "
     "p_box=0.13)", {}, None),
    (MetaResult(_POST, ("a",), (-0.53,), (0.145,), (0.0,), (0.0,), (1.2,), (0.23,)),
     "MetaResult(pooled=PosteriorSummary(mean=-0.4, precision=25.0), ids=('a',), "
     "theta=(-0.53,), se=(0.145,), loo_mean=(0.0,), loo_precision=(0.0,), t_box=(1.2,), "
     "p_box=(0.23,))", {}, None),
    (FailSafeResult(3.5, 4, True),
     "FailSafeResult(n_exact=3.5, n_integer=4, significant=True, reason=None)",
     {"reason": None}, None),
    (Study("a", 95, 324, 283, 683),
     "Study(id='a', events_treatment=95, n_treatment=324, events_control=283, "
     "n_control=683, estimate=None, se=None)", {}, {"events_treatment": 325}),
    (ScepticalAnalysis(0.5, 0.01, 0.2, (0.8, 1.25)),
     "ScepticalAnalysis(g=0.5, tau2=0.01, limit=0.2, critical_interval_or=(0.8, 1.25))",
     {}, None),
    (AdvocacyAnalysis(0.5, 0.1, 0.05, 0.2, 0.5),
     "AdvocacyAnalysis(m=0.5, mu=0.1, tau=0.05, limit=0.2, cv=0.5)", {}, None),
    (CredibilityVerdict(True), "CredibilityVerdict(credible=True, reason=None)",
     {"reason": None}, None),
    (EquivalentTrial(12.5),
     "EquivalentTrial(events_per_arm=12.5, patients_per_arm=None, allocation_ratio=1.0, "
     "per_arm_detail=None, per_arm_cells=None)",
     {"patients_per_arm": None, "allocation_ratio": 1.0, "per_arm_detail": None,
      "per_arm_cells": None}, None),
    (BfScepticalSolution(0.1, 10.0, 0.1),
     "BfScepticalSolution(g_small=0.1, g_large=10.0, gamma=0.1, prior_interval_or=None)",
     {"prior_interval_or": None}, None),
    (BfAdvocacySolution(0.2, 0.1, 0.9, 0.4, 0.1, 0.5),
     "BfAdvocacySolution(m_small=0.2, tau_small=0.1, m_large=0.9, tau_large=0.4, "
     "gamma=0.1, cv=0.5)", {}, None),
]


class TestRecordParity:
    # what callers see of each record: fields, defaults, repr, pickling,
    # copying, a docstring, and _replace running the record's own checks
    @pytest.mark.parametrize("record, pinned, defaults, refused", _RECORDS,
                             ids=[type(record).__name__ for record, *_ in _RECORDS])
    def test_record(self, record, pinned, defaults, refused):
        cls = type(record)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, record))
        assert repr(record) == pinned == f"{cls.__name__}({fields})"
        assert cls._field_defaults == defaults
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(clone) is cls and clone == record
        assert cls.__doc__
        if refused is not None:
            with pytest.raises(DataError):
                record._replace(**refused)


class TestCiLimits:
    def test_recovery_interval(self):
        lo, hi = ci_limits(EffectEstimate(-0.53, 0.145), 0.95)
        assert lo == pytest.approx(-0.53 - 1.959964 * 0.145, abs=1e-6)
        assert hi == pytest.approx(-0.53 + 1.959964 * 0.145, abs=1e-6)

    def test_recovery_interval_from_counts(self, recovery):
        lo, hi = ci_limits(recovery, 0.95)
        assert math.exp(lo) == pytest.approx(0.44, abs=5e-3)
        assert math.exp(hi) == pytest.approx(0.78, abs=5e-3)

    def test_pooled_interval_from_counts(self, meta_result):
        lo, hi = meta_result.pooled.ci()
        assert math.exp(lo) == pytest.approx(0.53, abs=5e-3)
        assert math.exp(hi) == pytest.approx(0.82, abs=5e-3)

    def test_symmetry_for_null_estimate(self):
        lo, hi = ci_limits(EffectEstimate(0.0, 0.37), 0.9)
        assert lo == pytest.approx(-hi, abs=1e-15)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            ci_limits(EffectEstimate(0.1, 0.2), 1.0)

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=1e-3, max_value=10),
           st.floats(min_value=0.5, max_value=0.999))
    def test_ci_round_trip(self, theta, se, level):
        est = EffectEstimate(theta, se)
        lo, hi = ci_limits(est, level)
        assert hi + lo == pytest.approx(2 * theta, abs=1e-12 * max(1, abs(theta)))
        back = EffectEstimate.from_ci(lo, hi, level)
        assert back.theta_hat == pytest.approx(theta, abs=1e-12 * max(1, abs(theta)))
        assert back.se == pytest.approx(se, rel=1e-12)

    def test_from_ci_near_the_float_limits(self):
        # halves where lower + upper or upper - lower overflows; no se past the float range.
        # The se bits are those of the default level's alpha, 0.05
        assert EffectEstimate.from_ci(1e308, 1.7e308) == (1.35e308, 1.7857470992362882e307)
        assert EffectEstimate.from_ci(-1.7e308, 1.7e308) == (0.0, 8.673628767719115e307)
        # but the sum where it is finite: halves of subnormal limits round (to 1e-323 here)
        assert EffectEstimate.from_ci(5e-324, 2.5e-323) == (1.5e-323, 5e-324)
        for lower, upper in [(1.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(DataError, match="need lower < upper"):
                EffectEstimate.from_ci(lower, upper)
        for lower, upper, level in [(0.0, 5e-324, 0.95), (-1e308, 1e308, 0.01)]:
            with pytest.raises(NonexistenceError, match="standard error of the interval"):
                EffectEstimate.from_ci(lower, upper, level)


class TestSignificant:
    def test_rejects_impossible_alpha(self):
        with pytest.raises(ValueError, match="alpha must be in"):
            EffectEstimate(0.8, 1.0).significant(1.5)


class TestNormalPrior:
    def test_variance_must_be_positive(self):
        # and finite: equivalent_trial and bf01_normal_prior rely on it
        for variance in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="prior variance must be positive"):
                NormalPrior(0.0, variance)
