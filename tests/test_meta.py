import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import oracles
from revbayes.errors import DataError, NonexistenceError
from revbayes.meta import (PosteriorSummary, StudyDiagnostics, failsafe_n, forward_update,
                           pool, reverse_update)
from revbayes.model import EffectEstimate, Study
from revbayes.statfn import critical_z, two_sided_p


def record_pool(studies):
    """Oracle: pool as written one record per study, with an EffectEstimate,
    a PosteriorSummary and a conflict check each: (pooled, per_study). Each
    mean and precision is the exact pool of the float weights 1/se^2, summed
    as Fractions and rounded once."""
    if not studies:
        raise DataError("meta-analysis requires at least one study")
    estimates = [s.effect_estimate() for s in studies]
    try:
        precisions = [est.precision for est in estimates]
    except NonexistenceError:
        study, est = min(zip(studies, estimates), key=lambda pair: pair[1].se)
        raise NonexistenceError(
            f"no pooled estimate: study {study.id!r} has se = {est.se!r}, whose "
            f"precision 1/se^2 is outside the floating-point range") from None
    weights = list(map(Fraction, precisions))
    terms = [Fraction(est.theta_hat) * w for est, w in zip(estimates, weights)]
    total_tw, total_w = sum(terms), sum(weights)
    try:
        precision = float(total_w)
    except OverflowError:
        precision = math.inf
    if not 0.0 < precision < math.inf:
        raise NonexistenceError(
            f"no pooled estimate: the pooled precision, the sum of 1/se^2 over "
            f"{len(studies)} studies, is outside the floating-point range")
    pooled = PosteriorSummary(float(total_tw / total_w), precision)
    per_study = []
    for study, est, tw, w in zip(studies, estimates, terms, weights):
        loo, t_box, p_box = None, math.nan, math.nan
        if total_w - w:
            loo = PosteriorSummary(float((total_tw - tw) / (total_w - w)), float(total_w - w))
            t_box = (est.theta_hat - loo.mean) / math.sqrt(est.se * est.se + 1.0 / loo.precision)
            p_box = two_sided_p(t_box)
        per_study.append(StudyDiagnostics(study.id, est, loo, t_box, p_box))
    return pooled, tuple(per_study)


# rows of both schemas, some with a zero cell, counts past 2^53 or 1e308, a
# non-finite value or an se whose precision or z leaves the float range
_CELL = (st.integers(min_value=0, max_value=2 ** 52)
         | st.integers(min_value=2 ** 53, max_value=2 ** 200)
         | st.integers(min_value=10 ** 308, max_value=10 ** 330))
_COUNTS_ROW = st.tuples(_CELL, _CELL, _CELL, _CELL).filter(
    lambda c: c[0] + c[1] > 0 and c[2] + c[3] > 0).map(
    lambda c: {"events_treatment": c[0], "n_treatment": c[0] + c[1],
               "events_control": c[2], "n_control": c[2] + c[3]})
_ESTIMATE_ROW = st.fixed_dictionaries({
    "estimate": st.one_of([st.floats(min_value=-1e308, max_value=1e308)] * 7
                          + [st.sampled_from([math.inf, -math.inf, math.nan])]),
    "se": st.one_of([st.floats(min_value=5e-324, max_value=1e308)] * 7
                    + [st.sampled_from([5e-324, 1e-200, 1e-160, 1e-154, 1e154, 1e300,
                                        math.inf, math.nan])])})


class TestForwardUpdate:
    def test_flat_prior_identity(self):
        est = EffectEstimate(-0.37, 0.21)
        post = forward_update(0.0, 0.0, est)
        assert post.mean == est.theta_hat
        assert post.precision == pytest.approx(1.0 / est.se ** 2, rel=1e-15)

    def test_equal_weight_average(self):
        post = forward_update(0.0, 1.0, EffectEstimate(1.0, 1.0))
        assert post.mean == 0.5
        assert post.precision == 2.0

    def test_corticosteroid_pooling(self, meta_result):
        assert meta_result.pooled.mean == pytest.approx(-0.42, abs=5e-3)
        assert meta_result.pooled.precision == pytest.approx(83.8, abs=0.1)

    def test_rejects_negative_precision(self):
        with pytest.raises(ValueError):
            forward_update(0.0, -1.0, EffectEstimate(0.0, 1.0))

    @pytest.mark.parametrize("se", [1e-200, 1e-160])
    def test_precision_past_the_float_range(self, se):
        # se * se underflows to 0 (1e-200) or 1/(se * se) overflows (1e-160)
        with pytest.raises(NonexistenceError, match="precision 1/se"):
            forward_update(0.0, 1.0, EffectEstimate(0.1, se))

    def test_flat_posterior(self):
        # a flat prior and a study whose precision 1/se^2 underflows to 0.0
        with pytest.raises(NonexistenceError,
                           match=r"^posterior is flat: .* for se = 1e\+300$"):
            forward_update(0.0, 0.0, EffectEstimate(0.1, 1e300))

    @pytest.mark.parametrize("prior_precision", [1.7e308, math.inf])
    def test_posterior_precision_past_the_float_range(self, prior_precision):
        # the sum of two finite precisions overflows, where the mean would be nan
        with pytest.raises(NonexistenceError,
                           match=r"^the posterior precision, prior .* plus 1/se\^2 = 1e\+308, "
                                 r"is outside the floating-point range$"):
            forward_update(2.0, prior_precision, EffectEstimate(1.0, 1e-154))

    def test_mean_times_precision_past_the_float_range(self):
        # the pool of 1e300 with precision 1e300 and 1.0 with precision 1.0
        assert forward_update(1e300, 1e300, EffectEstimate(1.0, 1.0)) == (1e300, 1e300)

    @pytest.mark.parametrize("prior_mean", [math.inf, -math.inf, math.nan])
    def test_non_finite_prior_mean(self, prior_mean):
        with pytest.raises(DataError, match="prior mean must be finite"):
            forward_update(prior_mean, 1.0, EffectEstimate(0.1, 0.2))


class TestReverseUpdate:
    def test_recovery_leave_one_out(self, meta_result, recovery):
        loo = reverse_update(meta_result.pooled, recovery)
        assert loo.precision == pytest.approx(36.1, abs=0.1)
        assert loo.mean == pytest.approx(-0.26, abs=5e-3)

    def test_exact_inversion(self):
        rng = random.Random(7)
        for _ in range(200):
            prior_mean = rng.uniform(-2, 2)
            prior_precision = rng.uniform(0.01, 50)
            est = EffectEstimate(rng.uniform(-2, 2), rng.uniform(0.05, 3))
            post = forward_update(prior_mean, prior_precision, est)
            back = reverse_update(post, est)
            assert back.mean == pytest.approx(prior_mean, rel=1e-10, abs=1e-10)
            assert back.precision == pytest.approx(prior_precision, rel=1e-10)

    def test_single_study_boundary(self):
        est = EffectEstimate(0.3, 0.5)
        post = forward_update(0.0, 0.0, est)
        with pytest.raises(NonexistenceError, match="posterior precision"):
            reverse_update(post, est)

    @pytest.mark.parametrize("mean, precision", [(-0.004464116353255812, 1.2822559176797582e42),
                                                 (-6.47251827704208e275, 1.265911604008668e80)])
    def test_flat_study_leaves_the_posterior(self, mean, precision):
        # se = 1e300 has precision 0.0, which forward_update's pool skips; so does its inverse,
        # where mean * precision / precision would be off by an ulp or overflow
        est = EffectEstimate(0.1, 1e300)
        assert reverse_update(PosteriorSummary(mean, precision), est) == (mean, precision)

    @pytest.mark.parametrize("se", [1e-200, 1e-160])
    def test_precision_past_the_float_range(self, se):
        with pytest.raises(NonexistenceError, match="precision 1/se"):
            reverse_update(PosteriorSummary(0.0, 1.0), EffectEstimate(0.1, se))

    @pytest.mark.parametrize("mean, precision", [(math.inf, 1.0), (math.nan, 1.0),
                                                 (0.0, math.inf), (0.0, math.nan)])
    def test_non_finite_posterior(self, mean, precision):
        with pytest.raises(DataError, match="posterior mean and precision must be finite"):
            reverse_update(PosteriorSummary(mean, precision), EffectEstimate(0.1, 0.2))

    def test_prior_mean_past_the_float_range(self):
        # (P m - kappa theta)/(P - kappa) with P - kappa = 2^-52 kappa
        with pytest.raises(NonexistenceError, match="prior mean .* outside the floating-point"):
            reverse_update(PosteriorSummary(1e300, 1.0 + 2.0 ** -52), EffectEstimate(-1e300, 1.0))


class TestPool:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            pool([])

    def test_repeated_id_is_named(self):
        studies = [Study(sid, estimate=0.1, se=0.2) for sid in ("A", "B", "C", "B", "A")]
        with pytest.raises(DataError, match="study ids must be unique: 'B' is repeated"):
            pool(studies)

    def test_single_study(self):
        est = Study("only", estimate=0.4, se=0.2)
        result = pool([est])
        assert result.pooled.mean == 0.4
        assert result.pooled.precision == pytest.approx(25.0, rel=1e-12)

    def test_two_study_closed_form(self):
        studies = [Study("a", estimate=0.5, se=0.2), Study("b", estimate=-0.1, se=0.4)]
        result = pool(studies)
        mean, precision = oracles.pool([s.effect_estimate() for s in studies])
        assert result.pooled.mean == pytest.approx(mean, rel=1e-12)
        assert result.pooled.precision == pytest.approx(precision, rel=1e-12)

    def test_permutation_invariance(self, studies):
        base = pool(studies)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = list(studies)
            rng.shuffle(shuffled)
            other = pool(shuffled)
            assert other.pooled.mean == pytest.approx(base.pooled.mean, abs=1e-12)
            assert other.pooled.precision == pytest.approx(
                base.pooled.precision, abs=1e-12)

    def test_closed_form_agreement(self, studies, meta_result):
        mean, precision = oracles.pool([s.effect_estimate() for s in studies])
        assert meta_result.pooled.mean == pytest.approx(mean, abs=1e-12)
        assert meta_result.pooled.precision == pytest.approx(precision, abs=1e-12)

    def test_loo_priors_reproduce_pooled(self, meta_result):
        for diag in meta_result.per_study:
            loo = diag.leave_one_out_prior
            back = forward_update(loo.mean, loo.precision, diag.estimate)
            assert back.mean == pytest.approx(meta_result.pooled.mean, abs=1e-10)
            assert back.precision == pytest.approx(
                meta_result.pooled.precision, rel=1e-10)

    @given(st.lists(st.tuples(st.floats(min_value=-3, max_value=3),
                              st.floats(min_value=-2, max_value=2)),
                    min_size=2, max_size=30))
    # study 0's leave-one-out mean is 5e-324, where theta * w underflows as a float
    @example([(0.0, 0.0), (5e-324, 1.0), (5e-324, 1.0)])
    # se = 1e-149: the pooled mean is 1e11, where theta * w overflows as a float
    @example([(1e11, -149.0), (1e11, -149.0)])
    def test_loo_against_mpmath(self, rows):
        # se = 10^u with u in [-2, 2]: precisions differ by up to 1e8. The pooled
        # and each leave-one-out mean and precision are correctly rounded: within
        # 0.5 ulp of the exact pool of the float weights 1/(se*se)
        studies = [Study(str(i), estimate=theta, se=10.0 ** u)
                   for i, (theta, u) in enumerate(rows)]
        result = pool(studies)
        rows = [(s.estimate, s.se) for s in studies]
        assert max(map(oracles.ulps, result.pooled, oracles.pool(rows))) <= 0.5
        for i, diag in enumerate(result.per_study):
            expected = oracles.pool(rows[:i] + rows[i + 1:])
            assert max(map(oracles.ulps, diag.leave_one_out_prior, expected)) <= 0.5

    @pytest.mark.parametrize("rows, message", [
        ([("1", 2, 7, 2, 12), ("2", 0, 10, 3, 11), ("3", 2, 7, 2, 12), ("4", 1e308, 1e-10)],
         "study '2': zero cell"),
        ([("1", 2, 7, 2, 12), ("2", 1e308, 1e-10), ("3", 2, 7, 2, 12), ("4", 0, 10, 3, 11)],
         "study '2': z = estimate / se overflows: 1e+308 / 1e-10"),
        ([("1", 0.1, 0.2), ("2", math.inf, 0.2), ("3", 0.1, 1e-200), ("4", 0.1, math.nan)],
         "study '2': estimate and se must be finite"),
        # study '3's se is past the float range, but study '2' comes first
        ([("1", 2, 7, 2, 12), ("2", 1e308, 1e-10),
          ("3", 10 ** 400, 3 * 10 ** 400, 10 ** 400, 3 * 10 ** 400)],
         "study '2': z = estimate / se overflows"),
    ], ids=["zero-cell-first", "z-overflow-first", "non-finite-first",
            "z-overflow-before-huge-counts"])
    def test_mixed_schemas_name_the_first_bad_row(self, rows, message):
        studies = [Study(*row) if len(row) == 5 else Study(row[0], estimate=row[1], se=row[2])
                   for row in rows]
        with pytest.raises(DataError, match=re.escape(message)):
            pool(studies)

    @given(st.lists(_COUNTS_ROW | _ESTIMATE_ROW, min_size=1, max_size=30))
    # an infinite se with a finite z; two smallest se past the range, of which
    # the first is named
    @example([{"estimate": 0.1, "se": 0.2}, {"estimate": 0.1, "se": math.inf}])
    @example([{"estimate": 0.1, "se": 0.2}, {"estimate": 0.1, "se": 1e-200},
              {"estimate": 0.2, "se": 1e-200}])
    # se * se overflows, so 1/se^2 and the pooled precision are 0
    @example([{"estimate": 0.0, "se": 1.3407807929942597e+154}])
    # a study of precision 1/se^2 = 0.0 first, in the middle and last, and a
    # table whose only positive precision is its last study's: each takes
    # one of the passes' zero-precision branches
    @example([{"estimate": 0.3, "se": 1e300}, {"estimate": 0.1, "se": 0.2},
              {"estimate": -0.2, "se": 0.5}])
    @example([{"estimate": 0.1, "se": 0.2}, {"estimate": 0.3, "se": 1e300},
              {"estimate": -0.2, "se": 0.5}])
    @example([{"estimate": 0.1, "se": 0.2}, {"estimate": -0.2, "se": 0.5},
              {"estimate": 0.3, "se": 1e300}])
    @example([{"estimate": 0.3, "se": 1e300}, {"estimate": -0.4, "se": 1e301},
              {"estimate": 0.1, "se": 0.2}])
    def test_same_as_record_by_record(self, rows):
        # the error of the first bad study, or every column bit for bit
        studies = [Study(str(i), **row) for i, row in enumerate(rows)]
        try:
            expected = record_pool(studies)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                pool(studies)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            return
        result = pool(studies)
        assert repr((result.pooled, result.per_study)) == repr(expected)
        assert result.n_studies == len(studies)

    def test_dominant_study_leaves_the_rest(self):
        # the first study's precision is 1e16 times the others'
        studies = [Study("big", estimate=1.0, se=1e-8), Study("a", estimate=0.2, se=1.0),
                   Study("b", estimate=0.5, se=1.0)]
        (big, _, _) = pool(studies).per_study
        assert big.leave_one_out_prior.mean == 0.35
        assert big.leave_one_out_prior.precision == 2.0

    def test_loo_matches_re_pooling(self, studies):
        full = pool(studies)
        for i, diag in enumerate(full.per_study):
            reduced = pool(studies[:i] + studies[i + 1:])
            assert diag.leave_one_out_prior.mean == pytest.approx(
                reduced.pooled.mean, abs=1e-10)
            assert diag.leave_one_out_prior.precision == pytest.approx(
                reduced.pooled.precision, rel=1e-10)


class TestBoxCheck:
    def test_recovery_conflict(self, meta_result):
        (diag,) = [d for d in meta_result.per_study if d.study_id == "RECOVERY"]
        assert diag.t_box == pytest.approx(-1.24, abs=0.01)
        assert diag.p_box == pytest.approx(0.22, abs=0.01)

    def test_covid_steroid_conflict(self, meta_result):
        (diag,) = [d for d in meta_result.per_study if d.study_id == "COVID STEROID"]
        assert diag.p_box == pytest.approx(0.05, abs=0.01)

    def test_no_conflict_when_means_agree(self):
        # each study's leave-one-out prior is the other, of the same mean
        result = pool([Study("a", estimate=0.3, se=0.2), Study("b", estimate=0.3, se=0.5)])
        assert result.t_box == (0.0, 0.0)
        assert result.p_box == (1.0, 1.0)


class TestFailSafeN:
    def test_corticosteroid_value(self, meta_result):
        result = failsafe_n(meta_result)
        assert result.significant
        assert result.n_exact == pytest.approx(19.5, abs=0.1)
        assert result.n_integer == 20

    def test_non_significant_flag(self):
        result = failsafe_n(pool([Study("weak", estimate=0.1, se=0.5)]))
        assert not result.significant
        assert result.n_exact == 0.0 and result.n_integer == 0
        assert "not significant" in result.reason

    def test_boundary_z(self):
        # pooled z exactly at the critical value failsafe_n compares with at
        # level 0.95: not significant (se is a power of two, so the
        # arithmetic is exact and r = 1)
        z_crit = critical_z(0.05)
        result = failsafe_n(pool([Study("edge", estimate=z_crit * 0.25, se=0.25)]))
        assert not result.significant
        above = math.nextafter(z_crit, math.inf) * 0.25
        assert failsafe_n(pool([Study("edge", estimate=above, se=0.25)])).significant

    def test_rejects_impossible_level(self, meta_result):
        with pytest.raises(DataError, match=r"level must be in \(0,1\).* got -0.5"):
            failsafe_n(meta_result, level=-0.5)

    def test_brute_force_augmentation(self, meta_result):
        result = failsafe_n(meta_result)
        assert not _still_significant(meta_result, result.n_integer)
        assert _still_significant(meta_result, result.n_integer - 1)


def _still_significant(meta, n_null, level=0.95):
    """Oracle: re-pool with n_null extra null studies of average precision."""
    avg_precision = meta.pooled.precision / meta.n_studies
    precision = meta.pooled.precision + n_null * avg_precision
    mean = meta.pooled.mean * meta.pooled.precision / precision
    z = mean * math.sqrt(precision)
    return z ** 2 > critical_z(1.0 - level) ** 2
