import math
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from revbayes.errors import DataError, NonexistenceError
from revbayes.meta import (box_check, failsafe_n, forward_update, pool,
                           reverse_update)
from revbayes.model import EffectEstimate, PosteriorSummary, Study
from revbayes.statfn import critical_z


def closed_form_pool(estimates):
    """Independent oracle: precision-weighted average in one shot."""
    precision = sum(1.0 / e.se ** 2 for e in estimates)
    mean = sum(e.theta_hat / e.se ** 2 for e in estimates) / precision
    return mean, precision


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


class TestPool:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            pool([])

    def test_single_study(self):
        est = Study("only", estimate=0.4, se=0.2)
        result = pool([est])
        assert result.pooled.mean == 0.4
        assert result.pooled.precision == pytest.approx(25.0, rel=1e-12)

    def test_two_study_closed_form(self):
        studies = [Study("a", estimate=0.5, se=0.2), Study("b", estimate=-0.1, se=0.4)]
        result = pool(studies)
        mean, precision = closed_form_pool([s.effect_estimate() for s in studies])
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
        mean, precision = closed_form_pool([s.effect_estimate() for s in studies])
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
    def test_loo_against_mpmath(self, rows):
        # se = 10^u with u in [-2, 2]: precisions differ by up to 1e8
        studies = [Study(str(i), estimate=theta, se=10.0 ** u)
                   for i, (theta, u) in enumerate(rows)]
        result = pool(studies)
        with mpmath.workdps(50):
            for i, diag in enumerate(result.per_study):
                rest = studies[:i] + studies[i + 1:]
                precision = mpmath.fsum(1 / mpmath.mpf(s.se) ** 2 for s in rest)
                mean = mpmath.fsum(mpmath.mpf(s.estimate) / mpmath.mpf(s.se) ** 2
                                   for s in rest) / precision
                loo = diag.leave_one_out_prior
                assert loo.precision == pytest.approx(float(precision), rel=1e-10, abs=0)
                assert loo.mean == pytest.approx(float(mean), rel=1e-10, abs=0)

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
        est = EffectEstimate(0.3, 0.2)
        prior = PosteriorSummary(0.3, 4.0)
        t_box, p_box = box_check(est, prior)
        assert t_box == 0.0
        assert p_box == 1.0


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
        z_crit = critical_z(1.0 - 0.95)
        result = failsafe_n(pool([Study("edge", estimate=z_crit * 0.25, se=0.25)]))
        assert not result.significant
        above = math.nextafter(z_crit, math.inf) * 0.25
        assert failsafe_n(pool([Study("edge", estimate=above, se=0.25)])).significant

    def test_rejects_impossible_level(self, meta_result):
        with pytest.raises(ValueError, match="alpha must be in"):
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
