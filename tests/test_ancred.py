import math
import random

import mpmath
import pytest

from revbayes.ancred import (advocacy_limit, advocacy_prior,
                             credibility_ratio, credibility_ratio_bound,
                             equivalent_trial, intrinsic_boundary_p,
                             intrinsic_credibility, p_intrinsic, p_rep,
                             sceptical_analysis, sceptical_relative_variance,
                             scepticism_limit)
from revbayes.errors import NonexistenceError
from revbayes.meta import forward_update
from revbayes.model import EffectEstimate, NormalPrior, ci_limits
from revbayes.statfn import norm_quantile, two_sided_p


def implied_log_or_stats(a, b, c, d):
    """Oracle: mean and variance of the log OR implied by a 2x2 table."""
    return math.log((a / b) / (c / d)), 1 / a + 1 / b + 1 / c + 1 / d


def _assert_verdict_flips(alpha, flavor, factor):
    """The verdict is credible just below the boundary p-value and not just
    above it (+-2 %), and flips between z = sqrt(factor) z_crit (1 -+ 1e-12)
    at every scale of se."""
    boundary = intrinsic_boundary_p(alpha, flavor)
    z_above = norm_quantile(1 - boundary * 0.98 / 2)
    z_below = norm_quantile(1 - boundary * 1.02 / 2)
    assert intrinsic_credibility(EffectEstimate(z_above, 1.0), alpha, flavor)
    assert not intrinsic_credibility(EffectEstimate(z_below, 1.0), alpha, flavor)
    z_boundary = math.sqrt(factor) * norm_quantile(1 - alpha / 2)
    for se in (0.01, 1.0, 37.0):
        above = EffectEstimate(z_boundary * (1 + 1e-12) * se, se)
        below = EffectEstimate(z_boundary * (1 - 1e-12) * se, se)
        assert intrinsic_credibility(above, alpha, flavor), se
        assert not intrinsic_credibility(below, alpha, flavor), se
        assert intrinsic_credibility(below, alpha, flavor).reason is None


class TestScepticalRelativeVariance:
    def test_recovery(self, recovery):
        assert sceptical_relative_variance(recovery.z, 0.05) == pytest.approx(
            0.39, abs=5e-3)

    def test_algebraic_point(self):
        z_crit = norm_quantile(0.975)
        z = math.sqrt(2.0) * z_crit
        assert sceptical_relative_variance(z, 0.05) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(NonexistenceError, match="undefined"):
            sceptical_relative_variance(norm_quantile(0.975), 0.05)


class TestScepticismLimit:
    def test_recovery_interval(self, recovery):
        lo, hi = ci_limits(recovery, 0.95)
        s = scepticism_limit(lo, hi)
        assert s == pytest.approx(0.18, abs=5e-3)
        analysis = sceptical_analysis(recovery, 0.05)
        assert analysis.critical_interval_or[0] == pytest.approx(0.84, abs=5e-3)
        assert analysis.critical_interval_or[1] == pytest.approx(1.19, abs=5e-3)

    def test_pooled_interval(self, meta_result):
        lo, hi = meta_result.pooled.ci()
        assert scepticism_limit(lo, hi) == pytest.approx(0.13, abs=5e-3)

    def test_degenerate(self):
        assert scepticism_limit(0.4, 0.4) == 0.0

    def test_straddling_rejected(self):
        for lower, upper in [(-0.1, 0.2), (0.0, 0.5), (-0.5, 0.0)]:
            with pytest.raises(NonexistenceError):
                scepticism_limit(lower, upper)

    def test_consistency_with_z_parameterization(self):
        rng = random.Random(11)
        for _ in range(200):
            se = rng.uniform(0.05, 1.0)
            alpha = rng.choice([0.2, 0.1, 0.05, 0.01])
            z_crit = norm_quantile(1 - alpha / 2)
            z = rng.uniform(z_crit * 1.05, z_crit * 4) * rng.choice([-1, 1])
            est = EffectEstimate(z * se, se)
            lo, hi = ci_limits(est, 1 - alpha)
            g = sceptical_relative_variance(z, alpha)
            assert scepticism_limit(lo, hi) == pytest.approx(
                z_crit * se * math.sqrt(g), abs=1e-10)

    def test_interval_reciprocal_symmetry(self, recovery):
        analysis = sceptical_analysis(recovery, 0.05)
        lo, hi = analysis.critical_interval_or
        assert lo * hi == pytest.approx(1.0, abs=1e-10)
        assert analysis.tau2 == pytest.approx(analysis.g * recovery.se ** 2, rel=1e-12)


class TestAdvocacyLimit:
    def test_remap_cap(self, remap_cap):
        lo, hi = ci_limits(remap_cap, 0.95)
        al = advocacy_limit(lo, hi)
        assert al == pytest.approx(-1.89, abs=0.01)
        assert math.exp(al) == pytest.approx(0.15, abs=5e-3)

    def test_symmetric_interval_rejected(self):
        with pytest.raises(NonexistenceError):
            advocacy_limit(-0.5, 0.5)

    def test_significant_rejected(self):
        with pytest.raises(NonexistenceError):
            advocacy_limit(0.1, 0.5)

    def test_direct_evaluation(self):
        # -(U+L)/(2UL) * (U-L)^2 at (-1, 3)
        assert advocacy_limit(-1.0, 3.0) == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_sign_follows_point_estimate(self):
        assert advocacy_limit(-0.2, 0.9) > 0
        assert advocacy_limit(-0.9, 0.2) < 0


class TestAdvocacyPrior:
    def test_remap_cap(self, remap_cap):
        adv = advocacy_prior(remap_cap, 0.05)
        assert adv.mu == pytest.approx(-0.94, abs=0.01)
        assert adv.limit == pytest.approx(2 * adv.mu, abs=1e-12)
        assert adv.cv == pytest.approx(1.0 / norm_quantile(0.975), rel=1e-12)

    def test_zero_z(self):
        adv = advocacy_prior(EffectEstimate(0.3, 1000.0), 0.05)
        assert adv.m == pytest.approx(2.0, rel=1e-6)
        assert adv.mu == pytest.approx(0.6, rel=1e-6)

    def test_cv_value_at_five_percent(self, remap_cap):
        assert advocacy_prior(remap_cap, 0.05).cv == pytest.approx(
            1.0 / 1.959964, abs=1e-6)

    def test_significant_rejected(self, recovery):
        with pytest.raises(NonexistenceError, match="advocacy prior undefined"):
            advocacy_prior(recovery, 0.05)

    def test_limit_matches_ci_form(self, remap_cap):
        lo, hi = ci_limits(remap_cap, 0.95)
        adv = advocacy_prior(remap_cap, 0.05)
        assert advocacy_limit(lo, hi) == pytest.approx(adv.limit, abs=1e-10)

    def test_prior_quantile_at_zero(self, remap_cap):
        adv = advocacy_prior(remap_cap, 0.05)
        lo, hi = adv.prior().ci(0.95)
        nearer_zero = max(lo, hi) if adv.mu < 0 else min(lo, hi)
        assert nearer_zero == pytest.approx(0.0, abs=1e-12)


class TestPosteriorBoundary:
    """Combining the derived prior with the likelihood lands the posterior
    CI limit nearer zero exactly at zero."""

    def test_sceptical(self):
        rng = random.Random(23)
        for _ in range(300):
            alpha = rng.choice([0.2, 0.1, 0.05, 0.01])
            z_crit = norm_quantile(1 - alpha / 2)
            se = rng.uniform(0.05, 1.0)
            z = rng.uniform(z_crit * 1.01, z_crit * 5) * rng.choice([-1, 1])
            est = EffectEstimate(z * se, se)
            analysis = sceptical_analysis(est, alpha)
            post = forward_update(0.0, 1.0 / analysis.tau2, est)
            lo, hi = post.ci(1 - alpha)
            assert min(abs(lo), abs(hi)) < 1e-10

    def test_advocacy(self):
        rng = random.Random(29)
        for _ in range(300):
            alpha = rng.choice([0.2, 0.1, 0.05, 0.01])
            z_crit = norm_quantile(1 - alpha / 2)
            se = rng.uniform(0.05, 1.0)
            z = rng.uniform(-z_crit * 0.99, z_crit * 0.99)
            if z == 0.0:
                continue
            est = EffectEstimate(z * se, se)
            adv = advocacy_prior(est, alpha)
            post = forward_update(adv.mu, 1.0 / adv.tau ** 2, est)
            lo, hi = post.ci(1 - alpha)
            assert min(abs(lo), abs(hi)) < 1e-10


class TestIntrinsicCredibility:
    def test_recovery_both_flavors(self, recovery):
        assert intrinsic_credibility(recovery, 0.05, "prior_based")
        assert intrinsic_credibility(recovery, 0.05, "predictive_based")

    def test_non_significant_returns_reason(self, remap_cap):
        verdict = intrinsic_credibility(remap_cap, 0.05)
        assert not verdict
        assert "not significant" in verdict.reason

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
    def test_prior_based_boundary(self, alpha):
        if alpha == 0.05:
            assert intrinsic_boundary_p(alpha, "prior_based") == pytest.approx(
                0.013, abs=1e-3)
        _assert_verdict_flips(alpha, "prior_based", (1 + math.sqrt(5)) / 2)

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01])
    def test_predictive_boundary(self, alpha):
        if alpha == 0.05:
            assert intrinsic_boundary_p(alpha, "predictive_based") == pytest.approx(
                0.0056, abs=1e-3)
        _assert_verdict_flips(alpha, "predictive_based", 2.0)

    def test_boundary_rejects_impossible_alpha(self):
        with pytest.raises(ValueError, match="alpha must be in"):
            intrinsic_boundary_p(1.5)


    @pytest.mark.parametrize("alpha", [0.05, 0.01, 0.005])
    @pytest.mark.parametrize("flavor, factor", [
        ("prior_based", (1 + mpmath.sqrt(5)) / 2), ("predictive_based", 2)])
    def test_boundary_closed_form(self, alpha, flavor, factor):
        # z^2 = phi z_crit^2 (prior flavour) or 2 z_crit^2 (predictive)
        with mpmath.workdps(40):
            z_crit = mpmath.sqrt(2) * mpmath.erfinv(1 - mpmath.mpf(alpha))
            expected = float(mpmath.erfc(mpmath.sqrt(factor) * z_crit / mpmath.sqrt(2)))
        assert intrinsic_boundary_p(alpha, flavor) == pytest.approx(expected, rel=1e-12, abs=0)


class TestCredibilityRatio:
    def test_recovery(self, recovery):
        lo, hi = ci_limits(recovery, 0.95)
        ratio = credibility_ratio(lo, hi)
        assert ratio == pytest.approx(3.27, abs=0.02)
        assert ratio < credibility_ratio_bound()

    def test_bound_rounds_to_published_value(self):
        bound = credibility_ratio_bound()
        assert bound == pytest.approx(5.8, abs=0.05)

    def test_bound_is_one_plus_root_two_squared(self):
        assert credibility_ratio_bound() == 3 + 2 * math.sqrt(2)

    def test_equal_limits(self):
        assert credibility_ratio(0.3, 0.3) == 1.0

    def test_straddling_rejected(self):
        with pytest.raises(NonexistenceError):
            credibility_ratio(-0.2, 0.4)


class TestPIntrinsicAndPRep:
    def test_recovery(self, recovery):
        assert p_intrinsic(recovery.z) == pytest.approx(0.01, abs=0.01)
        assert p_rep(recovery.z) == pytest.approx(0.995, abs=0.01)

    def test_remap_cap(self, remap_cap):
        assert p_intrinsic(remap_cap.z) == pytest.approx(0.46, abs=0.01)
        assert p_rep(remap_cap.z) == pytest.approx(0.77, abs=0.01)

    def test_zero_z(self):
        assert p_intrinsic(0.0) == 1.0
        assert p_rep(0.0) == 0.5

    def test_doubling_the_variance_rule(self):
        for z in [-4.0, -1.3, 0.2, 2.5, 6.0]:
            assert p_intrinsic(z) == pytest.approx(
                two_sided_p(z / math.sqrt(2)), abs=1e-12)


class TestEquivalentTrial:
    def test_two_events_for_unit_variance_pair(self):
        trial = equivalent_trial(NormalPrior(0.0, 2.0))
        assert trial.events_per_arm == 1.0

    def test_recovery_sceptical(self, recovery):
        prior = sceptical_analysis(recovery, 0.05).prior()
        large_arms = equivalent_trial(prior, patients_per_arm=100000)
        assert round(large_arms.events_per_arm) == 244
        with_rate = equivalent_trial(prior, event_rate=0.375)
        assert round(with_rate.events_per_arm) == 389
        assert round(with_rate.patients_per_arm) == 1038

    def test_remap_cap_advocacy(self, remap_cap):
        prior = advocacy_prior(remap_cap, 0.05).prior()
        plain = equivalent_trial(prior)
        assert round(plain.events_per_arm) == 9
        assert plain.allocation_ratio == pytest.approx(math.exp(prior.mean), rel=1e-12)
        with_rate = equivalent_trial(prior, event_rate=0.32)
        (et, nt), (ec, nc) = with_rate.per_arm_detail
        assert (round(et), round(nt)) == (11, 83)
        assert (round(ec), round(nc)) == (11, 39)

    def test_rate_construction_reproduces_prior(self):
        rng = random.Random(31)
        for _ in range(100):
            mu = rng.uniform(-1.5, 1.5)
            tau2 = rng.uniform(0.05, 1.0)
            rate = rng.uniform(0.1, 0.6)
            prior = NormalPrior(mu if abs(mu) > 1e-3 else 0.3, tau2)
            trial = equivalent_trial(prior, event_rate=rate)
            if trial.per_arm_detail is None:
                # mean-zero path: equal arms at exactly the target rate
                n = trial.patients_per_arm
                e = trial.events_per_arm
                _, var = implied_log_or_stats(e, n - e, e, n - e)
                assert var == pytest.approx(tau2, rel=1e-6)
            else:
                (et, nt), (ec, nc) = trial.per_arm_detail
                mean, var = implied_log_or_stats(et, nt - et, ec, nc - ec)
                assert mean == pytest.approx(prior.mean, abs=1e-6)
                assert var == pytest.approx(tau2, rel=1e-6)

    def test_tiny_variance_hits_rate(self):
        # e* = (2 + (1 + e^mu) r / (1 - r)) / tau^2 is about 2.3e8 events
        trial = equivalent_trial(NormalPrior(0.3, 1e-7), event_rate=0.9)
        _, (ec, nc) = trial.per_arm_detail
        assert ec / nc == pytest.approx(0.9, abs=1e-6)

    @pytest.mark.parametrize("mu", [800.0, -800.0])
    def test_allocation_ratio_outside_float_range(self, mu):
        with pytest.raises(NonexistenceError, match="allocation ratio"):
            equivalent_trial(NormalPrior(mu, 1.0), event_rate=0.3)

    def test_event_count_outside_float_range(self):
        # a prior variance near the subnormal range needs more events than
        # a float holds; an OverflowError escaped from math.floor before
        with pytest.raises(NonexistenceError, match="event count"):
            equivalent_trial(NormalPrior(1.0, 1e-320), event_rate=0.3)

    def test_mean_zero_rate_hits_rate_exactly(self):
        trial = equivalent_trial(NormalPrior(0.0, 0.3), event_rate=0.25)
        assert trial.events_per_arm / trial.patients_per_arm == pytest.approx(
            0.25, rel=1e-12)

    def test_infeasible_patients(self):
        with pytest.raises(ValueError, match="patients per arm"):
            equivalent_trial(NormalPrior(0.0, 0.0001), patients_per_arm=10)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            equivalent_trial(NormalPrior(0.0, 0.5), event_rate=1.5)

    def test_patients_per_arm_rejected_with_nonzero_mean(self):
        with pytest.raises(ValueError, match="patients_per_arm"):
            equivalent_trial(NormalPrior(0.3, 0.01), patients_per_arm=100)

    def test_patients_per_arm_rejected_with_event_rate(self):
        with pytest.raises(ValueError, match="patients_per_arm"):
            equivalent_trial(NormalPrior(0.0, 0.01), event_rate=0.3,
                             patients_per_arm=100)


class TestSignEquivariance:
    def test_negation(self, recovery):
        flipped = EffectEstimate(-recovery.theta_hat, recovery.se)
        a = sceptical_analysis(recovery, 0.05)
        b = sceptical_analysis(flipped, 0.05)
        assert a.g == pytest.approx(b.g, rel=1e-12)
        assert a.limit == pytest.approx(b.limit, rel=1e-12)
        assert p_intrinsic(recovery.z) == pytest.approx(
            p_intrinsic(flipped.z), rel=1e-12)

    def test_advocacy_negation(self, remap_cap):
        flipped = EffectEstimate(-remap_cap.theta_hat, remap_cap.se)
        a = advocacy_prior(remap_cap, 0.05)
        b = advocacy_prior(flipped, 0.05)
        assert a.mu == pytest.approx(-b.mu, rel=1e-12)
        assert a.limit == pytest.approx(-b.limit, rel=1e-12)
        assert a.cv == b.cv
