import math
import random

import pytest

import oracles
from revbayes.ancred import (advocacy_prior,
                             credibility_ratio, credibility_ratio_bound,
                             equivalent_trial, intrinsic_boundary_p,
                             intrinsic_credibility, p_intrinsic, p_rep,
                             sceptical_analysis, sceptical_relative_variance,
                             scepticism_limit)
from revbayes.errors import NonexistenceError
from revbayes.meta import failsafe_n, forward_update, pool
from revbayes.model import EffectEstimate, NormalPrior, Study, ci_limits
from revbayes.statfn import alpha_for_level, critical_z, norm_quantile, two_sided_p


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


class TestSignificanceBoundary:
    """Near |z| = z_crit, where r - 1 would cancel, on both sides."""

    def test_last_digits_against_mpmath(self):
        # g, tau^2, S and the fail-safe N (r > 1), and m (r < 1), within 4 ulp
        # of mpmath for |r - 1| from 1e-15 to 0.2, taking the package's z_crit
        # as input: it is itself within half an ulp, which moves g by up to
        # about 1/(r - 1) ulp. se is a power of two, so z = (z se) / se exactly
        rng = random.Random(31)
        worst = dict.fromkeys(["g", "tau2", "limit", "n", "m"], 0.0)
        for _ in range(4000):
            level = rng.choice([0.8, 0.95, 0.99, 0.999999])
            alpha, se = alpha_for_level(level), 2.0 ** rng.randint(-30, 30)
            z_crit = critical_z(alpha)
            target = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, math.log10(0.2))
            z = rng.choice([-1.0, 1.0]) * z_crit * math.sqrt(1.0 + target)
            expected = oracles.ancred_fields(z, z_crit, se)
            if abs(expected["n"]) < 1e-15:
                continue
            estimate = EffectEstimate(z * se, se)
            fsn = failsafe_n(pool([Study("s", estimate=z * se, se=se)]), level)
            assert fsn.significant == (expected["n"] > 0) == estimate.significant(alpha)
            if fsn.significant:
                sceptical = sceptical_analysis(estimate, alpha)
                got = {"g": sceptical.g, "tau2": sceptical.tau2, "limit": sceptical.limit,
                       "n": fsn.n_exact}
            else:
                got = {"m": advocacy_prior(estimate, alpha).m}
            for name, value in got.items():
                worst[name] = max(worst[name], oracles.ulps(value, expected[name]))
        assert max(worst.values()) <= 4.0, worst

    def test_messages_at_the_boundary_agree(self):
        # |z| == z_crit is not significant; neither prior exists, and the
        # advocacy message says why without calling the finding significant
        estimate = EffectEstimate(critical_z(0.05), 1.0)
        assert not estimate.significant(0.05)
        with pytest.raises(NonexistenceError, match="finding not significant"):
            sceptical_analysis(estimate, 0.05)
        with pytest.raises(NonexistenceError, match="finding on the significance boundary"):
            advocacy_prior(estimate, 0.05)


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
    """The advocacy limit from CI limits, by the route of `ancred --lower/--upper`."""

    @staticmethod
    def limit(lower, upper):
        return advocacy_prior(EffectEstimate.from_ci(lower, upper), 0.05).limit

    def test_remap_cap(self, remap_cap):
        al = self.limit(*ci_limits(remap_cap, 0.95))
        assert al == pytest.approx(-1.89, abs=0.01)
        assert math.exp(al) == pytest.approx(0.15, abs=5e-3)

    def test_symmetric_interval_rejected(self):
        with pytest.raises(NonexistenceError):
            self.limit(-0.5, 0.5)

    def test_significant_rejected(self):
        with pytest.raises(NonexistenceError):
            self.limit(0.1, 0.5)

    def test_direct_evaluation(self):
        # the CI form -(U+L)/(2UL) * (U-L)^2 at (-1, 3)
        assert self.limit(-1.0, 3.0) == pytest.approx(16.0 / 3.0, rel=1e-12)

    def test_sign_follows_point_estimate(self):
        assert self.limit(-0.2, 0.9) > 0
        assert self.limit(-0.9, 0.2) < 0


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
        from_ci = advocacy_prior(EffectEstimate.from_ci(lo, hi), 0.05)
        assert from_ci.limit == pytest.approx(
            advocacy_prior(remap_cap, 0.05).limit, rel=1e-12)

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
        ("prior_based", oracles.GOLDEN_RATIO), ("predictive_based", 2)])
    def test_boundary_closed_form(self, alpha, flavor, factor):
        # z^2 = phi z_crit^2 (prior flavour) or 2 z_crit^2 (predictive)
        assert intrinsic_boundary_p(alpha, flavor) == pytest.approx(
            oracles.intrinsic_boundary_p(alpha, factor), rel=1e-12, abs=0)


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

    @pytest.mark.parametrize("z", [1.80, 1.85, 1.91, 1.95])
    def test_cells_reproduce_the_advocacy_prior(self, z):
        # Just below z_crit the events e dwarf the non-event cells b and d, so
        # patients e + b lose b: rebuilt from them, the variance is 6e-8 off
        # at z = 1.91 and b is 0.0 at z = 1.95. The carried cells keep it.
        prior = advocacy_prior(EffectEstimate(z * 0.3, 0.3), 0.05).prior()
        trial = equivalent_trial(prior, event_rate=0.3)
        (e, b), (e2, d) = trial.per_arm_cells
        assert e == e2 and b > 0.0 and d > 0.0
        assert trial.per_arm_detail == ((e, e + b), (e, e + d))
        assert 2.0 / e + 1.0 / b + 1.0 / d == pytest.approx(prior.variance, rel=1e-12, abs=0)
        assert math.log(d / b) == pytest.approx(prior.mean, rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("mu, tau2, rate", [
        (0.0, 0.0085, 5e-324),   # tau^2 r (1 - r) underflows to 0
        (0.0, 0.0085, 1e-310),   # n = 2 / (tau^2 r (1 - r)) overflows, and r n with it
        (1.0, 1e-34, 5e-324),    # the neighbours of e* are one float, and 2/e rounds to tau^2
        (1.0, 1e-17, 1e-30),
        (1.0, 1e-300, 1e-12),    # 2/e is below tau^2, and the cells overflow
    ])
    def test_patients_outside_float_range(self, mu, tau2, rate):
        # a ZeroDivisionError, inf events of about 235, an empty min(), and
        # inf patients before
        with pytest.raises(NonexistenceError, match="its patients per arm are outside"):
            equivalent_trial(NormalPrior(mu, tau2), event_rate=rate)

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
