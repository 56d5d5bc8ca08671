import collections
import math
import random
import sys

import pytest

import oracles
from revbayes.ancred import (CredibilityVerdict, advocacy_prior,
                             credibility_ratio, credibility_ratio_bound,
                             equivalent_trial, intrinsic_boundary_p,
                             intrinsic_credibility, p_intrinsic, p_rep,
                             sceptical_analysis, sceptical_relative_variance,
                             scepticism_limit)
from revbayes.errors import DataError, NonexistenceError
from revbayes.meta import failsafe_n, forward_update, pool
from revbayes.model import EffectEstimate, NormalPrior, Study, ci_limits
from revbayes.statfn import (FLOAT_MIN, alpha_for_level, critical_excess, critical_z,
                             norm_quantile, two_sided_p)


def implied_log_or_stats(a, b, c, d):
    """Oracle: mean and variance of the log OR implied by a 2x2 table."""
    return math.log((a / b) / (c / d)), 1 / a + 1 / b + 1 / c + 1 / d


# equivalent_trial(NormalPrior(mu, tau2), event_rate=rate): the .hex() of the
# events e, the allocation ratio, both arms' patients and the non-event cells b and
# d, or the NonexistenceError's text; each neighbour of e* wins somewhere
_TRIAL_BITS = {
    # floor(e*) + 1 is nearer the target rate
    (0.59, 0.35, 0.32): (
        "0x1.4000000000000p+3", "0x1.cdd22f4e7f250p+0", "0x1.45cb7f3f019ecp+4",
        "0x1.cb1793b60a4f8p+4", "0x1.4b96fe7e033d8p+3", "0x1.2b1793b60a4f8p+4"),
    (0.3, 1e-07, 0.9): (
        "0x1.b986e7a000000p+27", "0x1.599058c8c1a96p+0", "0x1.ddded53d57ca5p+27",
        "0x1.ea95e4e96daf2p+27", "0x1.22bf6ceabe52ap+24", "0x1.8877ea4b6d78ep+24"),
    (3.0, 0.08, 0.95): (
        "0x1.3a90000000000p+12", "0x1.415e5bf6fb106p+4", "0x1.3b63016a01697p+12",
        "0x1.4b1e28c3dc4b3p+12", "0x1.a602d402d2dd3p+3", "0x1.08e28c3dc4b2bp+8"),
    (0.2, 3.0, 0.99): (
        "0x1.2800000000000p+6", "0x1.38add9e58ac8dp+0", "0x1.2a726fdfb13b6p+6",
        "0x1.2afd21c36cb17p+6", "0x1.3937efd89daedp-1", "0x1.7e90e1b658b5ap-1"),
    (-0.7, 0.5, 0.5): (
        "0x1.c000000000000p+2", "0x1.fc80db9dd5542p-2", "0x1.5106e0e01258ep+4",
        "0x1.bf7d755c59c6ep+3", "0x1.c20dc1c024b1dp+3", "0x1.befaeab8b38ddp+2"),
    # floor(e*) is nearer
    (-0.4, 0.2, 0.375): (
        "0x1.e000000000000p+3", "0x1.57343067270eep-1", "0x1.a304dace601f0p+5",
        "0x1.40703b582d277p+5", "0x1.2b04dace601f0p+5", "0x1.90e076b05a4eep+4"),
    (0.7, 0.5, 0.5): (
        "0x1.4000000000000p+3", "0x1.01c2a61268987p+1", "0x1.dfa2c18b1b8e2p+3",
        "0x1.40bbc532563f8p+4", "0x1.3f458316371c3p+2", "0x1.41778a64ac7f1p+3"),
    (0.01, 0.02, 0.05): (
        "0x1.a400000000000p+6", "0x1.0292a5d2f2226p+0", "0x1.1251aca664e25p+11",
        "0x1.14f1af8466a48p+11", "0x1.0531aca664e25p+11", "0x1.07d1af8466a48p+11"),
    # a tie, at e* ~ 3.5e307: floor(e*)
    (709.0, 1.0, 0.3): (
        "0x1.91426b7e99885p+1021", "0x1.d422d2be5dc9bp+1022", "0x1.91426b7e99885p+1021",
        "0x1.4e62043ed546fp+1023", "0x1.0000000000000p+0", "0x1.d422d2be5dc9bp+1022"),
    # floor(e*) = 0 is infeasible
    (1.0, 5.0, 0.3): (
        "0x1.0000000000000p+0", "0x1.5bf0a8b145769p+1", "0x1.74b9c8483be9ap+0",
        "0x1.1ea58d906c7cep+1", "0x1.d2e72120efa68p-2", "0x1.3d4b1b20d8f9bp+0"),
    (-2.0, 2.5, 0.2): (
        "0x1.0000000000000p+0", "0x1.152aaa3bf81ccp-3", "0x1.1c7325c6a6ed6p+4",
        "0x1.a2a555477f03ap+1", "0x1.0c7325c6a6ed6p+4", "0x1.22a555477f03ap+1"),
    (-0.2, 3.0, 0.001): (
        "0x1.0000000000000p+0", "0x1.a330ad6166159p-1", "0x1.9c56ecf2c5646p+1",
        "0x1.68cc2b5859856p+1", "0x1.1c56ecf2c5646p+1", "0x1.d19856b0b30acp+0"),
    # floor(e*) >= 1 is infeasible: 2/e >= tau^2
    (1.0, 1.9, 0.01): (
        "0x1.0000000000000p+1", "0x1.5bf0a8b145769p+1", "0x1.c28af87863dacp+1",
        "0x1.886941460a257p+2", "0x1.8515f0f0c7b57p+0", "0x1.086941460a257p+2"),
    (-3.0, 0.5, 0.01): (
        "0x1.4000000000000p+2", "0x1.97db0ccceb0afp-5", "0x1.afb5f2f4b9d49p+7",
        "0x1.efee8e80012e8p+3", "0x1.a5b5f2f4b9d49p+7", "0x1.4fee8e80012e8p+3"),
    # feasible, but the non-event cells overflow
    (-709.0, 1.0, 0.3):
        "no equivalent trial: its patients per arm are outside the floating-point range "
        "(prior variance 1, event count 2.42857, event rate 0.3)",
    (1.0, 1e-300, 1e-12):
        "no equivalent trial: its patients per arm are outside the floating-point range "
        "(prior variance 1e-300, event count 2e+300, event rate 1e-12)",
    # both infeasible: 2/e rounds to tau^2
    (1.0, 1e-34, 5e-324):
        "no equivalent trial: its patients per arm are outside the floating-point range "
        "(prior variance 1e-34, event count 2e+34, event rate 4.94066e-324)",
    (1.0, 1e-17, 1e-30):
        "no equivalent trial: its patients per arm are outside the floating-point range "
        "(prior variance 1e-17, event count 2e+17, event rate 1e-30)",
    # e* itself past the float range
    (1.0, 1e-320, 0.3):
        "no equivalent trial: its event count is outside the floating-point range "
        "(prior variance 9.99989e-321)",
    # the allocation ratio past the float range
    (800.0, 1.0, 0.3):
        "no equivalent trial: the allocation ratio exp(800) "
        "is outside the floating-point range",
}


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

    @pytest.mark.parametrize("theta, se, tau2", [   # tau^2 from mpmath
        (1e300, 1e145, 3.841458820694127e-20), (-1e300, 1e140, 3.841458820694127e-40)])
    def test_where_r_overflows(self, theta, se, tau2):
        # (z/z_crit)^2 overflows, so g is subnormal and g se^2 would keep few of its bits
        assert sceptical_analysis(EffectEstimate(theta, se)).tau2 == pytest.approx(
            tau2, rel=1e-15, abs=0)

    def test_where_r_overflows_against_mpmath(self):
        # tau^2 and S within relative 1e-12 of mpmath wherever r - 1 = (z/z_crit)^2 - 1
        # overflows and tau^2 is a normal float, and g, subnormal there, within 1 ulp
        rng = random.Random(44)
        checked = 0
        for _ in range(2000):
            alpha = rng.choice([0.05, 0.01, 1e-6, 0.5])
            z_crit = critical_z(alpha)
            z = 10.0 ** rng.uniform(154.0, 308.0)
            se = 10.0 ** rng.uniform(-320.0, 308.0 - math.log10(z))
            if critical_excess(z, alpha) < math.inf or not 0.0 < z * se < math.inf:
                continue
            estimate = EffectEstimate(rng.choice([-1.0, 1.0]) * z * se, se)
            expected = oracles.ancred_fields(estimate.z, z_crit, se)
            got = sceptical_analysis(estimate, alpha)
            assert oracles.ulps(got.g, expected["g"]) <= 1.0
            if float(expected["tau2"]) >= FLOAT_MIN:
                checked += 1
                for name in ("tau2", "limit"):
                    reference = float(expected[name])
                    assert getattr(got, name) == pytest.approx(reference, rel=1e-12, abs=0)
        assert checked > 100

    def test_where_se_squared_overflows_against_mpmath(self):
        # tau^2 and S within relative 1e-12 of mpmath wherever se^2 overflows and
        # tau^2 = se^2/(r - 1) is a normal float, as g se^2 would be inf
        rng = random.Random(45)
        checked = 0
        for _ in range(2000):
            alpha = rng.choice([0.05, 0.01, 1e-6, 0.5])
            z_crit = critical_z(alpha)
            se = 10.0 ** rng.uniform(154.2, 308.0)
            z = z_crit * 10.0 ** rng.uniform(1e-6, 308.0 - math.log10(se * z_crit))
            if se * se < math.inf or not z * se < math.inf:
                continue
            estimate = EffectEstimate(rng.choice([-1.0, 1.0]) * z * se, se)
            expected = oracles.ancred_fields(estimate.z, z_crit, se)
            if FLOAT_MIN <= float(expected["tau2"]) < math.inf:
                checked += 1
                got = sceptical_analysis(estimate, alpha)
                for name in ("tau2", "limit"):
                    reference = float(expected[name])
                    assert getattr(got, name) == pytest.approx(reference, rel=1e-12, abs=0)
        assert checked > 400


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

    def test_last_digits_against_mpmath(self):
        # S within 4 ulp of mpmath wherever it is a normal float, for limits of
        # both signs with |L| and |U| log-uniform over [1e-300, 1e300], or U
        # near L; (U - L)^2 and UL leave the float range where S does not
        rng = random.Random(23)
        drawn, misses = 0, []
        for _ in range(4000):
            lo, hi = sorted(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
            if rng.random() < 0.5:
                hi = lo * (1.0 + 10.0 ** rng.uniform(-16.0, 1.0))
            lower, upper = (lo, hi) if rng.random() < 0.5 else (-hi, -lo)
            expected = oracles.scepticism_limit(lower, upper)
            if sys.float_info.min <= expected <= sys.float_info.max:
                drawn += 1
                error = oracles.ulps(scepticism_limit(lower, upper), expected)
                if not error <= 4.0:
                    misses.append((lower, upper, error))
        assert drawn > 3000 and misses == []

    @pytest.mark.parametrize("lower, upper", [(1e-200, 1e-199), (-1e-199, -1e-200),
                                              (1e200, 1e201)])
    def test_limits_whose_product_leaves_the_range(self, lower, upper):
        assert oracles.ulps(scepticism_limit(lower, upper),
                            oracles.scepticism_limit(lower, upper)) <= 4.0

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

    def test_verdicts_are_shared(self):
        # each of the three outcomes is one record, equal to the one built per call
        rng = random.Random(45)
        built = {}
        for _ in range(1000):
            z, alpha = rng.uniform(-6.0, 6.0), rng.choice([0.05, 0.01])
            excess = critical_excess(z, alpha)
            for flavor, factor in (("prior_based", oracles.GOLDEN_RATIO),
                                   ("predictive_based", 2)):
                verdict = intrinsic_credibility(EffectEstimate(z, 1.0), alpha, flavor)
                expected = (CredibilityVerdict(False, "not significant at this level")
                            if excess <= 0.0 else CredibilityVerdict(excess > factor - 1))
                assert verdict == expected and type(verdict) is CredibilityVerdict
                assert built.setdefault((flavor, expected), verdict) is verdict
        assert len(built) == 6
        assert len(set(map(id, built.values()))) == 3

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
        for lower, upper in [(-0.2, 0.4), (0.0, 0.5), (-0.5, 0.0)]:
            with pytest.raises(NonexistenceError):
                credibility_ratio(lower, upper)

    def test_limits_whose_product_underflows(self):
        # significance is read from the limits' signs, not their product
        assert credibility_ratio(1e-200, 1e-199) == 1e-199 / 1e-200
        assert credibility_ratio(-1e-199, -1e-200) == 1e-199 / 1e-200


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

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z(self, z):
        with pytest.raises(DataError) as exc:
            p_intrinsic(z)
        assert str(exc.value) == f"z must be finite, got {z!r}"

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

    @pytest.mark.parametrize("n", [0, -100, math.inf, math.nan])
    def test_patients_must_be_positive_and_finite(self, n):
        with pytest.raises(ValueError, match="patients per arm must be positive and finite"):
            equivalent_trial(NormalPrior(0.0, 0.5), patients_per_arm=n)

    def test_fixed_arms_against_mpmath(self):
        # the events of n patients per arm within 3 ulp of mpmath, for n
        # log-uniform over [1e2, 1e12], or just above the least n = 8/tau^2,
        # and tau^2 log-uniform over [1e-4, 1]: (n - sqrt(n^2 - 8n/tau^2))/2
        # was up to 7.4e10 ulp off, and its rationalised form 9e7 near 8/tau^2
        rng = random.Random(24)
        drawn, misses = 0, []
        for _ in range(2000):
            n, tau2 = 10.0 ** rng.uniform(2.0, 12.0), 10.0 ** rng.uniform(-4.0, 0.0)
            if rng.random() < 0.5:
                n = 8.0 / tau2 * (1.0 + 10.0 ** rng.uniform(-16.0, 0.0))
            expected = oracles.fixed_arm_events(n, tau2)
            if expected is None:
                with pytest.raises(ValueError, match="patients per arm"):
                    equivalent_trial(NormalPrior(0.0, tau2), patients_per_arm=n)
                continue
            drawn += 1
            trial = equivalent_trial(NormalPrior(0.0, tau2), patients_per_arm=n)
            error = oracles.ulps(trial.events_per_arm, expected)
            if not error <= 3.0:
                misses.append((n, tau2, error))
        assert drawn > 1500 and misses == []

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

    def test_pinned_bits(self):
        def outcome(mu, tau2, rate):
            try:
                trial = equivalent_trial(NormalPrior(mu, tau2), event_rate=rate)
            except NonexistenceError as exc:
                return str(exc)
            (et, nt), (ec, nc) = trial.per_arm_detail
            (e, b), (e_control, d) = trial.per_arm_cells
            assert trial.patients_per_arm is None
            assert et == ec == e == e_control == trial.events_per_arm
            return tuple(x.hex() for x in (e, trial.allocation_ratio, nt, nc, b, d))

        assert {key: outcome(*key) for key in _TRIAL_BITS} == _TRIAL_BITS

    def test_nearest_feasible_neighbour(self):
        # e is the one of floor(e*) and floor(e*) + 1 that is feasible (2/e < tau^2)
        # and whose control rate e/(e + d) is nearest the target, the lower on a
        # tie. Every other target is the midpoint of two neighbours' rates, where
        # the two distances often tie exactly.
        rng = random.Random(34)
        seen = collections.Counter()
        for i in range(2000):
            mu = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 3.0)
            tau2 = 10.0 ** rng.uniform(-3.0, 1.0)
            allocation = math.exp(mu)

            def control_rate(e):
                return e / (e + (1.0 + allocation) / (tau2 - 2.0 / e))

            if i % 2:
                rate = rng.uniform(0.01, 0.99)
            else:
                e0 = float(math.floor(2.0 / tau2) + rng.randint(1, 50))
                rate = 0.5 * (control_rate(e0) + control_rate(e0 + 1.0))
            e_star = (2.0 + (1.0 + allocation) * rate / (1.0 - rate)) / tau2
            lower, upper = float(math.floor(e_star)), float(math.floor(e_star)) + 1.0
            trial = equivalent_trial(NormalPrior(mu, tau2), event_rate=rate)
            distance = {e: abs(control_rate(e) - rate) for e in (lower, upper)
                        if e > 0.0 and tau2 - 2.0 / e > 0.0}
            if lower not in distance:
                seen["lower infeasible"] += 1
                assert trial.events_per_arm == upper
            elif distance[upper] < distance[lower]:
                seen["upper"] += 1
                assert trial.events_per_arm == upper
            else:
                seen["tie" if distance[upper] == distance[lower] else "lower"] += 1
                assert trial.events_per_arm == lower
        assert min(seen[k] for k in ("lower infeasible", "upper", "lower", "tie")) >= 50, seen


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
