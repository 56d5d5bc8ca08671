import functools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from revbayes import bf
from revbayes.bf import (advocacy_for_gamma, advocacy_prior_interval_or,
                         bf01_normal_prior, bf01_sceptical, bf12_sceptical_vs_optimistic,
                         bf_intrinsic, sceptical_g_for_gamma, z_gamma)
from revbayes.errors import DataError, NonexistenceError
from revbayes.model import EffectEstimate, NormalPrior
from revbayes.statfn import min_bf_els, min_bf_local


# advocacy_for_gamma(EffectEstimate(theta_hat, se), gamma): every field's .hex(), or
# the NonexistenceError's text, so that a change to the solves that moves one bit
# of an answer shows
_ADVOCACY_BITS = {
    # the README's CAPE COVID numbers, and gamma = 1/3 exactly
    (-0.79, 0.42, 0.3333): (
        "0x1.7d620126ad5fdp-2", "0x1.968029faa067dp-3", "0x1.434f1cc491133p+0",
        "0x1.589a240aa7876p-1", "0x1.554c985f06f69p-2", "0x1.59647e709434bp-1"),
    (-0.79, 0.42, 0.3333333333333333): (
        "0x1.7d53ec4946b34p-2", "0x1.9675e403b9c2cp-3", "0x1.4354ddb4d6088p+0",
        "0x1.58a449ec12712p-1", "0x1.5555555555555p-2", "0x1.596884a9163e6p-1"),
    # no prior reaches the cut-off
    (-0.79, 0.42, 0.1):
        "no advocacy prior reaches BF01 = 0.1: "
        "the family's minimum is 0.218 (at m = 0.8313)",
    (-0.79, 0.42, 1e-06):
        "no advocacy prior reaches BF01 = 1e-06: "
        "the family's minimum is 0.1807 (at m = 0.9652)",
    # gamma -> 1
    (-0.79, 0.42, 0.999999999999): (
        "0x1.13766f7d9d2f8p-42", "0x1.258045dc4c510p-23", "0x1.12ba87ebb7c8fp-18",
        "0x1.24b8104559c0ap+1", "0x1.fffffffffdcd1p-1", "0x1.59455347e31eep+19"),
    (3.0, 1.0, 0.9999999999999999): (
        "0x1.7f5a778ff9ad0p-57", "0x1.1f83d9abfb41cp-29", "0x1.dfcb7dbe407f6p-22",
        "0x1.67d89e4eb05f8p+6", "0x1.fffffffffffffp-1", "0x1.0000000000000p+26"),
    (0.05, 1.0, 0.999):
        "no advocacy prior reaches BF01 = 0.999: "
        "the family's minimum is 1 (at m = 0.002002)",
    # a minimum within 1e-5 below gamma
    (2.29605, 1.0, 0.1): (
        "0x1.a84f022dfa633p-1", "0x1.c5fbdaad02c8dp-1", "0x1.ad628f2baeacep-1",
        "0x1.cb6a4ae5a2cd2p-1", "0x1.999999999999ap-4", "0x1.dd2ca3eba2429p-2"),
    (-2.29605, 1.0, 0.1): (
        "0x1.a84f022dfa633p-1", "0x1.c5fbdaad02c8dp-1", "0x1.ad628f2baeacep-1",
        "0x1.cb6a4ae5a2cd2p-1", "0x1.999999999999ap-4", "0x1.dd2ca3eba2429p-2"),
    # large roots far past m = 1
    (-26.54441044525013, 1.0, 0.7298948576118643): (
        "0x1.84596675fc374p-12", "0x1.95f3e1c14eb02p-7", "0x1.39ae823bd2716p+502",
        "0x1.47e68885fa916p+507", "0x1.75b4c75dec4e3p-1", "0x1.429aa326b14bcp+0"),
    (-24.91093919016628, 1.0, 3.434118871566747e-30): (
        "0x1.8e27207431fa3p-4", "0x1.a9bc49ccd2d98p-3", "0x1.b896eaed0ef5dp+250",
        "0x1.d71caf7228600p+251", "0x1.169bdbc79e4e2p-98", "0x1.5fa21a65c18aap-4"),
    # |z| = 38: the large root is past the float range at gamma = 0.1
    (38.0, 1.0, 0.1): (
        "0x1.5aa6c8ce1f02ep-10", "0x1.7fa61887d82ebp-6", "inf", "inf", "0x1.999999999999ap-4",
        "0x1.dd2ca3eba2429p-2"),
    (-38.0, 1.0, 0.1): (
        "0x1.5aa6c8ce1f02ep-10", "0x1.7fa61887d82ebp-6", "inf", "inf", "0x1.999999999999ap-4",
        "0x1.dd2ca3eba2429p-2"),
    (38.0, 1.0, 1e-30): (
        "0x1.4e49bb6445106p-5", "0x1.0e2f50470450fp-3", "0x1.88b2db1a7dedcp+840",
        "0x1.3d65054f3ba44p+842", "0x1.4484bfeebc2a0p-100", "0x1.5c7a98bab41b9p-4"),
    # z = 1e100, and z^2 near and past the float range
    (1e+100, 1.0, 0.1): (
        "0x1.75ca1bf9731bfp-664", "0x1.8e2d3250fc5e6p-333", "inf", "inf",
        "0x1.999999999999ap-4", "0x1.dd2ca3eba2429p-2"),
    (-1e+100, 1.0, 1e-30): (
        "0x1.5e6d7a39dbea2p-659", "0x1.109ce38df95bfp-330", "inf", "inf",
        "0x1.4484bfeebc2a0p-100", "0x1.5c7a98bab41b9p-4"),
    (1e+100, 1.0, 0.999999999999): (
        "0x1.64f84c1aedd26p-705", "0x1.132555753fa27p-353", "inf", "inf",
        "0x1.fffffffffdcd1p-1", "0x1.59455347e31eep+19"),
    (1e+154, 1.0, 0.1): (
        "0x0.db7712f7ef4aap-1022", "0x1.311a15a792704p-512", "inf", "inf",
        "0x1.999999999999ap-4", "0x1.dd2ca3eba2429p-2"),
    (1e+155, 1.0, 0.1): (
        "0x0.0231d4ab70791p-1022", "0x1.e829bc3f50bfdp-516", "inf", "inf",
        "0x1.999999999999ap-4", "0x1.dd2ca3eba2429p-2"),
    # gamma e^h_min past the float range
    (0.5, 1.0, 1e-310):
        "no advocacy prior reaches BF01 = 1e-310: "
        "the family's minimum is 0.8826 (at m = 0.9993)",
    (1.3, 0.2, 5e-324):
        "no advocacy prior reaches BF01 = 4.941e-324: "
        "the family's minimum is 6.786e-10 (at m = 0.9993)",
}


class TestMinBf:
    def test_recovery_local(self, recovery):
        assert 1.0 / min_bf_local(recovery.z) == pytest.approx(148.9, abs=0.5)

    def test_remap_cap_els(self, remap_cap):
        assert 1.0 / min_bf_els(remap_cap.z) == pytest.approx(1.7, abs=0.05)

    def test_local_is_one_inside_unit_z(self):
        for z in [-1.0, -0.5, 0.0, 0.3, 1.0]:
            assert min_bf_local(z) == 1.0

    def test_local_is_the_true_minimum(self):
        rng = random.Random(7)
        for _ in range(50):
            z = rng.uniform(1.05, 6.0) * rng.choice([-1, 1])
            _, fmin = oracles.golden_minimize(lambda g: bf01_sceptical(z, g), 1e-8, 1e6)
            assert min_bf_local(z) == pytest.approx(fmin, rel=1e-9)

    def test_els_below_local(self):
        for z in [1.2, 2.0, 3.5, 5.0]:
            assert min_bf_els(z) < min_bf_local(z)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            min_bf_local(math.inf)
        with pytest.raises(ValueError):
            min_bf_els(math.nan)


class TestBf01Sceptical:
    def test_matches_general_form(self):
        rng = random.Random(13)
        for _ in range(100):
            z = rng.uniform(-5, 5)
            g = rng.uniform(0.01, 100)
            se = rng.uniform(0.05, 2.0)
            est = EffectEstimate(z * se, se)
            prior = NormalPrior(0.0, g * se ** 2)
            assert bf01_sceptical(z, g) == pytest.approx(
                bf01_normal_prior(est, prior), rel=1e-12)

    def test_against_mpmath(self):
        # relative 1e-12 to the closed form in mpmath, wherever BF01 is a normal
        # float: z uniform on [-40, 40] and g log-uniform on [1e-300, 1e300], and
        # z = 40, g = 1e300, where e^(-g/(1 + g) z^2/2) underflows before
        # sqrt(1 + g) scales it
        rng = random.Random(29)
        draws = [(40.0, 1e300)] + [(rng.uniform(-40.0, 40.0), 10.0 ** rng.uniform(-300.0, 300.0))
                                   for _ in range(3000)]
        checked = 0
        for z, g in draws:
            expected = oracles.bf01_normal_prior(z, 1.0, 0.0, g)
            if expected >= sys.float_info.min:
                checked += 1
                assert bf01_sceptical(z, g) == pytest.approx(float(expected), rel=1e-12,
                                                             abs=0), (z, g)
        assert checked > 2500

    def test_quadrature_oracle(self):
        est = EffectEstimate(-0.7, 0.25)
        prior = NormalPrior(0.1, 0.3)
        assert bf01_normal_prior(est, prior) == pytest.approx(
            oracles.bf01_quadrature(est, prior), rel=1e-8)

    def test_zero_g_rejected(self):
        with pytest.raises(ValueError):
            bf01_sceptical(2.0, 0.0)

    @pytest.mark.parametrize("g", [math.nan, -math.inf])
    def test_g_not_positive_rejected(self, g):
        with pytest.raises(DataError):
            bf01_sceptical(2.0, g)

    @pytest.mark.parametrize("z", [0.0, 1.0, 40.0, 1e200])
    def test_infinite_g_is_the_limit(self, z):
        # sqrt(1 + g) grows without bound, and exp(-z^2 g/(1 + g)/2) tends to exp(-z^2/2)
        assert bf01_sceptical(z, math.inf) == math.inf


class TestBf01NormalPrior:
    def test_against_mpmath(self):
        # relative 1e-12 to the closed form in mpmath, wherever BF01 is a normal
        # float: z and mu/se uniform on [-40, 40], se log-uniform on [1e-150,
        # 1e150] and (sd/se)^2 on [1e-8, 1e8]
        rng = random.Random(23)
        checked = 0
        for _ in range(3000):
            se = 10.0 ** rng.uniform(-150.0, 150.0)
            est = EffectEstimate(rng.uniform(-40.0, 40.0) * se, se)
            prior = NormalPrior(rng.uniform(-40.0, 40.0) * se,
                                10.0 ** rng.uniform(-8.0, 8.0) * se * se)
            expected = oracles.bf01_normal_prior(*est, *prior)
            if sys.float_info.min <= expected <= sys.float_info.max:
                checked += 1
                assert bf01_normal_prior(est, prior) == pytest.approx(
                    float(expected), rel=1e-12), (est, prior)
        assert checked > 2000

    @pytest.mark.parametrize("theta, se, mean, variance, expected", [
        # se^2 underflows to 0, where the quotients by it raised ZeroDivisionError
        (1.0, 1e-170, 0.0, 1.0, 0.0),
        (1e-200, 1e-200, 0.0, 1e300, math.inf),   # 6.07e349
        # variance/se^2 and theta^2/se^2 overflow, and their difference was inf - inf
        (1.0, 1e-150, 0.0, 1e10, 0.0),
        (1e-300, 1e-300, 1e-300, 5e-324, 1.3481713307072121e+138),
        # se^2 overflows to inf, where the quotients by it were inf/inf
        (1e300, 1e300, -1e300, 1e300, 4.4816890703380645),
        (1e150, 1e-150, 1e150, 1.0, 0.0),
    ])
    def test_past_the_range_of_se_squared(self, theta, se, mean, variance, expected):
        # BF01 past the float range is 0 or inf; within it, as in mpmath
        value = bf01_normal_prior(EffectEstimate(theta, se), NormalPrior(mean, variance))
        assert value == pytest.approx(expected, rel=1e-12)
        assert float(oracles.bf01_normal_prior(theta, se, mean, variance)) == pytest.approx(
            expected, rel=1e-12)

    def test_both_terms_past_the_range(self):
        # (z sd/h)^2 and the prior's term overflow with opposite signs
        with pytest.raises(NonexistenceError, match="outside the floating-point range"):
            bf01_normal_prior(EffectEstimate(1e200, 1.0), NormalPrior(-1e250, 1.0))


class TestScepticalGForGamma:
    def test_recovery_at_one_tenth(self, recovery):
        sol = sceptical_g_for_gamma(recovery.z, 0.1, se=recovery.se)
        assert sol.g_small == pytest.approx(0.59, abs=5e-3)
        assert sol.g_large == pytest.approx(8190, rel=5e-3)
        lo, hi = sol.prior_interval_or
        assert lo == pytest.approx(0.80, abs=5e-3)
        assert hi == pytest.approx(1.24, abs=5e-3)

    def test_plug_back(self):
        rng = random.Random(17)
        for _ in range(300):
            z = rng.uniform(1.1, 6.0) * rng.choice([-1, 1])
            gamma = rng.uniform(min_bf_local(z) * 1.0001, 0.999)
            sol = sceptical_g_for_gamma(z, gamma)
            assert bf01_sceptical(z, sol.g_small) == pytest.approx(gamma, rel=1e-8)
            assert bf01_sceptical(z, sol.g_large) == pytest.approx(gamma, rel=1e-8)
            assert sol.g_small <= sol.g_large

    def test_unreachable_cutoff(self, recovery):
        with pytest.raises(NonexistenceError, match="attainable minimum"):
            sceptical_g_for_gamma(recovery.z, min_bf_local(recovery.z) / 2)

    def test_interval_reciprocal(self, recovery):
        sol = sceptical_g_for_gamma(recovery.z, 0.1, se=recovery.se)
        lo, hi = sol.prior_interval_or
        assert lo * hi == pytest.approx(1.0, abs=1e-12)

    def test_no_interval_without_se(self, recovery):
        assert sceptical_g_for_gamma(recovery.z, 0.1).prior_interval_or is None

    @pytest.mark.parametrize("z, gamma", [(27.0, 0.1), (-30.0, 0.1), (38.0, 0.1),
                                          (40.0, 0.1), (28.0, 1e-20)])
    def test_lambert_oracle(self, z, gamma):
        # e^(-z^2) underflows here; at (28, 1e-20) g_large is still finite
        g_small, g_large = oracles.sceptical_g(z, gamma)
        sol = sceptical_g_for_gamma(z, gamma)
        assert sol.g_small == pytest.approx(float(g_small), rel=1e-10, abs=0)
        if g_large > sys.float_info.max:
            assert sol.g_large == math.inf
        else:
            assert sol.g_large == pytest.approx(float(g_large), rel=1e-10, abs=0)

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            sceptical_g_for_gamma(2.0, 0.0)
        with pytest.raises(ValueError):
            sceptical_g_for_gamma(2.0, 1.0)


class TestZGamma:
    def test_one_third(self):
        assert z_gamma(1.0 / 3.0) == pytest.approx(1.48, abs=5e-3)

    def test_inverts_els(self):
        for gamma in [0.9, 0.5, 0.1, 0.01]:
            assert min_bf_els(z_gamma(gamma)) == pytest.approx(gamma, rel=1e-12)

    def test_bounds(self):
        assert z_gamma(1.0) == 0.0
        with pytest.raises(ValueError):
            z_gamma(0.0)


class TestAdvocacyForGamma:
    def test_cape_covid(self, cape_covid):
        sol = advocacy_for_gamma(cape_covid, 1.0 / 3.0)
        assert sol.m_small == pytest.approx(0.37, abs=5e-3)
        assert sol.m_small * cape_covid.theta_hat == pytest.approx(-0.29, abs=5e-3)
        assert sol.tau_small == pytest.approx(0.20, abs=5e-3)
        assert sol.m_large == pytest.approx(1.26, abs=5e-3)
        assert sol.tau_large == pytest.approx(0.67, abs=5e-3)
        assert sol.recommended_m == sol.m_small
        lo, hi = advocacy_prior_interval_or(cape_covid, sol.m_small, sol.gamma)
        assert lo == pytest.approx(0.55, abs=5e-3)
        assert hi == pytest.approx(1.00, abs=5e-3)

    def test_plug_back(self, cape_covid):
        for gamma in [0.7, 0.5, 1.0 / 3.0]:
            sol = advocacy_for_gamma(cape_covid, gamma)
            for m, tau in [(sol.m_small, sol.tau_small),
                           (sol.m_large, sol.tau_large)]:
                prior = NormalPrior(m * cape_covid.theta_hat, tau ** 2)
                assert bf01_normal_prior(cape_covid, prior) == pytest.approx(
                    gamma, rel=1e-8)

    def test_interval_touches_one(self, cape_covid):
        sol = advocacy_for_gamma(cape_covid, 1.0 / 3.0)
        lo, hi = advocacy_prior_interval_or(cape_covid, sol.m_small, sol.gamma)
        assert max(lo, hi) == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_cutoff(self, cape_covid):
        with pytest.raises(NonexistenceError, match="advocacy prior"):
            advocacy_for_gamma(cape_covid, 1e-6)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-310, 5e-324])
    def test_unreachable_cutoff_past_the_float_range(self, gamma):
        # below gamma ~ 1e-308, h_min = log(minimum / gamma) passes LOG_MAX, and
        # gamma e^h_min overflowed in the message; the minimum itself is below 1
        with pytest.raises(NonexistenceError,
                           match=r"the family's minimum is 0\.8826 \(at m = 0\.9993\)"):
            advocacy_for_gamma(EffectEstimate(0.5, 1.0), gamma)

    def test_pinned_bits(self):
        def outcome(theta_hat, se, gamma):
            try:
                sol = advocacy_for_gamma(EffectEstimate(theta_hat, se), gamma)
            except NonexistenceError as exc:
                return str(exc)
            return tuple(x.hex() for x in sol)

        assert {key: outcome(*key) for key in _ADVOCACY_BITS} == _ADVOCACY_BITS

    def test_zero_estimate(self):
        with pytest.raises(NonexistenceError):
            advocacy_for_gamma(EffectEstimate(0.0, 1.0), 0.5)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5, math.nan])
    def test_bad_gamma(self, cape_covid, gamma):
        with pytest.raises(DataError, match=r"gamma must be in \(0,1\)"):
            advocacy_for_gamma(cape_covid, gamma)

    @pytest.mark.parametrize("z", [2.29605, -2.29605])
    def test_shallow_minimum_just_below_cutoff(self, z):
        # the family's minimum lies within 1e-5 below gamma, so existence
        # must be decided at the exact minimiser
        est = EffectEstimate(z, 1.0)
        sol = advocacy_for_gamma(est, 0.1)
        assert sol.m_small < sol.m_large
        for m, tau in [(sol.m_small, sol.tau_small), (sol.m_large, sol.tau_large)]:
            prior = NormalPrior(m * est.theta_hat, tau ** 2)
            assert bf01_normal_prior(est, prior) == pytest.approx(0.1, rel=1e-10)


    @pytest.mark.parametrize("z, gamma", [
        *(pytest.param(z, 0.1, id=str(z))
          for z in [3.0, -3.0, 15.0, -15.0, 27.0, -27.0, 30.0, -30.0,
                    37.87, -37.87, 40.0, -40.0]),
        # roots that an absolute stopping width of 1e-12 left 1.2e-10 to
        # 2.8e-10 off in log BF01: small roots near 1e-3, large t = log m
        (-26.54441044525013, 0.7298948576118643),
        (33.644375599285816, 0.7136670105865661),
        (-24.91093919016628, 3.434118871566747e-30),
        (35.69727097621465, 5.831103081638957e-05),
        (-39.976826187753154, 3.844657033265922e-30),
    ])
    def test_roots_plug_back_in_log_space(self, z, gamma):
        # the large root passes the float range from |z| ~ 37.9 at gamma = 0.1
        sol = advocacy_for_gamma(EffectEstimate(z, 1.0), gamma)
        assert abs(oracles.advocacy_log_bf01(z, gamma, sol.m_small)) <= 1e-10
        if oracles.advocacy_log_bf01(z, gamma, sys.float_info.max) < 0:
            assert sol.m_large == math.inf
        else:
            assert abs(oracles.advocacy_log_bf01(z, gamma, sol.m_large)) <= 1e-10
        assert sol.m_small < sol.m_large


class TestBf12:
    def test_recovery_at_one_tenth(self, recovery):
        sol = sceptical_g_for_gamma(recovery.z, 0.1)
        assert 1.0 / bf12_sceptical_vs_optimistic(recovery.z, sol.g_small) \
            == pytest.approx(64, abs=0.5)

    def test_quadrature_oracle(self, recovery):
        g = 0.59
        se = recovery.se
        sceptical = NormalPrior(0.0, g * se ** 2)
        optimistic = NormalPrior(recovery.theta_hat, se ** 2)
        ratio = (oracles.bf01_quadrature(recovery, optimistic)
                 / oracles.bf01_quadrature(recovery, sceptical))
        assert bf12_sceptical_vs_optimistic(recovery.z, g) == pytest.approx(
            ratio, rel=1e-8)

    @pytest.mark.parametrize("z", [0.0, 2.0, 1e295])
    def test_infinite_g_is_the_limit(self, z):
        # sqrt(2/(1 + g)) falls to 0, and exp(-z^2/(2(1 + g))) rises to 1
        assert bf12_sceptical_vs_optimistic(z, math.inf) == 0.0

    def test_nan_g_rejected(self):
        with pytest.raises(DataError):
            bf12_sceptical_vs_optimistic(2.0, math.nan)

    def test_zero_g_is_the_null(self):
        assert bf12_sceptical_vs_optimistic(2.0, 0.0) == math.sqrt(2.0) * math.exp(-2.0)
        with pytest.raises(ValueError):
            bf12_sceptical_vs_optimistic(2.0, -1e-300)

    def test_unimodal_in_g_with_peak_at_z_squared_minus_one(self):
        z = 3.0
        peak = z ** 2 - 1.0
        rising = [bf12_sceptical_vs_optimistic(z, g) for g in [0.01, 0.1, 1.0, peak]]
        falling = [bf12_sceptical_vs_optimistic(z, g) for g in [peak, 20.0, 100.0]]
        assert rising == sorted(rising)
        assert falling == sorted(falling, reverse=True)


class TestBfIntrinsic:
    def test_recovery(self, recovery):
        gamma = bf_intrinsic(recovery)
        assert 1.0 / gamma == pytest.approx(25, abs=0.5)

    def test_fixed_point_property(self, recovery):
        gamma = bf_intrinsic(recovery)
        sol = sceptical_g_for_gamma(recovery.z, gamma)
        assert bf12_sceptical_vs_optimistic(recovery.z, sol.g_small) \
            == pytest.approx(gamma, rel=1e-9)

    def test_small_z_rejected(self):
        with pytest.raises(NonexistenceError):
            bf_intrinsic(EffectEstimate(0.5, 1.0))

    @pytest.mark.parametrize("z", [3.655, 10.0, 12.0, 27.0, 30.0, 38.0, 40.0])
    def test_lambert_oracle(self, z):
        assert bf_intrinsic(EffectEstimate(z, 1.0)) == pytest.approx(oracles.bf_intrinsic(z),
                                                                     rel=1e-10, abs=0)

    @pytest.mark.parametrize("z", [1.0 + 1e-5, 1.5, 2.0])
    def test_no_cutoff_between_one_and_two(self, z):
        # v e^-v = z^2 e^(-z^2/2) / sqrt(2) exceeds 1/e for 1 < |z| < 2.04
        with pytest.raises(NonexistenceError):
            bf_intrinsic(EffectEstimate(z, 1.0))


# gamma log-uniform on [1e-30, 0.95], or 1 - gamma log-uniform on [1e-12, 0.05]
_GAMMAS = (st.floats(-30.0, math.log10(0.95)).map(lambda u: 10.0 ** u)
           | st.floats(-12.0, math.log10(0.05)).map(lambda u: 1.0 - 10.0 ** u))
_ESTIMATES = st.builds(lambda z, log_se: EffectEstimate(z * 10.0 ** log_se, 10.0 ** log_se),
                       st.floats(-40.0, 40.0), st.floats(-2.0, 2.0))


class TestOracleSweep:
    """|z| in [0, 40] and se in [1e-2, 1e2] against mpmath at 60 digits,
    with relative tolerances and no absolute one."""

    @settings(max_examples=200, deadline=None)
    @given(_ESTIMATES, _GAMMAS)
    def test_advocacy(self, est, gamma):
        # log BF01 - log gamma at relative prior mean m
        h = functools.partial(oracles.advocacy_log_bf01, est.z, gamma)
        h_min = oracles.advocacy_log_bf01_min(est.z, gamma)
        try:
            sol = advocacy_for_gamma(est, gamma)
        except NonexistenceError:
            assert h_min > -1e-10
            return
        assert h_min < 1e-10
        tol = 1e-10 * max(1.0, abs(math.log(gamma)))
        assert abs(h(sol.m_small)) <= tol
        assert (sol.m_large == math.inf) == (h(sys.float_info.max) < 0)
        if sol.m_large < math.inf:
            assert abs(h(sol.m_large)) <= tol

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-40.0, 40.0), _GAMMAS)
    def test_sceptical_g(self, z, gamma):
        if (expected := oracles.sceptical_g(z, gamma)) is None:
            with pytest.raises(NonexistenceError):
                sceptical_g_for_gamma(z, gamma)
            return
        g_small, g_large = expected
        sol = sceptical_g_for_gamma(z, gamma)
        assert sol.g_small == pytest.approx(float(g_small), rel=1e-10, abs=0)
        if g_large > sys.float_info.max:
            assert sol.g_large == math.inf
        else:
            assert sol.g_large == pytest.approx(float(g_large), rel=1e-10, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(_ESTIMATES)
    def test_bf_intrinsic(self, est):
        if (expected := oracles.bf_intrinsic(est.z)) is None:
            with pytest.raises(NonexistenceError):
                bf_intrinsic(est)
            return
        assert bf_intrinsic(est) == pytest.approx(expected, rel=1e-10, abs=0)


class TestAdvocacySolveBudget:
    @pytest.fixture
    def solves(self, monkeypatch):
        """(lo, hi, the points f is evaluated at) per find_root call that bf makes."""
        solves, find_root = [], bf.find_root

        def counted_find_root(f, lo, hi, x0, *ends):
            solves.append((lo, hi, points := []))

            def counted(x):
                points.append(x)
                return f(x)
            return find_root(counted, lo, hi, x0, *ends)

        monkeypatch.setattr(bf, "find_root", counted_find_root)
        return solves

    def test_evaluations_per_solve(self, solves):
        # over a seeded sweep of the oracle range
        rng = random.Random(9)
        main, near_one = [], []
        for i in range(4000):
            se = 10.0 ** rng.uniform(-2.0, 2.0)
            est = EffectEstimate(rng.uniform(-40.0, 40.0) * se, se)
            if i % 4:
                gamma, counts = 10.0 ** rng.uniform(-30.0, math.log10(0.95)), main
            else:
                gamma, counts = 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.05)), near_one
            solves.clear()
            try:
                advocacy_for_gamma(est, gamma)
            except NonexistenceError:
                pass
            counts.extend(len(points) for _, _, points in solves)
            # every solve is given f, or its sign, at both ends: p(0) and p(1),
            # h(0) and h(m_min), h_log(t_min) and h_log(t_hi + 1)
            assert all(lo not in points and hi not in points for lo, hi, points in solves)
        # 5.27 while find_root evaluated both ends itself, 3.97 while it evaluated
        # the upper ends of the cubic's and the large root's solves
        assert sum(main) / len(main) <= 3.5
        assert max(main + near_one) <= 40

    @pytest.mark.parametrize("gamma", [1e-30, 0.1, 0.95, 1.0 - 1e-6, 1.0 - 1e-12])
    def test_evaluations_at_huge_z(self, solves, gamma):
        # z^2 is finite but z^2 q / d^2 would be inf / inf: Newton, not bisection
        for z in (1e80, 1e100, 1e130, 1e150, 1e154):
            solves.clear()
            sol = advocacy_for_gamma(EffectEstimate(z, 1.0), gamma)
            assert 0.0 < sol.m_small < 1.0 < sol.m_large
            # none where a = k cv^2 overflows and the limits are returned
            counts = [len(points) for _, _, points in solves]
            assert sum(counts) <= 10, (z, counts)
