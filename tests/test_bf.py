import math
import random
import sys

import mpmath
import pytest

from revbayes.bf import (advocacy_for_gamma, advocacy_prior_interval_or,
                         bf01_normal_prior, bf01_sceptical, bf12_sceptical_vs_optimistic,
                         bf_intrinsic, min_bf_els, min_bf_local,
                         sceptical_g_for_gamma, z_gamma)
from revbayes.errors import NonexistenceError
from revbayes.model import EffectEstimate, NormalPrior
from revbayes.statfn import norm_pdf


def golden_minimize(f, lo, hi, tol=1e-13):
    """Oracle: golden-section minimizer, returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol * max(1.0, abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def bf01_quadrature(estimate, prior, n=20000):
    """Oracle: BF01 by Simpson integration of the marginal likelihood."""
    s = estimate.se
    mu, tau = prior.mean, prior.sd
    lo = min(estimate.theta_hat, mu) - 12 * max(s, tau)
    hi = max(estimate.theta_hat, mu) + 12 * max(s, tau)
    h = (hi - lo) / n

    def integrand(theta):
        return (norm_pdf((estimate.theta_hat - theta) / s) / s
                * norm_pdf((theta - mu) / tau) / tau)

    total = integrand(lo) + integrand(hi)
    for k in range(1, n):
        total += (4 if k % 2 else 2) * integrand(lo + k * h)
    marginal = total * h / 3.0
    null = norm_pdf(estimate.z) / s
    return null / marginal


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
            _, fmin = golden_minimize(lambda g: bf01_sceptical(z, g), 1e-8, 1e6)
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

    def test_quadrature_oracle(self):
        est = EffectEstimate(-0.7, 0.25)
        prior = NormalPrior(0.1, 0.3)
        assert bf01_normal_prior(est, prior) == pytest.approx(
            bf01_quadrature(est, prior), rel=1e-8)

    def test_zero_g_rejected(self):
        with pytest.raises(ValueError):
            bf01_sceptical(2.0, 0.0)


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
        with mpmath.workdps(50):
            zm, gm = mpmath.mpf(z), mpmath.mpf(gamma)
            x = -zm ** 2 / gm ** 2 * mpmath.exp(-zm ** 2)
            g_small, g_large = (-zm ** 2 / mpmath.lambertw(x, branch).real - 1
                                for branch in (-1, 0))
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

    def test_zero_estimate(self):
        with pytest.raises(NonexistenceError):
            advocacy_for_gamma(EffectEstimate(0.0, 1.0), 0.5)

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
        with mpmath.workdps(50):
            zm = mpmath.mpf(z)
            cv = 1 / mpmath.sqrt(-2 * mpmath.log(mpmath.mpf(gamma)))

            def log_bf01(m):
                mu = mpmath.mpf(m) * zm
                return (mpmath.log1p((cv * mu) ** 2)
                        - zm ** 2 + (zm - mu) ** 2 / (1 + (cv * mu) ** 2)) / 2

            log_gamma = mpmath.log(mpmath.mpf(gamma))
            assert abs(log_bf01(sol.m_small) - log_gamma) <= 1e-10
            if log_bf01(sys.float_info.max) < log_gamma:
                assert sol.m_large == math.inf
            else:
                assert abs(log_bf01(sol.m_large) - log_gamma) <= 1e-10
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
        ratio = (bf01_quadrature(recovery, optimistic)
                 / bf01_quadrature(recovery, sceptical))
        assert bf12_sceptical_vs_optimistic(recovery.z, g) == pytest.approx(
            ratio, rel=1e-8)

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
        with mpmath.workdps(50):
            zm = mpmath.mpf(z)
            v = -mpmath.lambertw(-zm ** 2 * mpmath.exp(-zm ** 2 / 2) / mpmath.sqrt(2), -1).real
            g = zm ** 2 / v - 1
            expected = float(mpmath.sqrt(1 + g) * mpmath.exp(-g / (1 + g) * zm ** 2 / 2))
        assert bf_intrinsic(EffectEstimate(z, 1.0)) == pytest.approx(expected, rel=1e-10, abs=0)

    @pytest.mark.parametrize("z", [1.0 + 1e-5, 1.5, 2.0])
    def test_no_cutoff_between_one_and_two(self, z):
        # v e^-v = z^2 e^(-z^2/2) / sqrt(2) exceeds 1/e for 1 < |z| < 2.04
        with pytest.raises(NonexistenceError):
            bf_intrinsic(EffectEstimate(z, 1.0))
