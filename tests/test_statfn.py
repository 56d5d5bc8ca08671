import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from revbayes.statfn import (LOG_MAX, Branch, chisq1_tail, critical_z, exp_or_inf,
                             find_root, lambert_w, lambert_wm1_log, norm_cdf,
                             norm_quantile, two_sided_p)


def phi_oracle(x):
    """High-precision normal CDF, independent of the implementation."""
    return float(mpmath.ncdf(x))


def bisect_oracle(f, lo, hi, iters=200):
    """Plain bisection, the reference for root-type expected values."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_against_high_precision_oracle(self):
        for x in [-8, -3.7, -1.96, -0.1, 0.3, 1.96, 2.5, 7]:
            assert norm_cdf(x) == pytest.approx(phi_oracle(x), abs=1e-14)
        assert norm_cdf(1.96) == pytest.approx(0.9750021, abs=5e-8)
        assert norm_cdf(-1.96) == pytest.approx(0.0249979, abs=5e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            norm_cdf(math.inf)
        with pytest.raises(ValueError):
            norm_cdf(math.nan)

    @given(st.floats(min_value=-8, max_value=8))
    def test_complement_identity(self, x):
        assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    @given(st.floats(min_value=-10, max_value=10),
           st.floats(min_value=0, max_value=5))
    def test_monotone(self, x, step):
        assert norm_cdf(x + step) >= norm_cdf(x)


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_known_values(self):
        # Newton refinement against norm_cdf pins these
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert norm_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)

    def test_round_trip_grid(self):
        ps = [1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.77, 0.99, 1 - 1e-5, 1 - 1e-8]
        for p in ps:
            assert norm_cdf(norm_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_rejects_boundaries(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                norm_quantile(p)


class TestCriticalZ:
    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01, 0.005])
    def test_same_bits_as_the_quantile(self, alpha):
        assert critical_z(alpha) == norm_quantile(1.0 - alpha / 2.0)

    def test_cache_is_bounded(self):
        assert critical_z.cache_info().maxsize is not None


class TestChisq1Tail:
    def test_full_mass_at_zero(self):
        assert chisq1_tail(0.0) == 1.0

    def test_five_percent_point(self):
        z = norm_quantile(0.975)
        assert chisq1_tail(z * z) == pytest.approx(0.05, abs=1e-12)

    def test_box_scale_value(self):
        # 2*(1 - Phi(sqrt(1.545))) via the high-precision oracle
        expected = 2.0 * (1.0 - phi_oracle(math.sqrt(1.545)))
        assert chisq1_tail(1.545) == pytest.approx(expected, abs=1e-14)
        assert chisq1_tail(1.545) == pytest.approx(0.2139, abs=1e-4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chisq1_tail(-0.5)

    @given(st.floats(min_value=-8, max_value=8))
    def test_matches_two_sided_p(self, z):
        assert chisq1_tail(z * z) == pytest.approx(two_sided_p(z), abs=1e-12)


class TestLambertW:
    def test_zero(self):
        assert lambert_w(0.0, Branch.PRINCIPAL) == 0.0

    def test_branch_point(self):
        assert lambert_w(-1.0 / math.e, Branch.PRINCIPAL) == -1.0
        assert lambert_w(-1.0 / math.e, Branch.SECONDARY) == -1.0

    def test_secondary_against_bisection_oracle(self):
        x = -0.0016507
        expected = bisect_oracle(lambda w: w * math.exp(w) - x, -50.0, -1.0)
        got = lambert_w(x, Branch.SECONDARY)
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(-8.55, abs=5e-3)

    @pytest.mark.parametrize("branch", [Branch.PRINCIPAL, Branch.SECONDARY])
    def test_defining_identity(self, branch):
        xs = [-1 / math.e + 1e-12, -0.367, -0.3, -0.1, -1e-3, -1e-6, -1e-12]
        if branch is Branch.PRINCIPAL:
            xs += [1e-9, 0.1, 1.0, 10.0, 1e6]
        for x in xs:
            w = lambert_w(x, branch)
            assert w * math.exp(w) == pytest.approx(x, rel=1e-10, abs=1e-13)
            if branch is Branch.PRINCIPAL:
                assert w >= -1.0 - 1e-12
            else:
                assert w <= -1.0 + 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError):
            lambert_w(-0.5)
        with pytest.raises(ValueError):
            lambert_w(0.5, Branch.SECONDARY)


class TestLambertWm1Log:
    @pytest.mark.parametrize("log_x", [-1.0 - 1e-15, -1.0 - 1e-12, -1.0001, -1.5,
                                       -2.0, -5.0, -50.0, -800.0, -1600.0, -1e6])
    def test_against_mpmath(self, log_x):
        # -1600 is e^(-z^2) at z = 40, far below the smallest float
        with mpmath.workdps(50):
            expected = mpmath.lambertw(-mpmath.exp(mpmath.mpf(log_x)), -1).real
        assert lambert_wm1_log(log_x) == pytest.approx(float(expected), rel=1e-13, abs=0)

    def test_branch_point(self):
        assert lambert_wm1_log(-1.0) == -1.0
        assert lambert_wm1_log(-1.0 + 1e-15) == -1.0

    def test_rejections(self):
        for log_x in (-0.5, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                lambert_wm1_log(log_x)


class TestExpOrInf:
    def test_same_bits_as_exp_in_range(self):
        for x in (-800.0, -1.0, 0.0, 0.5, 700.0, LOG_MAX):
            assert exp_or_inf(x) == math.exp(x)

    def test_inf_past_the_range(self):
        assert exp_or_inf(math.nextafter(LOG_MAX, math.inf)) == math.inf
        assert exp_or_inf(1e6) == math.inf


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-12)

    def test_sqrt2_against_bisection(self):
        expected = bisect_oracle(lambda x: x * x - 2.0, 0.0, 2.0)
        assert find_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            expected, abs=1e-10)
        assert find_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            1.4142136, abs=1e-7)

    def test_cosine(self):
        expected = bisect_oracle(math.cos, 1.0, 2.0)
        got = find_root(math.cos, 1.0, 2.0)
        assert got == pytest.approx(expected, abs=1e-10)
        assert got == pytest.approx(1.5707963, abs=1e-7)

    def test_stops_on_bracket_width_not_residual(self):
        # every |f| here is below 1e-12, so only the bracket width can stop it
        assert find_root(lambda x: 1e-15 * (x - 2.0), 0.0, 5.0) == pytest.approx(
            2.0, rel=1e-12)

    def test_small_root_relative(self):
        # the root 1e-6 lies far below 1, where the stopping width must
        # still be relative to keep its digits
        assert find_root(lambda x: x ** 3 - 1e-18, 0.0, 1.0) == pytest.approx(
            1e-6, rel=1e-14, abs=0.0)

    def test_rejects_non_bracketing(self):
        with pytest.raises(ValueError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_deterministic_bits(self):
        f = lambda x: math.exp(x) - 3.0 * x
        first = find_root(f, 0.0, 1.0)
        second = find_root(f, 0.0, 1.0)
        assert first == second  # identical bits, no hidden state
