import math
import random
import sys

import pytest

import oracles
from revbayes import fpr, statfn
from revbayes.fpr import (CalibrationKind, min_bf, min_bf_els, min_bf_local,
                          prior_bound_fpr_equals_p, prior_prob_for_fpr)
from revbayes.statfn import critical_z, norm_quantile, two_sided_z

K = CalibrationKind
ALL_KINDS = list(CalibrationKind)


class TestMinBf:
    def test_closed_forms_at_p05(self):
        p = 0.05
        z = norm_quantile(1.0 - p / 2.0)
        assert min_bf(p, K.E_P_LOG_P) == pytest.approx(
            -math.e * p * math.log(p), rel=1e-12)
        assert min_bf(p, K.E_Q_LOG_Q) == pytest.approx(
            -math.e * (1 - p) * math.log(1 - p), rel=1e-12)
        assert min_bf(p, K.LOCAL_Z) == pytest.approx(min_bf_local(z), rel=1e-12)
        assert min_bf(p, K.ELS_ALL_PRIORS) == pytest.approx(
            min_bf_els(z), rel=1e-12)
        assert min_bf(p, K.SIMPLE_Z) == pytest.approx(
            2 * math.exp(-z ** 2 / 2) / (1 + math.exp(-2 * z ** 2)), rel=1e-12)

    @pytest.mark.parametrize("kind", ["local_z", None, 0])
    def test_kind_that_is_not_a_member(self, kind):
        # a caller's bug, not input: TypeError, not DataError
        with pytest.raises(TypeError) as exc:
            min_bf(0.05, kind)
        assert str(exc.value) == f"unknown calibration {kind!r}"

    def test_saturation_to_one(self):
        assert min_bf(0.5, K.E_P_LOG_P) == 1.0
        assert min_bf(0.8, K.E_Q_LOG_Q) == 1.0
        assert min_bf(0.5, K.LOCAL_Z) == 1.0

    def test_els_floors_the_p_based_calibrations(self):
        # e_q_log_q calibrates against q = 1 - p, so it is excluded: it
        # behaves like e*p for small p and falls below the ELS bound there
        rng = random.Random(3)
        for _ in range(200):
            p = 10 ** rng.uniform(-8, math.log10(0.49))
            floor = min_bf(p, K.ELS_ALL_PRIORS)
            for kind in (K.LOCAL_Z, K.SIMPLE_Z, K.E_P_LOG_P, K.ELS_ALL_PRIORS):
                assert min_bf(p, kind) >= floor * (1 - 1e-12)

    def test_simple_z_dominates_els(self):
        # the two-sided simple bound is weaker than the point-alternative one
        for p in [1e-6, 1e-3, 0.01, 0.05, 0.2]:
            assert min_bf(p, K.SIMPLE_Z) >= min_bf(p, K.ELS_ALL_PRIORS)

    def test_e_p_log_p_dominates_local_for_small_p(self):
        # the -ep log p bound is conservative relative to the local-z one
        for p in [1e-8, 1e-5, 1e-3, 0.01, 0.04]:
            assert min_bf(p, K.E_P_LOG_P) <= min_bf(p, K.LOCAL_Z)

    def test_monotone_in_p(self):
        ps = [1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2]
        for kind in ALL_KINDS:
            values = [min_bf(p, kind) for p in ps]
            assert values == sorted(values)

    @pytest.mark.parametrize("p", [1e-20, 1e-100, 1e-300, 1e-323, 5e-324])
    def test_tiny_p_against_mpmath(self, p):
        # 1 - p/2 rounds to 1 here, so |z| must come from the lower tail; at
        # 5e-324 p/2 rounds to 0 as well, and from 1e-323 the bounds are
        # subnormal, so each must be rounded once to pass
        expected = oracles.min_bf(p)
        for kind in (K.LOCAL_Z, K.SIMPLE_Z, K.ELS_ALL_PRIORS, K.E_Q_LOG_Q):
            assert min_bf(p, kind) == pytest.approx(expected[kind.value], rel=1e-10, abs=0)

    def test_grid_range_against_mpmath(self):
        # the p range of `fpr --grid`. exp(-z^2/2) turns a relative error d
        # in z into about z^2 d, so the bound grows with z^2; a z taken from
        # the quantile without the Newton step is up to 2.1 times over it.
        eps = sys.float_info.epsilon
        lo, hi = math.log(1e-4), math.log(0.5)
        for i in range(201):
            p = math.exp(lo + (hi - lo) * i / 200)
            z, expected = oracles.two_sided_z(p), oracles.min_bf(p)
            rel_tol = 1.5 * (float(z * z) + 1.0) * eps
            for kind in (K.LOCAL_Z, K.SIMPLE_Z, K.ELS_ALL_PRIORS):
                assert min_bf(p, kind) == pytest.approx(
                    expected[kind.value], rel=rel_tol, abs=0), (p, kind)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            min_bf(0.0, K.E_P_LOG_P)
        with pytest.raises(ValueError):
            min_bf(1.0, K.LOCAL_Z)

    def test_cached_z_has_the_bits_of_two_sided_z(self, monkeypatch):
        # min_bf takes z from critical_z's cache, which each calibration of a
        # p-value after the first hits
        rng = random.Random(19)
        ps = [5e-324] + [10.0 ** rng.uniform(-323.0, math.log10(0.99)) for _ in range(3000)]
        cached = [min_bf(p, kind).hex() for p in ps for kind in ALL_KINDS]
        monkeypatch.setattr(fpr, "critical_z", two_sided_z)
        assert [min_bf(p, kind).hex() for p in ps for kind in ALL_KINDS] == cached


class TestPriorProbForFpr:
    def test_published_values_at_p05_fpr5(self):
        assert prior_prob_for_fpr(0.05, 0.05, K.E_P_LOG_P) == pytest.approx(
            0.1145, abs=5e-4)
        assert prior_prob_for_fpr(0.05, 0.05, K.E_Q_LOG_Q) == pytest.approx(
            0.2844, abs=5e-4)
        assert prior_prob_for_fpr(0.05, 0.05, K.LOCAL_Z) == pytest.approx(
            0.1001, abs=5e-4)
        assert prior_prob_for_fpr(0.05, 0.05, K.SIMPLE_Z) == pytest.approx(
            0.1523, abs=5e-4)

    def test_published_values_at_p005_fpr5(self):
        assert prior_prob_for_fpr(0.005, 0.05, K.LOCAL_Z) == pytest.approx(
            0.369, abs=1e-3)
        assert prior_prob_for_fpr(0.005, 0.05, K.SIMPLE_Z) == pytest.approx(
            0.575, abs=1e-3)

    def test_closed_form(self):
        rng = random.Random(5)
        for _ in range(200):
            p = 10 ** rng.uniform(-6, math.log10(0.49))
            fpr = rng.uniform(0.001, 0.5)
            kind = rng.choice(ALL_KINDS)
            bf = min_bf(p, kind)
            expected = 1.0 / (1.0 + (1.0 - fpr) / fpr * bf)
            assert prior_prob_for_fpr(p, fpr, kind) == pytest.approx(
                expected, rel=1e-12, abs=0)

    def test_against_mpmath(self):
        # within 2 ulp of Bayes' theorem in mpmath, on min_bf's own float,
        # wherever (1 - fpr) bf is normal or zero: p and the FPR log-uniform
        # on [1e-300, 0.49], and a quarter of the FPRs subnormal. Solved as
        # 1/(1 + (1 - fpr)/fpr bf), it was up to 2.42 ulp off, and 0 for every
        # FPR below about 5.6e-309, where (1 - fpr)/fpr overflows
        rng = random.Random(42)
        worst, checked = 0.0, 0
        for i in range(4000):
            p = 10.0 ** rng.uniform(-300.0, math.log10(0.49))
            fpr = 10.0 ** (rng.uniform(-323.0, -308.0) if i % 4 == 0
                           else rng.uniform(-300.0, math.log10(0.49)))
            kind = rng.choice(ALL_KINDS)
            bf = min_bf(p, kind)
            if 0.0 < (1.0 - fpr) * bf < sys.float_info.min:
                continue
            checked += 1
            error = oracles.ulps(prior_prob_for_fpr(p, fpr, kind), oracles.prior_bound(fpr, bf))
            assert error <= 2.0, (p, fpr, kind)
            worst = max(worst, error)
        assert checked > 3000 and worst > 0.5

    def test_round_trip_through_forward(self):
        rng = random.Random(9)
        for _ in range(200):
            p = 10 ** rng.uniform(-6, math.log10(0.49))
            fpr = rng.uniform(0.001, 0.5)
            kind = rng.choice(ALL_KINDS)
            prior = prior_prob_for_fpr(p, fpr, kind)
            odds = min_bf(p, kind) * prior / (1.0 - prior)   # forward FPR
            assert odds / (1.0 + odds) == pytest.approx(fpr, rel=1e-10)

    def test_bad_fpr(self):
        with pytest.raises(ValueError):
            prior_prob_for_fpr(0.05, 0.0, K.LOCAL_Z)
        with pytest.raises(ValueError):
            prior_prob_for_fpr(0.05, 1.0, K.LOCAL_Z)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bad_p_reported_before_bad_fpr(self, kind):
        with pytest.raises(ValueError, match="p-value must be in"):
            prior_prob_for_fpr(1.5, 0.0, kind)

    def test_one_inverse_per_p(self, monkeypatch):
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return two_sided_z(alpha)

        monkeypatch.setattr(statfn, "two_sided_z", counted)
        critical_z.cache_clear()
        for kind in ALL_KINDS:
            prior_prob_for_fpr(0.0123, 0.05, kind)
        assert calls == [0.0123]


class TestFprEqualsP:
    def test_published_values_at_p05(self):
        assert prior_bound_fpr_equals_p(0.05, K.SIMPLE_Z) == pytest.approx(
            0.152, abs=1e-3)
        assert prior_bound_fpr_equals_p(0.05, K.E_P_LOG_P) == pytest.approx(
            0.114, abs=1e-3)

    def test_e_q_log_q_small_p_limit(self):
        # minBF -> e*p as p -> 0, so the bound tends to 1/(1+e) = 26.9%
        limit = 1.0 / (1.0 + math.e)
        assert limit == pytest.approx(0.269, abs=1e-3)
        assert prior_bound_fpr_equals_p(1e-9, K.E_Q_LOG_Q) == pytest.approx(
            limit, rel=1e-6)

    def test_agrees_with_general_bound(self):
        for p in [1e-4, 0.005, 0.05]:
            for kind in ALL_KINDS:
                assert prior_bound_fpr_equals_p(p, kind) == pytest.approx(
                    prior_prob_for_fpr(p, p, kind), rel=1e-15)
