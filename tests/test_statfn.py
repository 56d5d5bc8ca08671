import math
import os
import pathlib
import random
import statistics
import struct
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import revbayes
from revbayes.bf import Branch, find_root, lambert_w_log
from revbayes.errors import DataError
from revbayes.statfn import (DEFAULT_ALPHA, DEFAULT_LEVEL, LOG_MAX, alpha_for_level,
                             critical_excess, critical_z, exp_or_inf, exp_or_inf_column,
                             norm_quantile, two_sided_p, two_sided_p_column)

# AS241's branch edges: q = p - 1/2 = -/+0.425, r = sqrt(-log p) = 5, the extremes; each
# with its neighbours one ulp away, inside (0, 1)
_EDGE_PS = [x for e in (0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0), 2.0 ** -1074,
                        1.0 - 2.0 ** -53)
            for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)) if 0.0 < x < 1.0]

# norm_quantile(p).hex() on Python 3.11.7 (the C AS241 of _statistics) at p in
# each of AS241's three branches and at _EDGE_PS, so that another interpreter's
# run compares its bits with these, not with its own statistics module
_AS241_BITS = {
    # |p - 1/2| <= 0.425
    0.08: "-0x1.67b2c51011cedp+0", 0.1: "-0x1.4813c36e26d34p+0",
    0.125: "-0x1.267d4c07b0566p+0", 0.2: "-0x1.aee8fa73a1333p-1",
    0.25: "-0x1.5956b87528a49p-1", 0.3: "-0x1.0c7e39582c5fap-1",
    0.4: "-0x1.036d6c4a04b5ap-2", 0.45: "-0x1.015abc78e92cfp-3",
    0.49: "-0x1.9aba9f4786911p-6", 0.5: "0x0.0p+0", 0.51: "0x1.9aba9f4786911p-6",
    0.6: "0x1.036d6c4a04b5ap-2", 0.7: "0x1.0c7e39582c5fap-1", 0.75: "0x1.5956b87528a49p-1",
    0.8: "0x1.aee8fa73a1335p-1", 0.875: "0x1.267d4c07b0566p+0", 0.9: "0x1.4813c36e26d34p+0",
    0.92: "0x1.67b2c51011cefp+0",
    # r = sqrt(-log min(p, 1 - p)) <= 5
    0.07: "-0x1.79cd70d9c27f0p+0", 0.05: "-0x1.a515209676abdp+0",
    0.025: "-0x1.f5c0331eeff83p+0", 0.01: "-0x1.29c5c4630ff0ep+1",
    0.001: "-0x1.8b8cbb7204470p+1", 0.0001: "-0x1.dc08bb712893ap+1",
    1e-06: "-0x1.30381a9799f7ep+2", 1e-08: "-0x1.672b074435e3ep+2",
    1e-10: "-0x1.97203597a2154p+2", 2e-11: "-0x1.a6a9350dc279bp+2",
    0.93: "0x1.79cd70d9c27f3p+0", 0.95: "0x1.a515209676ab8p+0",
    0.975: "0x1.f5c0331eeff82p+0", 0.99: "0x1.29c5c4630ff0ep+1",
    0.999: "0x1.8b8cbb7204470p+1", 0.999999: "0x1.30381a97985f1p+2",
    0.99999999: "0x1.672b074346f17p+2",
    # r > 5
    1e-11: "-0x1.ad2f7bbec4805p+2", 1e-15: "-0x1.fc3f007789667p+2",
    1e-20: "-0x1.2865170b43a4bp+3", 1e-50: "-0x1.dddde6ad81776p+3",
    1e-100: "-0x1.546010d75521fp+4", 1e-200: "-0x1.e34a1d1f58ae0p+4",
    1e-300: "-0x1.286074064c26ep+5", 2.2250738585072014e-308: "-0x1.2c27b05bf1a0bp+5",
    1e-320: "-0x1.32272b3016ccdp+5", 0.99999999999: "0x1.ad2f7bb1cbde9p+2",
    0.9999999999999: "0x1.d651fe903ae47p+2", 0.999999999999999: "0x1.fc40a0611cdeep+2",
    0.9999999999999999: "0x1.06b48528cea51p+3",
    # the branch edges of _EDGE_PS
    0.07499999999999998: "-0x1.7085226d3e522p+0", 0.075: "-0x1.7085226d3e523p+0",
    0.07500000000000001: "-0x1.7085226d3e523p+0",
    0.9249999999999999: "0x1.7085226d3e521p+0", 0.925: "0x1.7085226d3e524p+0",
    0.9250000000000002: "0x1.7085226d3e528p+0",
    1.388794386496402e-11: "-0x1.aa1b1c13ee525p+2",
    1.3887943864964021e-11: "-0x1.aa1b1c13ee525p+2",
    1.3887943864964023e-11: "-0x1.aa1b1c13ee525p+2",
    0.999999999986112: "0x1.aa1b1980bc89cp+2", 0.9999999999861121: "0x1.aa1b1e6eab81fp+2",
    0.9999999999861122: "0x1.aa1b235c9d013p+2", 5e-324: "-0x1.33bd3f27fcd02p+5",
    1e-323: "-0x1.33985c2232ebfp+5", 0.9999999999999998: "0x1.04074bdbf8864p+3",
}


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_known_values(self):
        # AS241 pins these
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert norm_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)

    def test_round_trip_grid(self):
        ps = [1e-8, 1e-5, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.77, 0.99, 1 - 1e-5, 1 - 1e-8]
        for p in ps:
            assert oracles.phi(norm_quantile(p)) == pytest.approx(p, abs=1e-10)

    def test_rejects_boundaries(self):
        # the C routine checks nothing, and gives nan for nan
        for p in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                norm_quantile(p)

    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_max=True))
    def test_against_mpmath(self, p):
        assert norm_quantile(p) == pytest.approx(oracles.norm_quantile(p), rel=1e-10, abs=0)

    def test_bits_of_statistics_inv_cdf(self):
        # the reference: norm_quantile gives NormalDist().inv_cdf's bits
        inv_cdf = statistics.NormalDist().inv_cdf
        rng = random.Random(241)
        ps = [rng.random() for _ in range(40_000)]
        ps += [math.exp(rng.uniform(math.log(5e-324), 0.0)) for _ in range(40_000)]
        ps += [1.0 - math.exp(rng.uniform(math.log(1e-16), 0.0)) for _ in range(40_000)]
        ps += _EDGE_PS
        ps = [p for p in ps if 0.0 < p < 1.0]
        assert len(ps) >= 100_000
        assert [p for p in ps if norm_quantile(p) != inv_cdf(p)] == []

    def test_pinned_bits(self):
        assert set(_EDGE_PS) <= set(_AS241_BITS)
        assert {p: norm_quantile(p).hex() for p in _AS241_BITS} == _AS241_BITS

    def test_fallback_without_the_extension(self):
        # an interpreter without _statistics, such as PyPy, takes statistics' Python AS241
        code = ("import sys; sys.modules['_statistics'] = None; "
                "from revbayes import statfn; "
                "print(statfn._normal_dist_inv_cdf.__module__); "
                f"print([statfn.norm_quantile(p).hex() for p in {_EDGE_PS!r}])")
        src = pathlib.Path(revbayes.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "statistics", repr([norm_quantile(p).hex() for p in _EDGE_PS])]


class TestCriticalZ:
    @given(st.floats(min_value=1e-12, max_value=0.5))
    def test_against_mpmath(self, alpha):
        assert critical_z(alpha) == pytest.approx(float(oracles.two_sided_z(alpha)),
                                                  rel=1e-10, abs=0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-323, 1e-300])
    def test_smallest_alpha(self, alpha):
        # at 5e-324 alpha / 2 rounds to 0, so the oracle solves from log alpha
        assert critical_z(alpha) == pytest.approx(float(oracles.two_sided_z(alpha)),
                                                  rel=4e-16, abs=0)

    def test_level_95_bits(self):
        # the bits every default-level output is built on
        assert critical_z(1.0 - 0.95) == 1.9599639845400538

    def test_cache_is_bounded(self):
        assert critical_z.cache_info().maxsize is not None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must be in"):
            critical_z(alpha)


class TestCriticalExcess:
    @given(st.floats(min_value=-40, max_value=40),
           st.sampled_from([0.5, 0.2, 0.1, 0.05, 0.01, 0.005]))
    def test_decides_significance_like_the_squares(self, z, alpha):
        # |z| - z_crit rounds to 0 only where it is 0, and never changes sign
        assert (critical_excess(z, alpha) > 0.0) == (z ** 2 > critical_z(alpha) ** 2)


# decimal texts in (0, 1) of up to 15 significant digits, each its float's
# shortest repr, and the shortest reprs (up to 17 digits) of floats in (0, 1)
_LEVEL_TEXTS = st.one_of(
    st.integers(1, 15).flatmap(lambda k: st.integers(1, 10 ** k - 1).map(
        lambda m: f"0.{m:0{k}d}")),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr))


class TestAlphaForLevel:
    @given(_LEVEL_TEXTS)
    def test_one_minus_the_decimal_rounded_once(self, text):
        expected = float(1 - Fraction(text))
        if expected < 1.0:
            assert alpha_for_level(float(text)) == expected
        else:   # 1 - level rounds to 1: no alpha
            with pytest.raises(DataError, match="level must be in"):
                alpha_for_level(float(text))

    def test_default(self):
        assert DEFAULT_ALPHA == alpha_for_level(DEFAULT_LEVEL) == 0.05

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, 1e300, math.inf, math.nan,
                                       1e-17, 5e-324])
    def test_rejects_levels_without_an_alpha(self, level):
        with pytest.raises(DataError, match="level must be in"):
            alpha_for_level(level)

    def test_cache_is_bounded(self):
        assert alpha_for_level.cache_info().maxsize is not None


class TestTwoSidedP:
    def test_box_scale_value(self):
        # 2*(1 - Phi(sqrt(1.545))) via the high-precision oracle
        expected = 2.0 * (1.0 - oracles.phi(math.sqrt(1.545)))
        assert two_sided_p(math.sqrt(1.545)) == pytest.approx(expected, abs=1e-14)
        assert two_sided_p(math.sqrt(1.545)) == pytest.approx(0.2139, abs=1e-4)


class TestLambertW:
    @pytest.mark.parametrize("branch, k", [(Branch.PRINCIPAL, 0), (Branch.SECONDARY, -1)],
                             ids=["W0", "W-1"])
    @pytest.mark.parametrize("log_x", [-1.0 - 1e-15, -1.0 - 1e-12, -1.0001, -1.5, -2.0,
                                       -5.0, -37.0, -50.0, -800.0, -1600.0, -1e6])
    def test_against_mpmath(self, log_x, branch, k):
        # -37: W0 returns -x as it is; from -745 on, x = e^log_x underflows;
        # -1600 is e^(-z^2) at z = 40
        assert lambert_w_log(log_x, branch) == pytest.approx(oracles.lambert_w_log(log_x, k),
                                                            rel=1e-13, abs=0)

    def test_zero(self):
        # W0(-x) = -x - x^2 - ... is -x once x < 2^-53, also where x is 0
        assert lambert_w_log(-37.0) == -math.exp(-37.0)
        assert lambert_w_log(-800.0) == 0.0

    def test_branch_point(self):
        assert lambert_w_log(-1.0) == -1.0
        assert lambert_w_log(-1.0 + 1e-15) == -1.0

    def test_secondary_against_bisection_oracle(self):
        x = 0.0016507
        expected = oracles.bisect(lambda w: w * math.exp(w) + x, -50.0, -1.0)
        got = lambert_w_log(math.log(x), Branch.SECONDARY)
        assert got == pytest.approx(expected, rel=1e-10, abs=0)
        assert got == pytest.approx(-8.55, abs=5e-3)

    @pytest.mark.parametrize("branch", [Branch.PRINCIPAL, Branch.SECONDARY])
    def test_defining_identity(self, branch):
        for x in [1 / math.e - 1e-12, 0.367, 0.3, 0.1, 1e-3, 1e-6, 1e-12]:
            w = lambert_w_log(math.log(x), branch)
            assert w * math.exp(w) == pytest.approx(-x, rel=1e-10, abs=1e-13)
            if branch is Branch.PRINCIPAL:
                assert -1.0 - 1e-12 <= w < 0.0
            else:
                assert w <= -1.0 + 1e-12

    def test_rejections(self):
        for log_x in (-0.5, 0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                lambert_w_log(log_x)


class TestLambertWm1Log:
    """The secondary branch W-1 of lambert_w_log at the ends of its domain."""

    def test_branch_point(self):
        assert lambert_w_log(-1.0, Branch.SECONDARY) == -1.0
        assert lambert_w_log(-1.0 + 1e-15, Branch.SECONDARY) == -1.0

    def test_rejections(self):
        for log_x in (-0.5, 0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                lambert_w_log(log_x, Branch.SECONDARY)


class TestExpOrInf:
    def test_same_bits_as_exp_in_range(self):
        for x in (-800.0, -1.0, 0.0, 0.5, 700.0, LOG_MAX):
            assert exp_or_inf(x) == math.exp(x)

    def test_inf_past_the_range(self):
        assert exp_or_inf(math.nextafter(LOG_MAX, math.inf)) == math.inf
        assert exp_or_inf(1e6) == math.inf


_COLUMN_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -37.5,
                 -745.2, -800.0, math.nextafter(LOG_MAX, 0.0), LOG_MAX, -LOG_MAX,
                 math.nextafter(LOG_MAX, math.inf), 1e308, -1e308, math.inf, -math.inf,
                 math.nan]
_IN_RANGE = [x for x in _COLUMN_EDGES if x <= LOG_MAX]


def _bits(column) -> list[bytes]:
    """Each float's bits, so that -0.0 differs from 0.0 and nan equals nan."""
    return [struct.pack("<d", x) for x in column]


class TestColumnKernels:
    """exp_or_inf_column and two_sided_p_column against maps of the scalars."""

    @pytest.mark.parametrize("column", [
        [], [0.0], _IN_RANGE, _IN_RANGE[::-1], _COLUMN_EDGES, _COLUMN_EDGES[::-1],
        [1.0, math.nan], [-1.0, math.nan, 2.0], [math.nan, 1.0], [-math.inf, math.nan],
        [math.nextafter(LOG_MAX, math.inf), 0.5], [0.5, math.inf], (0.5, -0.0, LOG_MAX),
    ], ids=["empty", "zero", "in-range", "in-range-reversed", "edges", "edges-reversed",
            "nan-after-finite", "nan-inside", "nan-first", "nan-after-minus-inf",
            "past-log-max-first", "inf-last", "tuple"])
    def test_same_bits_as_the_scalar_maps(self, column):
        assert _bits(exp_or_inf_column(column)) == _bits(map(exp_or_inf, column))
        assert _bits(two_sided_p_column(column)) == _bits(map(two_sided_p, column))

    def test_nan_after_a_number_is_inf(self):
        # max([1.0, nan]) is 1.0, within the range; exp_or_inf(nan) is inf
        assert exp_or_inf_column([1.0, math.nan]) == [math.e, math.inf]

    @given(st.lists(st.floats() | st.sampled_from(_COLUMN_EDGES), max_size=40))
    def test_drawn_columns(self, column):
        assert _bits(exp_or_inf_column(column)) == _bits(map(exp_or_inf, column))
        assert _bits(two_sided_p_column(column)) == _bits(map(two_sided_p, column))


# smooth f(x) - c with (value, slope), for the known-ends property
_SMOOTH = {
    "cubic": lambda c: lambda x: (x * x * x - c, 3.0 * x * x),
    "exp": lambda c: lambda x: (math.exp(x) - c, math.exp(x)),
    "atan": lambda c: lambda x: (math.atan(x - c), 1.0 / (1.0 + (x - c) * (x - c))),
}


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: (x - 2.0, 1.0), 0.0, 5.0, 1.0) == pytest.approx(
            2.0, abs=1e-12)

    def test_sqrt2_against_bisection(self):
        expected = oracles.bisect(lambda x: x * x - 2.0, 0.0, 2.0)
        got = find_root(lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-10)
        assert got == pytest.approx(1.4142136, abs=1e-7)

    def test_cosine(self):
        expected = oracles.bisect(math.cos, 1.0, 2.0)
        got = find_root(lambda x: (math.cos(x), -math.sin(x)), 1.0, 2.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-10)
        assert got == pytest.approx(1.5707963, abs=1e-7)

    def test_stops_on_step_not_residual(self):
        # every |f| here is below 1e-12, so only the step size can stop it
        assert find_root(lambda x: (1e-15 * (x - 2.0), 1e-15), 0.0, 5.0, 4.0) \
            == pytest.approx(2.0, rel=1e-12)

    def test_small_root_relative(self):
        # the root 1e-6 lies far below 1, where the stopping step must
        # still be relative to keep its digits
        assert find_root(lambda x: (x * x * x - 1e-18, 3.0 * x * x), 0.0, 1.0, 1.0) \
            == pytest.approx(1e-6, rel=1e-14, abs=0.0)

    def test_rejects_non_bracketing(self):
        with pytest.raises(ValueError):
            find_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0, 0.5)

    @pytest.mark.parametrize("end", [1e-300, -1e-300, 5e-324])
    def test_rejects_tiny_ends_of_one_sign(self, end):
        # their product underflows to 0, so only a test of the signs rejects them
        with pytest.raises(ValueError, match="does not bracket a root"):
            find_root(lambda x: (x * x + 1.0, 2.0 * x), -1.0, 1.0, 0.5, end, end)

    def test_deterministic_bits(self):
        f = lambda x: (math.exp(x) - 3.0 * x, math.exp(x) - 3.0)
        first = find_root(f, 0.0, 1.0, 0.5)
        second = find_root(f, 0.0, 1.0, 0.5)
        assert first == second  # identical bits, no hidden state

    def test_step_leaving_the_bracket_bisects(self):
        # Newton on atan from 10 steps to about -1e2, far outside (-1, 20)
        calls = []

        def f(x):
            calls.append(x)
            return math.atan(x), 1.0 / (1.0 + x * x)

        assert find_root(f, -1.0, 20.0, 10.0) == pytest.approx(0.0, abs=1e-300)
        assert calls[3] == 0.5 * (-1.0 + 10.0)  # lo, hi, x0, then the midpoint
        assert all(-1.0 <= x <= 20.0 for x in calls)

    @pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (0.0, 2.0)])
    def test_root_at_an_end(self, lo, hi):
        assert find_root(lambda x: (x - 2.0, 1.0), lo, hi, 0.5 * (lo + hi)) == 2.0

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from(sorted(_SMOOTH)), c=st.floats(-5.0, 5.0),
           points=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3, unique=True),
           given_ends=st.sampled_from(["lo", "hi", "both"]),
           magnitude=st.sampled_from([1e-300, 1.0, 1e300]))
    def test_known_ends(self, shape, c, points, given_ends, magnitude):
        # f(lo) and f(hi) from the caller: the same bits, or the same error,
        # and f is never evaluated at an end whose value was given. Only their
        # signs are read, so any number of the same sign gives the same bits,
        # or an error that prints the numbers given
        f = _SMOOTH[shape](c)
        lo, x0, hi = sorted(points)
        ends = {"f_lo": f(lo)[0], "f_hi": f(hi)[0]}
        if given_ends != "both":
            ends = {f"f_{given_ends}": ends[f"f_{given_ends}"]}
        signs = {name: math.copysign(magnitude, v) if v else v for name, v in ends.items()}
        skipped = [x for name, x in (("f_lo", lo), ("f_hi", hi)) if name in ends]

        def guarded(x):
            assert x not in skipped
            return f(x)

        try:
            expected = find_root(f, lo, hi, x0)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                find_root(guarded, lo, hi, x0, **ends)
            assert str(got.value) == str(exc)
            with pytest.raises(ValueError, match="does not bracket a root"):
                find_root(guarded, lo, hi, x0, **signs)
        else:
            assert find_root(guarded, lo, hi, x0, **ends).hex() == expected.hex()
            assert find_root(guarded, lo, hi, x0, **signs).hex() == expected.hex()
