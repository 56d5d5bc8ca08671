"""Bayes-factor-based credibility analysis: sufficiently sceptical prior
variances via both real branches of Lambert W on log x, advocacy priors
with fixed coefficient of variation, and the Bayes factor for intrinsic
credibility, with Lambert W and the root finder that only they call. The
minimum Bayes factors of a z-value are statfn's, so a bf process loads no fpr.

All Bayes factors are oriented as BF01 (null over alternative); display
layers may invert to "1/x" strings.
"""

import enum
import math
from collections import namedtuple
from collections.abc import Callable

from .errors import DataError, NonexistenceError
from .model import EffectEstimate, NormalPrior
from .statfn import FLOAT_MIN, LOG_MAX, exp_or_inf, interval, min_bf_els, min_bf_local

# Cap on find_root's steps; from the package's starts Newton needs far fewer.
_FIND_ROOT_MAX_ITER = 200


class Branch(enum.Enum):
    """Branch selector for the real Lambert W function."""

    PRINCIPAL = "principal"  # W0, w >= -1
    SECONDARY = "secondary"  # W-1, w <= -1


# the members as globals: on Python 3.11 Branch.SECONDARY costs ~100 ns a lookup
PRINCIPAL, SECONDARY = Branch


def lambert_w_log(log_x: float, branch: Branch = PRINCIPAL) -> float:
    """Real Lambert W of -x, given log_x = log x: the w solving
    w + log(-w) = log_x, in [-1, 0) on the principal branch and w <= -1 on
    the secondary.

    Taking log x keeps arguments exact whose x underflows (x = e^-1600).
    Defined for log_x <= -1 (x <= 1/e); up to 1e-14 above -1 is taken as
    representation noise at the branch point. Halley iteration, whose step
    is the same on both branches, from the branch-point series of Corless
    et al. (1996, Adv. Comput. Math. 5:329) near -1 and from
    log_x - log(-log_x) (W-1) or -x (W0) below; W0 is -x itself for
    x < 2^-53.
    """
    if not math.isfinite(log_x):
        raise ValueError(f"lambert_w_log requires finite input, got {log_x!r}")
    if log_x >= -1.0:
        if log_x > -1.0 + 1e-14:
            raise ValueError(f"lambert_w_log requires log x <= -1, got {log_x!r}")
        return -1.0
    secondary = branch is SECONDARY
    if log_x > -2.0:
        p = math.sqrt(-2.0 * math.expm1(1.0 + log_x))
        p = -p if secondary else p
        w = -1.0 + p * (1.0 - p / 3.0 * (1.0 - 11.0 / 24.0 * p))
    elif secondary:
        w = log_x - math.log(-log_x)
    else:
        w = -math.exp(log_x)
        if w > -2.0 ** -53:
            return w  # -x - x^2 - ... rounds to -x, also where x underflows
    for _ in range(50):
        f = w + math.log(-w) - log_x
        wp1 = w + 1.0
        step = f * w / wp1 / (1.0 + f / (2.0 * wp1 * wp1))
        w -= step
        if abs(step) < 1e-14 * -w:
            break
    return w


def find_root(f: Callable[[float], tuple[float, float]], lo: float, hi: float,
              x0: float, f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Bracketed Newton root finder; f(x) returns (f(x), f'(x)).

    Requires f(lo), f(hi) of opposite sign (or zero) and lo <= x0 <= hi. A caller that knows
    the sign of f(lo) or f(hi) passes any number of it as f_lo or f_hi (only the sign is read,
    and the number is printed if the ends do not bracket), and f is not evaluated there. Newton
    steps from x0; each evaluation shrinks the bracket, and a step leaving it bisects instead.
    Stops once a step is within 2 ulp of x, when the bracket is 4 ulp wide, or f is exactly 0.
    """
    f_lo = f(lo)[0] if f_lo is None else f_lo
    f_hi = f(hi)[0] if f_hi is None else f_hi
    if f_lo > 0.0 < f_hi or f_lo < 0.0 > f_hi:   # f_lo * f_hi can underflow to 0
        raise ValueError(f"find_root: interval [{lo}, {hi}] does not bracket a root "
                         f"(f(lo)={f_lo!r}, f(hi)={f_hi!r})")
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    x = x0
    for _ in range(_FIND_ROOT_MAX_ITER):
        fx, slope = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        step = fx / slope if slope else math.inf
        tol = 2.0 * math.ulp(x)
        # Step test first: a roundoff step onto a bracket end would bisect.
        if abs(step) <= tol:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * tol:
                return x
    return x


class BfScepticalSolution(namedtuple("BfScepticalSolution", "g_small g_large gamma "
                                     "prior_interval_or", defaults=(None,))):
    """Both relative prior variances g at which BF01 equals the cut-off.
    prior_interval_or is the 95% prior credible interval of the small-g
    (sceptical) prior, OR scale; only available when the estimate's standard
    error is known."""

    __slots__ = ()


class BfAdvocacySolution(namedtuple("BfAdvocacySolution",
                                    "m_small tau_small m_large tau_large gamma cv")):
    """Both advocacy priors (fixed CV) at which BF01 equals the cut-off."""

    __slots__ = ()

    @property
    def recommended_m(self) -> float:
        """The root closer to zero: the more conservative choice."""
        return self.m_small


def bf01_sceptical(z: float, g: float) -> float:
    """BF01 for the point null against a mean-zero normal prior with
    relative variance g; inf at g = inf, its limit for every finite z."""
    if not g > 0.0:
        raise DataError(f"relative prior variance must be positive, got {g!r}")
    if g == math.inf:
        return math.inf
    log_tail = -(g / (1.0 + g)) * (z * z) / 2.0
    if (tail := math.exp(log_tail)) < FLOAT_MIN:   # too few bits, or 0: scale it in the logs
        return math.exp(0.5 * math.log1p(g) + log_tail)
    return math.sqrt(1.0 + g) * tail


def sceptical_g_for_gamma(z: float, gamma: float,
                          se: float | None = None) -> BfScepticalSolution:
    """Both relative prior variances making the finding just non-compelling
    at the cut-off gamma.

    The small solution (secondary Lambert branch) is the sceptical prior;
    the large one (principal branch) represents ignorance. Where z * z
    overflows, their limits -2 log(gamma) / z^2 and inf are returned. A prior
    interval on the OR scale is attached when the standard error is supplied.
    """
    if not (0.0 < gamma < 1.0):
        raise DataError(f"gamma must be in (0,1), got {gamma!r}")
    floor = min_bf_local(z)
    if floor > gamma:
        raise NonexistenceError(
            f"no sceptical prior reaches BF01 = {gamma:.4g}: the attainable "
            f"minimum is {floor:.4g}")
    z2, log_gamma2 = z * z, 2.0 * math.log(gamma)
    if z2 == math.inf:
        # Past the float range the limits hold: z^2 g_small -> -2 log gamma.
        g_small, g_large = -log_gamma2 / abs(z) / abs(z), math.inf
    else:
        # 1 + g = -z^2 / W(-x) with x = (z^2/gamma^2) e^(-z^2), which underflows
        # from |z| ~ 27: both branches take log x, and as W(-x) e^W(-x) = -x,
        # the large root is 1 + g = gamma^2 e^(z^2 + W0(-x)), W0(-x) -> 0 as x -> 0.
        log_x = 2.0 * math.log(abs(z)) - log_gamma2 - z2
        q_small = lambert_w_log(log_x, SECONDARY)
        q_large = lambert_w_log(log_x, PRINCIPAL)
        # g_small = d / (z^2 - d), d = z^2 + W-1 cancels as gamma -> 1: one Newton
        # step on d + log1p(-d/z^2) = -2 log gamma, of slope 0 at W-1 = -1, fixes d.
        d = z2 + q_small
        if q_small < -1.0:
            d -= (d + math.log1p(-d / z2) + log_gamma2) / (1.0 + 1.0 / q_small)
        g_small = d / (z2 - d)
        log_large = z2 + log_gamma2 + q_large
        g_large = math.expm1(log_large) if log_large <= LOG_MAX else math.inf
        # Branch-point roundoff can leave g_large marginally below g_small.
        g_large = max(g_large, g_small)
    interval_or = None
    if se is not None:
        lo, hi = interval(0.0, math.sqrt(g_small) * se)
        interval_or = (exp_or_inf(lo), exp_or_inf(hi))
    return BfScepticalSolution(g_small, g_large, gamma, interval_or)


def bf01_normal_prior(estimate: EffectEstimate, prior: NormalPrior) -> float:
    """BF01 for the point null against a general normal prior.

    With z = theta/se, r = (sd/se)^2 and a = (mu/se)((2 theta - mu)/se),
    log BF01 = log1p(r)/2 - (z^2 r + a)/(1 + r)/2. The quadratic is taken as
    (z sd/h)^2 + (mu/h)((2 theta - mu)/h) with h = hypot(se, sd), which is
    (z^2 r + a)/(1 + r) with no se^2 to underflow and no r to overflow; 2 theta
    - mu is exact where it cancels. Past the float range BF01 is 0 or inf.
    """
    theta, se = estimate
    mu, sd = prior.mean, prior.sd
    h = math.hypot(se, sd)
    z_h, mu_h, twice_shift = estimate.z * (sd / h), mu / h, 2.0 * theta - mu
    shift_h = twice_shift / h if math.isfinite(twice_shift) else 2.0 * (theta / h) - mu_h
    # a zero factor is exact where the other one overflows
    quad = z_h * z_h + (mu_h * shift_h if mu_h and shift_h else 0.0)
    if math.isnan(quad):   # (z sd/h)^2 = inf, and the prior's term -inf
        raise NonexistenceError(
            f"BF01 of the prior N({mu!r}, {prior.variance!r}) for the estimate "
            f"{theta!r} (se {se!r}) is outside the floating-point range")
    r = (sd / se) * (sd / se)
    half_log = 0.5 * math.log1p(r) if r < math.inf else math.log(sd) - math.log(se)
    return exp_or_inf(half_log - 0.5 * quad)


def z_gamma(gamma: float) -> float:
    """Evidential weight z(gamma) of data whose all-priors minimum BF01
    equals gamma."""
    if not (0.0 < gamma <= 1.0):
        raise DataError(f"gamma must be in (0,1], got {gamma!r}")
    return math.sqrt(-2.0 * math.log(gamma))


def advocacy_for_gamma(estimate: EffectEstimate, gamma: float) -> BfAdvocacySolution:
    """Both advocacy priors (relative mean m, sd = |mu|/z(gamma)) at which
    BF01 equals the cut-off gamma.

    The family fixes the coefficient of variation to 1/z(gamma), leaving m
    as the only free parameter. BF01(m) falls from 1 at m = 0+ to a single
    minimum and then grows without bound; both roots around the minimum are
    returned, ordered by |m|.
    """
    if not (0.0 < gamma < 1.0):
        raise DataError(f"gamma must be in (0,1), got {gamma!r}")
    theta = abs(estimate.theta_hat)
    if theta == 0.0:
        raise NonexistenceError("advocacy prior undefined for a zero point estimate")
    cv, z = 1.0 / z_gamma(gamma), estimate.z
    z2, k = z * z, (cv * z) * (cv * z)
    log_gamma = math.log(gamma)
    # dBF01/dm = 0 is z^2 p(m) = 0 with p(m) = a m^3 + k m^2 + c m - 1, convex
    # on m > 0. Its coefficients change sign once, so it has one positive
    # root m_min, and p(0) = -1 < 0 < p(1) = cv^2 (k + 1).
    a, c = k * (cv * cv), 1.0 + cv * cv - k
    if max(z2, a) == math.inf:
        # Past the float range the limits hold: as z -> inf, t_far -> inf and
        # h(x / z^2) (below) -> -log gamma - x - cv^2 x^2 / 2, cv^2 = -1/(2 log gamma).
        m = 2.0 * (math.sqrt(2.0) - 1.0) * -log_gamma / abs(z) / abs(z)
        return BfAdvocacySolution(m, cv * m * theta, math.inf, math.inf, gamma, cv)

    m_min, h_min, m_small, m_large = _advocacy_roots(z2, k, a, c, cv, log_gamma)
    if h_min > 0.0:   # the minimum, gamma e^h_min, is at most 1 where e^h_min overflows
        raise NonexistenceError(
            f"no advocacy prior reaches BF01 = {gamma:.4g}: the family's "
            f"minimum is {math.exp(log_gamma + h_min):.4g} (at m = {m_min:.4g})")
    return BfAdvocacySolution(m_small, cv * m_small * theta, m_large, cv * m_large * theta,
                              gamma, cv)


def _advocacy_roots(z2: float, k: float, a: float, c: float, cv: float,
                    log_gamma: float) -> tuple[float, float, float, float]:
    """advocacy_for_gamma's solves for finite z2 and a: (m_min, h_min, m_small,
    m_large), the roots nan where h_min > 0. It returns only floats, so the
    caller's error pins none of the closures through its traceback."""
    def p(m):
        return ((a * m + k) * m + c) * m - 1.0, (3.0 * a * m + 2.0 * k) * m + c

    # h(m) = log BF01(m) - log gamma, with tau^2 / se^2 = k m^2, and its slope
    # dh/dm = z^2 p(m) / (1 + k m^2)^2.
    def h(m):
        d = 1.0 + k * m * m
        return (0.5 * math.log1p(k * m * m) - 0.5 * z2 * m * (2.0 + (k - 1.0) * m) / d
                - log_gamma, z2 * p(m)[0] / (d * d))

    # h and dh/dt in t = log m: h itself below m = 1, and from m = 1 on in
    # w = 1/m, where it stays finite for every t.
    def h_log(t):
        if t < 0.0:
            value, slope = h(m := math.exp(t))
            return value, m * slope
        w = math.exp(-t)
        d = w * w + k
        return (t + 0.5 * math.log(d) - 0.5 * z2 + 0.5 * z2 * ((w - 1.0) * (w - 1.0)) / d
                - log_gamma, (z2 / d) * ((a + (k + (c - w) * w) * w) / d))

    # p(m) = k m s(m) + (1 + cv^2) m - 1 with s(m) = cv^2 m^2 + m - 1, so p >= 0
    # at the positive root of s, and Newton from there falls monotonically to
    # m_min. m_min = exp(log m_min), so that h and h_log agree on h_min. find_root
    # reads only the ends' signs, and is given each: p(0) = -1, p(1) > 0 (above),
    # h(0) = -log gamma, h(m_min) = h_min, and h_log(t_hi + 1) >= 1 (below).
    t_min = math.log(find_root(p, 0.0, 1.0, 2.0 / (1.0 + math.sqrt(1.0 + 4.0 * (cv * cv))),
                               -1.0, 1.0))
    m_min = math.exp(t_min)
    h_min = h(m_min)[0]
    if h_min > 0.0:
        return m_min, h_min, math.nan, math.nan

    # h(0) = -log gamma > 0 with slope -z^2: the small root starts where that
    # tangent meets 0. log BF01 >= log m + log(k)/2 - z^2/2 for every m, so
    # h(e^t) >= t - t_hi with t_hi = z^2/2 + log gamma - log(k)/2, and h(e^t)
    # ~ t - t_far, t_far = t_hi + log gamma, for m >> 1. The large root starts
    # from the later of t_far and the small root mirrored about m_min, or
    # from the mirror if t_far < 0.
    m_small = find_root(h, 0.0, m_min, min(-log_gamma / z2, 0.5 * m_min), -log_gamma, h_min)
    t_hi = 0.5 * z2 + log_gamma - 0.5 * math.log(k)
    t_far, t_mirror = t_hi + log_gamma, math.log(2.0 * m_min - m_small)
    m_large = exp_or_inf(find_root(h_log, t_min, t_hi + 1.0,
                                   max(t_far, t_mirror) if t_far > 0.0 else t_mirror,
                                   h_min, 1.0))
    return m_min, h_min, m_small, m_large


def advocacy_prior_interval_or(estimate: EffectEstimate, m: float,
                               gamma: float) -> tuple[float, float]:
    """Prior credible interval on the OR scale for an advocacy solution,
    taken at the level whose critical value is z(gamma); one endpoint is
    exactly 1 by construction."""
    mu = m * estimate.theta_hat
    return (exp_or_inf(mu - abs(mu)), exp_or_inf(mu + abs(mu)))


def bf12_sceptical_vs_optimistic(z: float, g: float) -> float:
    """BF contrasting the sceptical prior with relative variance g to the
    optimistic prior centred at the estimate with its own variance. At
    g = 0, where a sceptical g_small underflows, that prior is the null, and
    at g = inf the limit is 0."""
    if not g >= 0.0:
        raise DataError(f"relative prior variance must be non-negative, got {g!r}")
    if g == math.inf:
        return 0.0
    return math.sqrt(2.0 / (1.0 + g)) * math.exp(-z * z / (2.0 * (1.0 + g)))


def bf_intrinsic(estimate: EffectEstimate) -> float:
    """Smallest cut-off gamma at which the finding is intrinsically credible
    under the sceptical-vs-optimistic contrast.

    BF01(z, g) = BF12(z, g) at the sceptical g. With v = z^2 / (1 + g) this
    reads v e^-v = x = z^2 e^(-z^2/2) / sqrt(2), so v = -W(-x) on the
    secondary branch (v >= 1, i.e. g at or below the BF01 minimiser
    z^2 - 1). W takes log x, as x underflows from |z| ~ 38.
    """
    z = estimate.z
    if abs(z) <= 1.0:
        raise NonexistenceError(
            "no cut-off admits a sceptical prior: |z| does not exceed 1")
    if z * z == math.inf:
        return 0.0   # BF01 underflows to 0 from |z| ~ 39
    log_x = 2.0 * math.log(abs(z)) - z * z / 2.0 - 0.5 * math.log(2.0)
    if log_x > -1.0:
        raise NonexistenceError("no admissible cut-off for intrinsic credibility")
    v = -lambert_w_log(log_x, SECONDARY)
    return bf01_sceptical(z, z * z / v - 1.0)


# ---------------------------------------------------------------- the bf subcommand


def cmd_bf(args) -> tuple:
    # the cli's runner, as in ancred, with the report's estimate block
    from .report import estimate_payload
    est = EffectEstimate(args.estimate, args.se)
    z = est.z
    results: dict = {"estimate": estimate_payload(*est, args.level),
                     "min_bf_local": min_bf_local(z),
                     "min_bf_els": min_bf_els(z),
                     "mode": args.mode}
    if args.mode == "sceptical":
        sol = sceptical_g_for_gamma(z, args.gamma, est.se)
        results["sceptical"] = dict(
            sol._asdict(), bf12_at_g_small=bf12_sceptical_vs_optimistic(z, sol.g_small))
    elif args.mode == "advocacy":
        sol = advocacy_for_gamma(est, args.gamma)
        results["advocacy"] = dict(
            sol._asdict(), z_gamma=z_gamma(args.gamma), recommended_m=sol.recommended_m,
            prior_interval_or=advocacy_prior_interval_or(est, sol.m_small, args.gamma))
    else:   # ic: options limits --mode to its three choices
        results["bf_intrinsic"] = bf_intrinsic(est)
    return results, {"estimate": est.theta_hat, "se": est.se, "gamma": args.gamma,
                     "mode": args.mode}, []
