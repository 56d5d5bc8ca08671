"""Independent references for the benchmark's output checks.

Nothing here calls the package under test: quantiles come from
statistics.NormalDist, roots from plain bisection in log space, and sums
from math.fsum. Every comparison is relative (REL_TOL) and every Bayes
factor is compared on the log scale, so a result is judged by its last
digits, not by an absolute cut-off that large |z| would defeat.
"""

from __future__ import annotations

import math
from statistics import NormalDist

REL_TOL = 1e-9
GAMMA = 0.1          # Bayes-factor cut-off used by the screen workload
ALPHA = 0.05
LOG_MAX = math.log(1.7976931348623157e308)
Z_CRIT = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def upper_z(p: float) -> float:
    """|z| whose two-sided tail probability is p, from the lower tail, so
    it stays exact for p far below machine epsilon."""
    return -NormalDist().inv_cdf(p / 2.0)


# ------------------------------------------------------------ AnCred


def posterior_touches_zero(theta: float, se: float, mu: float, tau2: float) -> bool:
    """The (1 - ALPHA) posterior interval under N(mu, tau2) ends at 0."""
    s2 = se * se
    prec = 1.0 / tau2 + 1.0 / s2
    mean = (mu / tau2 + theta / s2) / prec
    return abs(abs(mean) - Z_CRIT / math.sqrt(prec)) <= REL_TOL * abs(mean)


def expected_mode(z: float) -> str | None:
    """"sceptical" or "advocacy"; None within REL_TOL of the boundary."""
    r = z * z / (Z_CRIT * Z_CRIT)
    if abs(r - 1.0) <= REL_TOL:
        return None
    return "sceptical" if r > 1.0 else "advocacy"


def intrinsic_verdict(z: float, flavor: str) -> bool | None:
    """Closed forms of the intrinsic-credibility boundary: z^2 > phi z_c^2
    (prior flavour) or z^2 > 2 z_c^2 (predictive flavour); None within
    REL_TOL of the boundary."""
    factor = GOLDEN if flavor == "prior_based" else 2.0
    r = z * z / (factor * Z_CRIT * Z_CRIT)
    if abs(r - 1.0) <= REL_TOL:
        return None
    return r > 1.0


def trial_ok(trial, mu: float, tau2: float, rate: float) -> bool:
    """Mean, variance and rate of an equivalent trial, and for mu != 0 that
    its integer event count is the one closest to the target rate."""
    if mu == 0.0:
        n, e = trial.patients_per_arm, trial.events_per_arm
        return close(2.0 / e + 2.0 / (n - e), tau2) and close(e / n, rate)
    (e, nt), (e2, nc) = trial.per_arm_detail
    b, d = nt - e, nc - e2
    if e != e2 or e != math.floor(e):
        return False
    if not (close(math.log(d / b), mu) and close(2.0 / e + 1.0 / b + 1.0 / d, tau2)
            and close(trial.allocation_ratio, math.exp(mu))):
        return False
    # rate(e) = e / (e + d(e)) rises with e and equals the target at e_star
    allocation = math.exp(mu)
    e_star = (2.0 + (1.0 + allocation) * rate / (1.0 - rate)) / tau2

    def gap(k: float) -> float:
        return abs(k / (k + (1.0 + allocation) / (tau2 - 2.0 / k)) - rate)

    best = min(gap(k) for k in (math.floor(e_star), math.ceil(e_star))
               if k >= 1 and tau2 - 2.0 / k > 0.0)
    return gap(e) <= best * (1.0 + REL_TOL) + 1e-15


# ------------------------------------------------------------ Bayes factors


def log_bf01(z: float, g: float) -> float:
    return 0.5 * math.log1p(g) - 0.5 * z * z * g / (1.0 + g)


def log_bf12(z: float, g: float) -> float:
    return 0.5 * math.log(2.0 / (1.0 + g)) - z * z / (2.0 * (1.0 + g))


def sceptical_exists(z: float, gamma: float) -> bool | None:
    """min over g of BF01 (at 1 + g = z^2) reaches gamma."""
    if abs(z) <= 1.0:
        return False
    lhs = math.log(abs(z)) - 0.5 * z * z + 0.5
    if abs(lhs - math.log(gamma)) <= REL_TOL:
        return None
    return lhs < math.log(gamma)


def large_root_representable(z: float, gamma: float) -> bool:
    # for large g, log BF01 ~ log(g)/2 - z^2/2, so log g ~ z^2 + 2 log gamma
    return z * z + 2.0 * math.log(gamma) < LOG_MAX - 1.0


def small_g(z: float, gamma: float) -> float:
    """Smaller root of BF01(z, g) = gamma, by bisection on log g."""
    lo, hi = math.log(1e-300), math.log(z * z - 1.0)
    log_gamma = math.log(gamma)

    def f(lg: float) -> float:
        return 0.5 * math.log1p(math.exp(lg)) - 0.5 * z * z / (1.0 + math.exp(-lg)) - log_gamma

    if f(hi) > 0.0:   # gamma at or below the tangency: the roots coincide
        return z * z - 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.exp(mid)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def intrinsic_exists(z: float) -> bool | None:
    """bf_intrinsic has a solution iff |z| > 1 and z^2 e^(-z^2/2)/sqrt 2 <= 1/e."""
    if abs(z) <= 1.0:
        return False
    lhs = 2.0 * math.log(abs(z)) - 0.5 * z * z - 0.5 * math.log(2.0)
    if abs(lhs + 1.0) <= REL_TOL:
        return None
    return lhs < -1.0


def intrinsic_ok(z: float, gamma: float) -> bool:
    """BF12 at the sceptical g(gamma) plugs back to gamma."""
    if not (0.0 < gamma < 1.0):
        return False
    log_floor = math.log(abs(z)) - 0.5 * z * z + 0.5
    if math.log(gamma) < log_floor - REL_TOL:
        return False
    return abs(log_bf12(z, small_g(z, gamma)) - math.log(gamma)) <= REL_TOL


def log_bf_advocacy(z: float, m: float, k: float) -> float:
    """log BF01 of the fixed-CV advocacy prior mu = m theta_hat,
    tau = |mu| cv, written with k = (cv z)^2; finite for every finite m."""
    if m <= 1.0:
        return (0.5 * math.log1p(k * m * m) - 0.5 * z * z
                + 0.5 * z * z * (1.0 - m) ** 2 / (1.0 + k * m * m))
    w = 1.0 / m
    return (math.log(m) + 0.5 * math.log(k + w * w) - 0.5 * z * z
            + 0.5 * z * z * (w - 1.0) ** 2 / (w * w + k))


def advocacy_large_root_representable(z: float, gamma: float) -> bool:
    # for large m, log BF01 ~ log m + log(k)/2 - z^2/2 - log(gamma)
    k = z * z / (-2.0 * math.log(gamma))
    return 2.0 * math.log(gamma) + 0.5 * z * z - 0.5 * math.log(k) < LOG_MAX - 1.0


def advocacy_minimum(z: float, gamma: float) -> tuple[float, float]:
    """(m, log BF01) at the family's minimum over m > 0: a 481-point log
    grid over 1e-8..1e8, then golden-section search around the best point."""
    k = z * z / (-2.0 * math.log(gamma))
    grid = [math.exp(math.log(1e-8) + i * math.log(1e16) / 480) for i in range(481)]
    i = min(range(481), key=lambda j: log_bf_advocacy(z, grid[j], k))
    a, b = math.log(grid[max(i - 1, 0)]), math.log(grid[min(i + 1, 480)])
    inv = 1.0 / GOLDEN
    for _ in range(200):
        c, d = b - (b - a) * inv, a + (b - a) * inv
        if log_bf_advocacy(z, math.exp(c), k) < log_bf_advocacy(z, math.exp(d), k):
            b = d
        else:
            a = c
        if b - a < 1e-14:
            break
    m = math.exp(0.5 * (a + b))
    return m, log_bf_advocacy(z, m, k)


# ------------------------------------------------------------ false positive risk


def min_bf(p: float, kind: str) -> float:
    if kind == "e_p_log_p":
        return -math.e * p * math.log(p) if p < 1.0 / math.e else 1.0
    if kind == "e_q_log_q":
        return -math.e * (1.0 - p) * math.log1p(-p) if p < 1.0 - 1.0 / math.e else 1.0
    z = upper_z(p)
    if kind == "local_z":
        return 1.0 if z <= 1.0 else z * math.exp(-0.5 * z * z + 0.5)
    if kind == "simple_z":
        return min(1.0, 2.0 * math.exp(-0.5 * z * z) / (1.0 + math.exp(-2.0 * z * z)))
    if kind == "els_all_priors":
        return math.exp(-0.5 * z * z)
    raise ValueError(kind)


def prior_bound(p: float, fpr: float, kind: str) -> float:
    """Pr(H0) at which fpr_forward(Pr(H0), minBF) equals the target."""
    return 1.0 / (1.0 + (1.0 - fpr) / fpr * min_bf(p, kind))


# ------------------------------------------------------------ meta-analysis


def study_estimate(a: int, n_t: int, c: int, n_c: int) -> tuple[float, float]:
    """(log OR, precision) of one 2x2 table."""
    b, d = n_t - a, n_c - c
    return (math.log(a) - math.log(b) - math.log(c) + math.log(d),
            1.0 / math.fsum((1.0 / a, 1.0 / b, 1.0 / c, 1.0 / d)))


def pooled(thetas, precisions, skip: int = -1) -> tuple[float, float]:
    """(mean, precision) of the fixed-effect pool, leaving out index skip."""
    prec = math.fsum(k for i, k in enumerate(precisions) if i != skip)
    mean = math.fsum(k * t for i, (t, k) in enumerate(zip(thetas, precisions))
                     if i != skip) / prec
    return mean, prec


# ------------------------------------------------------------ known defects


def known_defect(step: str, z: float, out: dict, rate: float) -> bool:
    """Failures the unmodified package already shows, each an open defect
    of ROADMAP item 3 (or the scan limit of item 2). They still count as
    failed operations; only a failure outside these regions makes a run
    report "correct": false."""
    if step in ("fpr.local_z", "fpr.simple_z", "fpr.els_all_priors"):
        # min_bf takes norm_quantile(1 - p/2), and 1 - p/2 rounds to 1
        return 1.0 - two_sided_p(z) / 2.0 == 1.0
    if step == "bf_intrinsic":
        # find_root stops at |f| <= 1e-12 absolute, more than REL_TOL * gamma
        # once gamma falls below ~1e-3 (|z| above ~5); ZeroDivisionError at 30
        if abs(z) >= 5.0:
            return True
        # just above |z| = 1 (by less than ~3e-5) the scan's lower end
        # floor * (1 + 1e-9) reaches its upper end 1 - 1e-9, and
        # sceptical_g_for_gamma raises ValueError on gamma >= 1 where no
        # solution exists and NonexistenceError is due
        floor = abs(z) * math.exp(-0.5 * (z * z - 1.0))
        return abs(z) > 1.0 and floor * (1.0 + 1e-9) >= 1.0 - 1e-9
    if step == "bf_sceptical":
        # exp(-z^2) underflows, so W-1 receives -0.0
        return abs(z) >= 26.0
    if step == "bf_advocacy":
        # BF01 overflows to nan while bracketing m_large (m above ~1e150)
        if abs(z) >= 26.0:
            return True
        # existence is decided on the package's grid of m (40 points a
        # decade over 1e-6..1e4), which misses a minimum just below gamma
        k = z * z / (-2.0 * math.log(GAMMA))
        grid_min = min(log_bf_advocacy(z, 10.0 ** (i / 40.0), k) for i in range(-240, 161))
        return grid_min > math.log(GAMMA)
    if step == "trial":
        # the integer-event scan gives up after 1e5 candidates, and exp(mu)
        # overflows (OverflowError) for prior means beyond the float range
        prior = out["ancred"]
        if hasattr(prior, "g"):
            return False
        if abs(prior.mu) >= LOG_MAX:
            return True
        tau2, allocation = prior.tau ** 2, math.exp(prior.mu)
        e_star = (2.0 + (1.0 + allocation) * rate / (1.0 - rate)) / tau2
        return e_star - 2.0 / tau2 > 1e5
    return False
