"""The tests' references, one per quantity and none from the package: mpmath
at 60 digits, set here for the session so that arithmetic on the mpfs these
return keeps them, and float bisection, golden section and Simpson's rule."""

import math
from statistics import NormalDist

import mpmath

mpmath.mp.dps = 60
GOLDEN_RATIO = (1 + mpmath.sqrt(5)) / 2


def bisect(f, lo, hi, steps=200):
    """A sign change of f in [lo, hi] by plain bisection, in floats or mpfs."""
    negative_at_lo = f(lo) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (f(mid) < 0) == negative_at_lo else (lo, mid)
    return (lo + hi) / 2


def golden_minimize(f, a, b, tol=1e-13):
    """Golden-section minimiser of f on [a, b], returns (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
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
    return (a + b) / 2.0, f((a + b) / 2.0)


def bf01_quadrature(estimate, prior, n=20000):
    """BF01 of a normal prior for an estimate, by Simpson's rule on the marginal likelihood."""
    likelihood = NormalDist(estimate.theta_hat, estimate.se)
    density = NormalDist(prior.mean, prior.sd)
    half_width = 12 * max(estimate.se, prior.sd)
    lo = min(estimate.theta_hat, prior.mean) - half_width
    h = (max(estimate.theta_hat, prior.mean) + half_width - lo) / n
    marginal = sum((4 if k % 2 else 2 if 0 < k < n else 1)
                   * likelihood.pdf(lo + k * h) * density.pdf(lo + k * h)
                   for k in range(n + 1)) * h / 3.0
    return likelihood.pdf(0.0) / marginal


def bf01_normal_prior(theta, se, mean, variance):
    """BF01 of the prior N(mean, variance) for the estimate theta with standard
    error se, as an mpf: the closed form of the normal marginal likelihoods."""
    theta, s2, mean, variance = (mpmath.mpf(theta), mpmath.mpf(se) ** 2, mpmath.mpf(mean),
                                 mpmath.mpf(variance))
    return mpmath.sqrt(1 + variance / s2) * mpmath.exp(
        -(theta ** 2 / s2 - (theta - mean) ** 2 / (s2 + variance)) / 2)


def phi(x) -> float:
    """The standard normal CDF."""
    return float(mpmath.ncdf(x))


def two_sided_z(p):
    """The z >= 0 whose two-sided p-value erfc(z / sqrt 2) is p, as an mpf,
    solved on log erfc from log p: p / 2 may underflow as a float."""
    log_p = mpmath.log(p)
    return mpmath.findroot(lambda x: mpmath.log(mpmath.erfc(x / mpmath.sqrt(2))) - log_p,
                           mpmath.sqrt(-2 * log_p))


def norm_quantile(p) -> float:
    """Phi^-1(p), from the two-sided z of the nearer tail."""
    p = mpmath.mpf(p)
    z = two_sided_z(2 * min(p, 1 - p))
    return float(z if p > 0.5 else -z)


def intrinsic_boundary_p(alpha, factor) -> float:
    """The two-sided p of z = sqrt(factor) times the critical z of alpha."""
    return float(mpmath.erfc(mpmath.sqrt(factor) * two_sided_z(alpha) / mpmath.sqrt(2)))


def min_bf(p) -> dict:
    """The minimum Bayes factors of a two-sided p below 1 - 1/e, by calibration name."""
    z = two_sided_z(p)
    half_z2 = z * z / 2
    values = {
        "local_z": 1 if z <= 1 else z * mpmath.exp(-half_z2 + mpmath.mpf(1) / 2),
        "simple_z": min(1, 2 * mpmath.exp(-half_z2) / (1 + mpmath.exp(-4 * half_z2))),
        "els_all_priors": mpmath.exp(-half_z2),
        "e_q_log_q": -mpmath.e * (1 - mpmath.mpf(p)) * mpmath.log1p(-mpmath.mpf(p)),
    }
    return {kind: float(value) for kind, value in values.items()}


def prior_bound(fpr, bf):
    """The prior probability of the null at which a Bayes factor bf gives the
    false positive risk fpr, by Bayes' theorem, as an mpf."""
    fpr, bf = mpmath.mpf(fpr), mpmath.mpf(bf)
    return fpr / (fpr + (1 - fpr) * bf)


def lambert_w_log(log_x, branch) -> float:
    """W_branch(-e^log_x), for branch 0 or -1."""
    return float(mpmath.lambertw(-mpmath.exp(mpmath.mpf(log_x)), branch).real)


def sceptical_g(z, gamma):
    """(g_small, g_large) of BF01 = gamma as mpfs, by W-1 and W0; None where none exists."""
    zm, gm = mpmath.mpf(z), mpmath.mpf(gamma)
    x = zm ** 2 / gm ** 2 * mpmath.exp(-zm ** 2)
    if abs(zm) <= 1 or x > 1 / mpmath.e:
        return None
    return tuple(-zm ** 2 / mpmath.lambertw(-x, branch).real - 1 for branch in (-1, 0))


def bf_intrinsic(z):
    """The intrinsic Bayes factor of z by W-1, or None where it does not exist."""
    zm = mpmath.mpf(z)
    x = zm ** 2 * mpmath.exp(-zm ** 2 / 2) / mpmath.sqrt(2)
    if abs(zm) <= 1 or x > 1 / mpmath.e:
        return None
    g = zm ** 2 / -mpmath.lambertw(-x, -1).real - 1
    return float(mpmath.sqrt(1 + g) * mpmath.exp(-g / (1 + g) * zm ** 2 / 2))


def advocacy_log_bf01(z, gamma, m):
    """log BF01 - log gamma as an mpf, for the advocacy prior of relative mean
    m: in z units, mean mu = m z and variance mu^2 / (-2 log gamma)."""
    zm, log_gamma = mpmath.mpf(z), mpmath.log(mpmath.mpf(gamma))
    cv2 = -1 / (2 * log_gamma)
    mu = mpmath.mpf(m) * zm
    return (mpmath.log1p(cv2 * mu ** 2) - zm ** 2
            + (zm - mu) ** 2 / (1 + cv2 * mu ** 2)) / 2 - log_gamma


def advocacy_log_bf01_min(z, gamma):
    """The minimum of advocacy_log_bf01 over m, at the root of its cubic in (0, 1)."""
    zm = mpmath.mpf(z)
    cv2 = -1 / (2 * mpmath.log(mpmath.mpf(gamma)))
    k = cv2 * zm ** 2
    m_min = bisect(lambda m: ((k * cv2 * m + k) * m + 1 + cv2 - k) * m - 1,
                   mpmath.mpf(0), mpmath.mpf(1))
    return advocacy_log_bf01(z, gamma, m_min)


def log_or_se(a, b, c, d):
    """(log OR, se) of the cells a, b (treatment) and c, d (control) as mpfs.
    Near OR = 1 it takes log1p, as log(ad) - log(bc) cancels even at 60 digits."""
    ad, bc = a * d, b * c
    theta = (mpmath.log1p(mpmath.mpf(ad - bc) / bc) if 2 * abs(ad - bc) < bc
             else mpmath.log(mpmath.mpf(ad)) - mpmath.log(mpmath.mpf(bc)))
    return theta, mpmath.sqrt(mpmath.fsum(1 / mpmath.mpf(x) for x in (a, b, c, d)))


def pool(rows):
    """(mean, precision) of the inverse-variance pool of rows (estimate, se), as floats."""
    precision = mpmath.fsum(1 / mpmath.mpf(se) ** 2 for _, se in rows)
    mean = mpmath.fsum(mpmath.mpf(est) / mpmath.mpf(se) ** 2 for est, se in rows) / precision
    return float(mean), float(precision)


def ancred_fields(z, z_crit, se=1.0) -> dict:
    """The sceptical g, tau^2 = g se^2 and limit S = z_crit tau, the advocacy
    m and the fail-safe N of one study (r - 1) of a finding z, as mpfs, from
    r - 1 = (z/z_crit)^2 - 1 with z and z_crit taken as exact."""
    z_crit = mpmath.mpf(z_crit)
    excess = (mpmath.mpf(z) / z_crit) ** 2 - 1
    tau2 = mpmath.mpf(se) ** 2 / excess
    return {"g": 1 / excess, "tau2": tau2, "limit": z_crit * mpmath.sqrt(tau2),
            "m": -2 / excess, "n": excess}


def scepticism_limit(lower, upper):
    """The scepticism limit S = (U - L)^2 / (4 sqrt(UL)) of the interval (L, U)."""
    lower, upper = mpmath.mpf(lower), mpmath.mpf(upper)
    return (upper - lower) ** 2 / (4 * mpmath.sqrt(lower * upper))


def fixed_arm_events(n, tau2):
    """The events e per arm of n patients per arm whose trial has the log OR
    variance tau2: the smaller root of 2/e + 2/(n - e) = tau2, as an mpf, or
    None where no trial of n patients per arm carries so little information."""
    n, tau2 = mpmath.mpf(n), mpmath.mpf(tau2)
    disc = n * n - 8 * n / tau2
    return None if disc < 0 else (n - mpmath.sqrt(disc)) / 2


def ulps(x: float, reference) -> float:
    """|x - reference| in units of the last place of the float nearest reference."""
    return float(abs(mpmath.mpf(x) - reference) / math.ulp(float(reference)))
