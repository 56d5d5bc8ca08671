"""Analysis of Credibility: sceptical and advocacy priors, intrinsic
credibility, replication-direction probability, and prior-to-data
conversion into equivalent hypothetical trials."""

import math
import sys
from collections import namedtuple

from .errors import DataError, NonexistenceError
from .model import EffectEstimate, NormalPrior
from .statfn import (DEFAULT_ALPHA, LOG_MAX, alpha_for_level, critical_excess, critical_z,
                     exp_or_inf, two_sided_p)


# the least g = 1/(r - 1) of a finite r - 1, as 1/x rounds monotonically
_G_FLOOR = 1.0 / sys.float_info.max


class ScepticalAnalysis(namedtuple("ScepticalAnalysis", "g tau2 limit critical_interval_or")):
    """Sufficiently sceptical prior for a significant finding: g is the
    relative prior variance tau^2 / sigma^2, and limit the scepticism limit S
    on the log OR scale."""

    __slots__ = ()

    def prior(self) -> NormalPrior:
        return NormalPrior(0.0, self.tau2)


class AdvocacyAnalysis(namedtuple("AdvocacyAnalysis", "m mu tau limit cv")):
    """Advocacy prior for a non-significant finding: m is the relative prior
    mean mu / theta_hat, limit the advocacy limit AL = 2 * mu, and cv
    tau / |mu| = 1 / z_crit."""

    __slots__ = ()

    def prior(self) -> NormalPrior:
        return NormalPrior(self.mu, self.tau * self.tau)


class CredibilityVerdict(namedtuple("CredibilityVerdict", "credible reason", defaults=(None,))):
    """Whether a finding is intrinsically credible (the record is true if so), and why not."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.credible


# intrinsic_credibility's verdicts, shared: a caller that keeps them keeps no record a call
_CREDIBLE, _NOT_CREDIBLE = CredibilityVerdict(True), CredibilityVerdict(False)
_NOT_SIGNIFICANT = CredibilityVerdict(False, "not significant at this level")


class EquivalentTrial(namedtuple("EquivalentTrial", "events_per_arm patients_per_arm "
                                 "allocation_ratio per_arm_detail per_arm_cells",
                                 defaults=(None, 1.0, None, None))):
    """Hypothetical two-arm trial carrying the same information as a prior.
    per_arm_detail is ((events, patients) treatment, (events, patients)
    control), and per_arm_cells ((events, non-events) treatment, (events,
    non-events) control), both unrounded: the cells b and d that e + b and
    e + d lose where they are far below e."""

    __slots__ = ()


def sceptical_relative_variance(z: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Relative variance g of the sceptical prior pulling a significant
    finding back to the credibility boundary."""
    excess = critical_excess(z, alpha)
    if excess <= 0.0:
        raise NonexistenceError(
            f"sufficiently sceptical prior undefined: finding not significant "
            f"at alpha={alpha} (z={z:.4g})")
    if excess < math.inf:
        return 1.0 / excess
    # (z/z_crit)^2 overflows: g = z_crit^2/(z^2 - z_crit^2) as two ratios
    z_crit, z = critical_z(alpha), abs(z)
    return z_crit / (z - z_crit) * (z_crit / (z + z_crit))


def _check_significant(lower: float, upper: float, quantity: str) -> None:
    # by the limits' signs, as their product can underflow to 0
    if not (lower > 0.0 and upper > 0.0 or lower < 0.0 and upper < 0.0):
        raise NonexistenceError(
            f"{quantity} requires a significant interval (limits of the same sign)")


def scepticism_limit(lower: float, upper: float) -> float:
    """Half-width S = (U - L)^2 / (4 sqrt(UL)) of the critical prior interval,
    from the CI limits, as (h/sqrt|U|)(h/sqrt|L|) with h = (U - L)/2, so that
    no step leaves the float range unless S does."""
    _check_significant(lower, upper, "scepticism limit")
    half = (upper - lower) / 2.0
    return half / math.sqrt(abs(upper)) * (half / math.sqrt(abs(lower)))


def sceptical_analysis(estimate: EffectEstimate,
                       alpha: float = DEFAULT_ALPHA) -> ScepticalAnalysis:
    """Full sceptical-prior analysis of a significant estimate."""
    g, se = sceptical_relative_variance(estimate.z, alpha), estimate.se
    if g >= _G_FLOOR and se * se < math.inf:
        tau2 = g * (se * se)
    else:   # r - 1 overflows, and g se^2 would keep few bits of a subnormal g, or se^2 overflows
        z_crit, z = critical_z(alpha), abs(estimate.z)
        tau2 = z_crit * (se / (z - z_crit)) * (z_crit * (se / (z + z_crit)))
    limit = critical_z(alpha) * math.sqrt(tau2)
    return ScepticalAnalysis(g, tau2, limit, (exp_or_inf(-limit), exp_or_inf(limit)))


def advocacy_prior(estimate: EffectEstimate,
                   alpha: float = DEFAULT_ALPHA) -> AdvocacyAnalysis:
    """Advocacy prior pushing a non-significant finding to just credible.

    The prior's quantile nearer zero sits exactly at zero, so its
    coefficient of variation is fixed at 1/z_crit.
    """
    excess = critical_excess(estimate.z, alpha)
    if excess >= 0.0:
        raise NonexistenceError("advocacy prior undefined: finding " + (
            "significant" if excess else "on the significance boundary") + f" at alpha={alpha}")
    if estimate.theta_hat == 0.0:
        raise NonexistenceError("advocacy prior undefined for a zero point estimate")
    m = -2.0 / excess
    mu = m * estimate.theta_hat
    z_crit = critical_z(alpha)
    tau = abs(mu) / z_crit
    return AdvocacyAnalysis(m, mu, tau, 2.0 * mu, 1.0 / z_crit)


# Intrinsic credibility is r = z^2/z_crit^2 > factor: with the sceptical g = 1/(r - 1),
# the prior flavour's z^2 > z_crit^2 g is r^2 - r - 1 > 0, so r > phi (the golden
# ratio), and the predictive flavour's z^2/(1 + g) > z_crit^2 is r > 2.
_INTRINSIC_FACTOR = {"prior_based": (1.0 + math.sqrt(5.0)) / 2.0, "predictive_based": 2.0}


def intrinsic_credibility(estimate: EffectEstimate,
                          alpha: float = DEFAULT_ALPHA,
                          flavor: str = "predictive_based") -> CredibilityVerdict:
    """Can the finding withstand the sceptical prior derived from itself?

    flavor "prior_based": the estimate must lie outside the critical prior
    interval. flavor "predictive_based": the prior-predictive tail
    probability of the estimate must fall below alpha.

    The verdict is one of three shared constants (credible, not credible,
    and not significant with its reason), so two calls with the same outcome
    return the same record.
    """
    factor = _INTRINSIC_FACTOR[flavor]
    excess = critical_excess(estimate.z, alpha)
    if excess <= 0.0:
        return _NOT_SIGNIFICANT
    return _CREDIBLE if excess > factor - 1.0 else _NOT_CREDIBLE   # exact: factor is in [1, 2]


def intrinsic_boundary_p(alpha: float = DEFAULT_ALPHA,
                         flavor: str = "predictive_based") -> float:
    """Largest two-sided p-value that is still intrinsically credible at
    this alpha: that of the z with z^2 = factor * z_crit^2."""
    return two_sided_p(math.sqrt(_INTRINSIC_FACTOR[flavor]) * critical_z(alpha))


def credibility_ratio(lower: float, upper: float) -> float:
    """Ratio of the CI limits, the quick check for intrinsic credibility."""
    _check_significant(lower, upper, "credibility ratio")
    return max(abs(upper / lower), abs(lower / upper))


def credibility_ratio_bound() -> float:
    """Critical credibility ratio implied by the predictive-based boundary.

    At that boundary z = sqrt(2) z_crit, so the ratio of the CI limits,
    (z + z_crit) / (z - z_crit), is (1 + sqrt(2))^2 at every alpha.
    """
    return 3.0 + 2.0 * math.sqrt(2.0)


def p_intrinsic(z: float) -> float:
    """Smallest level at which the finding is intrinsically credible."""
    if not math.isfinite(z):
        raise DataError(f"z must be finite, got {z!r}")
    return two_sided_p(z / math.sqrt(2.0))


def p_rep(z: float) -> float:
    """Probability that a replication estimate shares the original's sign."""
    return 1.0 - p_intrinsic(z) / 2.0


def equivalent_trial(prior: NormalPrior,
                     event_rate: float | None = None,
                     patients_per_arm: float | None = None) -> EquivalentTrial:
    """Convert a normal prior into the hypothetical two-arm trial whose data
    carry the same information.

    A mean-zero prior with variance tau^2 corresponds to 2/tau^2 events per
    arm of arbitrarily large arms; pass either patients_per_arm for finite
    arms or event_rate to fix the per-arm event fraction. For a nonzero mean
    only event_rate applies: a target control event rate selects among the
    integer-event constructions that match the prior mean and variance exactly.
    """
    tau2 = prior.variance   # positive and finite: NormalPrior checks it
    if event_rate is not None and not (0.0 < event_rate < 1.0):
        raise DataError(f"event rate must be in (0,1), got {event_rate!r}")
    mu = prior.mean
    if patients_per_arm is not None and (mu != 0.0 or event_rate is not None):
        raise DataError("patients_per_arm applies only to a mean-zero prior "
                        "without an event rate")

    if mu == 0.0:
        if event_rate is not None:
            information = tau2 * event_rate * (1.0 - event_rate)   # 2/n, which can underflow
            n = 2.0 / information if information > 0.0 else math.inf
            if n == math.inf:
                raise NonexistenceError(
                    f"no equivalent trial: its patients per arm are outside the "
                    f"floating-point range (prior variance {tau2:.6g}, event rate "
                    f"{event_rate:.6g})")
            return EquivalentTrial(event_rate * n, n)
        if patients_per_arm is not None:
            # events e per arm of N patients: 2/e + 2/(N-e) = tau^2. Its smaller
            # root (N - sqrt(N^2 - 8N/tau^2))/2 cancels, so e is taken as
            # (4/tau^2)/(1 + sqrt(w)), with w = 1 - 8/(N tau^2) rounded once
            # from the exact ratios of N and tau^2, as w cancels near the least N
            n = float(patients_per_arm)
            if not 0.0 < n < math.inf:
                raise DataError(f"patients per arm must be positive and finite, "
                                f"got {patients_per_arm!r}")
            (a, b), (t, u) = n.as_integer_ratio(), tau2.as_integer_ratio()
            w = (a * t - 8 * b * u) / (a * t)
            if w < 0.0:
                raise DataError(
                    f"no trial with {patients_per_arm} patients per arm carries "
                    f"as little information as variance {tau2:.4g}")
            return EquivalentTrial(4.0 / tau2 / (1.0 + math.sqrt(w)), n)
        return EquivalentTrial(2.0 / tau2)

    if abs(mu) > LOG_MAX:
        raise NonexistenceError(
            f"no equivalent trial: the allocation ratio exp({mu:.6g}) is "
            f"outside the floating-point range")
    allocation = math.exp(mu)
    if event_rate is None:
        # large-arm limit: non-event cells contribute nothing to the variance
        return EquivalentTrial(2.0 / tau2, None, allocation)

    # Equal event counts e in both arms; non-event cells b (treatment) and
    # d (control) solve {log(d/b) = mu, 2/e + 1/b + 1/d = tau^2}. The
    # control rate e/(e+d) rises with e and equals the target at e_star, so
    # the closest integer construction is one of its two neighbours, the lower
    # on a tie.
    e_star = (2.0 + (1.0 + allocation) * event_rate / (1.0 - event_rate)) / tau2
    if math.isinf(e_star):
        raise NonexistenceError(
            f"no equivalent trial: its event count is outside the "
            f"floating-point range (prior variance {tau2:.6g})")
    e_floor = math.floor(e_star)
    # Far past 2^53 both neighbours are one float, and 2/e can round to tau^2,
    # which leaves the non-event cells no room; or the cells overflow.
    e = None
    for n in (float(e_floor), float(e_floor + 1)):
        if n > 0.0 and (room := tau2 - 2.0 / n) > 0.0:
            d_n = (1.0 + allocation) / room
            miss = abs(n / (n + d_n) - event_rate)
            if e is None or miss < e_miss:
                e, d, e_miss, e_room = n, d_n, miss, room
    if e is not None:
        b = (1.0 + 1.0 / allocation) / e_room
    if e is None or e + max(b, d) == math.inf:
        raise NonexistenceError(
            f"no equivalent trial: its patients per arm are outside the floating-point "
            f"range (prior variance {tau2:.6g}, event count {e_star:.6g}, event rate "
            f"{event_rate:.6g})")
    return EquivalentTrial(e, None, allocation, ((e, e + b), (e, e + d)), ((e, b), (e, d)))


# ---------------------------------------------------------------- the ancred subcommand


def cmd_ancred(args) -> tuple:
    # the cli's runner, here so that no other subcommand's process compiles it;
    # it imports report here, so that importing ancred loads no report
    from .report import estimate_payload
    from .options import UsageError
    has_est = args.estimate is not None or args.se is not None
    has_ci = args.lower is not None or args.upper is not None
    if has_est == has_ci:
        raise UsageError("supply exactly one of --estimate/--se or --lower/--upper")
    if has_est:
        if args.estimate is None or args.se is None:
            raise UsageError("--estimate and --se must be given together")
        est = EffectEstimate(args.estimate, args.se)
    else:
        if args.lower is None or args.upper is None:
            raise UsageError("--lower and --upper must be given together")
        est = EffectEstimate.from_ci(args.lower, args.upper, args.level)

    alpha = alpha_for_level(args.level)
    results: dict = {"estimate": estimate_payload(*est, args.level)}
    if est.significant(alpha):
        mode, analysis = "sceptical", sceptical_analysis(est, alpha)
        tau2 = analysis.tau2
    else:
        mode, analysis = "advocacy", advocacy_prior(est, alpha)
        tau2 = analysis.tau * analysis.tau
    # tau^2 = g se^2 or (mu / z_crit)^2 can leave the float range from finite
    # input, as at g = 0, the sceptical limit once z * z overflows
    if not 0.0 < tau2 < math.inf:
        raise NonexistenceError(f"the {mode} prior variance tau^2 is outside the "
                                f"floating-point range (it computes as {tau2!r})")
    payload = analysis._asdict()
    if mode == "sceptical":
        lo, hi = results["estimate"]["ci_log"]
        payload.update(
            scepticism_limit=payload.pop("limit"),
            credibility_ratio=credibility_ratio(lo, hi),
            intrinsically_credible_prior=bool(
                intrinsic_credibility(est, alpha, "prior_based")),
            intrinsically_credible_predictive=bool(
                intrinsic_credibility(est, alpha, "predictive_based")))
    else:
        payload.update(advocacy_limit=payload.pop("limit"),
                       advocacy_limit_or=exp_or_inf(analysis.limit))
    payload.update(p_intrinsic=p_intrinsic(est.z), p_rep=p_rep(est.z),
                   equivalent_trial=_trial_payload(equivalent_trial(analysis.prior(),
                                                                    args.rate)))
    results["mode"] = mode
    results[mode] = payload
    return results, {"estimate": est.theta_hat, "se": est.se, "level": args.level,
                     "rate": args.rate}, []


def _trial_payload(trial) -> dict:
    payload = {"events_per_arm": trial.events_per_arm,
               "allocation_ratio": trial.allocation_ratio}
    if trial.patients_per_arm is not None:
        payload["patients_per_arm"] = trial.patients_per_arm
    if trial.per_arm_detail is not None:
        (et, nt), (ec, nc) = trial.per_arm_detail
        payload["treatment_arm"] = {"events": et, "patients": nt}
        payload["control_arm"] = {"events": ec, "patients": nc}
    return payload
