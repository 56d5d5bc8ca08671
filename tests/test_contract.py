"""The error contract over extreme valid input: every public scalar function of
statfn, model, ancred, bf and fpr, meta's forward_update and reverse_update,
and pool on two-study tables either returns with no nan in what it returns
or raises DataError or NonexistenceError."""

import inspect
import math
from itertools import product

from revbayes import ancred, bf, fpr, meta, model, statfn
from revbayes.bf import Branch
from revbayes.errors import DataError, NonexistenceError
from revbayes.fpr import CalibrationKind

THETAS = [0.0] + [sign * x for x in (1e-300, 1e-160, 1.0, 40.0, 1e150, 1e300) for sign in (1, -1)]
SES = [1e-300, 1e-160, 1e-10, 1.0, 1e10, 1e160, 1e300]
PROBS = [5e-324, 1e-310, 1e-300, 0.05, 1.0 - 1e-16]   # p-values, FPRs, alphas and levels
GAMMAS = [1e-300, 0.1, 1.0 - 1e-12]
VARIANCES = [1e-300, 1.0, 1e300]
GS = [1e-300, 1.0, 1e300, math.inf]
# the public functions that take no scalar input: the root finder of a callable
# and the subcommands' runners
NOT_SCALAR = {"find_root", "cmd_ancred", "cmd_bf", "cmd_fpr"}


def nans(value) -> bool:
    """Whether a float in value, or in the tuples nested in it, is nan."""
    if type(value) is float:
        return math.isnan(value)
    return isinstance(value, tuple) and any(map(nans, value))


class TestErrorContract:
    def test_extreme_inputs_return_or_raise_typed(self):
        failures, covered = [], set()

        def call(function, *args):
            """function(*args), or None where it raised a typed error; a nan or
            any other exception is a failure."""
            covered.add(function.__name__)
            try:
                value = function(*args)
            except (DataError, NonexistenceError):
                return None
            except Exception as exc:   # any other exception breaks the contract
                failures.append(f"{function.__name__}{args!r}: {type(exc).__name__}: {exc}")
                return None
            if nans(value):
                failures.append(f"{function.__name__}{args!r} = {value!r}")
            return value

        estimates = [e for e in (call(model.EffectEstimate, t, s) for t, s in product(THETAS, SES))
                     if e is not None]
        priors = [call(model.NormalPrior, m, v) for m, v in product(THETAS, VARIANCES)]
        zs = sorted({e.z for e in estimates})
        intervals = [(lo, hi) for lo, hi in product(THETAS, THETAS) if lo < hi]
        assert len(estimates) > 80 and len(priors) == 39

        for z in zs:
            for function in (statfn.norm_pdf, statfn.exp_or_inf, statfn.two_sided_p,
                             statfn.min_bf_local, statfn.min_bf_els, ancred.p_intrinsic,
                             ancred.p_rep):
                call(function, z)
            for g in GS:
                call(bf.bf01_sceptical, z, g)
                call(bf.bf12_sceptical_vs_optimistic, z, g)
            for gamma in GAMMAS:
                call(bf.sceptical_g_for_gamma, z, gamma)
        for p in PROBS:
            for function in (statfn.norm_quantile, statfn.two_sided_z, statfn.critical_z,
                             statfn.alpha_for_level, ancred.intrinsic_boundary_p):
                call(function, p)
            call(ancred.intrinsic_boundary_p, p, "prior_based")
            for kind in CalibrationKind:
                call(fpr.min_bf, p, kind)
                call(fpr.prior_bound_fpr_equals_p, p, kind)
                for fpr_value in PROBS:
                    call(fpr.prior_prob_for_fpr, p, fpr_value, kind)
        for n, d, shift in product([0, 3, -3, 10 ** 400, -10 ** 400], [1, 3, 10 ** 400],
                                   [0, 2000, -2000]):
            call(statfn.exact_quotient, n, d, shift)
        for gamma in GAMMAS:
            call(bf.z_gamma, gamma)
        for log_x, branch in product([-1.0, -1.5, -2.0, -745.0, -1e300], Branch):
            call(bf.lambert_w_log, log_x, branch)
        call(ancred.credibility_ratio_bound)
        for lo, hi in intervals:
            call(ancred.scepticism_limit, lo, hi)
            call(ancred.credibility_ratio, lo, hi)
            call(model.EffectEstimate.from_ci, lo, hi)
        for center, sd, level in product(THETAS, SES, PROBS):
            call(statfn.interval, center, sd, level)

        for est in estimates:
            call(lambda e: (e.z, e.p_value), est)
            call(lambda e: e.precision, est)
            call(bf.bf_intrinsic, est)
            for prob in PROBS:   # a level, and an alpha
                call(model.ci_limits, est, prob)
                call(est.ci, prob)
                call(est.significant, prob)
                call(statfn.critical_excess, est.theta_hat, est.se, prob)
                for flavor in ("prior_based", "predictive_based"):
                    call(ancred.intrinsic_credibility, est, prob, flavor)
                for analysis in (call(ancred.sceptical_analysis, est, prob),
                                 call(ancred.advocacy_prior, est, prob)):
                    if analysis is not None:
                        call(analysis.prior)
            for gamma in GAMMAS:
                call(bf.sceptical_g_for_gamma, est.z, gamma, est.se)
                call(bf.advocacy_for_gamma, est, gamma)
                for m in (1e-300, 1.0, 1e300):
                    call(bf.advocacy_prior_interval_or, est, m, gamma)
            for prior in priors:
                call(bf.bf01_normal_prior, est, prior)

        for prior in priors:
            call(lambda p: (p.precision, p.sd), prior)
            call(prior.ci, 0.95)
            for rate in [None, *PROBS]:
                call(ancred.equivalent_trial, prior, rate)
            for patients in (1.0, 1e10, 1e300):
                call(ancred.equivalent_trial, prior, None, patients)

        means = THETAS + [math.inf, -math.inf, math.nan]
        precisions = [0.0, 1e-300, 1.0, 1e300, math.inf, math.nan]
        # PosteriorSummary rejects a precision <= 0 and a non-finite field
        posteriors = [p for p in (call(meta.PosteriorSummary, m, k)
                                  for m, k in product(means, precisions)) if p is not None]
        assert len(posteriors) == len(THETAS) * 3
        for est in estimates:
            for mean, precision in product(means, precisions):
                call(meta.forward_update, mean, precision, est)
            for posterior in posteriors:
                call(meta.reverse_update, posterior, est)
        for (theta_a, se_a), (theta_b, se_b) in product(product(THETAS, SES), repeat=2):
            # the fields before t_box and p_box, which are nan where a leave-one-out
            # prior is flat, as MetaResult says
            call(lambda a, b: meta.pool([a, b])[:6], meta.Study("a", estimate=theta_a, se=se_a),
                 meta.Study("b", estimate=theta_b, se=se_b))

        assert failures[:20] == [], f"{len(failures)} breaches"
        public = {name for module in (statfn, model, ancred, bf, fpr)
                  for name, value in vars(module).items()
                  if inspect.isfunction(value) and value.__module__ == module.__name__
                  and not name.startswith("_")}
        assert public - NOT_SCALAR <= covered
