"""False-positive-risk analysis: p-value-to-minimum-Bayes-factor calibrations
and Reverse-Bayes bounds on the prior probability of the null. Like bf, it takes
the minimum Bayes factors of a z-value from statfn, so a process that runs fpr
never loads bf, and one that runs bf never loads fpr.

All p-values are two-sided under the "p-equals" reading: the exact observed
p-value is the data.
"""

import enum
import math

from .errors import DataError
from .statfn import FLOAT_MIN, critical_z, min_bf_els, min_bf_local


class CalibrationKind(enum.Enum):
    LOCAL_Z = "local_z"
    SIMPLE_Z = "simple_z"
    E_P_LOG_P = "e_p_log_p"
    E_Q_LOG_Q = "e_q_log_q"
    ELS_ALL_PRIORS = "els_all_priors"


# the members as globals: on Python 3.11 CalibrationKind.X costs ~100 ns a lookup
LOCAL_Z, SIMPLE_Z, E_P_LOG_P, E_Q_LOG_Q, ELS_ALL_PRIORS = CalibrationKind


def min_bf(p: float, kind: CalibrationKind) -> float:
    """Minimum BF01 associated with a two-sided p-value.

    The simple_z form 2*exp(-z^2/2)/(1+exp(-2 z^2)) is the two-sided
    density-ratio bound under simple alternatives; it is documented from
    figure values rather than a printed formula in the source material.
    """
    if not (0.0 < p < 1.0):
        raise DataError(f"p-value must be in (0,1), got {p!r}")
    if kind is E_P_LOG_P:
        return -math.e * p * math.log(p) if p < 1.0 / math.e else 1.0
    if kind is E_Q_LOG_Q:
        return -math.e * (1.0 - p) * math.log1p(-p) if p < 1.0 - 1.0 / math.e else 1.0
    z = critical_z(p)   # cached: a caller's next calibration asks for the same p
    if kind is LOCAL_Z:
        return min_bf_local(z)
    if kind is SIMPLE_Z:
        bf = 2.0 * math.exp(-z * z / 2.0) / (1.0 + math.exp(-2.0 * z * z))
        if bf < FLOAT_MIN:   # rounded once, as in min_bf_local; the denominator is 1
            bf = math.exp(math.log(2.0) - z * z / 2.0)
        # saturates at 1 like the other calibrations (the raw expression
        # peaks slightly above 1 around |z| = 0.74)
        return min(1.0, bf)
    if kind is ELS_ALL_PRIORS:
        return min_bf_els(z)
    raise TypeError(f"unknown calibration {kind!r}")   # a caller's bug, not input


def prior_prob_for_fpr(p: float, fpr: float, kind: CalibrationKind) -> float:
    """Upper bound on Pr(H0) such that the false positive risk stays at the
    given value for this p-value."""
    bf = min_bf(p, kind)   # checks p, so a bad p is reported before a bad FPR
    if not (0.0 < fpr < 1.0):
        raise DataError(f"FPR must be in (0,1), got {fpr!r}")
    # Bayes' theorem solved for the prior: no (1 - fpr) / fpr to overflow
    return fpr / (fpr + (1.0 - fpr) * bf)


def prior_bound_fpr_equals_p(p: float, kind: CalibrationKind) -> float:
    """Upper bound on Pr(H0) under the claim that the FPR equals the p-value."""
    return prior_prob_for_fpr(p, p, kind)


# ---------------------------------------------------------------- the fpr subcommand


def cmd_fpr(args) -> tuple:
    # the cli's runner, as in ancred, with the report's Table for the grid
    from .report import Table
    kinds = (list(CalibrationKind) if args.calibration == "all"
             else [CalibrationKind(args.calibration)])

    def bound(p, kind):
        return prior_prob_for_fpr(p, p if args.fpr_equals_p else args.fpr, kind)

    results: dict = {
        "p": args.p,
        "fpr": args.p if args.fpr_equals_p else args.fpr,
        "fpr_equals_p": args.fpr_equals_p,
        "min_bf": {k.value: min_bf(args.p, k) for k in kinds},
        "prior_bound": {k.value: bound(args.p, k) for k in kinds},
    }
    if args.grid:
        n = 200
        lo, hi = math.log(1e-4), math.log(0.5)
        grid_kinds = [CalibrationKind.LOCAL_Z, CalibrationKind.SIMPLE_Z,
                      CalibrationKind.E_P_LOG_P, CalibrationKind.E_Q_LOG_Q]
        ps = [math.exp(lo + (hi - lo) * i / n) for i in range(n + 1) for _ in grid_kinds]
        kinds = grid_kinds * (n + 1)
        results["grid"] = Table([0, 1, 2], [ps, [kind.value for kind in kinds],
                                            list(map(bound, ps, kinds))])
    return results, {"p": args.p, "fpr": args.fpr, "calibration": args.calibration,
                     "fpr_equals_p": args.fpr_equals_p, "grid": args.grid}, []
