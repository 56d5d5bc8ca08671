"""False-positive-risk analysis: p-value-to-minimum-Bayes-factor
calibrations and Reverse-Bayes bounds on the prior probability of the null.

All p-values are two-sided under the "p-equals" reading: the exact observed
p-value is the data.
"""

from __future__ import annotations

import enum
import math

from .bf import min_bf_els, min_bf_local
from .statfn import norm_quantile


class CalibrationKind(enum.Enum):
    LOCAL_Z = "local_z"
    SIMPLE_Z = "simple_z"
    E_P_LOG_P = "e_p_log_p"
    E_Q_LOG_Q = "e_q_log_q"
    ELS_ALL_PRIORS = "els_all_priors"


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"p-value must be in (0,1), got {p!r}")


def min_bf(p: float, kind: CalibrationKind) -> float:
    """Minimum BF01 associated with a two-sided p-value.

    The simple_z form 2*exp(-z^2/2)/(1+exp(-2 z^2)) is the two-sided
    density-ratio bound under simple alternatives; it is documented from
    figure values rather than a printed formula in the source material.
    """
    _check_p(p)
    if kind is CalibrationKind.E_P_LOG_P:
        return -math.e * p * math.log(p) if p < 1.0 / math.e else 1.0
    if kind is CalibrationKind.E_Q_LOG_Q:
        return -math.e * (1.0 - p) * math.log1p(-p) if p < 1.0 - 1.0 / math.e else 1.0
    # |z| from the lower tail: 1 - p/2 rounds to 1 for p below ~1e-16
    z = -norm_quantile(p / 2.0)
    if kind is CalibrationKind.LOCAL_Z:
        return min_bf_local(z)
    if kind is CalibrationKind.SIMPLE_Z:
        # saturates at 1 like the other calibrations (the raw expression
        # peaks slightly above 1 around |z| = 0.74)
        return min(1.0, 2.0 * math.exp(-z ** 2 / 2.0)
                   / (1.0 + math.exp(-2.0 * z ** 2)))
    if kind is CalibrationKind.ELS_ALL_PRIORS:
        return min_bf_els(z)
    raise ValueError(f"unknown calibration {kind!r}")


def prior_prob_for_fpr(p: float, fpr: float, kind: CalibrationKind) -> float:
    """Upper bound on Pr(H0) such that the false positive risk stays at the
    given value for this p-value."""
    _check_p(p)
    if not (0.0 < fpr < 1.0):
        raise ValueError(f"FPR must be in (0,1), got {fpr!r}")
    bf = min_bf(p, kind)
    return 1.0 / (1.0 + (1.0 - fpr) / fpr * bf)


def fpr_forward(prior_h0: float, bf01: float) -> float:
    """False positive risk from a prior null probability and a BF01."""
    if not (0.0 < prior_h0 < 1.0):
        raise ValueError(f"prior probability must be in (0,1), got {prior_h0!r}")
    if not (bf01 > 0.0 and math.isfinite(bf01)):
        raise ValueError(f"BF01 must be positive and finite, got {bf01!r}")
    odds = bf01 * prior_h0 / (1.0 - prior_h0)
    return odds / (1.0 + odds)


def prior_bound_fpr_equals_p(p: float, kind: CalibrationKind) -> float:
    """Upper bound on Pr(H0) under the claim that the FPR equals the p-value."""
    return prior_prob_for_fpr(p, p, kind)
