"""Reverse-Bayes toolkit for evidence assessment and research synthesis.

Fixed-effect meta-analysis with reverse prior extraction and conflict
diagnostics, Analysis of Credibility (sceptical and advocacy priors),
intrinsic credibility, Bayes-factor-based credibility analysis, and
false-positive-risk calibrations.
"""

from importlib import resources

from .errors import DataError, NonexistenceError
from .model import (DEFAULT_LEVEL, EffectEstimate, NormalPrior,
                    PosteriorSummary, PriorRole, Study, ci_limits,
                    estimate_from_counts, forward_odds, read_study_table,
                    reverse_prior_odds)
from .meta import (FailSafeResult, MetaResult, StudyDiagnostics, box_check,
                   failsafe_n, forward_update, pool, reverse_update)
from .ancred import (AdvocacyAnalysis, CredibilityVerdict, EquivalentTrial,
                     ScepticalAnalysis, advocacy_limit, advocacy_prior,
                     credibility_ratio, credibility_ratio_bound,
                     equivalent_trial, intrinsic_boundary_p,
                     intrinsic_credibility, p_intrinsic, p_rep,
                     sceptical_analysis, sceptical_relative_variance,
                     scepticism_limit)
from .bf import (BfAdvocacySolution, BfScepticalSolution, advocacy_for_gamma,
                 advocacy_prior_interval_or, bf01_normal_prior, bf01_sceptical,
                 bf12_sceptical_vs_optimistic, bf_intrinsic, min_bf_els,
                 min_bf_local, sceptical_g_for_gamma, z_gamma)
from .fpr import (CalibrationKind, fpr_forward, min_bf,
                  prior_bound_fpr_equals_p, prior_prob_for_fpr)
from .statfn import (Branch, find_root, lambert_w_log, norm_cdf, norm_quantile,
                     two_sided_p)

__version__ = "0.1.0"


def bundled_dataset_path() -> str:
    """Path of the bundled corticosteroid meta-analysis table (transcribed
    from the source meta-analysis publication)."""
    return str(resources.files("revbayes") / "data" / "react2020.csv")
