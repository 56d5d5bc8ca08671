"""Reverse-Bayes toolkit for evidence assessment and research synthesis.

Fixed-effect meta-analysis with reverse prior extraction and conflict
diagnostics, Analysis of Credibility (sceptical and advocacy priors),
intrinsic credibility, Bayes-factor-based credibility analysis, and
false-positive-risk calibrations.

The exports below are resolved on first access (PEP 562), so that
`import revbayes` loads no submodule and a process imports only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

# export name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("errors", "DataError NonexistenceError"),
    ("model", "DEFAULT_LEVEL EffectEstimate NormalPrior ci_limits"),
    ("meta", "FailSafeResult MetaResult PosteriorSummary Study StudyDiagnostics "
             "estimate_from_counts failsafe_n forward_update pool read_study_table "
             "reverse_update"),
    ("ancred", "AdvocacyAnalysis CredibilityVerdict EquivalentTrial ScepticalAnalysis "
               "advocacy_prior credibility_ratio credibility_ratio_bound "
               "equivalent_trial intrinsic_boundary_p intrinsic_credibility p_intrinsic "
               "p_rep sceptical_analysis sceptical_relative_variance scepticism_limit"),
    ("bf", "BfAdvocacySolution BfScepticalSolution Branch advocacy_for_gamma "
           "advocacy_prior_interval_or bf01_normal_prior bf01_sceptical "
           "bf12_sceptical_vs_optimistic bf_intrinsic find_root lambert_w_log "
           "sceptical_g_for_gamma z_gamma"),
    ("fpr", "CalibrationKind min_bf prior_bound_fpr_equals_p prior_prob_for_fpr"),
    ("statfn", "min_bf_els min_bf_local norm_quantile two_sided_p"),
) for name in names.split()}

__all__ = [*_EXPORTS, "bundled_dataset_path"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value   # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def bundled_dataset_path() -> str:
    """Path of the bundled corticosteroid meta-analysis table (transcribed
    from the source meta-analysis publication)."""
    from importlib import resources
    return str(resources.files("revbayes") / "data" / "react2020.csv")
