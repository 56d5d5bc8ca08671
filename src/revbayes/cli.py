"""Command-line front end: subcommand dispatch, text rendering, and
machine-readable reports.

Exit codes: 0 success, 1 usage error, 2 data error, 3 mathematical
nonexistence (e.g. sceptical prior undefined).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import DataError, NonexistenceError
from .model import EffectEstimate, read_study_table
from .meta import failsafe_n, pool
from .ancred import (advocacy_prior, credibility_ratio, equivalent_trial,
                     intrinsic_credibility, p_intrinsic, p_rep,
                     sceptical_analysis)
from .bf import (advocacy_for_gamma, advocacy_prior_interval_or,
                 bf12_sceptical_vs_optimistic, bf_intrinsic, min_bf_els,
                 min_bf_local, sceptical_g_for_gamma, z_gamma)
from .fpr import CalibrationKind, min_bf, prior_prob_for_fpr
from .statfn import exp_or_inf


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_args(args: dict) -> str:
    canon = json.dumps(args, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return text if math.isfinite(x) else f'"{text}"'


_JSON_SCALARS = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__,
                 bool: {True: "true", False: "false"}.__getitem__,
                 type(None): lambda _: "null"}


def render_json(value) -> str:
    """`value` as strict RFC 8259 JSON, with the bytes of
    json.dumps(value, sort_keys=True, indent=2) for every finite value.

    json.dumps is not used: given an indent, the standard library drops its
    C encoder for a pure-Python generator chain, which spends most of a
    10 000-study `meta` report. This renderer appends to one flat chunk
    list and joins it once. A non-finite float becomes the string of its
    repr ("inf", "-inf" or "nan"), where json.dumps would write the
    non-standard Infinity and NaN tokens; null keeps its meaning of "not
    applicable". Anything but a dict, list, tuple, str, int, float, bool or
    None raises TypeError, as in json.dumps.
    """
    chunks: list[str] = []
    _render(value, "\n", chunks.append)
    return "".join(chunks)


def _render(value, newline: str, emit) -> None:
    # a scalar item is written in its container's loop, without a recursive call
    kind = type(value)
    if kind is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                key = _json_key(key)
            encode = _JSON_SCALARS.get(type(item))
            if encode is None:
                emit(sep + encode_basestring_ascii(key) + ": ")
                _render(item, inner, emit)
            else:
                emit(sep + encode_basestring_ascii(key) + ": " + encode(item))
            sep = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            encode = _JSON_SCALARS.get(type(item))
            if encode is None:
                emit(sep)
                _render(item, inner, emit)
            else:
                emit(sep + encode(item))
            sep = "," + inner
        emit(newline + "]")
    else:
        encode = _JSON_SCALARS.get(kind)
        if encode is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        emit(encode(value))


def _json_key(key) -> str:
    # json.dumps writes a scalar key as a string of its text
    if type(key) is float:
        return float.__repr__(key)
    if type(key) not in (int, bool, type(None)):
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(key).__name__}")
    return _JSON_SCALARS[type(key)](key)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_bf(bf: float) -> str:
    if bf == 0.0:   # underflow: minimum BFs at |z| beyond ~38.6
        return "0"
    if bf < 1.0:
        return f"1/{1.0 / bf:.3g}"
    return f"{bf:.3g}"


def _estimate_payload(est: EffectEstimate, level: float) -> dict:
    lo, hi = est.ci(level)
    return {
        "log_or": est.theta_hat, "se": est.se, "z": est.z, "p": est.p_value,
        "ci_log": [lo, hi], "or": exp_or_inf(est.theta_hat),
        "ci_or": [exp_or_inf(lo), exp_or_inf(hi)], "level": level,
    }


# ---------------------------------------------------------------- meta


def cmd_meta(args) -> dict:
    studies = read_study_table(args.file)
    result = pool(studies)
    fsn = failsafe_n(result, args.level)
    pooled_est = result.pooled.as_estimate()

    per_study = []
    for diag in result.per_study:
        estimate = _estimate_payload(diag.estimate, args.level)
        loo = diag.leave_one_out_prior
        p_box = None if math.isnan(diag.p_box) else diag.p_box
        per_study.append({
            "id": diag.study_id,
            "estimate": estimate,
            "leave_one_out_prior": (None if loo is None else
                                    {"mean": loo.mean, "precision": loo.precision}),
            "t_box": None if math.isnan(diag.t_box) else diag.t_box,
            "p_box": p_box,
            "forest_row": [diag.study_id, estimate["log_or"], *estimate["ci_log"],
                           estimate["p"], p_box],
        })

    report = {
        "command": "meta",
        "input_digest": _digest_file(args.file),
        "results": {
            "pooled": _estimate_payload(pooled_est, args.level),
            "pooled_precision": result.pooled.precision,
            "n_studies": result.n_studies,
            "fail_safe_n": {"n_exact": fsn.n_exact, "n_integer": fsn.n_integer,
                            "significant": fsn.significant, "reason": fsn.reason},
            "per_study": per_study,
        },
        "warnings": ([] if result.n_studies > 1 else
                     ["single-study table: fail-safe N refers to n=1"]),
    }
    return report


def _print_meta(report: dict, scale: str) -> None:
    res = report["results"]
    pooled = res["pooled"]
    if scale == "or":
        lo, hi = pooled["ci_or"]
        print(f"pooled OR {pooled['or']:.2f} [{_fmt(lo)}, {_fmt(hi)}]"
              f" at level {pooled['level']:g}")
    else:
        lo, hi = pooled["ci_log"]
        print(f"pooled log OR {_fmt(pooled['log_or'])} [{_fmt(lo)}, {_fmt(hi)}]"
              f" at level {pooled['level']:g}")
    print(f"posterior precision {res['pooled_precision']:.1f}"
          f" from {res['n_studies']} studies")
    print()
    print(f"{'study':<16}{'logOR':>8}{'low':>8}{'high':>8}{'p':>10}"
          f"{'loo mean':>10}{'loo prec':>10}{'t_box':>8}{'p_box':>8}")
    for row in res["per_study"]:
        est = row["estimate"]
        loo = row["leave_one_out_prior"]
        loo_mean = "-" if loo is None else f"{loo['mean']:.2f}"
        loo_prec = "-" if loo is None else f"{loo['precision']:.1f}"
        t_box = "-" if row["t_box"] is None else f"{row['t_box']:.2f}"
        p_box = "-" if row["p_box"] is None else f"{row['p_box']:.2f}"
        print(f"{row['id']:<16}{est['log_or']:>8.2f}{est['ci_log'][0]:>8.2f}"
              f"{est['ci_log'][1]:>8.2f}{est['p']:>10.4f}"
              f"{loo_mean:>10}{loo_prec:>10}"
              f"{t_box:>8}{p_box:>8}")
    fsn = res["fail_safe_n"]
    print()
    if fsn["significant"]:
        print(f"fail-safe N: {fsn['n_exact']:.1f} (round up to {fsn['n_integer']})")
    else:
        print(f"fail-safe N: 0 ({fsn['reason']})")
    for w in report["warnings"]:
        print(f"warning: {w}")


# ---------------------------------------------------------------- ancred


def cmd_ancred(args) -> dict:
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

    alpha = 1.0 - args.level
    results: dict = {"estimate": _estimate_payload(est, args.level)}
    if est.significant(alpha):
        sc = sceptical_analysis(est, alpha)
        lo, hi = results["estimate"]["ci_log"]
        mode, prior, payload = "sceptical", sc.prior(), {
            "g": sc.g, "tau2": sc.tau2, "scepticism_limit": sc.limit,
            "critical_interval_or": list(sc.critical_interval_or),
            "credibility_ratio": credibility_ratio(lo, hi),
            "intrinsically_credible_prior": bool(
                intrinsic_credibility(est, alpha, "prior_based")),
            "intrinsically_credible_predictive": bool(
                intrinsic_credibility(est, alpha, "predictive_based")),
        }
    else:
        adv = advocacy_prior(est, alpha)
        mode, prior, payload = "advocacy", adv.prior(), {
            "m": adv.m, "mu": adv.mu, "tau": adv.tau,
            "advocacy_limit": adv.limit,
            "advocacy_limit_or": exp_or_inf(adv.limit),
            "cv": adv.cv,
        }
    payload.update(p_intrinsic=p_intrinsic(est.z), p_rep=p_rep(est.z),
                   equivalent_trial=_trial_payload(equivalent_trial(prior, args.rate)))
    results["mode"] = mode
    results[mode] = payload
    return {
        "command": "ancred",
        "input_digest": _digest_args({"estimate": est.theta_hat, "se": est.se,
                                      "level": args.level, "rate": args.rate}),
        "results": results,
        "warnings": [],
    }


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


def _print_ancred(report: dict, scale: str) -> None:
    res = report["results"]
    est = res["estimate"]
    print(f"estimate log OR {_fmt(est['log_or'])} (se {est['se']:.3f}, "
          f"p {est['p']:.4f})")
    if res["mode"] == "sceptical":
        sc = res["sceptical"]
        lo, hi = sc["critical_interval_or"]
        print(f"sceptical prior: g {sc['g']:.2f}, S {sc['scepticism_limit']:.2f}, "
              f"critical OR interval ({lo:.2f}, {hi:.2f})")
        print(f"credibility ratio {sc['credibility_ratio']:.2f}; intrinsically "
              f"credible (prior) { sc['intrinsically_credible_prior']}, "
              f"(predictive) {sc['intrinsically_credible_predictive']}")
    else:
        adv = res["advocacy"]
        print(f"advocacy prior: m {adv['m']:.2f}, mu {_fmt(adv['mu'])}, "
              f"tau {adv['tau']:.2f}")
        print(f"advocacy limit {_fmt(adv['advocacy_limit'])} "
              f"(OR {adv['advocacy_limit_or']:.2f})")
    shared = res[res["mode"]]
    print(f"p_IC {shared['p_intrinsic']:.4f}, p_rep {shared['p_rep']:.3f}")
    _print_trial(shared["equivalent_trial"])


def _print_trial(payload: dict) -> None:
    if "treatment_arm" in payload:
        t, c = payload["treatment_arm"], payload["control_arm"]
        print(f"equivalent trial: {t['events']:.0f} events of {t['patients']:.0f} "
              f"patients (treatment) vs {c['events']:.0f} of {c['patients']:.0f} "
              f"(control)")
    elif "patients_per_arm" in payload:
        print(f"equivalent trial: {payload['events_per_arm']:.0f} events of "
              f"{payload['patients_per_arm']:.0f} patients per arm")
    else:
        print(f"equivalent trial: {payload['events_per_arm']:.0f} events per arm "
              f"(arbitrarily large arms)")


# ---------------------------------------------------------------- bf


def cmd_bf(args) -> dict:
    est = EffectEstimate(args.estimate, args.se)
    z = est.z
    results: dict = {"estimate": _estimate_payload(est, args.level),
                     "min_bf_local": min_bf_local(z),
                     "min_bf_els": min_bf_els(z),
                     "mode": args.mode}
    if args.mode == "sceptical":
        sol = sceptical_g_for_gamma(z, args.gamma, est.se)
        results["sceptical"] = {
            "gamma": sol.gamma,
            "g_small": sol.g_small, "g_large": sol.g_large,
            "prior_interval_or": list(sol.prior_interval_or),
            "bf12_at_g_small": bf12_sceptical_vs_optimistic(z, sol.g_small),
        }
    elif args.mode == "advocacy":
        sol = advocacy_for_gamma(est, args.gamma)
        results["advocacy"] = {
            "gamma": sol.gamma, "z_gamma": z_gamma(args.gamma), "cv": sol.cv,
            "m_small": sol.m_small, "tau_small": sol.tau_small,
            "m_large": sol.m_large, "tau_large": sol.tau_large,
            "recommended_m": sol.recommended_m,
            "prior_interval_or": list(
                advocacy_prior_interval_or(est, sol.m_small, args.gamma)),
        }
    elif args.mode == "ic":
        results["bf_intrinsic"] = bf_intrinsic(est)
    else:
        raise UsageError(f"unknown mode {args.mode!r}")
    return {
        "command": "bf",
        "input_digest": _digest_args({"estimate": est.theta_hat, "se": est.se,
                                      "gamma": args.gamma, "mode": args.mode}),
        "results": results,
        "warnings": [],
    }


def _print_bf(report: dict, scale: str) -> None:
    res = report["results"]
    print(f"z = {res['estimate']['z']:.3f}; minBF local {_fmt_bf(res['min_bf_local'])}, "
          f"ELS bound {_fmt_bf(res['min_bf_els'])}")
    if res["mode"] == "sceptical":
        sc = res["sceptical"]
        lo, hi = sc["prior_interval_or"]
        print(f"gamma {_fmt_bf(sc['gamma'])}: g {sc['g_small']:.2f} (sceptical) "
              f"or {sc['g_large']:.3g} (ignorance)")
        print(f"sceptical prior 95% OR interval ({lo:.2f}, {hi:.2f})")
        print(f"BF12 vs optimistic prior {_fmt_bf(sc['bf12_at_g_small'])}")
    elif res["mode"] == "advocacy":
        adv = res["advocacy"]
        lo, hi = adv["prior_interval_or"]
        print(f"gamma {_fmt_bf(adv['gamma'])}: z(gamma) {adv['z_gamma']:.2f}, "
              f"CV {adv['cv']:.2f}")
        print(f"advocacy m {adv['m_small']:.2f} (tau {adv['tau_small']:.2f}, "
              f"recommended) or m {adv['m_large']:.2f} (tau {adv['tau_large']:.2f})")
        print(f"advocacy prior OR interval ({lo:.2f}, {hi:.2f})")
    else:
        print(f"BF for intrinsic credibility {_fmt_bf(res['bf_intrinsic'])}")


# ---------------------------------------------------------------- fpr


_GRID_KINDS = [CalibrationKind.LOCAL_Z, CalibrationKind.SIMPLE_Z,
               CalibrationKind.E_P_LOG_P, CalibrationKind.E_Q_LOG_Q]


def cmd_fpr(args) -> dict:
    kinds = (list(CalibrationKind) if args.calibration == "all"
             else [CalibrationKind(args.calibration)])

    def bound(p: float, kind: CalibrationKind) -> float:
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
        grid = []
        for i in range(n + 1):
            p = math.exp(lo + (hi - lo) * i / n)
            grid.extend([p, kind.value, bound(p, kind)] for kind in _GRID_KINDS)
        results["grid"] = grid
    return {
        "command": "fpr",
        "input_digest": _digest_args({"p": args.p, "fpr": args.fpr,
                                      "calibration": args.calibration,
                                      "fpr_equals_p": args.fpr_equals_p,
                                      "grid": args.grid}),
        "results": results,
        "warnings": [],
    }


def _print_fpr(report: dict, scale: str) -> None:
    res = report["results"]
    label = ("FPR = p" if res["fpr_equals_p"]
             else f"FPR {res['fpr']:g}")
    print(f"p {res['p']:g}, {label}: upper bound on Pr(H0)")
    for kind, bound in res["prior_bound"].items():
        print(f"  {kind:<16} minBF {_fmt_bf(res['min_bf'][kind])}  "
              f"Pr(H0) <= {100.0 * bound:.1f}%")
    if "grid" in res:
        print("x,series,value")
        for p, series, value in res["grid"]:
            print(f"{p:.6g},{series},{value:.10g}")


# ---------------------------------------------------------------- driver


def build_parser() -> _Parser:
    parser = _Parser(prog="revbayes",
                     description="Reverse-Bayes evidence assessment toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--level", type=float, default=0.95,
                        help="confidence/credibility level (default 0.95)")
    parser.add_argument("--json", action="store_true",
                        help="emit the deterministic JSON report")
    parser.add_argument("--scale", choices=["log", "or"], default="log",
                        help="display scale for effects (default log)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_meta = sub.add_parser("meta", help="fixed-effect meta-analysis of a study table")
    p_meta.add_argument("file", help="CSV with header id,events_t,n_t,events_c,n_c "
                                     "or id,estimate,se")

    p_ancred = sub.add_parser("ancred", help="Analysis of Credibility")
    p_ancred.add_argument("--estimate", type=float, help="log OR point estimate")
    p_ancred.add_argument("--se", type=float, help="standard error")
    p_ancred.add_argument("--lower", type=float, help="CI lower limit (log OR)")
    p_ancred.add_argument("--upper", type=float, help="CI upper limit (log OR)")
    p_ancred.add_argument("--rate", type=float, default=None,
                          help="event rate for the equivalent prior trial")

    p_bf = sub.add_parser("bf", help="Bayes-factor credibility analysis")
    p_bf.add_argument("--estimate", type=float, required=True)
    p_bf.add_argument("--se", type=float, required=True)
    p_bf.add_argument("--gamma", type=float, default=1.0 / 10.0,
                      help="Bayes factor cut-off (default 1/10)")
    p_bf.add_argument("--mode", choices=["sceptical", "advocacy", "ic"],
                      default="sceptical")

    p_fpr = sub.add_parser("fpr", help="false positive risk bounds")
    p_fpr.add_argument("--p", type=float, required=True, help="two-sided p-value")
    p_fpr.add_argument("--fpr", type=float, default=0.05,
                       help="target false positive risk (default 0.05)")
    p_fpr.add_argument("--calibration", default="all",
                       choices=["all"] + [k.value for k in CalibrationKind])
    p_fpr.add_argument("--fpr-equals-p", action="store_true",
                       help="bound Pr(H0) under the claim FPR = p")
    p_fpr.add_argument("--grid", action="store_true",
                       help="also emit plot data over a log-spaced p grid")
    return parser


_RUNNERS = {"meta": (cmd_meta, _print_meta), "ancred": (cmd_ancred, _print_ancred),
            "bf": (cmd_bf, _print_bf), "fpr": (cmd_fpr, _print_fpr)}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (0.0 < args.level < 1.0):
            raise UsageError(f"--level must be in (0,1), got {args.level!r}")
        runner, printer = _RUNNERS[args.command]
        report = runner(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NonexistenceError as exc:
        print(f"nonexistence: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(render_json(report))
    else:
        printer(report, args.scale)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
