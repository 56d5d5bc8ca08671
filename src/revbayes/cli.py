"""Command-line front end: subcommand dispatch, text rendering, and
machine-readable reports.

Exit codes: 0 success, 1 usage error, 2 data error, 3 mathematical
nonexistence (e.g. sceptical prior undefined). Any other exception is a bug.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from itertools import repeat
from operator import is_, itemgetter

from . import __version__
from .errors import DataError, NonexistenceError
from .model import EffectEstimate, interval, read_study_table
# fpr, for the parser's --calibration choices; meta, ancred and bf load
# with their subcommands, so a cold process loads only the one it runs
from .fpr import CalibrationKind, min_bf, min_bf_els, min_bf_local, prior_prob_for_fpr
from .statfn import exp_or_inf, two_sided_p


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse would take -1e-05 for an option, not a negative number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _input_digest(args, fields: dict | None = None) -> str | None:
    """sha256 of the study file, or of fields as canonical JSON. Only --json
    prints it, so a text run never computes it. The standard library's own
    _sha256 hashes it, as `random` takes _sha512, since hashlib would load
    OpenSSL's libcrypto to hash a few bytes."""
    if not args.json:
        return None
    try:
        from _sha256 import sha256
    except ImportError:   # an interpreter built without it, or Python 3.12+
        from hashlib import sha256
    if fields is None:
        with open(args.file, "rb") as fh:
            data = fh.read()
    else:
        data = json.dumps(fields, sort_keys=True).encode("utf-8")
    return sha256(data).hexdigest()


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
    10 000-study `meta` report. Dicts and scalars are written depth-first,
    but a list's items of one layout take one flat %-template (`_layout`),
    filled from a column per slot; numbers go in as themselves, and a float
    column shared with an earlier one is formatted once (`_rows`). A list
    goes in blocks of _BLOCK items, which write_json passes on as rendered.
    A non-finite float becomes the string of its repr ("inf", "-inf" or
    "nan"), where json.dumps would write the non-standard Infinity and NaN
    tokens; null keeps its meaning of "not applicable". Anything but a dict,
    list, tuple, str, int, float, bool or None raises TypeError, as in
    json.dumps, and so does a non-str key.
    """
    chunks: list[str] = []
    write_json(value, chunks.append)
    return "".join(chunks)


def write_json(value, write) -> None:
    """Pass the text of render_json(value) to `write`, chunk by chunk."""
    _render(value, "\n", write)


# list items per _rows call: as fast as 256 items, but in 24 meta-large runs peak RSS
# stayed at 58.7-59.6 MB, where 256 reached ~68 MB in 3 of 20 runs
_BLOCK = 128


def _render(value, newline: str, emit) -> None:
    # a dict's scalar item is written in its loop, without a recursive call
    kind = type(value)
    if kind is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
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
        for start in range(0, len(value), _BLOCK):
            emit(sep + ("," + inner).join(_rows(value[start:start + _BLOCK], inner)))
            sep = "," + inner
        emit(newline + "]")
    else:
        encode = _JSON_SCALARS.get(kind)
        if encode is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        emit(encode(value))


def _rows(values, newline: str):
    """The JSON texts of `values`, all written at the depth of `newline`. A
    float column of one object, or of the objects of an earlier float column
    (by identity: 0.0 == -0.0), is formatted once; other numbers go to %s."""
    template, columns = _layout(values, newline)
    first = {}   # (id of the first item, id of the last) -> index and items of a float column
    for i, column in enumerate(columns):
        head, tail = column[0], column[-1]
        if type(head) is float:
            j, items = first.setdefault((id(head), id(tail)), (i, column))
            if head is tail and all(map(is_, column, repeat(head))):
                columns[i] = [float.__repr__(head)] * len(column)
            elif j != i and all(map(is_, column, items)):
                if columns[j] is items:
                    columns[j] = list(map(float.__repr__, column))
                columns[i] = columns[j]
    return map(template.__mod__, zip(*columns)) if columns else [template] * len(values)


def _layout(values, newline: str) -> tuple[str, list]:
    """A %-template for each item of `values`, at the depth of `newline`, and
    the columns for its slots: dicts with one key set and lists of one length
    are inlined, finite floats and ints fill a slot as numbers, other scalars
    as texts, and items of mixed types, key sets or lengths as rendered."""
    kind = type(values[0]) if len(set(map(type, values))) == 1 else None
    if kind is int or (kind is float and all(map(math.isfinite, values))):
        return "%s", [values]
    encode = _JSON_SCALARS.get(kind)
    if encode is not None:
        return "%s", [list(map(encode, values))]
    inner = newline + "  "
    if kind is dict and all(map(values[0].keys().__eq__, map(dict.keys, values))):
        keys = sorted(values[0])
        opener, heads, closer = "{", [encode_basestring_ascii(key) + ": " for key in keys], "}"
        parts = [_layout(list(map(itemgetter(key), values)), inner) for key in keys]
    elif (kind is list or kind is tuple) and len(set(map(len, values))) == 1:
        parts = [_layout(column, inner) for column in zip(*values)]
        opener, heads, closer = "[", [""] * len(parts), "]"
    else:   # mixed types, key sets or lengths
        texts = []
        for item in values:
            chunks: list[str] = []
            _render(item, newline, chunks.append)
            texts.append("".join(chunks))
        return "%s", [texts]
    body = ("," + inner).join(head.replace("%", "%%") + part
                              for head, (part, _) in zip(heads, parts))
    return (opener + inner + body + newline + closer if parts else opener + closer,
            [column for _, columns in parts for column in columns])


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fmt_bf(bf: float) -> str:
    # 0 for a bf whose reciprocal overflows (bf <= 2^-1024), as the minimum
    # BFs do at |z| beyond ~37.7
    if bf <= 2.0 ** -1024:
        return "0"
    if bf < 1.0:
        return f"1/{1.0 / bf:.3g}"
    return f"{bf:.3g}"


def _estimate_payload(theta: float, se: float, level: float) -> dict:
    lo, hi = interval(theta, se, level)
    z = theta / se
    return {
        "log_or": theta, "se": se, "z": z, "p": two_sided_p(z),
        "ci_log": [lo, hi], "or": exp_or_inf(theta),
        "ci_or": [exp_or_inf(lo), exp_or_inf(hi)], "level": level,
    }


# ---------------------------------------------------------------- meta


def cmd_meta(args) -> dict:
    # bound once, in this module, so that what rebinds cli.pool or
    # cli.failsafe_n (perfbench's tracer) is what later runs call
    global failsafe_n, pool
    if "pool" not in globals():
        from .meta import failsafe_n, pool
    studies = read_study_table(args.file)
    result = pool(studies)
    fsn = failsafe_n(result, args.level)
    pooled_est = result.pooled.as_estimate()

    per_study = []
    for sid, theta, se, loo_mean, loo_precision, t_box, p_box in zip(*result[1:]):
        estimate = _estimate_payload(theta, se, args.level)
        p_box = None if math.isnan(p_box) else p_box
        per_study.append({
            "id": sid,
            "estimate": estimate,
            "leave_one_out_prior": ({"mean": loo_mean, "precision": loo_precision}
                                    if loo_precision > 0.0 else None),
            "t_box": None if math.isnan(t_box) else t_box,
            "p_box": p_box,
            "forest_row": [sid, theta, *estimate["ci_log"], estimate["p"], p_box],
        })

    return {
        "command": "meta",
        "input_digest": _input_digest(args),
        "results": {
            "pooled": _estimate_payload(*pooled_est, args.level),
            "pooled_precision": result.pooled.precision,
            "n_studies": result.n_studies,
            "fail_safe_n": fsn._asdict(),
            "per_study": per_study,
        },
        "warnings": ([] if result.n_studies > 1 else
                     ["single-study table: fail-safe N refers to n=1"]),
    }


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
    # here, so that the other subcommands' cold processes never load ancred
    from .ancred import (advocacy_prior, credibility_ratio, equivalent_trial,
                         intrinsic_credibility, p_intrinsic, p_rep, sceptical_analysis)
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
    results: dict = {"estimate": _estimate_payload(*est, args.level)}
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
    return {
        "command": "ancred",
        "input_digest": _input_digest(args, {"estimate": est.theta_hat, "se": est.se,
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
    from .bf import (advocacy_for_gamma, advocacy_prior_interval_or,
                     bf12_sceptical_vs_optimistic, bf_intrinsic, sceptical_g_for_gamma,
                     z_gamma)
    est = EffectEstimate(args.estimate, args.se)
    z = est.z
    results: dict = {"estimate": _estimate_payload(*est, args.level),
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
    elif args.mode == "ic":
        results["bf_intrinsic"] = bf_intrinsic(est)
    else:
        raise UsageError(f"unknown mode {args.mode!r}")
    return {
        "command": "bf",
        "input_digest": _input_digest(args, {"estimate": est.theta_hat, "se": est.se,
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
        "input_digest": _input_digest(args, {"p": args.p, "fpr": args.fpr,
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


_parser = functools.cache(build_parser)  # one per process: parse_args leaves it unchanged
_RUNNERS = {"meta": (cmd_meta, _print_meta), "ancred": (cmd_ancred, _print_ancred),
            "bf": (cmd_bf, _print_bf), "fpr": (cmd_fpr, _print_fpr)}


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    if args.json:
        write_json(report, sys.stdout.write)
        print()
    else:
        printer(report, args.scale)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
