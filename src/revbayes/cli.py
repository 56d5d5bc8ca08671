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
from operator import add, is_, sub, truediv

from . import __version__
from .errors import DataError, NonexistenceError
from .model import EffectEstimate, read_study_table
# fpr, for the parser's --calibration choices; meta, ancred and bf load
# with their subcommands, so a cold process loads only the one it runs
from .fpr import CalibrationKind, min_bf, min_bf_els, min_bf_local, prior_prob_for_fpr
from .statfn import critical_z, exp_or_inf, two_sided_p


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
    json.dumps(value, sort_keys=True, indent=2) for every finite value, a
    _Table written as the list of its rows.

    json.dumps is not used: given an indent, the standard library drops its
    C encoder for a pure-Python generator chain, which spends most of a
    10 000-study `meta` report. One walker, _texts, lays out the dicts and
    lists of both the value and a _Table's row layout. A _Table declares
    which slots of its rows share a column, so that is not inferred from the
    rows' key sets, lengths and float identities: the walk over its layout
    gives one %-template, and the table is written _BLOCK rows at a time,
    each column of a block formatted once, however many slots share it.
    write_json writes each text as the walker yields it. A non-finite float
    becomes the string of its repr ("inf", "-inf" or "nan"), where json.dumps
    would write the non-standard Infinity and NaN tokens; null keeps its
    meaning of "not applicable". Anything but a dict, list, tuple, _Table,
    str, int, float, bool or None raises TypeError, as in json.dumps, and so
    does a non-str key.
    """
    return "".join(_texts(value, "\n", _value_texts))


def write_json(value, write) -> None:
    """Pass the text of render_json(value) to `write`, chunk by chunk."""
    for text in _texts(value, "\n", _value_texts):
        write(text)


class _Table:
    """Rows of one layout, held as columns. `layout` is one row's dicts and
    lists with a column index at each leaf; row i holds columns[k][i] at each
    leaf k, and there are as many rows as columns[0] has items. It iterates
    as the rows it stands for and compares equal by them."""

    __slots__ = ("layout", "columns")

    def __init__(self, layout, columns: list):
        self.layout, self.columns = layout, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(functools.partial(_fill, self.layout), zip(*self.columns))

    def __eq__(self, other):
        return list(self) == other


def _fill(layout, row: tuple):
    if type(layout) is dict:
        return {key: _fill(item, row) for key, item in layout.items()}
    if type(layout) is list:
        return [_fill(item, row) for item in layout]
    return row[layout]


# table rows per block: as fast as 256 rows, but in 24 meta-large runs peak RSS
# stayed at 58.7-59.6 MB, where 256 reached ~68 MB in 3 of 20 runs
_BLOCK = 128


def _texts(value, newline: str, leaf):
    """The JSON texts of `value` at the depth of `newline`, in the order and
    layout of json.dumps(sort_keys=True, indent=2): its dicts, lists and
    tuples are laid out here, and each other item is the texts of
    leaf(item, newline)."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        yield from leaf(value, newline)
    elif not value:
        yield "{}" if kind is dict else "[]"
    else:
        inner = newline + "  "
        if kind is dict:
            pairs = [(encode_basestring_ascii(key) + ": ", item)
                     for key, item in sorted(value.items())]
            sep, closer = "{" + inner, "}"
        else:
            pairs, sep, closer = zip(repeat(""), value), "[" + inner, "]"
        for head, item in pairs:
            yield sep + head
            yield from _texts(item, inner, leaf)
            sep = "," + inner
        yield newline + closer


def _value_texts(value, newline: str):
    """The texts of a scalar, or of a _Table as the list of its blocks."""
    kind = type(value)
    if kind is _Table:
        blocks = list(range(0, len(value), _BLOCK))
        return _texts(blocks, newline, functools.partial(_block_texts, value, {}))
    encode = _JSON_SCALARS.get(kind)
    if encode is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return (encode(value),)


def _block_texts(table: _Table, templates: dict, start: int, newline: str) -> tuple:
    """The rows of `table` from `start` on, _BLOCK at most, at the depth of
    `newline` and separated as _texts separates list items. A row is the
    %-template of the layout at that depth: the walk over it with a NUL at
    each slot, which encode_basestring_ascii escapes anywhere else."""
    if newline not in templates:
        slots: list = []   # (column index, newline) of each slot
        text = "".join(_texts(table.layout, newline,
                              lambda index, depth: slots.append((index, depth)) or "\0"))
        templates[newline] = text.replace("%", "%%").replace("\0", "%s"), slots
    template, slots = templates[newline]
    formatted: dict = {}   # column index, or (index, newline) for depth-bound texts
    args = []
    for index, depth in slots:
        texts = formatted.get(index) or formatted.get((index, depth))
        if texts is None:
            texts, nested = _column_texts(table.columns[index][start:start + _BLOCK], depth)
            formatted[(index, depth) if nested else index] = texts
        args.append(texts)
    block = (map(template.__mod__, zip(*args)) if args
             else [template % ()] * min(_BLOCK, len(table) - start))
    return (("," + newline).join(block),)


def _column_texts(items, newline: str) -> tuple[list, bool]:
    """The JSON texts of a block of one column, at the depth of `newline`,
    and whether they depend on that depth. A column of one object is
    formatted once, and a column of strs, or of finite floats, by one map."""
    head = items[0]
    if head is items[-1] and all(map(is_, items, repeat(head))):
        text = "".join(_texts(head, newline, _value_texts))
        return [text] * len(items), "\n" in text
    encode = encode_basestring_ascii if type(head) is str else float.__repr__
    try:
        texts = list(map(encode, items))   # TypeError for an item of another type
    except TypeError:
        return ["".join(_texts(item, newline, _value_texts)) for item in items], True
    if encode is float.__repr__ and not all(map(math.isfinite, items)):
        texts = list(map(_json_float, items))
    return texts, False


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


# the columns of an estimate block, in the order _estimate_columns returns them
_LOG_OR, _SE, _Z, _P, _LO, _HI, _OR, _OR_LO, _OR_HI, _LEVEL = range(10)
_ESTIMATE = {"log_or": _LOG_OR, "se": _SE, "z": _Z, "p": _P, "ci_log": [_LO, _HI],
             "or": _OR, "ci_or": [_OR_LO, _OR_HI], "level": _LEVEL}


def _estimate_columns(theta, se, level: float) -> list:
    """The columns of _ESTIMATE for the estimates theta with standard errors se."""
    half = list(map(critical_z(1.0 - level).__mul__, se))
    lo, hi = list(map(sub, theta, half)), list(map(add, theta, half))
    z = list(map(truediv, theta, se))
    return [theta, se, z, list(map(two_sided_p, z)), lo, hi, list(map(exp_or_inf, theta)),
            list(map(exp_or_inf, lo)), list(map(exp_or_inf, hi)), [level] * len(theta)]


def _estimate_payload(theta: float, se: float, level: float) -> dict:
    (payload,) = _Table(_ESTIMATE, _estimate_columns([theta], [se], level))
    return payload


# ---------------------------------------------------------------- meta


def cmd_meta(args) -> dict:
    # bound once, in this module, so that what rebinds cli.pool or
    # cli.failsafe_n (perfbench's tracer) is what later runs call
    global failsafe_n, pool
    if "pool" not in globals():
        from .meta import failsafe_n, pool
    result = pool(read_study_table(args.file))
    fsn = failsafe_n(result, args.level)
    pooled_est = result.pooled.as_estimate()

    columns = _estimate_columns(result.theta, result.se, args.level)
    sid, t_box, p_box, loo = range(len(columns), len(columns) + 4)
    columns += [result.ids, _nan_as_none(result.t_box), _nan_as_none(result.p_box)]
    if all(map((0.0).__lt__, result.loo_precision)):
        loo_layout = {"mean": loo, "precision": loo + 1}
        columns += [result.loo_mean, result.loo_precision]
    else:   # a study that stands alone has a flat prior, written as null
        loo_layout = loo
        columns.append([{"mean": mean, "precision": precision} if precision > 0.0 else None
                        for mean, precision in zip(result.loo_mean, result.loo_precision)])
    per_study = _Table({"id": sid, "estimate": _ESTIMATE, "leave_one_out_prior": loo_layout,
                        "t_box": t_box, "p_box": p_box,
                        "forest_row": [sid, _LOG_OR, _LO, _HI, _P, p_box]}, columns)

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


def _nan_as_none(column) -> list:
    return [None if math.isnan(x) else x for x in column]


def _print_meta(report: dict, scale: str) -> None:
    res = report["results"]
    pooled = res["pooled"]
    # a summary number that would take 16 characters is in _cell's g form, so
    # no line is longer than the table's header, which takes at least 86
    num = lambda x, spec=".2f": _cell(x, 16, spec).lstrip()
    key, ci, label = ("or", "ci_or", "OR") if scale == "or" else ("log_or", "ci_log", "log OR")
    lo, hi = pooled[ci]
    print(f"pooled {label} {num(pooled[key])} [{num(lo)}, {num(hi)}]"
          f" at level {pooled['level']:g}")
    print(f"posterior precision {num(res['pooled_precision'], '.1f')}"
          f" from {res['n_studies']} studies")
    print()
    rows = res["per_study"]   # a _Table: each pass builds its rows one at a time
    width = max(16, 1 + max(len(row["id"]) for row in rows))   # an id keeps a blank after it
    print(f"{'study':<{width}}{'logOR':>8}{'low':>8}{'high':>8}{'p':>10}"
          f"{'loo mean':>10}{'loo prec':>10}{'t_box':>8}{'p_box':>8}")
    for row in rows:
        est = row["estimate"]
        loo = row["leave_one_out_prior"] or {}
        print(f"{row['id']:<{width}}{_cell(est['log_or'], 8, '.2f')}"
              f"{_cell(est['ci_log'][0], 8, '.2f')}{_cell(est['ci_log'][1], 8, '.2f')}"
              f"{_cell(est['p'], 10, '.4f')}{_cell(loo.get('mean'), 10, '.2f')}"
              f"{_cell(loo.get('precision'), 10, '.1f')}"
              f"{_cell(row['t_box'], 8, '.2f')}{_cell(row['p_box'], 8, '.2f')}")
    fsn = res["fail_safe_n"]
    print()
    if fsn["significant"]:
        print(f"fail-safe N: {num(fsn['n_exact'], '.1f')}"
              f" (round up to {num(fsn['n_integer'], 'd')})")
    else:
        print(f"fail-safe N: 0 ({fsn['reason']})")
    for w in report["warnings"]:
        print(f"warning: {w}")


def _cell(x: float | None, width: int, spec: str) -> str:
    """x in `spec`, "-" for None, right-aligned to `width` after a blank. Where
    `spec` would fill the column, x is in g form with the most digits, up to
    3, that leave the blank; one always does, as -1e+308 takes 7 characters."""
    text = "-" if x is None else format(x, spec)
    digits = 3
    while len(text) >= width:
        text = format(x, f".{digits}g")
        digits -= 1
    return text.rjust(width)


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
        ps = [math.exp(lo + (hi - lo) * i / n) for i in range(n + 1) for _ in _GRID_KINDS]
        kinds = _GRID_KINDS * (n + 1)
        results["grid"] = _Table([0, 1, 2], [ps, [kind.value for kind in kinds],
                                             list(map(bound, ps, kinds))])
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
                        help="display scale for meta's effects (default log)")
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
        if args.scale == "or" and args.command != "meta":   # only meta prints an OR scale
            raise UsageError(f"--scale or applies only to meta, not {args.command}")
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
