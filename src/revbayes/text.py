"""Text reports of the subcommands. Only a run without --json imports this
module, so a --json process never compiles it."""

from __future__ import annotations


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
