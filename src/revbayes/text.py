"""Text reports of the subcommands. Only a run without --json imports this
module, so a --json process never compiles it."""


def _num(x: float, spec: str = ".2f") -> str:
    """x in `spec`, or in _cell's g form where that would take 16 characters."""
    return _cell(x, 16, spec).lstrip()


def _fmt_bf(bf: float) -> str:
    # 0 for a bf whose reciprocal overflows (bf <= 2^-1024), as the minimum
    # BFs do at |z| beyond ~37.7
    if bf <= 2.0 ** -1024:
        return "0"
    if bf < 1.0:
        return f"1/{1.0 / bf:.3g}"
    return f"{bf:.3g}"


def _fmt_gamma(gamma: float) -> str:
    # the cut-off is an input, so it is named where _fmt_bf would write 0
    return _fmt_bf(gamma) if gamma > 2.0 ** -1024 else f"{gamma:.3g}"


def _print_meta(report: dict, scale: str) -> None:
    res = report["results"]
    pooled = res["pooled"]
    # a summary number is at most 15 characters, so no line is longer than the
    # table's header, which takes at least 86
    key, ci, label = ("or", "ci_or", "OR") if scale == "or" else ("log_or", "ci_log", "log OR")
    lo, hi = pooled[ci]
    print(f"pooled {label} {_num(pooled[key])} [{_num(lo)}, {_num(hi)}]"
          f" at level {pooled['level']:g}")
    print(f"posterior precision {_num(res['pooled_precision'], '.1f')}"
          f" from {res['n_studies']} studies")
    print()
    rows = res["per_study"]   # a report.Table: each pass builds its rows one at a time
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
        print(f"fail-safe N: {_num(fsn['n_exact'], '.1f')}"
              f" (round up to {_num(fsn['n_integer'], 'd')})")
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
    print(f"estimate log OR {_num(est['log_or'])} (se {_num(est['se'], '.3f')}, "
          f"p {_num(est['p'], '.4f')})")
    if res["mode"] == "sceptical":
        sc = res["sceptical"]
        lo, hi = sc["critical_interval_or"]
        print(f"sceptical prior: g {_num(sc['g'])}, S {_num(sc['scepticism_limit'])}, "
              f"critical OR interval ({_num(lo)}, {_num(hi)})")
        print(f"credibility ratio {_num(sc['credibility_ratio'])}; intrinsically "
              f"credible (prior) { sc['intrinsically_credible_prior']}, "
              f"(predictive) {sc['intrinsically_credible_predictive']}")
    else:
        adv = res["advocacy"]
        print(f"advocacy prior: m {_num(adv['m'])}, mu {_num(adv['mu'])}, "
              f"tau {_num(adv['tau'])}")
        print(f"advocacy limit {_num(adv['advocacy_limit'])} "
              f"(OR {_num(adv['advocacy_limit_or'])})")
    shared = res[res["mode"]]
    print(f"p_IC {_num(shared['p_intrinsic'], '.4f')}, p_rep {_num(shared['p_rep'], '.3f')}")
    _print_trial(shared["equivalent_trial"])


def _print_trial(payload: dict) -> None:
    if "treatment_arm" in payload:
        t, c = payload["treatment_arm"], payload["control_arm"]
        print(f"equivalent trial: {_num(t['events'], '.0f')} events of "
              f"{_num(t['patients'], '.0f')} patients (treatment) vs "
              f"{_num(c['events'], '.0f')} of {_num(c['patients'], '.0f')} (control)")
    elif "patients_per_arm" in payload:
        print(f"equivalent trial: {_num(payload['events_per_arm'], '.0f')} events of "
              f"{_num(payload['patients_per_arm'], '.0f')} patients per arm")
    else:
        print(f"equivalent trial: {_num(payload['events_per_arm'], '.0f')} events per arm "
              f"(arbitrarily large arms)")


def _print_bf(report: dict, scale: str) -> None:
    res = report["results"]
    print(f"z = {_num(res['estimate']['z'], '.3f')}; "
          f"minBF local {_fmt_bf(res['min_bf_local'])}, "
          f"ELS bound {_fmt_bf(res['min_bf_els'])}")
    if res["mode"] == "sceptical":
        sc = res["sceptical"]
        lo, hi = sc["prior_interval_or"]
        print(f"gamma {_fmt_gamma(sc['gamma'])}: g {_num(sc['g_small'])} (sceptical) "
              f"or {sc['g_large']:.3g} (ignorance)")
        print(f"sceptical prior 95% OR interval ({_num(lo)}, {_num(hi)})")
        print(f"BF12 vs optimistic prior {_fmt_bf(sc['bf12_at_g_small'])}")
    elif res["mode"] == "advocacy":
        adv = res["advocacy"]
        lo, hi = adv["prior_interval_or"]
        print(f"gamma {_fmt_gamma(adv['gamma'])}: z(gamma) {_num(adv['z_gamma'])}, "
              f"CV {_num(adv['cv'])}")
        print(f"advocacy m {_num(adv['m_small'])} (tau {_num(adv['tau_small'])}, "
              f"recommended) or m {_num(adv['m_large'])} (tau {_num(adv['tau_large'])})")
        print(f"advocacy prior OR interval ({_num(lo)}, {_num(hi)})")
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
