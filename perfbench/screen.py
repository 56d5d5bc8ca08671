"""screen: a seeded batch of findings, each run through the per-finding
library pipeline behind the ancred, bf and fpr reports, one at a time in a
closed loop (one client, no think time)."""

from __future__ import annotations

import math
import statistics
import time
from types import SimpleNamespace

import checks
import inputs
from common import OUT, Result, Setup, Speed, fresh_import, peak_rss_mb, percentile
from tracing import Tracer, layer_units, layer_values

GAMMA = checks.GAMMA
WARM_SHARE = 0.05
NOMINAL_RATE = 375   # findings per second that sizes a run (see batches)
CHUNK = 50           # findings between two speed probes (about 0.15 s)
# About 0.62 % of findings (5 to 14 of a batch of 1 500, over seeds 1-20 and
# batches 0-7) stop at equivalent_trial's 1e5-candidate scan limit, tens of
# ms each. The tail percentile leaves twice that share above it, so it never
# sits on that cliff: 100 - ceil(2 * 0.62) = 98.
TAIL_PCT = 98
API = (("ancred", "sceptical_analysis"), ("ancred", "advocacy_prior"),
       ("ancred", "intrinsic_credibility"), ("ancred", "equivalent_trial"),
       ("bf", "sceptical_g_for_gamma"), ("bf", "advocacy_for_gamma"),
       ("bf", "bf_intrinsic"), ("fpr", "prior_prob_for_fpr"))


def make_api(pkg, tracer: Tracer | None = None) -> SimpleNamespace:
    api = SimpleNamespace(EffectEstimate=pkg.model.EffectEstimate,
                          kinds=list(pkg.fpr.CalibrationKind))
    for mod, fn in API:
        f = getattr(getattr(pkg, mod), fn)
        setattr(api, fn, tracer.wrap(f, f"{mod}.{fn}") if tracer else f)
    return api


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a failed step is an outcome the checks judge
        return exc


def run_finding(api, f: inputs.Finding) -> dict:
    est = api.EffectEstimate(f.theta_hat, f.se)
    out = {}
    if est.significant():
        out["ancred"] = _call(api.sceptical_analysis, est)
    else:
        out["ancred"] = _call(api.advocacy_prior, est)
    if not isinstance(out["ancred"], Exception):
        out["trial"] = _call(api.equivalent_trial, out["ancred"].prior(), f.event_rate)
    out["ic_prior"] = _call(api.intrinsic_credibility, est, flavor="prior_based")
    out["ic_predictive"] = _call(api.intrinsic_credibility, est, flavor="predictive_based")
    out["bf_sceptical"] = _call(api.sceptical_g_for_gamma, est.z, GAMMA, est.se)
    out["bf_advocacy"] = _call(api.advocacy_for_gamma, est, GAMMA)
    out["bf_intrinsic"] = _call(api.bf_intrinsic, est)
    out["p"] = p = est.p_value
    for kind in api.kinds:
        out["fpr." + kind.value] = _call(api.prior_prob_for_fpr, p, f.fpr_target, kind)
    return out


def _canonical(out: dict) -> dict:
    return {k: (type(v).__name__, str(v)) if isinstance(v, Exception) else v
            for k, v in out.items()}


# ------------------------------------------------------------ checks


def _check_step(key: str, f: inputs.Finding, out: dict, errors) -> bool:
    nonexistence = errors.NonexistenceError
    typed_errors = (errors.DataError, errors.NonexistenceError)
    z = f.theta_hat / f.se
    res = out.get(key)
    if key == "ancred":
        if isinstance(res, Exception):
            return False
        sceptical = hasattr(res, "g")
        mode = checks.expected_mode(z)
        if mode is not None and (mode == "sceptical") != sceptical:
            return False
        if sceptical:
            return checks.posterior_touches_zero(f.theta_hat, f.se, 0.0, res.tau2)
        return (checks.posterior_touches_zero(f.theta_hat, f.se, res.mu, res.tau ** 2)
                and checks.close(abs(res.mu), checks.Z_CRIT * res.tau))
    if key == "trial":
        prior = out["ancred"]
        if isinstance(prior, Exception):
            return True    # already failed as "ancred"
        mu, tau2 = (0.0, prior.tau2) if hasattr(prior, "g") else (prior.mu, prior.tau ** 2)
        if abs(mu) >= checks.LOG_MAX:   # the allocation ratio exp(mu) is not a float
            return isinstance(res, typed_errors)
        if isinstance(res, Exception):
            return False
        return checks.trial_ok(res, mu, tau2, f.event_rate)
    if key.startswith("ic_"):
        flavor = "prior_based" if key == "ic_prior" else "predictive_based"
        want = checks.intrinsic_verdict(z, flavor)
        return not isinstance(res, Exception) and (want is None or bool(res) == want)
    if key == "bf_sceptical":
        exists = checks.sceptical_exists(z, GAMMA)
        if isinstance(res, Exception):
            return isinstance(res, nonexistence) and exists is not True
        if exists is False:
            return False
        lg = math.log(GAMMA)
        ok_small = abs(checks.log_bf01(z, res.g_small) - lg) <= checks.REL_TOL
        if checks.large_root_representable(z, GAMMA):
            ok_large = abs(checks.log_bf01(z, res.g_large) - lg) <= checks.REL_TOL
        else:
            ok_large = res.g_large == math.inf
        half = checks.Z_CRIT * math.sqrt(res.g_small) * f.se
        lo, hi = res.prior_interval_or
        return (ok_small and ok_large and res.g_small <= res.g_large
                and checks.close(lo, math.exp(-half)) and checks.close(hi, math.exp(half)))
    if key == "bf_advocacy":
        m_min, log_min = checks.advocacy_minimum(z, GAMMA)
        lg = math.log(GAMMA)
        exists = None if abs(log_min - lg) <= checks.REL_TOL else log_min < lg
        if isinstance(res, Exception):
            return isinstance(res, nonexistence) and exists is not True
        if exists is False:
            return False
        k = z * z / (-2.0 * lg)
        if checks.advocacy_large_root_representable(z, GAMMA):
            ok_large = abs(checks.log_bf_advocacy(z, res.m_large, k) - lg) <= checks.REL_TOL
        else:
            ok_large = res.m_large == math.inf
        return (abs(checks.log_bf_advocacy(z, res.m_small, k) - lg) <= checks.REL_TOL
                and ok_large
                and res.m_small <= m_min * (1 + 1e-6) and m_min <= res.m_large * (1 + 1e-6)
                and checks.close(res.cv, 1.0 / math.sqrt(-2.0 * lg))
                and checks.close(res.tau_small, res.cv * res.m_small * abs(f.theta_hat)))
    if key == "bf_intrinsic":
        exists = checks.intrinsic_exists(z)
        if isinstance(res, Exception):
            return isinstance(res, nonexistence) and exists is not True
        return exists is not False and checks.intrinsic_ok(z, res)
    if key.startswith("fpr."):
        p = out["p"]
        if p == 0.0:   # the p-value itself underflows: not a valid input
            return isinstance(res, ValueError)
        if isinstance(res, Exception):
            return False
        return checks.close(res, checks.prior_bound(p, f.fpr_target, key[4:]))
    raise KeyError(key)


def check_finding(f: inputs.Finding, out: dict, errors) -> list[str]:
    """Keys of the pipeline steps whose output is wrong."""
    bad = []
    for key in out:
        if key == "p":
            continue
        try:
            ok = _check_step(key, f, out, errors)
        except (ArithmeticError, ValueError, TypeError, AttributeError):
            ok = False    # output the reference cannot even evaluate
        if not ok:
            bad.append(key)
    return bad


def known_defect(f: inputs.Finding, out: dict, bad: list[str]) -> bool:
    z = f.theta_hat / f.se
    return all(checks.known_defect(step, z, out, f.event_rate) for step in bad)


# ------------------------------------------------------------ workload


def batches(seconds: float) -> int:
    """A run's work is fixed by --seconds, not by the clock, so a seed
    always gives the same findings and the same failures: batches of
    findings at NOMINAL_RATE findings per second."""
    return max(1, round(seconds * NOMINAL_RATE / inputs.SCREEN_FINDINGS))


def _setup(seed: int, ops: int):
    """The first batch is made outside the timer; set-up time is the
    program's: a fresh import and one warm-up finding."""
    findings = inputs.screen_findings(seed, 0)

    def make():
        pkg = fresh_import()
        api = make_api(pkg)
        run_finding(api, findings[0])
        return pkg, api
    setup = Setup(make, ops)
    pkg, api = setup.result
    for f in findings[:int(len(findings) * WARM_SHARE)]:
        run_finding(api, f)
    return pkg, api, setup


def _verdicts(pkg, findings, outs) -> list[tuple[bool, bool]]:
    """Per finding: (failed, failed outside the known defects)."""
    out = []
    for f, res in zip(findings, outs):
        bad = check_finding(f, res, pkg.errors)
        out.append((bool(bad), bool(bad) and not known_defect(f, res, bad)))
    return out


def run(seed: int, seconds: float) -> Result:
    """batches(seconds) passes, each over a new seeded batch, so no finding
    is ever repeated. Each finding is timed; every CHUNK findings the speed
    probe runs and the chunk's times are scaled by it. Each pass is checked
    as soon as it ends, outside the measured time, and its outputs are
    dropped. The metrics are over every finding of the run."""
    n_batches = batches(seconds)
    pkg, api, setup = _setup(seed, n_batches * inputs.SCREEN_FINDINGS)
    speed = Speed()
    res = Result()
    lat, raw = [], []
    rss = 0.0
    good = 0
    for b in range(n_batches):
        findings = inputs.screen_findings(seed, b)
        outs = []
        speed.start()
        for j in range(0, len(findings), CHUNK):
            chunk = []
            for f in findings[j:j + CHUNK]:
                t0 = time.perf_counter_ns()
                outs.append(run_finding(api, f))
                chunk.append(time.perf_counter_ns() - t0)
            k = speed.factor()
            raw += chunk
            lat += [ns * k for ns in chunk]
            if setup.tick(len(lat)):
                speed.start()
        rss = max(rss, peak_rss_mb())
        verdicts = _verdicts(pkg, findings, outs)
        res.attempted += len(outs)
        res.failed += sum(v[0] for v in verdicts)
        res.unexpected += sum(v[1] for v in verdicts)
        good += sum(not v[0] for v in verdicts)
        del outs, verdicts
    ok_per_s = good / (sum(lat) / 1e9)
    p50, tail, p99 = statistics.median(lat), percentile(lat, TAIL_PCT), percentile(lat, 99)
    res.add("setup_s", setup.median_s(), "s")
    res.add("pass_ratio", good / res.attempted, "ratio")
    res.add("peak_rss_mb", rss, "MB")
    res.add("ok_items_per_s", ok_per_s, "1/s")
    res.add("op_p50_ms", p50 / 1e6, "ms")
    res.add("op_tail_ms", tail / 1e6, "ms")
    res.notes += [
        f"operation = one finding; {res.attempted} findings in {n_batches} batches "
        f"of {len(findings)}; every metric is over all of them",
        f"findings_per_s (correct findings / s)  {ok_per_s:.1f}",
        f"finding_p50_us  {p50 / 1e3:.1f}   finding_p{TAIL_PCT}_us  {tail / 1e3:.1f}   "
        f"finding_p99_us  {p99 / 1e3:.1f}   max  {max(lat) / 1e3:.1f}   (n = {len(lat)})",
        f"unscaled: findings_per_s  {good / (sum(raw) / 1e9):.1f}   finding_p50_us  "
        f"{statistics.median(raw) / 1e3:.1f}",
        speed.note(),
        f"fail_ratio  {res.failed / res.attempted:.4f}  ({res.failed} of {res.attempted}; "
        f"{res.unexpected} outside the known seed defects)",
    ]
    return res


def run_traced(seed: int, seconds: float) -> Result:
    """Pairs of an untraced and a traced pass over the same new batch, in
    alternating order, batches(seconds) passes in all, half of them traced;
    layer metrics and spans come from the first traced pass (batch 0), so
    its counts repeat exactly."""
    pairs = max(1, batches(seconds) // 2)
    pkg, api, _ = _setup(seed, 2 * pairs * inputs.SCREEN_FINDINGS)
    tracer = Tracer()
    traced_api = make_api(pkg, tracer)
    plain_ns, traced_ns = [], []
    values = None
    res = Result()
    for pair in range(pairs):
        findings = inputs.screen_findings(seed, pair)
        tracer.reset()
        # alternate which of the pair goes first, so order effects cancel
        for traced in (len(plain_ns) % 2 == 1, len(plain_ns) % 2 == 0):
            if traced:
                tracer.patch_package(pkg)
                t0 = time.perf_counter_ns()
                traced_out = []
                for i, f in enumerate(findings):
                    span = tracer.root("screen.finding", i)
                    traced_out.append(run_finding(traced_api, f))
                    tracer.finish(span)
                traced_ns.append(time.perf_counter_ns() - t0)
                tracer.unpatch()
            else:
                t0 = time.perf_counter_ns()
                plain = [run_finding(api, f) for f in findings]
                plain_ns.append(time.perf_counter_ns() - t0)
        for f, a, b, (failed, unexpected) in zip(findings, plain, traced_out,
                                                 _verdicts(pkg, findings, plain)):
            differ = _canonical(a) != _canonical(b)   # tracing changed an output
            res.failed += 2 * (failed or differ)
            res.unexpected += 2 * (unexpected or differ)
        res.attempted += 2 * len(findings)
        if values is None:
            values = layer_values(tracer, len(findings))
            tracer.write(f"{OUT}/trace-screen-{seed}.csv.gz")
    values["trace.overhead"] = sum(traced_ns) / sum(plain_ns)
    for name, unit in layer_units().items():
        res.add(name, values[name], unit)
    res.notes.append(f"traced: {len(traced_ns)} traced and {len(plain_ns)} untraced passes "
                     f"over batches of {len(findings)} findings; layer counts are per finding")
    return res
