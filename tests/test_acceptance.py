"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single pass/fail line
(run with -s to see them), and asserts every sub-check with its stated
tolerance. Criteria 1-10 are published-value regressions; 11-15 are
randomized property checks at exact tolerances.
"""

import math
import random

import oracles
from revbayes.ancred import (advocacy_prior, credibility_ratio,
                             credibility_ratio_bound, equivalent_trial,
                             intrinsic_boundary_p, p_intrinsic, p_rep,
                             sceptical_analysis, scepticism_limit)
from revbayes.bf import (advocacy_for_gamma, advocacy_prior_interval_or,
                         bf01_normal_prior, bf01_sceptical,
                         bf12_sceptical_vs_optimistic, bf_intrinsic,
                         sceptical_g_for_gamma, z_gamma)
from revbayes.errors import NonexistenceError
from revbayes.fpr import (CalibrationKind, min_bf, min_bf_els, min_bf_local,
                          prior_bound_fpr_equals_p, prior_prob_for_fpr)
from revbayes.meta import (failsafe_n, forward_update, pool, reverse_update)
from revbayes.model import EffectEstimate, NormalPrior, Study, ci_limits


def _report(num, label, checks):
    failures = [desc for desc, ok in checks if not ok]
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num:2d}: {label}")
    assert not failures, f"criterion {num}: failed sub-checks: {failures}"


def _close(x, target, tol):
    return abs(x - target) <= tol


class TestAcceptance:
    def test_01_pooled_meta(self, meta_result):
        est = meta_result.pooled.as_estimate()
        lo, hi = est.ci(0.95)
        _report(1, "pooled OR 0.66 [0.53, 0.82], precision 83.8", [
            ("OR", _close(math.exp(est.theta_hat), 0.66, 0.01)),
            ("CI low", _close(math.exp(lo), 0.53, 0.01)),
            ("CI high", _close(math.exp(hi), 0.82, 0.01)),
            ("precision", _close(meta_result.pooled.precision, 83.8, 0.5)),
        ])

    def test_02_leave_one_out_and_box(self, meta_result):
        by_id = {d.study_id: d for d in meta_result.per_study}
        rec = by_id["RECOVERY"]
        _report(2, "RECOVERY LOO prior and conflict diagnostics", [
            ("LOO precision", _close(rec.leave_one_out_prior.precision, 36.1, 0.3)),
            ("LOO mean", _close(rec.leave_one_out_prior.mean, -0.26, 0.01)),
            ("t_box", _close(rec.t_box, -1.24, 0.02)),
            ("p_box", _close(rec.p_box, 0.22, 0.01)),
            ("COVID STEROID p_box",
             _close(by_id["COVID STEROID"].p_box, 0.05, 0.01)),
        ])

    def test_03_ancred_sceptical(self, recovery, meta_result):
        sc = sceptical_analysis(recovery, 0.05)
        p_lo, p_hi = meta_result.pooled.ci()
        _report(3, "sceptical priors: RECOVERY g/S/interval, pooled S", [
            ("g", _close(sc.g, 0.39, 0.01)),
            ("S", _close(sc.limit, 0.18, 0.005)),
            ("interval low", _close(sc.critical_interval_or[0], 0.84, 0.01)),
            ("interval high", _close(sc.critical_interval_or[1], 1.19, 0.01)),
            ("pooled S", _close(scepticism_limit(p_lo, p_hi), 0.13, 0.005)),
        ])

    def test_04_ancred_advocacy(self, remap_cap):
        adv = advocacy_prior(remap_cap, 0.05)
        _report(4, "REMAP-CAP advocacy limit and prior mean", [
            ("AL", _close(adv.limit, -1.89, 0.02)),
            ("AL on OR scale", _close(math.exp(adv.limit), 0.15, 0.005)),
            ("mu", _close(adv.mu, -0.94, 0.02)),
        ])

    def test_05_equivalent_trials(self, recovery, remap_cap):
        sceptical = sceptical_analysis(recovery, 0.05).prior()
        advocacy = advocacy_prior(remap_cap, 0.05).prior()
        large = equivalent_trial(sceptical, patients_per_arm=100000)
        at_rate = equivalent_trial(sceptical, event_rate=0.375)
        plain = equivalent_trial(advocacy)
        adv_rate = equivalent_trial(advocacy, event_rate=0.32)
        (et, nt), (ec, nc) = adv_rate.per_arm_detail
        _report(5, "equivalent prior trials round to published sizes", [
            ("244 events/arm", round(large.events_per_arm) == 244),
            ("389 events", round(at_rate.events_per_arm) == 389),
            ("of 1038", round(at_rate.patients_per_arm) == 1038),
            ("9 events/arm", round(plain.events_per_arm) == 9),
            ("11 of 83", (round(et), round(nt)) == (11, 83)),
            ("11 of 39", (round(ec), round(nc)) == (11, 39)),
        ])

    def test_06_failsafe_n(self, meta_result):
        fsn = failsafe_n(meta_result)
        _report(6, "fail-safe N 19.5 -> 20", [
            ("n_exact", _close(fsn.n_exact, 19.5, 0.5)),
            ("n_integer", fsn.n_integer == 20),
        ])

    def test_07_intrinsic_credibility(self, recovery, remap_cap):
        lo, hi = ci_limits(recovery, 0.95)
        _report(7, "intrinsic credibility boundaries and trial values", [
            ("prior-flavor boundary",
             _close(intrinsic_boundary_p(0.05, "prior_based"), 0.013, 1e-3)),
            ("predictive-flavor boundary",
             _close(intrinsic_boundary_p(0.05, "predictive_based"), 0.0056, 1e-3)),
            ("ratio boundary", _close(credibility_ratio_bound(), 5.8, 0.05)),
            ("RECOVERY ratio", _close(credibility_ratio(lo, hi), 3.27, 0.02)),
            ("RECOVERY p_IC", _close(p_intrinsic(recovery.z), 0.01, 0.01)),
            ("RECOVERY p_rep", _close(p_rep(recovery.z), 0.995, 0.01)),
            ("REMAP-CAP p_IC", _close(p_intrinsic(remap_cap.z), 0.46, 0.01)),
            ("REMAP-CAP p_rep", _close(p_rep(remap_cap.z), 0.77, 0.01)),
        ])

    def test_08_bayes_factors(self, recovery, remap_cap):
        sol = sceptical_g_for_gamma(recovery.z, 0.1, se=recovery.se)
        lo, hi = sol.prior_interval_or
        bf12 = bf12_sceptical_vs_optimistic(recovery.z, sol.g_small)
        bf_ic = bf_intrinsic(recovery)
        _report(8, "RECOVERY Bayes factors and gamma=1/10 priors", [
            ("minBF local", abs(1 / min_bf_local(recovery.z) - 148.9) <= 0.02 * 148.9),
            ("g small", _close(sol.g_small, 0.59, 0.02)),
            ("g large", abs(sol.g_large - 8190) <= 0.05 * 8190),
            ("prior OR low", _close(lo, 0.80, 0.01)),
            ("prior OR high", _close(hi, 1.24, 0.01)),
            ("BF12", abs(1 / bf12 - 64) <= 0.10 * 64),
            ("BF intrinsic", abs(1 / bf_ic - 25) <= 0.10 * 25),
            ("REMAP-CAP ELS", _close(1 / min_bf_els(remap_cap.z), 1.7, 0.05)),
        ])

    def test_09_bf_advocacy(self, cape_covid):
        sol = advocacy_for_gamma(cape_covid, 1.0 / 3.0)
        lo, hi = advocacy_prior_interval_or(cape_covid, sol.m_small, sol.gamma)
        _report(9, "CAPE COVID advocacy family at gamma=1/3", [
            ("z(1/3)", _close(z_gamma(1.0 / 3.0), 1.48, 0.01)),
            ("m", _close(sol.m_small, 0.37, 0.02)),
            ("mu", _close(sol.m_small * cape_covid.theta_hat, -0.29, 0.02)),
            ("tau", _close(sol.tau_small, 0.2, 0.02)),
            ("m'", _close(sol.m_large, 1.26, 0.02)),
            ("tau'", _close(sol.tau_large, 0.67, 0.02)),
            ("interval low", _close(lo, 0.55, 0.01)),
            ("interval high", _close(hi, 1.00, 0.01)),
        ])

    def test_10_fpr(self):
        K = CalibrationKind
        _report(10, "false positive risk prior bounds", [
            ("e_p_log_p@p=.05",
             _close(prior_prob_for_fpr(0.05, 0.05, K.E_P_LOG_P), 0.11, 0.01)),
            ("e_q_log_q@p=.05",
             _close(prior_prob_for_fpr(0.05, 0.05, K.E_Q_LOG_Q), 0.28, 0.01)),
            ("local_z@p=.05",
             _close(prior_prob_for_fpr(0.05, 0.05, K.LOCAL_Z), 0.10, 0.01)),
            ("simple_z@p=.05",
             _close(prior_prob_for_fpr(0.05, 0.05, K.SIMPLE_Z), 0.15, 0.01)),
            ("local_z@p=.005",
             _close(prior_prob_for_fpr(0.005, 0.05, K.LOCAL_Z), 0.37, 0.01)),
            ("simple_z@p=.005",
             _close(prior_prob_for_fpr(0.005, 0.05, K.SIMPLE_Z), 0.57, 0.01)),
            ("FPR=p@p=.05",
             _close(prior_bound_fpr_equals_p(0.05, K.SIMPLE_Z), 0.152, 0.003)),
            ("FPR=p@p=.005",
             _close(prior_bound_fpr_equals_p(0.005, K.SIMPLE_Z), 0.114, 0.003)),
            ("e_q_log_q small-p limit",
             _close(prior_bound_fpr_equals_p(1e-10, K.E_Q_LOG_Q), 0.269, 0.001)),
        ])

    def test_11_round_trip(self):
        rng = random.Random(101)
        worst = 0.0
        for _ in range(10 ** 4):
            prior_mean = rng.uniform(-3, 3)
            prior_precision = 10 ** rng.uniform(-1, 2)
            est = EffectEstimate(rng.uniform(-3, 3), 10 ** rng.uniform(-1.5, 0.5))
            post = forward_update(prior_mean, prior_precision, est)
            back = reverse_update(post, est)
            worst = max(
                worst,
                abs(back.precision - prior_precision) / prior_precision,
                abs(back.mean - prior_mean) / max(1.0, abs(prior_mean)))
        _report(11, f"10^4 forward/reverse round trips (worst {worst:.2e})",
                [("relative error <= 1e-10", worst <= 1e-10)])

    def test_12_posterior_boundary(self):
        rng = random.Random(103)
        worst = 0.0
        from revbayes.statfn import critical_z
        for alpha in (0.2, 0.1, 0.05, 0.01):
            z_crit = critical_z(alpha)
            for _ in range(10 ** 3):
                se = 10 ** rng.uniform(-2, 1)
                sign = rng.choice([-1, 1])
                # half significant, half not
                if rng.random() < 0.5:
                    z = sign * rng.uniform(z_crit * 1.001, z_crit * 6)
                    est = EffectEstimate(z * se, se)
                    prior = sceptical_analysis(est, alpha).prior()
                else:
                    z = sign * rng.uniform(z_crit * 1e-3, z_crit * 0.999)
                    est = EffectEstimate(z * se, se)
                    adv = advocacy_prior(est, alpha)
                    prior = NormalPrior(adv.mu, adv.tau ** 2)
                post = forward_update(prior.mean, prior.precision, est)
                lo, hi = post.ci(1 - alpha)
                worst = max(worst, min(abs(lo), abs(hi)))
        _report(12, f"posterior CI boundary at zero (worst {worst:.2e})",
                [("boundary <= 1e-10", worst <= 1e-10)])

    def test_13_bf_plug_back(self):
        rng = random.Random(107)
        worst = 0.0
        admitted = 0
        while admitted < 10 ** 3:
            z = rng.uniform(0.2, 6.0) * rng.choice([-1, 1])
            gamma = 10 ** rng.uniform(-4, -1e-3)
            est = EffectEstimate(z, 1.0)
            try:
                sc = sceptical_g_for_gamma(z, gamma)
                adv = advocacy_for_gamma(est, gamma)
            except NonexistenceError:
                continue
            admitted += 1
            for g in (sc.g_small, sc.g_large):
                worst = max(worst, abs(bf01_sceptical(z, g) - gamma) / gamma)
            for m, tau in ((adv.m_small, adv.tau_small),
                           (adv.m_large, adv.tau_large)):
                prior = NormalPrior(m * est.theta_hat, tau ** 2)
                worst = max(worst,
                            abs(bf01_normal_prior(est, prior) - gamma) / gamma)
        _report(13, f"10^3 BF plug-backs (worst {worst:.2e})",
                [("relative error <= 1e-8", worst <= 1e-8)])

    def test_14_calibration_orderings_and_minimizer(self):
        K = CalibrationKind
        checks = []

        ps = [math.exp(math.log(1e-8) + k * (math.log(0.49) - math.log(1e-8)) / 400)
              for k in range(401)]
        for kind in K:
            vals = [min_bf(p, kind) for p in ps]
            checks.append((f"{kind.value} monotone in p", vals == sorted(vals)))
        checks.append(("ELS floors z-based and -ep*log(p) calibrations", all(
            min_bf(p, kind) >= min_bf(p, K.ELS_ALL_PRIORS) * (1 - 1e-12)
            for p in ps
            for kind in (K.LOCAL_Z, K.SIMPLE_Z, K.E_P_LOG_P))))
        checks.append(("-ep*log(p) below local_z", all(
            min_bf(p, K.E_P_LOG_P) <= min_bf(p, K.LOCAL_Z) * (1 + 1e-12)
            for p in ps if p < 1 / math.e)))

        # the closed-form local minimum matches a direct minimization over g
        worst = 0.0
        for k in range(60):
            z = 1.05 + k * (6.0 - 1.05) / 59
            _, direct = oracles.golden_minimize(lambda g: bf01_sceptical(z, g), 1e-9, 1e7)
            worst = max(worst, abs(direct - min_bf_local(z)) / direct)
        checks.append((f"minimizer identity (worst {worst:.2e})",
                       worst <= 1e-12))
        _report(14, "calibration orderings and minimizer identity", checks)

    def test_15_failsafe_brute_force(self):
        rng = random.Random(109)

        def still_significant(meta, extra, z_crit):
            precision = meta.pooled.precision + extra * (
                meta.pooled.precision / meta.n_studies)
            mean = meta.pooled.mean * meta.pooled.precision / precision
            return (mean * math.sqrt(precision)) ** 2 > z_crit ** 2

        from revbayes.statfn import critical_z
        z_crit = critical_z(0.05)   # the alpha of failsafe_n's default level, 0.95
        done = 0
        ok = True
        while done < 100:
            k = rng.randint(2, 8)
            studies = [Study(f"S{i}", estimate=rng.uniform(-1.5, -0.1),
                             se=10 ** rng.uniform(-1.2, 0.0))
                       for i in range(k)]
            meta = pool(studies)
            fsn = failsafe_n(meta)
            if not fsn.significant or abs(fsn.n_exact - round(fsn.n_exact)) < 1e-9:
                continue
            done += 1
            ok = ok and not still_significant(meta, fsn.n_integer, z_crit)
            ok = ok and still_significant(meta, fsn.n_integer - 1, z_crit)
        _report(15, "fail-safe N brute-force equivalence on 100 metas",
                [("N kills significance, N-1 does not", ok)])
