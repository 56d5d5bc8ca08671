"""meta-large: the in-process `revbayes --json meta <table>` report, each
time on a new generated counts-schema table, in a closed loop."""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time

import checks
import inputs
from common import OUT, Result, Setup, Speed, fresh_import, peak_rss_mb, percentile, run_cli
from tracing import Tracer, layer_units, layer_values

LOO_SAMPLE = 50
REPORT_S = 0.7   # seconds per report that sizes a run (see reports)
TAIL_PCT = 75    # a 15-s run holds 21 reports; p75 leaves five above it


def _table(seed: int, k: int):
    """Table k of the seed, written to disk: (rows, argv)."""
    rows = inputs.meta_rows(seed, k)
    path = f"{OUT}/meta-large-{seed}-{k}.csv"
    inputs.write_table(path, rows)
    return rows, ["--json", "meta", path]


def reports(seconds: float) -> int:
    """A run's work is fixed by --seconds, not by the clock: one report per
    REPORT_S, at least four."""
    return max(4, round(seconds / REPORT_S))


def _setup(seed: int, ops: int):
    """Set-up time is the program's: a fresh import and one warm-up report
    on the bundled table. Then one untimed report on table 0 warms the
    large-table path; the measured reports start at table 1."""
    def make():
        pkg = fresh_import()
        run_cli(pkg, ["--json", "meta", inputs.BUNDLED_TABLE])
        return pkg
    setup = Setup(make, ops)
    pkg = setup.result
    _, argv = _table(seed, 0)
    run_cli(pkg, argv)
    os.remove(argv[-1])
    return pkg, setup


def checkrun_cli(seed: int, rows, reference: tuple[int, str]) -> bool:
    """The report against math.fsum pools: the pooled estimate and a seeded
    sample of leave-one-out priors (always including the most precise study,
    where reverse updating cancels most)."""
    rc, text = reference
    if rc != 0:
        return False
    res = json.loads(text)["results"]
    per_study = res["per_study"]
    if res["n_studies"] != len(rows) or len(per_study) != len(rows):
        return False
    est = [checks.study_estimate(r[1], r[2], r[3], r[4]) for r in rows]
    thetas = [t for t, _ in est]
    precs = [k for _, k in est]
    mean, prec = checks.pooled(thetas, precs)
    if not (checks.close(res["pooled"]["log_or"], mean)
            and checks.close(res["pooled_precision"], prec)):
        return False
    rng = random.Random(f"meta-check-{seed}")
    sample = set(rng.sample(range(len(rows)), LOO_SAMPLE))
    sample.add(max(range(len(rows)), key=precs.__getitem__))
    for i in sorted(sample):
        row = per_study[i]
        loo_mean, loo_prec = checks.pooled(thetas, precs, skip=i)
        t_box = (thetas[i] - loo_mean) / (1.0 / precs[i] + 1.0 / loo_prec) ** 0.5
        loo = row["leave_one_out_prior"]
        if not (row["id"] == rows[i][0] and checks.close(loo["mean"], loo_mean)
                and checks.close(loo["precision"], loo_prec)
                and abs(row["t_box"] - t_box) <= checks.REL_TOL * (1.0 + abs(t_box))):
            return False
    return True


def run(seed: int, seconds: float) -> Result:
    """reports(seconds) reports, each on a new table of the seed, so no input
    is ever repeated. Before each report the table is made and written and
    the heap is collected (a report in its own process starts from a clean
    heap); the report is timed with speed probes around and inside it
    (Speed.call) and scaled by them.
    Each report is checked as soon as it returns, outside the measured
    time. The latencies are the median and p75 over the run's reports."""
    n = reports(seconds)
    pkg, setup = _setup(seed, n)
    speed = Speed()
    lat, raw = [], []
    good = 0
    rss = 0.0
    for k in range(1, n + 1):
        rows, argv = _table(seed, k)
        gc.collect()
        out, took, k = speed.call(run_cli, pkg, argv)
        raw.append(took * 1e9)
        lat.append(took * k * 1e9)
        rss = max(rss, peak_rss_mb())
        good += checkrun_cli(seed, rows, out)
        os.remove(argv[-1])
        del rows, out   # held into the next report, they would raise its peak memory
        setup.tick(k)
    studies = inputs.META_STUDIES
    p50, tail = statistics.median(lat), percentile(lat, TAIL_PCT)
    ok_per_s = studies * good / n / (p50 / 1e9)
    res = Result()
    res.attempted = n
    res.failed = res.unexpected = n - good
    res.add("setup_s", setup.median_s(), "s")
    res.add("pass_ratio", good / n, "ratio")
    res.add("peak_rss_mb", rss, "MB")
    res.add("ok_items_per_s", ok_per_s, "1/s")
    res.add("op_p50_ms", p50 / 1e6, "ms")
    res.add("op_tail_ms", tail / 1e6, "ms")
    res.notes += [
        f"operation = one --json meta report on a new table of {studies} studies; "
        f"{n} reports; p50 and p{TAIL_PCT} are over all of them",
        f"studies_per_s (studies x pass_ratio / median report)  {ok_per_s:.0f}",
        f"report p50 {p50 / 1e6:.1f} ms, p{TAIL_PCT} {tail / 1e6:.1f} ms, "
        f"fastest {min(lat) / 1e6:.1f} ms, slowest {max(lat) / 1e6:.1f} ms (n = {n})",
        f"unscaled: report p50 {statistics.median(raw) / 1e6:.1f} ms",
        speed.note(),
        f"fail_ratio  {res.failed / res.attempted:.4f}  ({res.failed} of {res.attempted})",
    ]
    return res


def run_traced(seed: int, seconds: float) -> Result:
    """Pairs of an untraced and a traced report on the same new table, in
    alternating order, reports(seconds) reports in all, half of them traced;
    layer metrics and spans come from the first traced report (table 1),
    counts per study."""
    pairs = max(1, reports(seconds) // 2)
    pkg, _ = _setup(seed, 2 * pairs)
    tracer = Tracer()
    plain_ns, traced_ns = [], []
    values = None
    res = Result()
    for pair in range(1, pairs + 1):
        rows, argv = _table(seed, pair)
        tracer.reset()
        outs = {}
        # alternate which of the pair goes first, so order effects cancel
        for traced in (len(plain_ns) % 2 == 1, len(plain_ns) % 2 == 0):
            gc.collect()
            if traced:
                tracer.patch_package(pkg)
                span = tracer.root("cli.run", len(traced_ns))
            t0 = time.perf_counter_ns()
            outs[traced] = run_cli(pkg, argv)
            (traced_ns if traced else plain_ns).append(time.perf_counter_ns() - t0)
            if traced:
                tracer.finish(span)
                tracer.unpatch()
        os.remove(argv[-1])
        # tracing must not change the report
        ok = outs[True] == outs[False] and checkrun_cli(seed, rows, outs[False])
        res.attempted += 2
        res.failed += 2 * (not ok)
        if values is None:
            values = layer_values(tracer, len(rows))
            tracer.write(f"{OUT}/trace-meta-large-{seed}.csv.gz")
    res.unexpected = res.failed
    values["trace.overhead"] = sum(traced_ns) / sum(plain_ns)
    values["cli.run.ms"] = statistics.median(plain_ns) / 1e6   # untraced, as on cold-cli
    for name, unit in layer_units().items():
        res.add(name, values[name], unit)
    res.notes.append(f"traced: {len(traced_ns)} traced and {len(plain_ns)} untraced reports, "
                     f"a new table of {len(rows)} studies for each pair; layer counts are per "
                     f"study")
    return res
