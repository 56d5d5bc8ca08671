"""cold-cli: one cold `revbayes.cli:main` process at a time over a fixed mix
of README subcommands, in a closed loop."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import inputs
from common import (OUT, ROOT, Result, Setup, Speed, fresh_import, peak_rss_mb,
                    percentile, run_cli)
from tracing import Tracer, layer_units, layer_values

# the declared console-script target, started the way the installed
# `revbayes` script would start it
ENTRY = "from revbayes.cli import main; main()"
ENV = dict(os.environ, PYTHONPATH="src")
ROUND_S = 2.0    # seconds per round of the mix that sizes a run (see rounds)
TAIL_PCT = 90
# Each cold process is scaled by bare-interpreter processes (`python -c
# pass`, which no change to the package can move) started just before and
# after it, not by common.probe_s: process start-up depends on the kernel
# and memory more than on the interpreter loop that probe_s measures, and
# the child need not run when and where the parent's probe did. BARE_S is
# a bare interpreter's time on a quiet 2-vCPU Xeon guest with Python 3.11.
BARE_S = 0.040
EXPECTED_RC = 0  # every subcommand of the mix succeeds
GRID = ("fpr", "--p", "0.005", "--fpr-equals-p", "--grid")


def _spawn(code: str, argv=()) -> tuple[int, int, bytes]:
    """(ns, exit code, stdout) of one child interpreter, waited for."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=ROOT, env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return time.perf_counter_ns() - t0, proc.returncode, out


def _bare_s() -> float:
    ns, rc, _ = _spawn("pass")
    if rc != 0:
        raise RuntimeError(f"a bare interpreter exited with {rc}")
    return ns / 1e9


def rounds(seconds: float) -> int:
    """A run's work is fixed by --seconds, not by the clock: one round of
    the mix per ROUND_S."""
    return max(1, round(seconds / ROUND_S))


def _setup(seed: int, n_rounds: int):
    def make():
        pkg = fresh_import()
        refs = {}
        for argv in inputs.COLD_MIX:
            rc, out = run_cli(pkg, ("--json",) + argv)
            refs[argv] = rc, out.encode("utf-8")
        return pkg, refs
    setup = Setup(make, n_rounds * len(inputs.COLD_MIX))
    pkg, refs = setup.result
    return pkg, refs, inputs.cold_order(seed, n_rounds), setup


def _ok(refs, argv, rc: int, out: str | bytes) -> bool:
    """Expected exit code, and stdout byte-identical to the in-process run."""
    if isinstance(out, str):
        out = out.encode("utf-8")
    return rc == EXPECTED_RC and (rc, out) == refs[argv]


def run(seed: int, seconds: float) -> Result:
    """rounds(seconds) rounds of the mix, one process at a time, each timed
    between two bare-interpreter probes and scaled by them; every process
    is checked. The latencies are the median and p90 over all processes."""
    pkg, refs, order, setup = _setup(seed, rounds(seconds))
    speed = Speed(_bare_s, BARE_S, "bare-interpreter probe")
    lat, raw = [], []
    good = 0
    for argv in order:
        speed.start()
        ns, rc, out = _spawn(ENTRY, ("--json",) + argv)
        raw.append(ns)
        lat.append(ns * speed.factor())
        good += _ok(refs, argv, rc, out)
        setup.tick(len(lat))
    attempted = len(lat)
    res = Result()
    res.attempted = attempted
    res.failed = res.unexpected = attempted - good
    p50, tail = statistics.median(lat), percentile(lat, TAIL_PCT)
    res.add("setup_s", setup.median_s(), "s")
    res.add("pass_ratio", good / attempted, "ratio")
    res.add("peak_rss_mb", peak_rss_mb(children=True), "MB")
    res.add("ok_items_per_s", good / (sum(lat) / 1e9), "1/s")
    res.add("op_p50_ms", p50 / 1e6, "ms")
    res.add("op_tail_ms", tail / 1e6, "ms")
    res.notes += [
        f"operation = one cold process; {attempted} processes, {attempted // len(inputs.COLD_MIX)} "
        f"rounds of {len(inputs.COLD_MIX)} subcommands; latencies over all processes",
        "ok_items_per_s = correct results per second of process time",
        f"cli_p50_ms  {p50 / 1e6:.1f}   cli_p{TAIL_PCT}_ms  {tail / 1e6:.1f}   (n = {attempted})",
        f"unscaled: cli_p50_ms  {statistics.median(raw) / 1e6:.1f}",
        speed.note(),
        f"fail_ratio  {res.failed / res.attempted:.4f}  ({res.failed} of {res.attempted})",
    ]
    return res


def run_traced(seed: int, seconds: float) -> Result:
    """Process layers (bare interpreter, `import revbayes`) from child
    processes, and the warm in-process mix with and without tracing, until
    rounds(seconds) times. Layer counts are per in-process CLI run."""
    n_rounds = rounds(seconds)
    pkg, refs, _, _ = _setup(seed, n_rounds)
    tracer = Tracer()
    mix = inputs.COLD_MIX
    bare, imp, plain_ns, traced_ns = [], [], [], []
    per_argv: dict[tuple, list[int]] = {argv: [] for argv in mix}
    values = None
    attempted = good = 0
    for _ in range(n_rounds):
        for code, sink in (("pass", bare), ("import revbayes", imp)):
            ns, rc, _ = _spawn(code)
            sink.append(ns)
            attempted += 1
            good += rc == 0
        tracer.reset()
        for traced in (len(plain_ns) % 2 == 1, len(plain_ns) % 2 == 0):
            if traced:
                tracer.patch_package(pkg)
            t0 = time.perf_counter_ns()
            for i, argv in enumerate(mix):
                span = tracer.root("cli.run", i) if traced else None
                t1 = time.perf_counter_ns()
                rc, out = run_cli(pkg, ("--json",) + argv)
                if traced:
                    tracer.finish(span)
                else:
                    per_argv[argv].append(time.perf_counter_ns() - t1)
                attempted += 1
                good += _ok(refs, argv, rc, out)
            (traced_ns if traced else plain_ns).append(time.perf_counter_ns() - t0)
            tracer.unpatch()
        if values is None:
            values = layer_values(tracer, len(mix))
            tracer.write(f"{OUT}/trace-cold-cli-{seed}.csv.gz")
    interpreter_ms = statistics.median(bare) / 1e6
    values["proc.interpreter_ms"] = interpreter_ms
    values["init.import_ms"] = statistics.median(imp) / 1e6 - interpreter_ms
    values["trace.overhead"] = sum(traced_ns) / sum(plain_ns)
    # warm in-process times from the untraced rounds, as medians
    medians = {argv: statistics.median(ns) / 1e6 for argv, ns in per_argv.items()}
    values["cli.run.ms"] = statistics.mean(medians.values())
    values["fpr.grid_ms"] = medians[GRID]
    res = Result()
    res.attempted = attempted
    res.failed = res.unexpected = attempted - good
    for name, unit in layer_units().items():
        res.add(name, values[name], unit)
    res.notes.append(f"traced: {len(bare)} bare and {len(imp)} import-only processes, "
                     f"{len(traced_ns)} traced and {len(plain_ns)} untraced in-process "
                     f"rounds of {len(mix)} subcommands")
    return res
