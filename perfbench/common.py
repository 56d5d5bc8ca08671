"""Helpers shared by the workloads: package loading, timing, summaries."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import math
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 21


def fresh_import():
    """Import revbayes from the checkout as a new process would: every
    revbayes module already loaded is dropped first."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "revbayes" or m.startswith("revbayes.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("revbayes")
    # the workloads reach every module as pkg.<module>, whichever of them
    # the package's __init__ happens to import
    for sub in ("model", "meta", "ancred", "bf", "fpr", "statfn", "cli"):
        importlib.import_module("revbayes." + sub)
    return pkg


# The speed probe: a fixed piece of pure-Python work (float maths, calls,
# small strings), timed between the measured operations. The host shares
# its cores with other tenants and changes speed by up to 2x within
# seconds, which CPU time does not show (no steal is accounted). Every
# time metric is scaled by REF_S / (the probes around it), so it reads as
# time on a machine where the probe takes REF_S: the probe's time on a
# quiet 2-vCPU Xeon guest at 2.0 GHz with Python 3.11.
REF_S = 0.0025
PROBE_N = 8000
SAMPLE_S = 0.05   # probe interval inside one long operation (Speed.call)


def _probe_work() -> int:
    acc, n = 0.0, 0
    for i in range(1, PROBE_N + 1):
        x = i * 1e-3
        acc += math.exp(-x) * math.log1p(x) + math.sqrt(x)
        if i & 7 == 0:
            n += len(repr(acc))
    return n


def probe_s() -> float:
    """Seconds of the probe work, with the collector off so that the probe
    never pays for a collection of the program's heap."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _probe_work()
        return time.perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


class Speed:
    """Probes around the measured work. start() probes; factor() probes
    again and returns the scale for the time measured since the previous
    probe, ref over the mean of the two, and becomes the next start. The
    probe is probe_s unless the workload names another one with its own
    reference time."""

    def __init__(self, probe=probe_s, ref: float = REF_S, name: str = "speed probe"):
        self._probe, self._ref, self._name = probe, ref, name
        self.factors: list[float] = []
        self._last = probe()

    def start(self) -> None:
        self._last = self._probe()

    def factor(self) -> float:
        now = self._probe()
        k = 2.0 * self._ref / (self._last + now)
        self._last = now
        self.factors.append(k)
        return k

    def call(self, fn, *args):
        """(result, seconds, scale) of fn(*args), an operation too long for
        two probes around it to follow the machine's speed: the probe also
        runs every SAMPLE_S inside it, from a timer signal. seconds leaves
        out the probes' own time; scale is the reference over the mean of
        every probe, the two around the call included."""
        inner: list[float] = []

        def on_alarm(signum, frame):
            inner.append(self._probe())
        before = self._probe()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            took = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self._last = self._probe()
        k = self._ref / statistics.fmean(inner + [before, self._last])
        self.factors.append(k)
        return result, took - sum(inner), k

    def note(self) -> str:
        return (f"{self._name}: median scale {statistics.median(self.factors):.3f} over "
                f"{len(self.factors)} measured intervals (times are measured time x scale; reference "
                f"{self._ref * 1e3:g} ms)")


class Setup:
    """Set-up timing. make() is the program's part of set-up only (a fresh
    import and a warm-up operation; the workload makes its inputs before,
    outside the timer). It runs once before the measured operations and
    again at even steps through them (outside the measured operations), so
    the median of SETUP_REPEATS set-ups spans the run's changing contention
    instead of one moment of it. Each set-up is scaled by the probes
    around it."""

    def __init__(self, make, ops: int):
        self._make = make
        self._step = max(1, ops // SETUP_REPEATS)
        self.times: list[float] = []
        self.result = self._run()

    def _run(self):
        gc.collect()   # a new process has no garbage of the benchmark's to collect
        before = probe_s()
        t0 = time.perf_counter()
        result = self._make()
        took = time.perf_counter() - t0
        self.times.append(took * 2.0 * REF_S / (before + probe_s()))
        return result

    def tick(self, done: int) -> bool:
        """Call after `done` measured operations; runs a set-up when one is
        due and says whether it did."""
        if len(self.times) < SETUP_REPEATS and done >= self._step * len(self.times):
            self._run()
            return True
        return False

    def median_s(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._run()
        return statistics.median(self.times)


def run_cli(pkg, argv) -> tuple[int, str]:
    """In-process cli.run: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.run(list(argv))
    return rc, buf.getvalue()


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method) of a sample of at least two."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Result:
    """What a workload hands back to run.py."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0      # failures outside the known seed defects
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []   # human-readable lines: aliases, counts

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
